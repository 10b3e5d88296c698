"""Synthetic panel generator with configurable planted effects.

Panels serve as positive and null controls for the whole pipeline: wave-1
behaviors are drawn from a logistic model

    P(yes) = sigmoid(alpha + beta_demo . demographics
                     + beta_exposure * exposure_seconds / 100)

and wave-2 behaviors repeat wave 1 with probability ``wave_persistence``,
otherwise they are fresh draws from a second calibrated logistic. The
intercepts are found by bisection so the realized category marginals match
the configured ``base_rates`` over advert-matched rows. The logistic link
matches the learners' hypothesis class, which is what makes the positive
control achievable; a planted effect of a different functional form would
test something else.

Broadcast schedules put roughly 45% of advert starts in the 19:00-23:00
window and viewing sessions lean the same way, so exposure mass is
primetime-heavy and right-skewed across users. Per-user per-product totals
land in the 0-3,600 second range.

Everything is a pure function of the seed. The draw order is a documented
contract (changing it is a breaking change):

    1. one demographics index matrix for all users;
    2. one viewing-propensity vector for all users;
    3. per advert-matched product: day, slot-coin, minute, duration and
       channel arrays for its broadcasts;
    4. per user: day-coin, evening-coin, start, duration and channel arrays
       for its viewing sessions;
    5. per behavior (actual purchase first): wave-1 uniform, persistence
       coin and wave-2 uniform arrays over all (user, product) rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .data_model import (AGE_BRACKETS, INCOME_BRACKETS, MARITAL_STATUSES,
                         PARENTAL_STATUSES, SEXES, AdBroadcast, Catalog,
                         DemographicProfile, SurveyResponse, ViewingRecord,
                         _collector_paused)
from .exposure import compute_exposure
from .features import DEMOGRAPHIC_DIMS, encode_demographics
from .learners import sigmoid
from .targets import Behavior

WINDOW_START = datetime(2017, 1, 16)
WINDOW_DAYS = 58

_PRIMETIME_BROADCAST_SHARE = 0.45
_EVENING_SESSION_SHARE = 0.55


class CalibrationError(ValueError):
    """The requested marginals cannot be reached."""


def default_base_rates() -> dict[Behavior, tuple[float, float, float, float]]:
    """Category 0-3 marginals for advert-matched rows."""
    return {
        Behavior.ACTUAL_PURCHASE: (0.06, 0.76, 0.07, 0.10),
        Behavior.PURCHASE_INTENTION: (0.08, 0.58, 0.08, 0.26),
    }


@dataclass
class GenConfig:
    n_users: int = 300
    n_products: int = 10
    n_advert_matched: int = 6
    beta_exposure: float = 0.0  # log-odds per 100 s of exposure
    beta_demo: np.ndarray = field(default_factory=lambda: np.zeros(DEMOGRAPHIC_DIMS))
    base_rates: dict[Behavior, tuple[float, float, float, float]] = field(
        default_factory=default_base_rates)
    # None solves the persistence that hits the configured joint exactly.
    wave_persistence: dict[Behavior, float | None] = field(
        default_factory=lambda: {b: None for b in Behavior})
    seed: int = 0
    n_channels: int = 4
    broadcasts_per_day: int = 18
    session_minutes: tuple[int, int] = (60, 300)
    advert_durations: tuple[int, ...] = (15, 30, 45, 60)

    def __post_init__(self):
        self.beta_demo = np.asarray(self.beta_demo, dtype=np.float64)
        if self.beta_demo.shape != (DEMOGRAPHIC_DIMS,):
            raise CalibrationError(
                f"beta_demo must have {DEMOGRAPHIC_DIMS} dims, got {self.beta_demo.shape}")
        if not 0 < self.n_advert_matched <= self.n_products:
            raise CalibrationError("need 0 < n_advert_matched <= n_products")
        for behavior, rates in self.base_rates.items():
            if len(rates) != 4 or min(rates) < 0 or sum(rates) <= 0:
                raise CalibrationError(f"bad base rates for {behavior.value}")

    @classmethod
    def from_dict(cls, doc: dict) -> "GenConfig":
        doc = dict(doc)
        if "beta_demo" in doc:
            raw = doc["beta_demo"]
            if isinstance(raw, (int, float)):
                # A constant vector over one-hot groups is pure intercept;
                # alternate signs so a scalar actually plants variation.
                vec = np.array([raw if i % 2 == 0 else -raw
                                for i in range(DEMOGRAPHIC_DIMS)])
            else:
                vec = np.asarray(raw, dtype=np.float64)
            doc["beta_demo"] = vec
        if "base_rates" in doc:
            doc["base_rates"] = {Behavior(k): tuple(v)
                                 for k, v in doc["base_rates"].items()}
        if "wave_persistence" in doc:
            raw = doc["wave_persistence"]
            if raw is None or isinstance(raw, (int, float)):
                doc["wave_persistence"] = {b: raw for b in Behavior}
            else:
                doc["wave_persistence"] = {Behavior(k): v for k, v in raw.items()}
        if "session_minutes" in doc:
            doc["session_minutes"] = tuple(doc["session_minutes"])
        if "advert_durations" in doc:
            doc["advert_durations"] = tuple(doc["advert_durations"])
        return cls(**doc)


def _normalized_rates(rates) -> tuple[float, float, float, float]:
    total = sum(rates)
    return tuple(r / total for r in rates)


def solve_intercept(scores: np.ndarray, target: float,
                    max_steps: int = 100) -> float:
    """Bisection for alpha with mean(sigmoid(alpha + scores)) = target.

    The mean is monotone in alpha, so bisection converges; failure to land
    within half a point of the target after ``max_steps`` raises.
    """
    if not 0.0 < target < 1.0:
        raise CalibrationError(f"target rate must be in (0, 1), got {target}")
    lo, hi = -60.0, 60.0
    for _ in range(max_steps):
        mid = (lo + hi) / 2.0
        if float(sigmoid(mid + scores).mean()) < target:
            lo = mid
        else:
            hi = mid
    alpha = (lo + hi) / 2.0
    if abs(float(sigmoid(alpha + scores).mean()) - target) > 0.005:
        raise CalibrationError(
            f"intercept search did not converge to rate {target:.4f}")
    return alpha


def _persistence_for(behavior: Behavior, config: GenConfig,
                     rates: tuple[float, float, float, float]) -> float:
    configured = config.wave_persistence.get(behavior)
    f0, _, f2, f3 = rates
    r1 = f0 + f3
    r2 = f2 + f3
    if configured is None:
        if r1 <= 0 or r1 >= 1:
            raise CalibrationError(
                f"cannot solve persistence for {behavior.value}: wave-1 rate {r1:.3f}")
        # From f3 = r1 * (rho + (1 - rho) * q2) with q2 = (r2 - rho*r1)/(1 - rho).
        rho = (f3 / r1 - r2) / (1.0 - r1)
    else:
        rho = float(configured)
    if not 0.0 <= rho < 1.0:
        raise CalibrationError(
            f"infeasible persistence {rho:.3f} for {behavior.value}")
    q2 = (r2 - rho * r1) / (1.0 - rho)
    if not 0.0 < q2 < 1.0:
        raise CalibrationError(
            f"infeasible wave-2 fresh rate {q2:.3f} for {behavior.value}")
    return rho


def _structure(config: GenConfig, rng: np.random.Generator):
    """Draw steps 1-4: users, products, broadcasts and viewing sessions."""
    user_ids = [f"u{i:04d}" for i in range(1, config.n_users + 1)]
    product_ids = [f"p{i:03d}" for i in range(1, config.n_products + 1)]
    matched = product_ids[:config.n_advert_matched]
    channels = [f"ch{i}" for i in range(1, config.n_channels + 1)]

    demo_idx = rng.integers(0, [len(AGE_BRACKETS), len(SEXES), len(MARITAL_STATUSES),
                                len(PARENTAL_STATUSES), len(INCOME_BRACKETS)],
                            size=(config.n_users, 5))
    users = [DemographicProfile(
        user_id=user_ids[i],
        age_bracket=AGE_BRACKETS[demo_idx[i, 0]],
        sex=SEXES[demo_idx[i, 1]],
        marital_status=MARITAL_STATUSES[demo_idx[i, 2]],
        parental_status=PARENTAL_STATUSES[demo_idx[i, 3]],
        income_bracket=INCOME_BRACKETS[demo_idx[i, 4]],
    ) for i in range(config.n_users)]

    propensity = rng.uniform(0.15, 0.95, config.n_users)

    broadcasts: list[AdBroadcast] = []
    per_product = config.broadcasts_per_day * WINDOW_DAYS
    durations = np.array(config.advert_durations)
    for product_id in matched:
        days = rng.integers(0, WINDOW_DAYS, per_product)
        slot_coins = rng.random(per_product)
        minute_units = rng.random(per_product)
        duration_idx = rng.integers(0, len(durations), per_product)
        channel_idx = rng.integers(0, len(channels), per_product)
        for i in range(per_product):
            if slot_coins[i] < _PRIMETIME_BROADCAST_SHARE:
                minute = 19 * 60 + int(minute_units[i] * 240)
            else:
                unit = int(minute_units[i] * 1200)
                minute = unit if unit < 19 * 60 else unit + 240
            start = WINDOW_START + timedelta(days=int(days[i]), minutes=minute)
            broadcasts.append(AdBroadcast(
                product_id=product_id, start=start,
                duration_s=int(durations[duration_idx[i]]),
                channel=channels[channel_idx[i]]))

    viewing: list[ViewingRecord] = []
    min_minutes, max_minutes = config.session_minutes
    for i, user_id in enumerate(user_ids):
        day_coins = rng.random(WINDOW_DAYS)
        evening_coins = rng.random(WINDOW_DAYS)
        start_units = rng.random(WINDOW_DAYS)
        duration_units = rng.random(WINDOW_DAYS)
        channel_idx = rng.integers(0, len(channels), WINDOW_DAYS)
        for day in range(WINDOW_DAYS):
            if day_coins[day] >= propensity[i]:
                continue
            if evening_coins[day] < _EVENING_SESSION_SHARE:
                start_minute = 18 * 60 + int(start_units[day] * 240)
            else:
                start_minute = 6 * 60 + int(start_units[day] * (17 * 60))
            minutes = min_minutes + int(duration_units[day] * (max_minutes - min_minutes))
            minutes = min(minutes, 24 * 60 - start_minute)  # never cross midnight
            viewing.append(ViewingRecord(
                user_id=user_id,
                start=WINDOW_START + timedelta(days=day, minutes=start_minute),
                duration_s=minutes * 60,
                channel=channels[channel_idx[day]]))

    return user_ids, product_ids, matched, users, broadcasts, viewing


def _scored_structure(config: GenConfig):
    """Draw steps 1-4 for the configured seed and score every row.

    Returns the generator (positioned for step 5), the drawn users, products,
    broadcasts and viewing, the sorted (user, product) rows, their logistic
    scores without intercept and the mask of advert-matched rows.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    user_ids, product_ids, matched, users, broadcasts, viewing = _structure(config, rng)
    exposure = compute_exposure(viewing, broadcasts)
    user_ids, sorted_products = sorted(user_ids), sorted(product_ids)
    pair_seconds = np.zeros((len(user_ids), len(sorted_products)), dtype=np.int64)
    pair_seconds[np.ix_(np.searchsorted(user_ids, exposure.user_ids),
                        np.searchsorted(sorted_products, exposure.product_ids))] = \
        exposure.seconds.sum(axis=(2, 3))
    profiles = {u.user_id: u for u in users}
    demo_effect = np.array([float(config.beta_demo @ encode_demographics(profiles[uid]))
                            for uid in user_ids])
    scores = demo_effect[:, None] + config.beta_exposure * pair_seconds / 100.0
    rows = [(u, p) for u in user_ids for p in sorted_products]
    matched_mask = np.tile(np.isin(sorted_products, matched), len(user_ids))
    return (rng, (users, product_ids, broadcasts, viewing), rows, scores.ravel(),
            matched_mask)


@_collector_paused()
def generate_panel(config: GenConfig) -> Catalog:
    """Generate a complete catalog; deterministic for a given seed.

    Automatic cyclic garbage collection is paused while the records are
    built, as in ``data_model.parse_catalog``.
    """
    rng, (users, product_ids, broadcasts, viewing), rows, scores, matched_mask = \
        _scored_structure(config)

    answers: dict[Behavior, tuple[np.ndarray, np.ndarray]] = {}
    for behavior in (Behavior.ACTUAL_PURCHASE, Behavior.PURCHASE_INTENTION):
        rates = _normalized_rates(config.base_rates[behavior])
        f0, _, f2, f3 = rates
        r1 = f0 + f3
        r2 = f2 + f3
        rho = _persistence_for(behavior, config, rates)
        q2 = (r2 - rho * r1) / (1.0 - rho)
        calib_scores = scores[matched_mask]
        alpha1 = solve_intercept(calib_scores, r1)
        alpha2 = solve_intercept(calib_scores, q2)

        p1 = sigmoid(alpha1 + scores)
        p2 = sigmoid(alpha2 + scores)
        jan_units = rng.random(len(rows))
        persist_coins = rng.random(len(rows))
        mar_units = rng.random(len(rows))
        jan = jan_units < p1
        mar = np.where(persist_coins < rho, jan, mar_units < p2)
        answers[behavior] = (jan, mar)

    ap_jan, ap_mar = answers[Behavior.ACTUAL_PURCHASE]
    pi_jan, pi_mar = answers[Behavior.PURCHASE_INTENTION]
    responses = [
        SurveyResponse(user_id=u, product_id=p,
                       pi_jan=bool(pi_jan[i]), pi_mar=bool(pi_mar[i]),
                       ap_jan=bool(ap_jan[i]), ap_mar=bool(ap_mar[i]))
        for i, (u, p) in enumerate(rows)
    ]
    return Catalog.build(users, product_ids, responses, viewing, broadcasts)


def calibrate_intercept(config: GenConfig, target_rate: float | None = None,
                        behavior: Behavior = Behavior.ACTUAL_PURCHASE) -> float:
    """Wave-1 intercept the generator would use for ``behavior``.

    Replays draw steps 1-4 for the configured seed, then bisects the
    intercept over the advert-matched rows. The default target is the
    behavior's configured wave-1 positive rate.
    """
    _, _, _, scores, matched_mask = _scored_structure(config)
    if target_rate is None:
        f0, _, _, f3 = _normalized_rates(config.base_rates[behavior])
        target_rate = f0 + f3
    return solve_intercept(scores[matched_mask], target_rate)
