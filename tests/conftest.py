import gc
import sys
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from adpredict.data_model import (AGE_BRACKETS, INCOME_BRACKETS,  # noqa: E402
                                  MARITAL_STATUSES, PARENTAL_STATUSES, SEXES,
                                  AdBroadcast, Catalog, DemographicProfile,
                                  SurveyResponse, ViewingRecord)
from adpredict import runner  # noqa: E402
from adpredict.features import InputKind  # noqa: E402
from adpredict.synthgen import GenConfig, generate_panel  # noqa: E402


def random_catalog(rng: np.random.Generator, n_users=4, n_products=3,
                   n_broadcast_products=2, n_viewing=10, n_broadcasts=6) -> Catalog:
    """Small random catalog that satisfies every invariant by construction."""
    n_broadcast_products = min(n_broadcast_products, n_products)
    users = []
    for i in range(n_users):
        users.append(DemographicProfile(
            user_id=f"u{i:03d}",
            age_bracket=AGE_BRACKETS[rng.integers(len(AGE_BRACKETS))],
            sex=SEXES[rng.integers(len(SEXES))],
            marital_status=MARITAL_STATUSES[rng.integers(len(MARITAL_STATUSES))],
            parental_status=PARENTAL_STATUSES[rng.integers(len(PARENTAL_STATUSES))],
            income_bracket=INCOME_BRACKETS[rng.integers(len(INCOME_BRACKETS))],
        ))
    products = [f"p{i:02d}" for i in range(n_products)]

    responses = [
        SurveyResponse(u.user_id, p, *(bool(rng.integers(2)) for _ in range(4)))
        for u in users for p in products
    ]

    base = datetime(2017, 1, 20)
    viewing = []
    for i in range(n_viewing):
        user = users[int(rng.integers(n_users))]
        # Per-user non-overlap: each record gets its own day.
        start = base + timedelta(days=i, minutes=int(rng.integers(0, 1200)))
        viewing.append(ViewingRecord(
            user_id=user.user_id, start=start,
            duration_s=int(rng.integers(0, 7200)),
            channel=f"ch{rng.integers(3)}"))

    broadcasts = []
    for i in range(n_broadcasts):
        start = base + timedelta(days=int(rng.integers(0, max(1, n_viewing))),
                                 minutes=int(rng.integers(0, 1430)))
        broadcasts.append(AdBroadcast(
            product_id=products[int(rng.integers(n_broadcast_products))],
            start=start, duration_s=int(rng.integers(15, 90)),
            channel=f"ch{rng.integers(3)}"))

    return Catalog.build(users, products, responses, viewing, broadcasts)


@pytest.fixture
def tiny_catalog() -> Catalog:
    """Two users, two products, one broadcast; exposure is easy to hand-check."""
    users = [
        DemographicProfile("u001", AGE_BRACKETS[0], SEXES[0], MARITAL_STATUSES[0],
                           PARENTAL_STATUSES[0], INCOME_BRACKETS[0]),
        DemographicProfile("u002", AGE_BRACKETS[2], SEXES[1], MARITAL_STATUSES[1],
                           PARENTAL_STATUSES[1], INCOME_BRACKETS[5]),
    ]
    products = ["p01", "p02"]
    responses = [
        SurveyResponse("u001", "p01", True, False, True, False),
        SurveyResponse("u001", "p02", False, False, False, True),
        SurveyResponse("u002", "p01", False, True, True, True),
        SurveyResponse("u002", "p02", True, True, False, False),
    ]
    viewing = [
        ViewingRecord("u001", datetime(2017, 1, 23, 20, 0), 3600, "ch1"),
        ViewingRecord("u002", datetime(2017, 1, 23, 18, 50), 1200, "ch1"),
    ]
    broadcasts = [
        AdBroadcast("p01", datetime(2017, 1, 23, 20, 30), 15, "ch1"),
    ]
    return Catalog.build(users, products, responses, viewing, broadcasts)


@pytest.fixture
def collections():
    """For each cyclic collection that starts during the test, the code
    objects of the frames that were running when it started."""
    started = []

    def record(phase, info):
        if phase == "start":
            codes, frame = set(), sys._getframe(1)
            while frame is not None:
                codes.add(frame.f_code)
                frame = frame.f_back
            started.append(codes)

    gc.callbacks.append(record)
    try:
        yield started
    finally:
        gc.callbacks.remove(record)


ORACLE_SEED = 6


@pytest.fixture(scope="session")
def oracle_store(tmp_path_factory) -> Path:
    """A small complete store with all three models, product and user bases,
    both intent-feature states and one failure row."""
    catalog = generate_panel(GenConfig(n_users=10, n_products=3, n_advert_matched=2,
                                       seed=9, broadcasts_per_day=3))
    matrix = runner.MatrixConfig(
        users=catalog.user_ids[:3],
        configs=(InputKind.VIEW_WEEKDAY, InputKind.DEMOGRAPHICS,
                 InputKind.VIEW_WEEKDAY_DEMO),
        categories=(1,), k=2)
    specs = runner.enumerate_experiments(catalog, matrix)
    doomed = runner.spec_seed(ORACLE_SEED, specs[len(specs) // 2].spec_id)
    cross_validate = runner.cross_validate

    def fail_once(X, y, kind, params, k, seed):
        if seed == doomed:
            raise RuntimeError("planted failure")
        return cross_validate(X, y, kind, params, k, seed)

    store = tmp_path_factory.mktemp("oracle") / "store"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "cross_validate", fail_once)
        runner.run_matrix(catalog, matrix, store, global_seed=ORACLE_SEED)
    return store
