"""Feature-matrix assembly for every input configuration and model base.

Matrices are dense float64 with one row per (user, product) pair implied by
the model base: product-based models take one row per user for a fixed
product, user-based models one row per advert-matched product for a fixed
user. Rows are sorted by (user_id, product_id). Every matrix is a slice of
one ``Panel``, the dense layout of the catalog built once per run.

Exposure blocks are raw accumulated seconds, either 7 weekday sums or 14
weekday-by-slot cells. Demographics are one-hot encoded in fixed listing
order (5 + 2 + 3 + 2 + 13 = 25 dims). When enabled for an actual-purchase
target, one extra binary feature carries the January purchase-intention
answer; it is never available when purchase intention itself is the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .data_model import (AGE_BRACKETS, INCOME_BRACKETS, MARITAL_STATUSES,
                         PARENTAL_STATUSES, SEXES, Catalog, DemographicProfile)
from .exposure import SLOT_NAMES, ExposureMatrix
from .targets import Behavior

WEEKDAY_NAMES = ("monday", "tuesday", "wednesday", "thursday", "friday",
                 "saturday", "sunday")

PI_FEATURE_NAME = "purchase_intention_jan"


class InputKind(Enum):
    VIEW_WEEKDAY_SLOT = "view_weekday_slot"
    VIEW_WEEKDAY = "view_weekday"
    DEMOGRAPHICS = "demographics"
    VIEW_WEEKDAY_SLOT_DEMO = "view_weekday_slot_demo"
    VIEW_WEEKDAY_DEMO = "view_weekday_demo"

    @property
    def has_viewing(self) -> bool:
        return self is not InputKind.DEMOGRAPHICS

    @property
    def has_demographics(self) -> bool:
        return self in (InputKind.DEMOGRAPHICS, InputKind.VIEW_WEEKDAY_SLOT_DEMO,
                        InputKind.VIEW_WEEKDAY_DEMO)

    @property
    def uses_slots(self) -> bool:
        return self in (InputKind.VIEW_WEEKDAY_SLOT, InputKind.VIEW_WEEKDAY_SLOT_DEMO)


# Column order of the reported average tables.
INPUT_KIND_ORDER = (
    InputKind.VIEW_WEEKDAY_SLOT,
    InputKind.VIEW_WEEKDAY,
    InputKind.DEMOGRAPHICS,
    InputKind.VIEW_WEEKDAY_SLOT_DEMO,
    InputKind.VIEW_WEEKDAY_DEMO,
)


class FeatureError(ValueError):
    """Invalid feature-matrix request."""


@dataclass(frozen=True)
class InputConfig:
    kind: InputKind
    include_pi_feature: bool = False

    def __post_init__(self):
        if self.include_pi_feature and not self.kind.has_demographics:
            raise FeatureError(
                "the purchase-intention feature requires a demographics block"
            )

    @property
    def name(self) -> str:
        return self.kind.value + ("+pi" if self.include_pi_feature else "")


class BaseKind(Enum):
    PRODUCT_BASED = "product"
    USER_BASED = "user"


@dataclass(frozen=True)
class ModelBase:
    kind: BaseKind
    base_id: str


@dataclass
class FeatureMatrix:
    values: np.ndarray
    row_keys: list[tuple[str, str]]
    feature_names: list[str]

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]


def _demographic_feature_names() -> list[str]:
    names = [f"age_{i}" for i in range(len(AGE_BRACKETS))]
    names += [f"sex_{i}" for i in range(len(SEXES))]
    names += [f"marital_{i}" for i in range(len(MARITAL_STATUSES))]
    names += [f"parental_{i}" for i in range(len(PARENTAL_STATUSES))]
    names += [f"income_{i}" for i in range(len(INCOME_BRACKETS))]
    return names


DEMOGRAPHIC_FEATURE_NAMES = _demographic_feature_names()
DEMOGRAPHIC_DIMS = len(DEMOGRAPHIC_FEATURE_NAMES)


def encode_demographics(profile: DemographicProfile) -> np.ndarray:
    """One-hot vector of 5+2+3+2+13 = 25 dims, groups in listing order."""
    vec = np.zeros(DEMOGRAPHIC_DIMS, dtype=np.float64)
    offset = 0
    for value, allowed in (
        (profile.age_bracket, AGE_BRACKETS),
        (profile.sex, SEXES),
        (profile.marital_status, MARITAL_STATUSES),
        (profile.parental_status, PARENTAL_STATUSES),
        (profile.income_bracket, INCOME_BRACKETS),
    ):
        vec[offset + allowed.index(value)] = 1.0
        offset += len(allowed)
    return vec


def exposure_feature_names(uses_slots: bool) -> list[str]:
    if uses_slots:
        return [f"{day}_{slot}" for day in WEEKDAY_NAMES for slot in SLOT_NAMES]
    return list(WEEKDAY_NAMES)


@dataclass(frozen=True)
class Panel:
    """Dense arrays of one catalog and its exposure join, built once per run.

    The user axis is ``user_ids`` and the product axis the advert-matched
    ``product_ids``, both sorted, so the rows of any model base come out in
    (user_id, product_id) order.

    ``E[user, product, weekday, slot]`` holds exposure seconds (slots in
    ``exposure.SLOT_NAMES`` order), ``D[user]`` the one-hot demographics and
    ``S[user, product]`` the survey answers pi_jan, pi_mar, ap_jan, ap_mar.
    """

    user_ids: tuple[str, ...]
    product_ids: tuple[str, ...]
    E: np.ndarray
    D: np.ndarray
    S: np.ndarray

    @classmethod
    def build(cls, catalog: Catalog, exposure: ExposureMatrix) -> "Panel":
        user_ids = catalog.user_ids
        product_ids = catalog.advert_matched_products
        n_users = len(user_ids)
        user_index = {u: i for i, u in enumerate(user_ids)}
        viewers = [user_index.get(u) for u in exposure.user_ids]
        if exposure.product_ids != product_ids or None in viewers:
            raise FeatureError("exposure axes do not fit the catalog's users "
                               "and advert-matched products")

        # Users without viewing rows keep zero rows; int seconds are exact
        # in float64.
        E = np.zeros((n_users, *exposure.seconds.shape[1:]), dtype=np.float64)
        E[np.array(viewers, dtype=np.intp)] = exposure.seconds

        D = np.array([encode_demographics(u) for u in catalog.users],
                     dtype=np.float64).reshape(n_users, DEMOGRAPHIC_DIMS)

        # Survey rows are sorted by (user, product) and cover every pair.
        answers = np.fromiter(
            (a for r in catalog.responses
             for a in (r.pi_jan, r.pi_mar, r.ap_jan, r.ap_mar)),
            dtype=bool, count=4 * len(catalog.responses))
        matched = [catalog.products.index(p) for p in product_ids]
        S = answers.reshape(n_users, len(catalog.products), 4)[:, matched]
        return cls(user_ids, product_ids, E, D, S)

    def rows(self, base: ModelBase) -> tuple[np.ndarray, np.ndarray]:
        """User and product indices of the base's rows, in row order."""
        if base.kind is BaseKind.PRODUCT_BASED:
            if base.base_id not in self.product_ids:
                raise FeatureError(f"unknown or unmatched product base {base.base_id!r}")
            users = np.arange(len(self.user_ids))
            return users, np.full_like(users, self.product_ids.index(base.base_id))
        if base.base_id not in self.user_ids:
            raise FeatureError(f"unknown user base {base.base_id!r}")
        products = np.arange(len(self.product_ids))
        return np.full_like(products, self.user_ids.index(base.base_id)), products

    def waves(self, base: ModelBase, behavior: Behavior) -> tuple[np.ndarray, np.ndarray]:
        """January and March answers for ``behavior`` on the base's rows."""
        users, products = self.rows(base)
        first = 2 if behavior is Behavior.ACTUAL_PURCHASE else 0
        answers = self.S[users, products]
        return answers[:, first], answers[:, first + 1]


def build_matrix(panel: Panel, base: ModelBase, config: InputConfig,
                 target_behavior: Behavior) -> FeatureMatrix:
    """Assemble the feature matrix for one base, configuration and target."""
    if config.include_pi_feature and target_behavior is Behavior.PURCHASE_INTENTION:
        raise FeatureError(
            "purchase-intention feature requested while predicting purchase intention"
        )
    users, products = panel.rows(base)

    names: list[str] = []
    blocks: list[np.ndarray] = []
    if config.kind.has_viewing:
        exposure = panel.E[users, products]
        if config.kind.uses_slots:
            blocks.append(exposure.reshape(len(users), 14))
        else:
            blocks.append(exposure.sum(axis=2))
        names += exposure_feature_names(config.kind.uses_slots)
    if config.kind.has_demographics:
        blocks.append(panel.D[users])
        names += DEMOGRAPHIC_FEATURE_NAMES
    if config.include_pi_feature:
        blocks.append(panel.S[users, products, :1].astype(np.float64))
        names.append(PI_FEATURE_NAME)

    row_keys = [(panel.user_ids[u], panel.product_ids[p])
                for u, p in zip(users.tolist(), products.tolist())]
    return FeatureMatrix(values=np.hstack(blocks), row_keys=row_keys,
                         feature_names=names)
