import numpy as np
import pytest

from adpredict.data_model import (AGE_BRACKETS, INCOME_BRACKETS, MARITAL_STATUSES,
                                  PARENTAL_STATUSES, SEXES, DemographicProfile)
from adpredict.exposure import ExposureMatrix, compute_exposure
from adpredict.features import (BaseKind, FeatureError, InputConfig, InputKind,
                                ModelBase, Panel, build_matrix, encode_demographics,
                                DEMOGRAPHIC_DIMS)
from adpredict.targets import Behavior
from conftest import random_catalog


def _profile(age=0, sex=0, marital=0, parental=0, income=0, user="u1"):
    return DemographicProfile(user, AGE_BRACKETS[age], SEXES[sex],
                              MARITAL_STATUSES[marital], PARENTAL_STATUSES[parental],
                              INCOME_BRACKETS[income])


def test_one_hot_first_answers():
    vec = encode_demographics(_profile())
    assert vec.shape == (25,)
    assert set(np.flatnonzero(vec)) == {0, 5, 7, 10, 12}
    assert vec.sum() == 5.0


def test_one_hot_differs_only_in_sex_block():
    a = encode_demographics(_profile(sex=0))
    b = encode_demographics(_profile(sex=1))
    diff = np.flatnonzero(a != b)
    assert set(diff) == {5, 6}  # the 2-dim sex block


def test_one_hot_group_sums_over_population():
    rng = np.random.default_rng(17)
    total = np.zeros(DEMOGRAPHIC_DIMS)
    for i in range(100):
        total += encode_demographics(_profile(
            age=int(rng.integers(5)), sex=int(rng.integers(2)),
            marital=int(rng.integers(3)), parental=int(rng.integers(2)),
            income=int(rng.integers(13)), user=f"u{i}"))
    bounds = [0, 5, 7, 10, 12, 25]
    for lo, hi in zip(bounds, bounds[1:]):
        assert total[lo:hi].sum() == 100.0


def test_pi_feature_requires_demographics():
    with pytest.raises(FeatureError):
        InputConfig(InputKind.VIEW_WEEKDAY, include_pi_feature=True)


def _panel(catalog, exposure=None) -> Panel:
    if exposure is None:
        exposure = compute_exposure(list(catalog.viewing), list(catalog.broadcasts))
    return Panel.build(catalog, exposure)


def _row_keys(panel, base) -> list[tuple[str, str]]:
    """The (user, product) ids of a base's rows, in row order."""
    users, products = panel.rows(base)
    return [(panel.user_ids[u], panel.product_ids[p])
            for u, p in zip(users.tolist(), products.tolist())]


def _oracle_row(catalog, exposure, user_id, product_id, config):
    """One feature row assembled cell by cell from the sparse join."""
    row = []
    if config.kind.has_viewing:
        for weekday in range(7):
            slots = [exposure.cells.get((user_id, product_id, weekday, slot), 0)
                     for slot in ("primetime", "non_primetime")]
            row += slots if config.kind.uses_slots else [sum(slots)]
    if config.kind.has_demographics:
        profile = next(u for u in catalog.users if u.user_id == user_id)
        row += encode_demographics(profile).tolist()
    if config.include_pi_feature:
        response = next(r for r in catalog.responses
                        if (r.user_id, r.product_id) == (user_id, product_id))
        row.append(1.0 if response.pi_jan else 0.0)
    return row


def test_slices_match_per_row_oracle():
    rng = np.random.default_rng(29)
    configs = [InputConfig(kind) for kind in InputKind] + [
        InputConfig(kind, include_pi_feature=True)
        for kind in InputKind if kind.has_demographics]
    for _ in range(6):
        catalog = random_catalog(rng, n_users=4, n_products=4, n_viewing=14,
                                 n_broadcasts=10)
        exposure = compute_exposure(list(catalog.viewing), list(catalog.broadcasts))
        panel = Panel.build(catalog, exposure)
        bases = ([ModelBase(BaseKind.PRODUCT_BASED, p)
                  for p in catalog.advert_matched_products]
                 + [ModelBase(BaseKind.USER_BASED, u) for u in catalog.user_ids])
        for base in bases:
            if base.kind is BaseKind.PRODUCT_BASED:
                keys = [(u, base.base_id) for u in catalog.user_ids]
            else:
                keys = [(base.base_id, p) for p in catalog.advert_matched_products]
            assert _row_keys(panel, base) == keys
            for config in configs:
                X = build_matrix(panel, base, config, Behavior.ACTUAL_PURCHASE)
                assert X.tolist() == [
                    _oracle_row(catalog, exposure, u, p, config) for u, p in keys]
            responses = {(r.user_id, r.product_id): r for r in catalog.responses}
            jan, mar = panel.waves(base, Behavior.PURCHASE_INTENTION)
            assert jan.tolist() == [responses[key].pi_jan for key in keys]
            assert mar.tolist() == [responses[key].pi_mar for key in keys]


def test_dims_per_configuration(tiny_catalog):
    panel = _panel(tiny_catalog)
    base = ModelBase(BaseKind.PRODUCT_BASED, "p01")
    expected = {
        InputKind.VIEW_WEEKDAY: 7,
        InputKind.VIEW_WEEKDAY_SLOT: 14,
        InputKind.DEMOGRAPHICS: 25,
        InputKind.VIEW_WEEKDAY_DEMO: 32,
        InputKind.VIEW_WEEKDAY_SLOT_DEMO: 39,
    }
    for kind, dims in expected.items():
        X = build_matrix(panel, base, InputConfig(kind), Behavior.ACTUAL_PURCHASE)
        assert X.shape == (2, dims)
        assert X.dtype == np.float64
    kind = InputKind.VIEW_WEEKDAY_SLOT_DEMO
    with_pi = build_matrix(panel, base, InputConfig(kind, include_pi_feature=True),
                           Behavior.ACTUAL_PURCHASE)
    assert with_pi.shape == (2, 40)
    # The purchase-intention column comes last, after the 39 of its kind.
    without = build_matrix(panel, base, InputConfig(kind), Behavior.ACTUAL_PURCHASE)
    assert np.array_equal(with_pi[:, :-1], without)


def test_pi_feature_blocked_for_pi_target(tiny_catalog):
    with pytest.raises(FeatureError, match="predicting purchase intention"):
        build_matrix(_panel(tiny_catalog), ModelBase(BaseKind.PRODUCT_BASED, "p01"),
                     InputConfig(InputKind.DEMOGRAPHICS, include_pi_feature=True),
                     Behavior.PURCHASE_INTENTION)


def test_pi_feature_value_is_january_wave(tiny_catalog):
    panel = _panel(tiny_catalog)
    base = ModelBase(BaseKind.PRODUCT_BASED, "p01")
    X = build_matrix(panel, base,
                     InputConfig(InputKind.DEMOGRAPHICS, include_pi_feature=True),
                     Behavior.ACTUAL_PURCHASE)
    # pi_jan for (u001, p01) is True, for (u002, p01) is False.
    assert _row_keys(panel, base) == [("u001", "p01"), ("u002", "p01")]
    assert X[0, -1] == 1.0
    assert X[1, -1] == 0.0


def test_unknown_base_rejected(tiny_catalog):
    panel = _panel(tiny_catalog)
    with pytest.raises(FeatureError, match="unmatched product"):
        build_matrix(panel, ModelBase(BaseKind.PRODUCT_BASED, "p02"),
                     InputConfig(InputKind.VIEW_WEEKDAY), Behavior.ACTUAL_PURCHASE)
    with pytest.raises(FeatureError, match="unknown user"):
        build_matrix(panel, ModelBase(BaseKind.USER_BASED, "u999"),
                     InputConfig(InputKind.VIEW_WEEKDAY), Behavior.ACTUAL_PURCHASE)


def test_exposure_axes_must_fit_catalog(tiny_catalog):
    # A user outside the catalog, a product axis that is not the catalog's
    # advert-matched products, and one with an unmatched product too many.
    for users, products in ((("u001", "u999"), ("p01",)),
                            (("u001", "u002"), ("p02",)),
                            (("u001", "u002"), ("p01", "p02"))):
        seconds = np.zeros((len(users), len(products), 7, 2), dtype=np.int64)
        with pytest.raises(FeatureError, match="exposure axes"):
            Panel.build(tiny_catalog, ExposureMatrix(users, products, seconds))


def test_product_base_exposure_rows(tiny_catalog):
    X = build_matrix(_panel(tiny_catalog), ModelBase(BaseKind.PRODUCT_BASED, "p01"),
                     InputConfig(InputKind.VIEW_WEEKDAY_SLOT),
                     Behavior.ACTUAL_PURCHASE)
    # Monday primetime column is index 0; u001 saw the full 15 s advert.
    assert X[0, 0] == 15.0
    assert X[1].sum() == 0.0


def test_user_base_demographics_rows_identical(tiny_catalog):
    X = build_matrix(_panel(tiny_catalog), ModelBase(BaseKind.USER_BASED, "u001"),
                     InputConfig(InputKind.DEMOGRAPHICS), Behavior.ACTUAL_PURCHASE)
    # One row per advert-matched product, all carrying the same user vector.
    assert X.shape[0] == 1  # only p01 is advert-matched in the tiny catalog
    assert np.array_equal(X[0], encode_demographics(tiny_catalog.users[0]))


def test_user_base_demographics_degenerate_constant_rows():
    # With several advert-matched products every row repeats the same
    # 25-dim vector: the documented zero-information degeneracy.
    rng = np.random.default_rng(41)
    catalog = random_catalog(rng, n_users=3, n_products=4,
                             n_broadcast_products=4, n_broadcasts=12)
    assert len(catalog.advert_matched_products) >= 2
    user = catalog.user_ids[0]
    X = build_matrix(_panel(catalog), ModelBase(BaseKind.USER_BASED, user),
                     InputConfig(InputKind.DEMOGRAPHICS), Behavior.ACTUAL_PURCHASE)
    assert X.shape[0] == len(catalog.advert_matched_products)
    assert np.all(X == X[0])


def test_weekday_matrix_is_slot_marginalization():
    rng = np.random.default_rng(23)
    for trial in range(10):
        catalog = random_catalog(rng, n_users=5, n_products=3, n_viewing=14,
                                 n_broadcasts=10)
        if not catalog.advert_matched_products:
            continue
        panel = _panel(catalog)
        base = ModelBase(BaseKind.PRODUCT_BASED, catalog.advert_matched_products[0])
        slot_X = build_matrix(panel, base, InputConfig(InputKind.VIEW_WEEKDAY_SLOT),
                              Behavior.ACTUAL_PURCHASE)
        week_X = build_matrix(panel, base, InputConfig(InputKind.VIEW_WEEKDAY),
                              Behavior.ACTUAL_PURCHASE)
        collapsed = slot_X.reshape(slot_X.shape[0], 7, 2).sum(axis=2)
        assert np.array_equal(collapsed, week_X)


def test_rows_sorted_by_user_product(tiny_catalog):
    panel = _panel(tiny_catalog)
    base = ModelBase(BaseKind.PRODUCT_BASED, "p01")
    X = build_matrix(panel, base, InputConfig(InputKind.DEMOGRAPHICS),
                     Behavior.ACTUAL_PURCHASE)
    keys = _row_keys(panel, base)
    assert len(keys) == X.shape[0]
    assert keys == sorted(keys)
