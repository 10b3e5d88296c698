import gc
import math

import numpy as np
import pytest

from adpredict.data_model import serialize_tables
from adpredict.evaluation import cross_validate
from adpredict.exposure import compute_exposure
from adpredict.features import (BaseKind, DEMOGRAPHIC_DIMS, InputConfig, InputKind,
                                ModelBase, Panel, build_matrix)
from adpredict.learners import LearnerParams, sigmoid
from adpredict.synthgen import (CalibrationError, GenConfig, calibrate_intercept,
                                default_base_rates, generate_panel, solve_intercept)
from adpredict.targets import Behavior, label_vector
from test_golden import GOLDEN_PANEL


def test_same_seed_identical_catalogs():
    a = generate_panel(GenConfig(n_users=30, n_products=4, n_advert_matched=3,
                                 seed=21, broadcasts_per_day=3))
    b = generate_panel(GenConfig(n_users=30, n_products=4, n_advert_matched=3,
                                 seed=21, broadcasts_per_day=3))
    assert a == b
    assert serialize_tables(a) == serialize_tables(b)


def test_different_seed_differs():
    a = generate_panel(GenConfig(n_users=30, n_products=4, n_advert_matched=3,
                                 seed=21, broadcasts_per_day=3))
    b = generate_panel(GenConfig(n_users=30, n_products=4, n_advert_matched=3,
                                 seed=22, broadcasts_per_day=3))
    assert a != b


def test_generated_catalog_passes_all_invariants():
    # Catalog.build validates foreign keys, survey completeness and
    # viewing-overlap freedom; surviving construction is the assertion.
    catalog = generate_panel(GenConfig(n_users=40, n_products=5,
                                       n_advert_matched=4, seed=8))
    assert len(catalog.responses) == 40 * 5
    assert catalog.advert_matched_products == tuple(f"p{i:03d}" for i in range(1, 5))


def test_solve_intercept_closed_forms():
    scores = np.zeros(1000)
    assert solve_intercept(scores, 0.5) == pytest.approx(0.0, abs=1e-9)
    assert solve_intercept(scores, 0.1) == pytest.approx(math.log(1 / 9), abs=1e-9)


def test_solve_intercept_nonzero_scores():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=2000)
    alpha = solve_intercept(scores, 0.17)
    assert abs(float(sigmoid(alpha + scores).mean()) - 0.17) < 0.005


def test_solve_intercept_rejects_bad_target():
    with pytest.raises(CalibrationError):
        solve_intercept(np.zeros(10), 0.0)
    with pytest.raises(CalibrationError):
        solve_intercept(np.zeros(10), 1.0)


def test_calibrate_intercept_default_target():
    config = GenConfig(n_users=50, n_products=3, n_advert_matched=2, seed=4,
                       broadcasts_per_day=3)
    alpha = calibrate_intercept(config)
    rates = default_base_rates()[Behavior.ACTUAL_PURCHASE]
    target = (rates[0] + rates[3]) / sum(rates)
    assert alpha == pytest.approx(math.log(target / (1 - target)), abs=1e-6)


def test_rate_matches_configuration_with_zero_betas():
    config = GenConfig(n_users=1000, n_products=4, n_advert_matched=4, seed=13,
                       broadcasts_per_day=3, session_minutes=(60, 120))
    catalog = generate_panel(config)
    jan_rate = float(np.mean([r.ap_jan for r in catalog.responses]))
    rates = default_base_rates()[Behavior.ACTUAL_PURCHASE]
    target = (rates[0] + rates[3]) / sum(rates)
    assert abs(jan_rate - target) < 0.02


def _infeasible_config() -> GenConfig:
    config = GenConfig(n_users=20, n_products=2, n_advert_matched=2, seed=1)
    # Persistence 0.99 forces a negative wave-2 fresh rate for actual purchase.
    config.wave_persistence = {b: 0.99 for b in Behavior}
    return config


def test_infeasible_persistence_raises():
    with pytest.raises(CalibrationError, match="infeasible"):
        generate_panel(_infeasible_config())


def test_scalar_beta_demo_expands_with_variation():
    config = GenConfig.from_dict({"n_users": 10, "n_products": 2,
                                  "n_advert_matched": 2, "beta_demo": 1.5})
    assert config.beta_demo.shape == (DEMOGRAPHIC_DIMS,)
    assert len(np.unique(config.beta_demo)) == 2  # alternating signs


def test_bad_beta_demo_length_rejected():
    with pytest.raises(CalibrationError):
        GenConfig(beta_demo=np.zeros(7))


def test_exposure_mass_is_primetime_heavy():
    catalog = generate_panel(GenConfig(n_users=150, n_products=4,
                                       n_advert_matched=4, seed=17))
    matrix = compute_exposure(list(catalog.viewing), list(catalog.broadcasts))
    by_slot = {"primetime": 0, "non_primetime": 0}
    for (_, _, _, slot), seconds in matrix.cells.items():
        by_slot[slot] += seconds
    # Primetime is 4 of 24 hours yet draws the (heavier) share of exposure.
    assert by_slot["primetime"] > by_slot["non_primetime"]


def test_planted_exposure_effect_is_detectable():
    # Positive control for the exposure pathway: with a large exposure
    # coefficient, an exposure-feature model must beat the zero-effect
    # baseline on mean F1 for category 4, across seeds.
    def mean_f1(beta, seeds):
        scores = []
        for seed in seeds:
            config = GenConfig(n_users=120, n_products=3, n_advert_matched=3,
                               seed=seed, beta_exposure=beta,
                               broadcasts_per_day=6)
            catalog = generate_panel(config)
            panel = Panel.build(catalog, compute_exposure(list(catalog.viewing),
                                                          list(catalog.broadcasts)))
            for product in catalog.advert_matched_products:
                base = ModelBase(BaseKind.PRODUCT_BASED, product)
                fm = build_matrix(panel, base, InputConfig(InputKind.VIEW_WEEKDAY),
                                  Behavior.ACTUAL_PURCHASE)
                y = label_vector(*panel.waves(base, Behavior.ACTUAL_PURCHASE), 4)
                cv = cross_validate(fm.values, y, "logreg", LearnerParams(),
                                    5, seed)
                scores.append(cv.mean_f1)
        return float(np.mean(scores))

    seeds = range(100, 120)
    assert mean_f1(2.0, seeds) > mean_f1(0.0, seeds)


def test_wave_persistence_override_is_used():
    base = GenConfig(n_users=400, n_products=3, n_advert_matched=3, seed=9,
                     broadcasts_per_day=3)
    sticky = GenConfig(n_users=400, n_products=3, n_advert_matched=3, seed=9,
                       broadcasts_per_day=3)
    sticky.wave_persistence = {Behavior.ACTUAL_PURCHASE: 0.55,
                               Behavior.PURCHASE_INTENTION: 0.1}
    a = generate_panel(base)
    b = generate_panel(sticky)
    # Lower persistence produces more wave-to-wave flips for intention.
    flips_a = sum(r.pi_jan != r.pi_mar for r in a.responses)
    flips_b = sum(r.pi_jan != r.pi_mar for r in b.responses)
    assert flips_b > flips_a


def test_generate_panel_starts_no_collection(collections):
    body = getattr(generate_panel, "__wrapped__", generate_panel).__code__
    gc.collect()
    catalog = generate_panel(GOLDEN_PANEL)
    assert not [stack for stack in collections if body in stack]
    assert len(catalog.viewing) > 700  # more new records than the youngest threshold
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_generate_panel_restores_collector_state(enabled):
    if not enabled:
        gc.disable()
    try:
        generate_panel(GenConfig(n_users=10, n_products=2, n_advert_matched=2, seed=1))
        assert gc.isenabled() is enabled
        with pytest.raises(CalibrationError, match="infeasible"):
            generate_panel(_infeasible_config())
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
