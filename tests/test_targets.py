import numpy as np
import pytest

from adpredict.data_model import SurveyResponse
from adpredict.exposure import compute_exposure
from adpredict.features import BaseKind, ModelBase, Panel
from adpredict.synthgen import GenConfig, generate_panel
from adpredict.targets import Behavior, CATEGORIES, label_vector
from oracles import categorize, category_distribution, wave_answers


def _resp(pi_jan, pi_mar, ap_jan, ap_mar, user="u1", product="p1"):
    return SurveyResponse(user, product, pi_jan, pi_mar, ap_jan, ap_mar)


def test_categorize_all_four_patterns():
    assert categorize(True, False) == {0, 5}
    assert categorize(False, False) == {1, 5}
    assert categorize(False, True) == {2, 4}
    assert categorize(True, True) == {3, 4}


def test_categorize_outputs_satisfy_category_set_invariants():
    for jan in (False, True):
        for mar in (False, True):
            members = categorize(jan, mar)
            assert len(members) == 2
            base = members & {0, 1, 2, 3}
            assert len(base) == 1
            assert (4 in members) == (members & {2, 3} != set())
            assert (5 in members) == (members & {0, 1} != set())


def _waves(responses, behavior):
    jan, mar = np.array([wave_answers(r, behavior) for r in responses]).T
    return jan, mar


def test_label_vector_all_no():
    jan = mar = np.zeros(4, dtype=bool)
    assert label_vector(jan, mar, 1).tolist() == [1, 1, 1, 1]
    assert label_vector(jan, mar, 4).tolist() == [0, 0, 0, 0]


def test_label_vector_matches_categorize():
    jan = np.array([True, False, False, True])
    mar = np.array([False, False, True, True])
    for category in CATEGORIES:
        expected = [int(category in categorize(j, m)) for j, m in zip(jan, mar)]
        assert label_vector(jan, mar, category).tolist() == expected


def test_label_vector_category5_marks_march_no():
    # All four base patterns plus two repeats, in a fixed order.
    answers = [(True, False), (False, False), (False, True),
               (True, True), (False, False), (True, True)]
    responses = [_resp(False, False, jan, mar) for jan, mar in answers]
    labels = label_vector(*_waves(responses, Behavior.ACTUAL_PURCHASE), 5)
    assert labels.tolist() == [1 if not mar else 0 for _, mar in answers]


def test_label_vector_uses_requested_behavior(tiny_catalog):
    # Rows of product p01: u001 answers pi (yes, no), ap (yes, no);
    # u002 answers pi (no, yes), ap (yes, yes).
    panel = Panel.build(tiny_catalog, compute_exposure([], list(tiny_catalog.broadcasts)))
    base = ModelBase(BaseKind.PRODUCT_BASED, "p01")
    pi = panel.waves(base, Behavior.PURCHASE_INTENTION)
    ap = panel.waves(base, Behavior.ACTUAL_PURCHASE)
    assert label_vector(*pi, 2).tolist() == [0, 1]
    assert label_vector(*pi, 3).tolist() == [0, 0]
    assert label_vector(*ap, 3).tolist() == [0, 1]
    assert label_vector(*ap, 0).tolist() == [1, 0]


def test_label_vector_rejects_empty_and_bad_category():
    with pytest.raises(ValueError):
        label_vector(np.array([], dtype=bool), np.array([], dtype=bool), 1)
    with pytest.raises(ValueError):
        label_vector(np.array([True]), np.array([True]), 6)


def test_distribution_single_yes_yes():
    dist = category_distribution([_resp(False, False, True, True)],
                                 Behavior.ACTUAL_PURCHASE)
    assert dist == {0: 0.0, 1: 0.0, 2: 0.0, 3: 1.0, 4: 1.0, 5: 0.0}


def test_distribution_union_identities_random():
    rng = np.random.default_rng(5)
    responses = [_resp(*(bool(rng.integers(2)) for _ in range(4)),
                       user=f"u{i}") for i in range(200)]
    for behavior in Behavior:
        dist = category_distribution(responses, behavior)
        assert sum(dist[c] for c in (0, 1, 2, 3)) == pytest.approx(1.0)
        assert dist[4] == pytest.approx(dist[2] + dist[3])
        assert dist[5] == pytest.approx(dist[0] + dist[1])
        assert dist[4] + dist[5] == pytest.approx(1.0)


def test_default_generator_matches_target_marginals():
    # Advert-matched rows of a default-rate panel should land within 2
    # points of the configured {6, 76, 7, 10} actual-purchase split.
    config = GenConfig(n_users=1200, n_products=6, n_advert_matched=6, seed=11,
                       broadcasts_per_day=4, session_minutes=(60, 120))
    catalog = generate_panel(config)
    matched = set(catalog.advert_matched_products)
    rows = [r for r in catalog.responses if r.product_id in matched]
    dist = category_distribution(rows, Behavior.ACTUAL_PURCHASE)
    targets = {0: 0.06 / 0.99, 1: 0.76 / 0.99, 2: 0.07 / 0.99, 3: 0.10 / 0.99}
    for category, expected in targets.items():
        assert abs(dist[category] - expected) < 0.02, (category, dist[category])


def test_category_count_identities_on_generated_panel():
    catalog = generate_panel(GenConfig(n_users=150, n_products=4,
                                       n_advert_matched=3, seed=3,
                                       broadcasts_per_day=4))
    responses = list(catalog.responses)
    for behavior in Behavior:
        counts = {c: int(label_vector(*_waves(responses, behavior), c).sum())
                  for c in CATEGORIES}
        assert counts[4] == counts[2] + counts[3]
        assert counts[5] == counts[0] + counts[1]
