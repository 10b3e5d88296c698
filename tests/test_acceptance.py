"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from adpredict.data_model import parse_catalog, write_catalog
from adpredict.evaluation import Confusion, cross_validate, metrics
from adpredict.exposure import compute_exposure
from adpredict.features import InputKind, Panel, build_matrix
from adpredict.learners import LearnerParams, train_gbrt, train_svm
from adpredict.runner import (MatrixConfig, RESULTS_FILE, SPECS_FILE,
                              enumerate_experiments, matrix_counts, run_matrix)
from adpredict.stats import hypothesis_suite, welch_t_test
from adpredict.synthgen import GenConfig, generate_panel
from adpredict.targets import Behavior, label_vector
from conftest import random_catalog
from oracles import (binary_log_loss, categorize, logistic_gradient,
                     logistic_objective, staged_raw_scores, svm_primal_objective,
                     wave_answers)
from test_learners import random_instance, subgradient_svm_oracle
from test_stats import quadrature_two_sided_p

SRC = Path(__file__).resolve().parent.parent / "src"


def _report(name: str):
    class Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            print(f"\nACCEPTANCE {name}: {'FAIL' if exc_type else 'PASS'}")
            return False

    return Reporter()


def _run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "adpredict.cli", *args],
                          capture_output=True, text=True, env=env)


# ---------------------------------------------------------------------------
# Criterion 1: enumeration counts at reference scale.
# ---------------------------------------------------------------------------

def test_enumeration_counts(tmp_path):
    with _report("enumeration-counts"):
        started = time.time()
        counts = matrix_counts(MatrixConfig(accounting="expanded"),
                               n_product_bases=36, n_user_bases=3000)
        elapsed = time.time() - started
        assert counts["expanded_inputs"] == 30360
        assert counts["expanded_per_model"] == 364320
        assert counts["expanded_total"] == 1092960
        assert elapsed < 1.0

        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({
            "assume_product_bases": 36, "assume_user_bases": 3000,
            "matrix": {"accounting": "expanded"}}))
        result = _run_cli("run", "--config", str(config_path), "--dry-run")
        assert result.returncode == 0, result.stderr
        assert "inputs: 30360" in result.stdout
        assert "experiments per model: 364320" in result.stdout
        assert "total experiments: 1092960" in result.stdout


# ---------------------------------------------------------------------------
# Criterion 2: metric identities on every confusion with total <= 12.
# ---------------------------------------------------------------------------

def test_metric_identities():
    with _report("metric-identities"):
        checked = 0
        for total in range(13):
            for tp in range(total + 1):
                for fp in range(total - tp + 1):
                    for tn in range(total - tp - fp + 1):
                        fn = total - tp - fp - tn
                        p, r, f1 = metrics(Confusion(tp=tp, fp=fp, tn=tn, fn=fn))
                        expected_p = (float(Fraction(tp, tp + fp))
                                      if tp + fp > 0 else 0.0)
                        expected_r = (float(Fraction(tp, tp + fn))
                                      if tp + fn > 0 else 0.0)
                        assert p == expected_p
                        assert r == expected_r
                        if p + r > 0:
                            assert f1 == 2.0 * p * r / (p + r)
                        else:
                            assert f1 == 0.0
                        checked += 1
        assert checked == 1820  # compositions of <=12 into 4 parts


# ---------------------------------------------------------------------------
# Criterion 3: category labeling.
# ---------------------------------------------------------------------------

def test_category_labeling():
    with _report("category-labeling"):
        assert categorize(True, False) == {0, 5}
        assert categorize(False, False) == {1, 5}
        assert categorize(False, True) == {2, 4}
        assert categorize(True, True) == {3, 4}

        catalog = generate_panel(GenConfig(n_users=80, n_products=5,
                                           n_advert_matched=3, seed=44,
                                           broadcasts_per_day=3))
        for behavior in Behavior:
            jan, mar = np.array([wave_answers(r, behavior)
                                 for r in catalog.responses]).T
            counts = {c: int(label_vector(jan, mar, c).sum()) for c in range(6)}
            assert counts[4] == counts[2] + counts[3]
            assert counts[5] == counts[0] + counts[1]


# ---------------------------------------------------------------------------
# Criterion 4: learner oracles.
# ---------------------------------------------------------------------------

def test_learner_oracles():
    with _report("learner-oracles"):
        started = time.time()
        rng = np.random.default_rng(4242)

        # (i) logistic gradient vs central finite differences, 50 instances.
        for _ in range(50):
            n = int(rng.integers(10, 60))
            d = int(rng.integers(2, 8))
            X, y = random_instance(rng, n, d)
            w = rng.normal(scale=0.5, size=d)
            b = float(rng.normal())
            grad = logistic_gradient(X, y, w, b, l2=1.0)
            eps = 1e-6
            fd = np.zeros(d + 1)
            for j in range(d):
                delta = np.zeros(d)
                delta[j] = eps
                fd[j] = (logistic_objective(X, y, w + delta, b, 1.0)
                         - logistic_objective(X, y, w - delta, b, 1.0)) / (2 * eps)
            fd[d] = (logistic_objective(X, y, w, b + eps, 1.0)
                     - logistic_objective(X, y, w, b - eps, 1.0)) / (2 * eps)
            assert (np.linalg.norm(grad - fd)
                    <= 1e-5 * max(1.0, np.linalg.norm(grad)))

        # (ii) SVM primal within 1% of the projected-subgradient oracle.
        for _ in range(20):
            n = int(rng.integers(12, 41))
            d = int(rng.integers(2, 7))
            X, y = random_instance(rng, n, d)
            model = train_svm(X, y)
            primal = svm_primal_objective(model.weights, model.bias, X, y, 1.0)
            oracle = subgradient_svm_oracle(X, y, 1.0, iterations=40000)
            assert abs(primal - oracle) <= 0.01 * max(primal, oracle), (n, d)

        # (iii) boosted-tree stump weights and monotone training loss.
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        stump = train_gbrt(X, y, LearnerParams(gbrt_n_estimators=1,
                                               gbrt_max_depth=1,
                                               gbrt_min_child_weight=0.0)).trees[0]
        assert stump.left.weight == -0.5 / 1.25
        assert stump.right.weight == 0.5 / 1.25

        for _ in range(10):
            X, y = random_instance(rng, int(rng.integers(40, 120)),
                                   int(rng.integers(2, 7)),
                                   positive_rate=float(rng.uniform(0.15, 0.5)))
            ensemble = train_gbrt(X, y)
            losses = [binary_log_loss(y, raw)
                      for raw in staged_raw_scores(ensemble, X)]
            assert len(losses) == 101
            assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

        assert time.time() - started < 120.0


# ---------------------------------------------------------------------------
# Criterion 5: Welch t-test oracle agreement and edge cases.
# ---------------------------------------------------------------------------

def test_welch_t_test_acceptance():
    with _report("welch-t-test"):
        rng = np.random.default_rng(777)
        for _ in range(100):
            n_a = int(rng.integers(2, 13))
            n_b = int(rng.integers(2, 13))
            a = (rng.normal(loc=rng.normal(), scale=rng.uniform(0.2, 3),
                            size=n_a)).tolist()
            b = (rng.normal(loc=rng.normal(), scale=rng.uniform(0.2, 3),
                            size=n_b)).tolist()
            result = welch_t_test(a, b)
            oracle = quadrature_two_sided_p(result.t_stat, result.df)
            assert abs(result.p_value - oracle) <= 1e-6

        # NaN iff both samples constant.
        assert math.isnan(welch_t_test([1.0, 1.0], [2.0, 2.0, 2.0]).p_value)
        assert not math.isnan(welch_t_test([1.0, 1.0], [0.1, 2.0, 4.0]).p_value)
        assert not math.isnan(welch_t_test([0.5, 1.5], [2.0, 2.0, 2.0]).p_value)

        # Symmetry is exact; affine changes move t by < 1e-12.
        for _ in range(30):
            a = rng.normal(size=6)
            b = rng.normal(size=7)
            ab = welch_t_test(a.tolist(), b.tolist())
            ba = welch_t_test(b.tolist(), a.tolist())
            assert ab.p_value == ba.p_value
            assert ab.t_stat == -ba.t_stat
            scale = float(rng.uniform(0.2, 5.0))
            shift = float(rng.normal())
            moved = welch_t_test((a * scale + shift).tolist(),
                                 (b * scale + shift).tolist())
            assert moved.t_stat == pytest.approx(ab.t_stat, abs=1e-12, rel=1e-12)


# ---------------------------------------------------------------------------
# Criterion 6: determinism under parallelism at desk scale.
# ---------------------------------------------------------------------------

def test_determinism_under_parallelism(tmp_path):
    with _report("determinism-under-parallelism"):
        started = time.time()
        catalog = generate_panel(GenConfig(n_users=200, n_products=6,
                                           n_advert_matched=6, seed=2024))
        # All three learners over both base kinds at k=5 in canonical mode.
        # The selection keeps three runs inside the budget; the SVM epoch
        # cap is deliberately low because raw-scale exposure features never
        # reach KKT tolerance at any affordable budget.
        matrix = MatrixConfig(
            models=("svm", "gbrt", "logreg"),
            users=tuple(f"u{i:04d}" for i in range(1, 7)),
            configs=(InputKind.VIEW_WEEKDAY_SLOT, InputKind.VIEW_WEEKDAY,
                     InputKind.DEMOGRAPHICS),
            categories=(1, 4),
            k=5,
            learner_params=LearnerParams(svm_max_epochs=30),
        )
        total = len(enumerate_experiments(catalog, matrix))

        stores = {}
        for name, workers in (("one", 1), ("eight", 8), ("again", 8)):
            store = tmp_path / name
            manifest = run_matrix(catalog, matrix, store, global_seed=11,
                                  workers=workers)
            assert manifest["executed"] == total
            stores[name] = store

        reference_results = (stores["one"] / RESULTS_FILE).read_bytes()
        reference_specs = (stores["one"] / SPECS_FILE).read_bytes()
        for name in ("eight", "again"):
            assert (stores[name] / RESULTS_FILE).read_bytes() == reference_results
            assert (stores[name] / SPECS_FILE).read_bytes() == reference_specs

        assert time.time() - started < 300.0


# ---------------------------------------------------------------------------
# Criteria 7 and 8: planted-effect positive control and null calibration.
# ---------------------------------------------------------------------------

def _h1_cell(catalog, matrix, seed, category, variant="weekday_slot"):
    """Run the (small) matrix and pull the H1 logreg/product/AP cell."""
    panel = Panel.build(catalog, compute_exposure(list(catalog.viewing),
                                                  list(catalog.broadcasts)))
    from adpredict.runner import ScoreRecord, spec_seed
    records = []
    for spec in enumerate_experiments(catalog, matrix):
        X = build_matrix(panel, spec.base, spec.config, spec.behavior)
        y = label_vector(*panel.waves(spec.base, spec.behavior), spec.category)
        cv = cross_validate(X, y, spec.model_kind, matrix.learner_params,
                            spec.k, spec_seed(seed, spec.spec_id))
        records.append(ScoreRecord(spec=spec, cv=cv, seed=seed))
    reports, _ = hypothesis_suite(records)
    cell = [r for r in reports
            if r.hypothesis == "h1" and r.model_kind == "logreg"
            and r.base_kind == "product" and r.behavior == "actual_purchase"
            and r.category == category and r.variant == variant]
    assert len(cell) == 1
    group_means = {}
    for config in (InputKind.VIEW_WEEKDAY_SLOT, InputKind.DEMOGRAPHICS):
        values = [r.cv.mean_f1 for r in records if r.spec.config.kind is config
                  and r.spec.category == category]
        group_means[config] = sum(values) / len(values)
    return cell[0], group_means


def test_positive_control():
    with _report("positive-control"):
        beta_demo = np.tile([2.0, -2.0], 13)[:25]
        matrix = MatrixConfig(
            models=("logreg",),
            users=(),
            configs=(InputKind.VIEW_WEEKDAY_SLOT, InputKind.DEMOGRAPHICS),
            pi_feature_states="off",
            behaviors=(Behavior.ACTUAL_PURCHASE,),
            categories=(4,),
            k=5,
        )
        passes = 0
        seeds = (301, 302, 303, 304, 305)
        for seed in seeds:
            config = GenConfig(n_users=300, n_products=8, n_advert_matched=8,
                               seed=seed, beta_exposure=0.0, beta_demo=beta_demo,
                               broadcasts_per_day=6)
            catalog = generate_panel(config)
            cell, means = _h1_cell(catalog, matrix, seed, category=4)
            rejected = (not math.isnan(cell.p_value)) and cell.p_value < 0.05
            demo_beats_viewing = (means[InputKind.DEMOGRAPHICS]
                                  > means[InputKind.VIEW_WEEKDAY_SLOT])
            if rejected and demo_beats_viewing:
                passes += 1
        assert passes > len(seeds) / 2, f"only {passes} of {len(seeds)} seeds passed"


def test_null_control():
    with _report("null-control"):
        matrix = MatrixConfig(
            models=("logreg",),
            users=(),
            configs=(InputKind.VIEW_WEEKDAY_SLOT, InputKind.DEMOGRAPHICS),
            pi_feature_states="off",
            behaviors=(Behavior.ACTUAL_PURCHASE,),
            categories=(1,),
            k=5,
        )
        rejections = 0
        n_seeds = 40
        for seed in range(500, 500 + n_seeds):
            config = GenConfig(n_users=150, n_products=6, n_advert_matched=6,
                               seed=seed, broadcasts_per_day=4)
            catalog = generate_panel(config)
            cell, _ = _h1_cell(catalog, matrix, seed, category=1)
            if (not math.isnan(cell.p_value)) and cell.p_value < 0.05:
                rejections += 1
        rate = rejections / n_seeds
        assert 0.0 <= rate <= 0.15, f"null rejection rate {rate:.2%}"


# ---------------------------------------------------------------------------
# Criterion 9: round-trip and crash-resume equivalence.
# ---------------------------------------------------------------------------

def test_round_trip_and_resume(tmp_path):
    with _report("round-trip-and-resume"):
        rng = np.random.default_rng(909)
        for i in range(100):
            catalog = random_catalog(rng, n_users=int(rng.integers(1, 7)),
                                     n_products=int(rng.integers(1, 5)),
                                     n_viewing=int(rng.integers(0, 14)),
                                     n_broadcasts=int(rng.integers(0, 10)))
            target = tmp_path / f"cat{i}"
            write_catalog(catalog, target)
            assert parse_catalog(target) == catalog

        catalog = generate_panel(GenConfig(n_users=15, n_products=4,
                                           n_advert_matched=3, seed=5,
                                           broadcasts_per_day=3))
        matrix = MatrixConfig(models=("logreg",),
                              configs=(InputKind.VIEW_WEEKDAY,
                                       InputKind.DEMOGRAPHICS),
                              categories=(1, 4), k=3)
        full = tmp_path / "full"
        interrupted = tmp_path / "interrupted"
        run_matrix(catalog, matrix, full, global_seed=6)
        run_matrix(catalog, matrix, interrupted, global_seed=6, limit=13)
        assert ((interrupted / RESULTS_FILE).read_text().count("\n")
                < (full / RESULTS_FILE).read_text().count("\n"))
        run_matrix(catalog, matrix, interrupted, global_seed=6, resume=True)
        assert ((full / RESULTS_FILE).read_bytes()
                == (interrupted / RESULTS_FILE).read_bytes())
        assert ((full / SPECS_FILE).read_bytes()
                == (interrupted / SPECS_FILE).read_bytes())
