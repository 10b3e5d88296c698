import numpy as np
import pytest

from adpredict.evaluation import (Confusion, confusion_from, cross_validate,
                                  kfold_split, metrics)
from adpredict.learners import LearnerParams


def test_metrics_balanced_example():
    assert metrics(Confusion(tp=1, fp=1, tn=0, fn=1)) == (0.5, 0.5, 0.5)


def test_metrics_zero_division_conventions():
    precision, recall, f1 = metrics(Confusion(tp=0, fp=0, tn=0, fn=5))
    assert (precision, recall, f1) == (0.0, 0.0, 0.0)
    precision, recall, f1 = metrics(Confusion(tp=0, fp=3, tn=0, fn=0))
    assert (precision, recall, f1) == (0.0, 0.0, 0.0)


def test_f1_equals_harmonic_mean_identity():
    rng = np.random.default_rng(2)
    for _ in range(200):
        confusion = Confusion(*(int(v) for v in rng.integers(0, 20, size=4)))
        precision, recall, f1 = metrics(confusion)
        if precision > 0 and recall > 0:
            assert f1 == pytest.approx(2.0 / (1.0 / precision + 1.0 / recall))
        else:
            assert f1 == 0.0


def test_confusion_from_predictions():
    y_true = np.array([1, 1, 0, 0, 1])
    y_pred = np.array([1, 0, 1, 0, 1])
    confusion = confusion_from(y_true, y_pred)
    assert (confusion.tp, confusion.fp, confusion.tn, confusion.fn) == (2, 1, 1, 1)
    assert confusion.tp + confusion.fp + confusion.tn + confusion.fn == 5


def four_mask_confusion(y_true, y_pred):
    """The per-cell mask counts ``confusion_from`` must reproduce."""
    return Confusion(tp=int(np.sum((y_true == 1) & (y_pred == 1))),
                     fp=int(np.sum((y_true == 0) & (y_pred == 1))),
                     tn=int(np.sum((y_true == 0) & (y_pred == 0))),
                     fn=int(np.sum((y_true == 1) & (y_pred == 0))))


def test_confusion_from_matches_four_masks():
    rng = np.random.default_rng(17)
    for n in [0, 0, 1, 2, 5, 6, 29, 300]:
        for dtype in (np.int64, bool, np.float64):
            y_true = rng.integers(0, 2, size=n).astype(dtype)
            y_pred = rng.integers(0, 2, size=n).astype(dtype)
            assert confusion_from(y_true, y_pred) == four_mask_confusion(y_true, y_pred)
    assert confusion_from([], []) == Confusion(tp=0, fp=0, tn=0, fn=0)


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_confusion_from_rejects_labels_outside_zero_one(bad):
    for y_true, y_pred in ((np.array([1.0, 0.0, bad]), np.array([1.0, 0.0, 1.0])),
                           (np.array([1.0, 0.0, 1.0]), np.array([1.0, bad, 0.0]))):
        with pytest.raises(ValueError, match="0 or 1"):
            confusion_from(y_true, y_pred)


def test_kfold_balanced_sizes():
    folds = kfold_split(10, 5, seed=1)
    assert [len(f) for f in folds] == [2] * 5
    assert sorted(np.concatenate(folds).tolist()) == list(range(10))


def test_kfold_uneven_sizes():
    folds = kfold_split(11, 5, seed=9)
    assert sorted(len(f) for f in folds) == [2, 2, 2, 2, 3]
    assert sorted(np.concatenate(folds).tolist()) == list(range(11))


def test_kfold_deterministic_and_seed_sensitive():
    a = kfold_split(20, 4, seed=5)
    b = kfold_split(20, 4, seed=5)
    c = kfold_split(20, 4, seed=6)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_kfold_rejects_small_n():
    with pytest.raises(ValueError):
        kfold_split(3, 5, seed=0)
    with pytest.raises(ValueError):
        kfold_split(10, 1, seed=0)


def test_cross_validate_constant_negative_data():
    X = np.random.default_rng(0).normal(size=(20, 3))
    y = np.zeros(20, dtype=int)
    result = cross_validate(X, y, "logreg", LearnerParams(), k=5, seed=3)
    assert result.mean_f1 == 0.0
    assert len(result.folds) == 5


def test_cross_validate_separable_margin():
    rng = np.random.default_rng(8)
    X = np.vstack([rng.normal(-4.0, 0.2, size=(20, 2)),
                   rng.normal(4.0, 0.2, size=(20, 2))])
    y = np.array([0] * 20 + [1] * 20)
    for kind in ("svm", "logreg", "gbrt"):
        result = cross_validate(X, y, kind, LearnerParams(gbrt_min_child_weight=0.5),
                                k=5, seed=4)
        assert result.mean_f1 == 1.0, kind


def test_cross_validate_deterministic():
    rng = np.random.default_rng(14)
    X = rng.normal(size=(30, 4))
    y = (rng.random(30) < 0.4).astype(int)
    a = cross_validate(X, y, "gbrt", LearnerParams(gbrt_n_estimators=10), 5, 77)
    b = cross_validate(X, y, "gbrt", LearnerParams(gbrt_n_estimators=10), 5, 77)
    assert a == b


def test_mean_is_arithmetic_over_folds():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(25, 3))
    y = (rng.random(25) < 0.5).astype(int)
    result = cross_validate(X, y, "logreg", LearnerParams(), 5, 5)
    assert result.mean_f1 == pytest.approx(sum(f.f1 for f in result.folds) / 5)
    assert result.mean_precision == pytest.approx(
        sum(f.precision for f in result.folds) / 5)
