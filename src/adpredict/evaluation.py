"""K-fold cross validation with precision/recall/F1 scoring.

Folds come from a seeded shuffle (plain, not stratified); per-fold scores
are averaged arithmetically, which is the reported statistic. Zero-division
conventions: precision is 0 when there are no positive predictions, recall
is 0 when there are no positive rows, and F1 is 0 when precision + recall
is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import learners
from .learners import LearnerParams


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")


@dataclass(frozen=True)
class FoldResult:
    fold_index: int
    confusion: Confusion
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class CvResult:
    folds: tuple[FoldResult, ...]
    mean_precision: float
    mean_recall: float
    mean_f1: float


def metrics(confusion: Confusion) -> tuple[float, float, float]:
    """(precision, recall, f1) with the zero conventions stated above."""
    tp, fp, fn = confusion.tp, confusion.fp, confusion.fn
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1 = 0.0
    return precision, recall, f1


def confusion_from(y_true: np.ndarray, y_pred: np.ndarray) -> Confusion:
    """Confusion counts of two 0/1 label vectors; any other label is a ValueError."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    true_pos = y_true == 1
    pred_pos = y_pred == 1
    tn, fp, fn, tp = np.bincount(2 * true_pos + pred_pos, minlength=4).tolist()
    # A label outside {0, 1} is non-zero but not 1, so the non-zero counts
    # exceed the positive cells.
    if (np.count_nonzero(y_true) != fn + tp
            or np.count_nonzero(y_pred) != fp + tp):
        raise ValueError("confusion labels must be 0 or 1")
    return Confusion(tp=tp, fp=fp, tn=tn, fn=fn)


def kfold_split(n_rows: int, k: int, seed: int) -> list[np.ndarray]:
    """k disjoint index arrays covering 0..n_rows-1, sizes differing by <= 1.

    The shuffle is a pure function of the seed, so identical (n, k, seed)
    always yield identical folds.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if n_rows < k:
        raise ValueError(f"need at least k={k} rows, got {n_rows}")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n_rows)
    return [np.sort(perm[i::k]) for i in range(k)]


def cross_validate(X: np.ndarray, y: np.ndarray, learner_kind: str,
                   params: LearnerParams, k: int, seed: int) -> CvResult:
    """Train on k-1 folds, score the held-out fold, repeat for every fold."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    folds = kfold_split(X.shape[0], k, seed)
    results = []
    for fold_index, test_idx in enumerate(folds):
        train_mask = np.ones(X.shape[0], dtype=bool)
        train_mask[test_idx] = False
        model = learners.train(learner_kind, X[train_mask], y[train_mask], params)
        y_pred = learners.predict(model, X[test_idx])
        confusion = confusion_from(y[test_idx], y_pred)
        precision, recall, f1 = metrics(confusion)
        results.append(FoldResult(fold_index=fold_index, confusion=confusion,
                                  precision=precision, recall=recall, f1=f1))
    return CvResult(
        folds=tuple(results),
        mean_precision=sum(r.precision for r in results) / k,
        mean_recall=sum(r.recall for r in results) / k,
        mean_f1=sum(r.f1 for r in results) / k,
    )
