"""Reference functions that tests check the pipeline against.

None of them runs in a pipeline stage: they state an acceptance criterion
(a primal objective, a training loss, a category rule, the average table
of one (model, base) pair), compare models bit for bit, or evaluate the
logistic Newton loop's objective and gradient at a point, for
finite-difference checks.
"""

from __future__ import annotations

import json

import numpy as np

from adpredict.data_model import SurveyResponse
from adpredict.features import BaseKind
from adpredict.learners import (BoostedEnsemble, LinearModel, Model, _check_matrix,
                                _gradient_into, _objective_at)
from adpredict.stats import _average_table, _score_rows
from adpredict.targets import CATEGORIES, Behavior


def svm_primal_objective(weights: np.ndarray, bias: float, X: np.ndarray,
                         y: np.ndarray, c: float) -> float:
    """0.5*||w||^2 + C * sum(hinge) with labels in {0,1} mapped to {-1,+1}."""
    t = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    margins = 1.0 - t * (np.asarray(X) @ weights + bias)
    return 0.5 * float(weights @ weights) + c * float(np.maximum(0.0, margins).sum())


def logistic_objective(X: np.ndarray, y: np.ndarray, weights: np.ndarray,
                       bias: float, l2: float) -> float:
    """The objective the logistic Newton loop minimizes, at (weights, bias)."""
    return _objective_at(X @ weights + bias, y, weights, l2)


def logistic_gradient(X: np.ndarray, y: np.ndarray, weights: np.ndarray,
                      bias: float, l2: float) -> np.ndarray:
    """The gradient the logistic Newton loop steps on, w.r.t. (weights..., bias)."""
    grad = np.empty(X.shape[1] + 1)
    _gradient_into(grad, X, y, X @ weights + bias, weights, l2)
    return grad


def apply_tree(ensemble: BoostedEnsemble, root: int, X: np.ndarray) -> np.ndarray:
    """Leaf weight reached by every row of X in the tree rooted at node
    ``root``, one node at a time."""
    out = np.empty(X.shape[0])
    _apply_tree_into(ensemble, root, X, np.arange(X.shape[0]), out)
    return out


def _apply_tree_into(ensemble: BoostedEnsemble, k: int, X, idx: np.ndarray,
                     out: np.ndarray) -> None:
    if ensemble.feature[k] < 0:
        out[idx] = ensemble.weight[k]
        return
    goes_left = X[idx, ensemble.feature[k]] <= ensemble.threshold[k]
    _apply_tree_into(ensemble, ensemble.left[k], X, idx[goes_left], out)
    _apply_tree_into(ensemble, ensemble.right[k], X, idx[~goes_left], out)


def staged_raw_scores(ensemble: BoostedEnsemble, X: np.ndarray):
    """Yield raw scores after 0, 1, ..., len(roots) rounds."""
    X = _check_matrix(X, ensemble.n_features)
    raw = np.full(X.shape[0], ensemble.base_score)
    yield raw.copy()
    for root in ensemble.roots:
        raw += ensemble.learning_rate * apply_tree(ensemble, root, X)
        yield raw.copy()


def binary_log_loss(y: np.ndarray, raw_scores: np.ndarray) -> float:
    """Mean logistic loss of raw (pre-sigmoid) scores."""
    y = np.asarray(y, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, raw_scores) - y * raw_scores))


def model_to_text(model: Model) -> str:
    """Serialize a trained model to a JSON document that round-trips exactly."""
    if isinstance(model, LinearModel):
        doc = {"type": "linear", "kind": model.kind,
               "weights": model.weights.tolist(), "bias": model.bias}
    else:
        doc = {"type": "boosted", "learning_rate": model.learning_rate,
               "base_score": model.base_score, "n_features": model.n_features,
               "trees": [_tree_to_doc(model, root) for root in model.roots]}
    return json.dumps(doc, indent=1)


def _tree_to_doc(ensemble: BoostedEnsemble, k: int) -> dict:
    if ensemble.feature[k] < 0:
        return {"weight": float(ensemble.weight[k])}
    return {"feature": int(ensemble.feature[k]),
            "threshold": float(ensemble.threshold[k]),
            "left": _tree_to_doc(ensemble, ensemble.left[k]),
            "right": _tree_to_doc(ensemble, ensemble.right[k])}


def categorize(jan: bool, mar: bool) -> frozenset[int]:
    """Category pair for one answer pattern."""
    if jan and not mar:
        base = 0
    elif not jan and not mar:
        base = 1
    elif not jan and mar:
        base = 2
    else:
        base = 3
    union = 4 if mar else 5
    return frozenset((base, union))


def wave_answers(response: SurveyResponse, behavior: Behavior) -> tuple[bool, bool]:
    if behavior is Behavior.ACTUAL_PURCHASE:
        return response.ap_jan, response.ap_mar
    return response.pi_jan, response.pi_mar


def category_distribution(responses: list[SurveyResponse],
                          behavior: Behavior) -> dict[int, float]:
    """Fraction of responses whose category pair contains each category.

    The base categories 0-3 sum to 1; category 4 equals 2 + 3 and
    category 5 equals 0 + 1, so 4 + 5 also sum to 1.
    """
    if not responses:
        raise ValueError("responses must be nonempty")
    counts = {c: 0 for c in CATEGORIES}
    for r in responses:
        for c in categorize(*wave_answers(r, behavior)):
            counts[c] += 1
    n = len(responses)
    return {c: counts[c] / n for c in CATEGORIES}


def average_table(records, model_kind: str, base_kind: BaseKind,
                  general_average: str) -> dict:
    """The average table of one (model, base) pair, its records selected one
    pair at a time from all of them."""
    selected = [row for row in _score_rows(records)
                if row[0] == model_kind and row[1] == base_kind.value]
    return _average_table(selected, model_kind, base_kind.value, general_average)
