"""From-scratch trainers for the three classifier families.

All trainers are deterministic functions of (X, y, params): there is no
internal randomness, exact-greedy tree splits break ties by lowest feature
index then lowest threshold, and every trainer first re-orders its training
rows into a canonical lexicographic order so that permuting the input rows
yields a bit-identical model.

Single-class inputs short-circuit to a constant predictor for that class;
with rare target categories such folds are routine, not errors.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

MODEL_KINDS = ("svm", "gbrt", "logreg")

_PROB_CLAMP = 1e-6

# Memory one fit may spend on cached arrays: SVM kernel rows, GBRT node
# layouts. The least recently used entry goes first. Entries are pure
# functions of the fit's inputs, so the budget never changes a result bit.
_FIT_CACHE_BYTES = 32 << 20


class LearnerError(ValueError):
    """Invalid training or prediction input."""


@dataclass(frozen=True)
class LearnerParams:
    """Hyperparameters for all three families.

    Defaults: linear kernel with C = 1 for the SVM; learning rate 0.1,
    maximum depth 3 and 100 estimators for the boosted trees; unit sample
    weights and L2 strength 1 (bias unpenalized) for logistic regression.
    """

    svm_c: float = 1.0
    svm_tol: float = 1e-3
    svm_max_epochs: int = 1000
    gbrt_learning_rate: float = 0.1
    gbrt_max_depth: int = 3
    gbrt_n_estimators: int = 100
    gbrt_lambda: float = 1.0
    gbrt_min_child_weight: float = 1.0
    logreg_l2: float = 1.0
    logreg_tol: float = 1e-8
    logreg_max_iter: int = 100

    def __post_init__(self):
        # A bool is an Integral, but True is neither a count nor a rate.
        for name in ("svm_max_epochs", "gbrt_max_depth", "gbrt_n_estimators",
                     "logreg_max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise LearnerError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise LearnerError(f"{name} must be at least 1")
        for name in ("svm_c", "svm_tol", "gbrt_learning_rate", "gbrt_lambda",
                     "logreg_l2", "logreg_tol", "gbrt_min_child_weight"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise LearnerError(f"{name} must be a real number, got {value!r}")
            # Written so that NaN fails too.
            if name != "gbrt_min_child_weight" and not value > 0:
                raise LearnerError(f"{name} must be positive")
        if not self.gbrt_min_child_weight >= 0:
            raise LearnerError("gbrt_min_child_weight must be non-negative")


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: float
    kind: str  # "svm" or "logistic"

    def decision_values(self, X: np.ndarray) -> np.ndarray:
        X = _check_matrix(X, self.weights.shape[0])
        return X @ self.weights + self.bias


@dataclass
class TreeNode:
    """Either an internal split (feature, threshold, children) or a leaf."""

    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    weight: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class BoostedEnsemble:
    trees: list[TreeNode]
    learning_rate: float
    base_score: float
    n_features: int

    def raw_scores(self, X: np.ndarray) -> np.ndarray:
        """``base_score`` plus ``learning_rate * leaf weight`` of each tree,
        added tree by tree.

        All trees descend at once: their nodes sit in flat arrays where a
        leaf's children are the leaf itself, and each level of the deepest
        tree moves a (trees x rows) position array one level down. A row
        goes left when ``x <= threshold``, so NaN goes right. The cumsum over
        trees makes the same additions, in the same order, as adding one
        tree at a time.
        """
        X = _check_matrix(X, self.n_features)
        feature, threshold, left, right, weight, roots, depth = _flatten(self.trees)
        cols = np.arange(X.shape[0])
        pos = roots[:, None]
        for _ in range(depth):
            goes_left = X[cols, feature[pos]] <= threshold[pos]
            pos = np.where(goes_left, left[pos], right[pos])
        chain = np.empty((len(self.trees) + 1, X.shape[0]))
        chain[0] = self.base_score
        np.multiply(self.learning_rate, weight[pos], out=chain[1:])
        return chain.cumsum(axis=0)[-1]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.raw_scores(X))


Model = LinearModel | BoostedEnsemble


def sigmoid(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    # min(z, -z) is -|z|: each side gets its overflow-free form, 1/(1 + e^-z)
    # or e^z/(1 + e^z). Unlike -abs(z) it keeps the sign bit of a NaN, since
    # minimum returns its first NaN argument.
    e = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _check_matrix(X, expected_dims: int | None = None) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise LearnerError("feature matrix must be 2-dimensional")
    if expected_dims is not None and X.shape[1] != expected_dims:
        raise LearnerError(f"expected {expected_dims} feature dims, got {X.shape[1]}")
    return X


def _check_training_input(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = _check_matrix(X)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise LearnerError("labels must be a vector matching the row count")
    if X.shape[0] < 1:
        raise LearnerError("training set must contain at least one row")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise LearnerError("labels must be binary (0/1)")
    return X, y


def _canonical_order(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows lexicographically by features then label.

    Identical (row, label) pairs are interchangeable, so all trainers become
    invariant to the incoming row order, bit for bit.
    """
    # lexsort's primary key is its last row: column 0 first, the label last.
    order = np.lexsort(np.vstack([y, X.T[::-1]]))
    return np.ascontiguousarray(X[order]), y[order]


def _constant_model_for(label: float, kind: str, dims: int) -> LinearModel:
    # sign(0 + bias) reproduces the single observed class everywhere.
    return LinearModel(weights=np.zeros(dims), bias=1.0 if label == 1.0 else -1.0,
                       kind=kind)


# ---------------------------------------------------------------------------
# Linear SVM: pairwise dual coordinate ascent on the box-constrained dual
# with an equality constraint, selecting the maximal-violating pair.
# ---------------------------------------------------------------------------

def train_svm(X, y, params: LearnerParams = LearnerParams(),
              epoch_callback=None) -> LinearModel:
    """Max-margin hinge-loss linear classifier trained through the dual.

    Pairwise coordinate ascent on the box-constrained dual with the usual
    equality constraint, so the bias stays unregularized and the optimum
    matches the stated primal exactly. The first pair element is the
    maximal violator; its partner is chosen by the second-order rule
    (largest analytic gain), which converges far faster on badly scaled
    features such as raw exposure seconds (Fan, Chen & Lin, JMLR 2005).
    Stops when the maximal KKT violation drops below ``svm_tol`` or after
    ``svm_max_epochs`` epochs of n pair updates; on ill-conditioned inputs
    the cap binds by design, yielding a deterministic budgeted model.

    The optimality state is kept up to date between pair updates, as in
    SVMlight (Joachims, 1999): the decision values shift by two kernel
    rows, and the bound masks change only at the two updated rows. Kernel
    rows ``X @ X[k]`` and their second-order denominators (16 bytes per
    training row) are cached per fit within ``_FIT_CACHE_BYTES`` (least
    recently used row evicted first), so one pair update costs a fixed
    handful of array operations. An evicted row is recomputed by the same
    expression, so the model does not depend on the budget.

    ``epoch_callback(epoch_index, dual_value)`` is invoked once per epoch
    with the minimization-form dual objective, which decreases
    monotonically; it exists for diagnostics and invariant checks.
    """
    X, y = _check_training_input(X, y)
    classes = np.unique(y)
    if classes.size == 1:
        return _constant_model_for(classes[0], "svm", X.shape[1])
    X, y = _canonical_order(X, y)
    n, d = X.shape
    t = 2.0 * y - 1.0
    c = params.svm_c
    eps = 1e-12
    tau = 1e-12

    def bound_sets(alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # up: alpha_i may move along +t_i; low: alpha_j may move along -t_j.
        return (((t > 0) & (alpha < c - eps)) | ((t < 0) & (alpha > eps)),
                ((t < 0) & (alpha < c - eps)) | ((t > 0) & (alpha > eps)))

    up, low = (mask.tolist() for mask in bound_sets(np.zeros(n)))
    n_up, n_low = sum(up), sum(low)
    # Set-masked labels: t on the up set and -inf off it (t_up), t on the
    # low set and +inf off it (t_low). Then t_up - decisions is -t * grad on
    # the up set and -inf elsewhere, so one full-length scan finds the
    # maximal violator, and argmax and argmin keep the first-index tie rule
    # of a scan over the ascending members.
    t_up = np.where(up, t, -math.inf)
    t_low = np.where(low, t, math.inf)
    # Scalar bookkeeping runs on Python floats, which round like float64.
    sq_norms = np.einsum("ij,ij->i", X, X)
    alpha, signs, sq = [0.0] * n, t.tolist(), sq_norms.tolist()
    # Decision values are maintained incrementally; each pair update shifts
    # them by step * (K[:, i] - K[:, j]). -t * grad = t - decisions, bit for
    # bit for labels of +-1 up to the sign of a zero, which no comparison
    # or step below can see.
    decisions = np.zeros(n)
    up_vals, low_vals, violation, gains, delta = (np.empty(n) for _ in range(5))
    rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    max_rows = max(2, _FIT_CACHE_BYTES // (16 * n))

    def kernel_row(k: int) -> tuple[np.ndarray, np.ndarray]:
        hit = rows.pop(k, None)
        if hit is None:
            k_row = X @ X[k]
            hit = (k_row, 2.0 * np.maximum(sq[k] + sq_norms - 2.0 * k_row, tau))
            if len(rows) >= max_rows:
                del rows[next(iter(rows))]
        rows[k] = hit
        return hit

    # The weights are not read between epochs, so each update only records
    # (step, i, j); fold_weights adds the increments step * (X[i] - X[j]) to
    # w in update order, by one sequential cumsum: the same chain of
    # additions as adding them one at a time.
    w = np.zeros(d)
    steps: list[float] = []
    firsts: list[int] = []
    seconds: list[int] = []

    def fold_weights(w: np.ndarray) -> np.ndarray:
        if not steps:
            return w
        chain = np.empty((len(steps) + 1, d))
        chain[0] = w
        np.multiply(np.array(steps)[:, None], X[firsts] - X[seconds], out=chain[1:])
        del steps[:], firsts[:], seconds[:]
        return chain.cumsum(axis=0)[-1].copy()

    for update in range(params.svm_max_epochs * n):
        if update % n == 0:
            w = fold_weights(w)
            if epoch_callback is not None:
                epoch_callback(update // n, 0.5 * float(w @ w) - float(np.sum(alpha)))
        if not n_up or not n_low:
            break
        np.subtract(t_up, decisions, out=up_vals)
        np.subtract(t_low, decisions, out=low_vals)
        i = int(up_vals.argmax())
        m_val = float(up_vals[i])
        if m_val - float(low_vals[low_vals.argmin()]) <= params.svm_tol:
            break

        k_i, quad_i = kernel_row(i)
        np.subtract(m_val, low_vals, out=violation)
        j = _second_order_partner(violation, quad_i, gains)

        # Feasible direction: alpha_i moves by t_i*step, alpha_j by -t_j*step.
        # j lies in the low set, so low_vals[j] is -t_j * grad_j.
        hi_i = (c - alpha[i]) if signs[i] > 0 else alpha[i]
        hi_j = alpha[j] if signs[j] > 0 else (c - alpha[j])
        quad = max(sq[i] + sq[j] - 2.0 * float(k_i[j]), tau)
        step = min((m_val - float(low_vals[j])) / quad, min(hi_i, hi_j))
        if step <= 0:
            break
        alpha[i] = min(max(alpha[i] + signs[i] * step, 0.0), c)
        alpha[j] = min(max(alpha[j] - signs[j] * step, 0.0), c)
        for k in (i, j):
            a, s = alpha[k], signs[k]
            is_up = (s > 0 and a < c - eps) or (s < 0 and a > eps)
            is_low = (s < 0 and a < c - eps) or (s > 0 and a > eps)
            if is_up != up[k]:
                up[k] = is_up
                n_up += 1 if is_up else -1
                t_up[k] = s if is_up else -math.inf
            if is_low != low[k]:
                low[k] = is_low
                n_low += 1 if is_low else -1
                t_low[k] = s if is_low else math.inf
        np.subtract(k_i, kernel_row(j)[0], out=delta)
        delta *= step
        decisions += delta
        steps.append(step)
        firsts.append(i)
        seconds.append(j)

    w = fold_weights(w)
    alpha = np.array(alpha)
    if epoch_callback is not None:
        epoch_callback(-1, 0.5 * float(w @ w) - float(alpha.sum()))
    # Recompute the violation bounds at the final iterate to place the bias.
    decisions = X @ w
    neg_yg = -t * (t * decisions - 1.0)
    up, low = bound_sets(alpha)
    if up.any() and low.any():
        bias = (neg_yg[up].max() + neg_yg[low].min()) / 2.0
    else:
        bias = 0.0
    return LinearModel(weights=w, bias=float(bias), kind="svm")


def _second_order_partner(violation: np.ndarray, quad: np.ndarray,
                          gains: np.ndarray) -> int:
    """First index of the largest gain ``v * v / quad`` over ``v > 0``.

    ``gains`` is scratch space. ``|v| * v`` equals ``v * v`` where v > 0 and
    is not positive elsewhere (off the low set v is -inf), so a positive
    winner is the winner of the masked form. NaN, or a positive gain that
    underflows to 0, falls back to that form.
    """
    np.abs(violation, out=gains)
    gains *= violation
    gains /= quad
    j = int(gains.argmax())
    if not gains[j] > 0:
        j = int(np.where(violation > 0, violation * violation / quad,
                         -math.inf).argmax())
    return j


# ---------------------------------------------------------------------------
# Logistic regression: damped Newton on the L2-penalized log-likelihood.
# ---------------------------------------------------------------------------

def _objective_at(z: np.ndarray, y: np.ndarray, weights: np.ndarray,
                  l2: float) -> float:
    """Penalized negative log-likelihood at the linear predictor
    ``z = X @ weights + bias``; the bias term is not penalized."""
    nll = float((np.logaddexp(0.0, z) - y * z).sum())
    return nll + 0.5 * l2 * float(weights @ weights)


def _gradient_into(grad: np.ndarray, X: np.ndarray, y: np.ndarray, z: np.ndarray,
                   weights: np.ndarray, l2: float) -> None:
    """Write the gradient of ``_objective_at`` w.r.t. (weights..., bias) at the
    linear predictor ``z`` into ``grad``."""
    residual = sigmoid(z) - y
    grad_w = grad[:-1]
    np.matmul(X.T, residual, out=grad_w)
    grad_w += l2 * weights
    grad[-1] = residual.sum()


def train_logreg(X, y, params: LearnerParams = LearnerParams()) -> LinearModel:
    """Damped Newton solver, unit sample weights, unpenalized bias.

    Stops when the gradient norm falls below ``logreg_tol``, after
    ``logreg_max_iter`` Newton steps, or when 40 halvings of a step find no
    strict decrease of the objective. The linear predictor ``X @ w + b`` of
    the accepted candidate, computed for its objective, is the one the next
    gradient uses.
    """
    X, y = _check_training_input(X, y)
    if y.min() == y.max():  # a single class
        rate = min(max(y[0], _PROB_CLAMP), 1.0 - _PROB_CLAMP)
        return LinearModel(weights=np.zeros(X.shape[1]),
                           bias=math.log(rate / (1.0 - rate)), kind="logistic")
    X, y = _canonical_order(X, y)
    n, d = X.shape
    l2 = params.logreg_l2
    beta = np.zeros(d + 1)
    Xb = np.empty((n, d + 1))
    Xb[:, :d] = X
    Xb[:, d] = 1.0
    penalty = l2 * np.eye(d + 1)
    penalty[d, d] = 0.0  # the bias is not penalized
    grad = np.empty(d + 1)

    z = X @ beta[:d] + beta[d]
    obj = _objective_at(z, y, beta[:d], l2)
    for _ in range(params.logreg_max_iter):
        _gradient_into(grad, X, y, z, beta[:d], l2)
        # np.linalg.norm of a 1-D float vector is sqrt(x.dot(x)).
        if math.sqrt(grad.dot(grad)) < params.logreg_tol:
            break
        curvature = sigmoid(Xb @ beta)
        curvature *= 1.0 - curvature
        hessian = Xb.T @ (Xb * curvature[:, None])
        hessian += penalty
        step = np.linalg.solve(hessian, grad)
        scale = 1.0
        for _ in range(40):
            candidate = beta - scale * step
            cand_z = X @ candidate[:d] + candidate[d]
            cand_obj = _objective_at(cand_z, y, candidate[:d], l2)
            if cand_obj < obj:
                beta, z, obj = candidate, cand_z, cand_obj
                break
            scale *= 0.5
        else:
            break  # no decrease found; gradient is numerically flat
    return LinearModel(weights=beta[:d], bias=float(beta[d]), kind="logistic")


# ---------------------------------------------------------------------------
# Gradient-boosted trees: second-order binary-logistic boosting with
# exact-greedy splits, as an additive ensemble of regression trees.
# ---------------------------------------------------------------------------

def train_gbrt(X, y, params: LearnerParams = LearnerParams()) -> BoostedEnsemble:
    """Boost ``gbrt_n_estimators`` regression trees on logistic gradients.

    Per round the tree is fit to g_i = p_i - y_i and h_i = p_i*(1 - p_i):
    split gain is 0.5*[G_L^2/(H_L+lambda) + G_R^2/(H_R+lambda) - G^2/(H+lambda)],
    a leaf weighs -G/(H+lambda), and a node splits only when the gain is
    strictly positive and both children carry hessian mass of at least
    ``gbrt_min_child_weight``. A node with hessian mass below twice that is
    a leaf without a split search. The base score is the clamped log-odds of
    the positive rate, which keeps single-class inputs finite.
    """
    X, y = _check_training_input(X, y)
    X, y = _canonical_order(X, y)
    n, d = X.shape

    rate = min(max(float(y.mean()), _PROB_CLAMP), 1.0 - _PROB_CLAMP)
    base_score = math.log(rate / (1.0 - rate))
    raw = np.full(n, base_score)

    # Feature-sorted row orders are static across rounds.
    order = np.argsort(X, axis=0, kind="stable")
    builder = _TreeBuilder(X, order, params)

    # The leaves of a round partition the rows, so one shift per round gives
    # each row the single addition of its leaf's learning_rate * weight.
    shift = np.empty(n)
    trees: list[TreeNode] = []
    for _ in range(params.gbrt_n_estimators):
        p = sigmoid(raw)
        g = p - y
        h = p * (1.0 - p)
        trees.append(builder.build(g, h, shift))
        raw += shift
    return BoostedEnsemble(trees=trees, learning_rate=params.gbrt_learning_rate,
                           base_score=base_score, n_features=d)


class _TreeBuilder:
    """Grows the trees of one fit.

    A node is the ascending array of its row indices. Its layout is its rows
    in per-feature sorted order plus the flat positions ``f * m + b`` of its
    candidate boundaries, those between distinct adjacent values. It depends
    on the node's row set alone, which later rounds often search again, so
    layouts are cached per fit within ``_FIT_CACHE_BYTES``, keyed by the
    row indices (least recently used first out). An evicted layout is
    recomputed by the same expressions.
    """

    def __init__(self, X: np.ndarray, order: np.ndarray, params: LearnerParams):
        self.X = X
        self.order = order
        self.params = params
        self.g: np.ndarray | None = None
        self.h: np.ndarray | None = None
        self.shift: np.ndarray | None = None
        self.layouts: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self.layout_bytes = 0

    def build(self, g: np.ndarray, h: np.ndarray, shift: np.ndarray) -> TreeNode:
        """Grow one tree on (g, h); write each row's leaf step into ``shift``."""
        self.g, self.h, self.shift = g, h, shift
        return self._grow(np.arange(self.X.shape[0]), depth=0)

    def _grow(self, rows: np.ndarray, depth: int) -> TreeNode:
        lam = self.params.gbrt_lambda
        # rows ascend, so each sum adds the node's terms in row order.
        g_sum = float(np.add.reduce(self.g[rows]))
        h_sum = float(np.add.reduce(self.h[rows]))
        weight = -g_sum / (h_sum + lam)
        # Below 2*mcw no split gives both children mcw: _best_split finds none.
        if (depth >= self.params.gbrt_max_depth or rows.size < 2
                or h_sum < 2.0 * self.params.gbrt_min_child_weight):
            split = None
        else:
            split = self._best_split(rows, g_sum, h_sum)
        if split is None:
            self.shift[rows] = self.params.gbrt_learning_rate * weight
            return TreeNode(weight=weight)
        feature, threshold = split
        goes_left = self.X[rows, feature] <= threshold
        left = self._grow(rows[goes_left], depth + 1)
        right = self._grow(rows[~goes_left], depth + 1)
        return TreeNode(feature=feature, threshold=threshold, left=left, right=right)

    def _layout(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        key = rows.tobytes()
        layout = self.layouts.pop(key, None)
        if layout is None:
            layout = self._new_layout(rows)
            self.layout_bytes += len(key) + layout[0].nbytes + layout[1].nbytes
        self.layouts[key] = layout  # now the most recently used
        while self.layout_bytes > _FIT_CACHE_BYTES:
            old_key = next(iter(self.layouts))
            sorted_idx, cand = self.layouts.pop(old_key)
            self.layout_bytes -= len(old_key) + sorted_idx.nbytes + cand.nbytes
        return layout

    def _new_layout(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, d = self.X.shape
        m = rows.size
        mask = np.zeros(n, dtype=bool)
        mask[rows] = True
        # Node rows in per-feature sorted order, shape (d, m).
        member = mask[self.order]
        sorted_idx = self.order.T[member.T].reshape(d, m)
        x_sorted = self.X[sorted_idx, np.arange(d)[:, None]]
        # nonzero lists cells feature-major, then threshold-ascending.
        feature, boundary = np.nonzero(x_sorted[:, :-1] < x_sorted[:, 1:])
        return sorted_idx, feature * m + boundary

    def _best_split(self, rows: np.ndarray, g_sum: float, h_sum: float):
        lam = self.params.gbrt_lambda
        mcw = self.params.gbrt_min_child_weight
        sorted_idx, cand = self._layout(rows)
        if not cand.size:
            return None

        # Prefix sums run over whole rows, so each candidate's sum adds the
        # same terms in the same order, however few cells are scored.
        g_left = self.g[sorted_idx].cumsum(axis=1).take(cand)
        h_left = self.h[sorted_idx].cumsum(axis=1).take(cand)
        g_right = g_sum - g_left
        h_right = h_sum - h_left

        valid = (h_left >= mcw) & (h_right >= mcw)
        parent_term = g_sum * g_sum / (h_sum + lam)
        gain = 0.5 * (g_left ** 2 / (h_left + lam)
                      + g_right ** 2 / (h_right + lam) - parent_term)
        gain[~valid] = -math.inf

        # argmax scans the candidates feature-major then threshold-ascending,
        # which realizes the tie rule: lowest feature index first, then lowest
        # threshold. With no valid candidate the best gain is -inf.
        best = int(gain.argmax())
        if not gain[best] > 0.0:
            return None
        feature, boundary = divmod(int(cand[best]), rows.size)
        column = self.X[:, feature]
        lo = float(column[sorted_idx[feature, boundary]])
        hi = float(column[sorted_idx[feature, boundary + 1]])
        threshold = (lo + hi) / 2.0
        if threshold >= hi:  # midpoint rounded up between adjacent floats
            threshold = lo
        return feature, threshold


def _flatten(trees: list[TreeNode]):
    """Nodes of all trees in preorder as arrays (feature, threshold, left,
    right, weight), each tree's root index, and the deepest leaf's depth."""
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    weight: list[float] = []
    depth = 0

    def add(node: TreeNode, level: int) -> int:
        nonlocal depth
        k = len(weight)
        feature.append(node.feature)
        threshold.append(node.threshold)
        weight.append(node.weight)
        left.append(k)
        right.append(k)
        if node.is_leaf:
            depth = max(depth, level)
        else:
            left[k] = add(node.left, level + 1)
            right[k] = add(node.right, level + 1)
        return k

    roots = np.array([add(tree, 0) for tree in trees], dtype=np.intp)
    index = np.intp
    return (np.array(feature, dtype=index), np.array(threshold),
            np.array(left, dtype=index), np.array(right, dtype=index),
            np.array(weight), roots, depth)


# ---------------------------------------------------------------------------
# Shared entry points.
# ---------------------------------------------------------------------------

def train(kind: str, X, y, params: LearnerParams = LearnerParams()) -> Model:
    if kind == "svm":
        return train_svm(X, y, params)
    if kind == "gbrt":
        return train_gbrt(X, y, params)
    if kind == "logreg":
        return train_logreg(X, y, params)
    raise LearnerError(f"unknown learner kind {kind!r}")


def predict(model: Model, X) -> np.ndarray:
    """Binary labels. SVM: sign of the decision value with 0 mapped to the
    positive class. Logistic and boosted trees: probability >= 0.5."""
    X = np.asarray(X, dtype=np.float64)
    if isinstance(model, LinearModel):
        if model.kind == "svm":
            return (model.decision_values(X) >= 0.0).astype(np.int64)
        return (sigmoid(model.decision_values(X)) >= 0.5).astype(np.int64)
    return (model.predict_proba(X) >= 0.5).astype(np.int64)
