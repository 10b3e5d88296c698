import math

import numpy as np
import pytest

from adpredict import learners
from adpredict.learners import (LearnerError, LearnerParams,
                                LinearModel,
                                predict, sigmoid, train, train_gbrt,
                                train_logreg, train_svm)
from oracles import (apply_tree, binary_log_loss, logistic_gradient,
                     logistic_objective, model_to_text, staged_raw_scores,
                     svm_primal_objective)


def subgradient_svm_oracle(X, y, c, iterations=60000, radius=None):
    """Projected subgradient descent on the primal hinge objective.

    Independent of the dual trainer: plain subgradient steps on (w, b) with
    a decaying step size, projecting w onto a ball that provably contains
    the optimum, tracking the best objective seen.
    """
    X = np.asarray(X, dtype=np.float64)
    t = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    n, d = X.shape
    if radius is None:
        radius = np.sqrt(2.0 * c * n)  # 0.5*||w*||^2 <= P(0) = C*n
    w = np.zeros(d)
    b = 0.0
    best = svm_primal_objective(w, b, X, y, c)
    base_step = 1.0 / max(1.0, np.abs(X).max())
    for it in range(1, iterations + 1):
        margins = 1.0 - t * (X @ w + b)
        active = margins > 0
        grad_w = w - c * (t[active] @ X[active])
        grad_b = -c * t[active].sum()
        step = base_step / np.sqrt(it)
        w = w - step * grad_w
        b = b - step * grad_b
        norm = np.linalg.norm(w)
        if norm > radius:
            w *= radius / norm
        value = svm_primal_objective(w, b, X, y, c)
        if value < best:
            best = value
    return best


def random_instance(rng, n, d, positive_rate=0.4):
    X = rng.normal(size=(n, d))
    y = (rng.random(n) < positive_rate).astype(np.int64)
    if y.min() == y.max():  # keep both classes present
        y[0] = 1 - y[0]
    return X, y


# ---------------------------------------------------------------------------
# SVM
# ---------------------------------------------------------------------------

def test_svm_separable_1d():
    X = np.array([[-1.0], [1.0]])
    y = np.array([0, 1])
    model = train_svm(X, y)
    assert predict(model, X).tolist() == [0, 1]
    # The decision boundary sits strictly between the two points.
    boundary = -model.bias / model.weights[0]
    assert -1.0 < boundary < 1.0


def test_svm_all_negative_constant():
    X = np.random.default_rng(0).normal(size=(5, 3))
    y = np.zeros(5, dtype=int)
    model = train_svm(X, y)
    assert predict(model, X).tolist() == [0] * 5
    assert svm_primal_objective(model.weights, model.bias, X, y, 1.0) == 0.0


def test_svm_primal_close_to_subgradient_oracle():
    rng = np.random.default_rng(42)
    for trial in range(4):
        X, y = random_instance(rng, 30, 4)
        model = train_svm(X, y)
        primal = svm_primal_objective(model.weights, model.bias, X, y, 1.0)
        oracle = subgradient_svm_oracle(X, y, 1.0, iterations=40000)
        assert abs(primal - oracle) <= 0.01 * max(primal, oracle)


def test_svm_rejects_bad_labels():
    with pytest.raises(LearnerError):
        train_svm(np.zeros((3, 2)), np.array([0, 1, 2]))


def reference_train_svm(X, y, params=LearnerParams(), epoch_callback=None):
    """The straightforward solver that ``train_svm`` must reproduce bit for bit.

    Same pair rule, recomputed from scratch on every update: masks, index
    lists and kernel rows, with no cache and no incremental state.
    """
    X, y = learners._check_training_input(X, y)
    classes = np.unique(y)
    if classes.size == 1:
        return learners._constant_model_for(classes[0], "svm", X.shape[1])
    X, y = learners._canonical_order(X, y)
    n, d = X.shape
    t = 2.0 * y - 1.0
    c = params.svm_c
    eps = 1e-12
    tau = 1e-12
    alpha = np.zeros(n)
    w = np.zeros(d)
    sq_norms = np.einsum("ij,ij->i", X, X)
    decisions = np.zeros(n)
    for update in range(params.svm_max_epochs * n):
        if epoch_callback is not None and update % n == 0:
            epoch_callback(update // n, 0.5 * float(w @ w) - float(alpha.sum()))
        neg_yg = -t * (t * decisions - 1.0)
        up = ((t > 0) & (alpha < c - eps)) | ((t < 0) & (alpha > eps))
        low = ((t < 0) & (alpha < c - eps)) | ((t > 0) & (alpha > eps))
        if not up.any() or not low.any():
            break
        up_idx = np.flatnonzero(up)
        low_idx = np.flatnonzero(low)
        i = up_idx[np.argmax(neg_yg[up_idx])]
        m_val = neg_yg[i]
        if m_val - neg_yg[low_idx].min() <= params.svm_tol:
            break
        k_i = X @ X[i]
        quad_all = np.maximum(sq_norms[i] + sq_norms[low_idx] - 2.0 * k_i[low_idx],
                              tau)
        violation = m_val - neg_yg[low_idx]
        gains = np.where(violation > 0, violation * violation / (2.0 * quad_all),
                         -math.inf)
        j = low_idx[np.argmax(gains)]
        hi_i = (c - alpha[i]) if t[i] > 0 else alpha[i]
        hi_j = alpha[j] if t[j] > 0 else (c - alpha[j])
        quad = max(sq_norms[i] + sq_norms[j] - 2.0 * float(k_i[j]), tau)
        step = min((m_val - neg_yg[j]) / quad, min(hi_i, hi_j))
        if step <= 0:
            break
        alpha[i] = min(max(alpha[i] + t[i] * step, 0.0), c)
        alpha[j] = min(max(alpha[j] - t[j] * step, 0.0), c)
        k_j = X @ X[j]
        decisions = decisions + step * (k_i - k_j)
        w = w + step * (X[i] - X[j])
    if epoch_callback is not None:
        epoch_callback(-1, 0.5 * float(w @ w) - float(alpha.sum()))
    decisions = X @ w
    neg_yg = -t * (t * decisions - 1.0)
    up = ((t > 0) & (alpha < c - eps)) | ((t < 0) & (alpha > eps))
    low = ((t < 0) & (alpha < c - eps)) | ((t > 0) & (alpha > eps))
    if up.any() and low.any():
        bias = (neg_yg[up].max() + neg_yg[low].min()) / 2.0
    else:
        bias = 0.0
    return LinearModel(weights=w, bias=float(bias), kind="svm")


def assert_same_svm_fit(X, y, params):
    expected_calls, actual_calls = [], []
    expected = reference_train_svm(X, y, params,
                                   lambda e, v: expected_calls.append((e, v)))
    actual = train_svm(X, y, params, lambda e, v: actual_calls.append((e, v)))
    # The runner fits without a callback; that path must give the same bits.
    for model in (actual, train_svm(X, y, params)):
        assert model.weights.tobytes() == expected.weights.tobytes()
        assert (np.float64(model.bias).tobytes()
                == np.float64(expected.bias).tobytes())
    assert ([(e, np.float64(v).tobytes()) for e, v in actual_calls]
            == [(e, np.float64(v).tobytes()) for e, v in expected_calls])
    return actual_calls


def svm_oracle_cases(rng):
    """(X, y, params) covering the shapes the experiment matrix produces."""
    capped = LearnerParams(svm_max_epochs=30)
    for n in range(2, 7):  # user-based folds
        for _ in range(3):
            X, y = random_instance(rng, n, 4, positive_rate=0.5)
            yield X, y, capped
    for scale in (500.0, 3000.0):  # raw exposure seconds, a full-size fold
        X, y = random_instance(rng, 160, 14)
        X[:, :12] = np.abs(X[:, :12]) * scale
        yield X, y, capped
        yield X, y, LearnerParams(svm_max_epochs=2)
    X, y = random_instance(rng, 30, 5)
    yield X, y, LearnerParams(svm_c=0.01)
    X, y = random_instance(rng, 12, 3)
    yield np.vstack([X, X, X[:5]]), np.concatenate([y, y, 1 - y[:5]]), capped
    # Converges 21 updates into its eighth epoch, so the updates of a
    # partial epoch are folded into the weights at exit.
    X, y = random_instance(rng, 25, 4)
    yield X * 3.0, y, LearnerParams()
    X, y = random_instance(rng, 160, 14)
    yield X * 500.0, y, LearnerParams(svm_max_epochs=1)
    for params in (LearnerParams(), LearnerParams(svm_max_epochs=1)):
        yield np.array([[0.5, -1.0], [0.25, 2.0]]), np.array([1, 0]), params
    # A small box on scaled features: rows leave the bounds and re-enter
    # them again and again (35 re-entries in 30 capped epochs of 40 rows).
    X, y = random_instance(rng, 40, 5)
    yield X * 20.0, y, LearnerParams(svm_c=0.05, svm_max_epochs=30)


def test_svm_matches_reference_solver_bit_for_bit():
    rng = np.random.default_rng(61)
    fits = [(params, assert_same_svm_fit(X, y, params))
            for X, y, params in svm_oracle_cases(rng)]
    assert max(len(calls) for _, calls in fits) >= 30  # some case hit its cap
    # Some fit converged inside an epoch: it stopped before its cap, and the
    # dual moved after the last epoch began, so the updates recorded since
    # then were folded into the weights at exit.
    assert any(len(calls) - 1 < params.svm_max_epochs and calls[-1][1] != calls[-2][1]
               for params, calls in fits)


def test_svm_partner_rule_matches_masked_gains():
    def masked(violation, quad):
        gains = np.where(violation > 0, violation * violation / quad, -math.inf)
        return int(gains.argmax())

    quad = np.ones(2)
    # The unguarded |v|*v form picks index 0 on the first two: the positive
    # gain at index 1 underflows to 0 and ties it, or NaN wins argmax.
    for violation in ([0.0, 1e-170], [np.nan, 1.0], [-1.0, 1e-170], [-math.inf, 1e-200]):
        violation = np.array(violation)
        assert learners._second_order_partner(violation, quad, np.empty(2)) == 1
        assert masked(violation, quad) == 1
    # Magnitudes from 1e-200 to 1e200: gains underflow, and overflow to
    # tied infinities, in both forms.
    rng = np.random.default_rng(79)
    for _ in range(200):
        violation = rng.normal(size=20) * 10.0 ** rng.integers(-200, 200, size=20)
        violation[rng.random(20) < 0.3] = -math.inf  # rows off the low set
        violation[rng.random(20) < 0.1] = 0.0
        quad = 2.0 * np.maximum(rng.random(20) * 10.0 ** rng.integers(-12, 12), 1e-12)
        with np.errstate(over="ignore"):
            assert (learners._second_order_partner(violation, quad, np.empty(20))
                    == masked(violation, quad))


def test_svm_row_cache_budget_does_not_change_bits(monkeypatch):
    # Room for two rows only: nearly every pair update evicts and recomputes.
    monkeypatch.setattr(learners, "_FIT_CACHE_BYTES", 1)
    rng = np.random.default_rng(67)
    for scale in (1.0, 500.0):
        X, y = random_instance(rng, 40, 5)
        assert_same_svm_fit(X * scale, y, LearnerParams(svm_max_epochs=20))


@pytest.mark.parametrize("field, value", [
    ("svm_max_epochs", 2.5), ("gbrt_n_estimators", 2.5), ("logreg_max_iter", 2.5),
    ("gbrt_max_depth", 3.0), ("svm_max_epochs", True), ("gbrt_n_estimators", "100"),
    ("svm_c", "1"), ("svm_tol", False), ("gbrt_min_child_weight", "0"),
    ("logreg_l2", None), ("svm_c", math.nan), ("gbrt_min_child_weight", math.nan),
    ("svm_max_epochs", 0), ("gbrt_lambda", 0.0), ("gbrt_min_child_weight", -1.0),
])
def test_learner_params_refuse_wrong_types_and_ranges(field, value):
    with pytest.raises(LearnerError, match=field):
        LearnerParams(**{field: value})


def test_learner_params_accept_integral_and_real_numbers():
    params = LearnerParams(svm_c=1, svm_max_epochs=np.int64(3), logreg_l2=np.float64(0.5),
                           gbrt_min_child_weight=0)
    assert params.svm_max_epochs == 3 and params.svm_c == 1


def test_svm_dual_objective_monotone_per_epoch():
    rng = np.random.default_rng(51)
    for scale in (1.0, 500.0):  # well-scaled and exposure-like features
        X, y = random_instance(rng, 50, 5)
        X = X * scale
        duals = []
        train_svm(X, y, LearnerParams(svm_max_epochs=40),
                  epoch_callback=lambda epoch, value: duals.append(value))
        assert len(duals) >= 2
        assert all(b <= a + 1e-9 * max(1.0, abs(a))
                   for a, b in zip(duals, duals[1:]))


# ---------------------------------------------------------------------------
# Logistic regression
# ---------------------------------------------------------------------------

def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(6):
        X, y = random_instance(rng, 50, 5)
        w = rng.normal(scale=0.5, size=5)
        b = float(rng.normal())
        grad = logistic_gradient(X, y, w, b, l2=1.0)
        eps = 1e-6
        fd = np.zeros(6)
        for j in range(5):
            delta = np.zeros(5)
            delta[j] = eps
            fd[j] = (logistic_objective(X, y, w + delta, b, 1.0)
                     - logistic_objective(X, y, w - delta, b, 1.0)) / (2 * eps)
        fd[5] = (logistic_objective(X, y, w, b + eps, 1.0)
                 - logistic_objective(X, y, w, b - eps, 1.0)) / (2 * eps)
        assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(grad))


def test_logreg_zero_variance_column_gets_zero_weight():
    rng = np.random.default_rng(3)
    X, y = random_instance(rng, 60, 4)
    X[:, 2] = 7.5  # constant column: no signal, the penalty pins it near 0
    model = train_logreg(X, y)
    assert abs(model.weights[2]) < 1e-7


def test_logreg_balanced_zero_features():
    X = np.zeros((10, 3))
    y = np.array([0, 1] * 5)
    model = train_logreg(X, y)
    assert abs(model.bias) < 1e-9
    assert np.allclose(model.weights, 0.0)
    p = sigmoid(model.decision_values(X))
    assert np.allclose(p, 0.5)


def test_logreg_single_class_constant():
    X = np.random.default_rng(1).normal(size=(4, 2))
    model = train_logreg(X, np.ones(4))
    assert predict(model, X).tolist() == [1] * 4


def reference_sigmoid(z):
    """The masked two-branch logistic that ``sigmoid`` must reproduce bit for bit."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_canonical_order(X, y):
    """Row order from one lexsort key per column, label last (least significant)."""
    keys = [y] + [X[:, j] for j in range(X.shape[1] - 1, -1, -1)]
    order = np.lexsort(keys)
    return np.ascontiguousarray(X[order]), y[order]


def reference_train_logreg(X, y, params=LearnerParams(), stops=None):
    """The straightforward solver that ``train_logreg`` must reproduce bit for bit.

    Objective and gradient are recomputed from scratch at every point, the
    Hessian penalty is rebuilt per step, and the stopping rule is
    ``np.linalg.norm``. When ``stops`` is a list, the reason the solver
    stopped ("tol", "max_iter" or "line_search") is appended to it.
    """
    def objective(w, b):
        z = X @ w + b
        nll = float(np.sum(np.logaddexp(0.0, z) - y * z))
        return nll + 0.5 * l2 * float(w @ w)

    def gradient(w, b):
        residual = reference_sigmoid(X @ w + b) - y
        return np.concatenate([X.T @ residual + l2 * w, [float(residual.sum())]])

    X, y = learners._check_training_input(X, y)
    classes = np.unique(y)
    if classes.size == 1:
        rate = min(max(classes[0], learners._PROB_CLAMP), 1.0 - learners._PROB_CLAMP)
        return LinearModel(weights=np.zeros(X.shape[1]),
                           bias=math.log(rate / (1.0 - rate)), kind="logistic")
    X, y = reference_canonical_order(X, y)
    n, d = X.shape
    l2 = params.logreg_l2
    beta = np.zeros(d + 1)
    Xb = np.hstack([X, np.ones((n, 1))])
    penalty = np.append(np.full(d, l2), 0.0)
    reason = "max_iter"
    obj = objective(beta[:d], beta[d])
    for _ in range(params.logreg_max_iter):
        grad = gradient(beta[:d], beta[d])
        if float(np.linalg.norm(grad)) < params.logreg_tol:
            reason = "tol"
            break
        p = reference_sigmoid(Xb @ beta)
        curvature = p * (1.0 - p)
        hessian = Xb.T @ (Xb * curvature[:, None]) + np.diag(penalty)
        step = np.linalg.solve(hessian, grad)
        scale = 1.0
        for _ in range(40):
            candidate = beta - scale * step
            cand_obj = objective(candidate[:d], candidate[d])
            if cand_obj < obj:
                beta, obj = candidate, cand_obj
                break
            scale *= 0.5
        else:
            reason = "line_search"
            break
    if stops is not None:
        stops.append(reason)
    return LinearModel(weights=beta[:d], bias=float(beta[d]), kind="logistic")


def assert_same_logreg_fit(X, y, params):
    stops = []
    expected = reference_train_logreg(X, y, params, stops)
    actual = train_logreg(X, y, params)
    assert actual.weights.tobytes() == expected.weights.tobytes()
    assert np.float64(actual.bias).tobytes() == np.float64(expected.bias).tobytes()
    return stops


def logreg_oracle_cases(rng):
    """(X, y, params) shaped like user-based folds of the experiment matrix."""
    defaults = LearnerParams()
    for d in (7, 14, 25, 39):
        for scale in (1.0, 500.0, 3000.0):  # raw exposure seconds at x500, x3000
            for _ in range(3):
                X, y = random_instance(rng, 29, d)
                if scale != 1.0:
                    X[:, :d - 2] = np.abs(X[:, :d - 2]) * scale
                yield X, y, defaults
    X, y = random_instance(rng, 29, 7)
    X[:, 3] = 0.0  # a zero column
    yield X, y, defaults
    X, y = random_instance(rng, 12, 5)  # duplicate rows with conflicting labels
    yield np.vstack([X, X, X[:5]]), np.concatenate([y, y, 1 - y[:5]]), defaults
    X = rng.normal(size=(29, 6))  # near-separable: one row on the wrong side
    y = (X[:, 0] > 0).astype(np.int64)
    y[int(np.argmin(np.abs(X[:, 0])))] ^= 1
    yield X * 40.0, y, defaults
    for max_iter in (1, 2):
        X, y = random_instance(rng, 29, 14)
        X[:, :12] = np.abs(X[:, :12]) * 3000.0
        yield X, y, LearnerParams(logreg_max_iter=max_iter)


def test_logreg_matches_reference_solver_bit_for_bit():
    rng = np.random.default_rng(71)
    stops = [stop for X, y, params in logreg_oracle_cases(rng)
             for stop in assert_same_logreg_fit(X, y, params)]
    # Every way out of the Newton loop is exercised.
    assert {"tol", "max_iter", "line_search"} <= set(stops)


def test_sigmoid_matches_masked_reference_bit_for_bit():
    tiny = np.finfo(np.float64).smallest_subnormal
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 745.0, -745.0,
                        746.0, -746.0, tiny, -tiny, 1e-310, -1e-310, 1e-300,
                        -1e-300, 36.7, -36.7, 709.8, -709.8])
    grid = np.linspace(-800.0, 800.0, 200_001)
    for z in (special, grid, grid[:0:-1].reshape(-1, 8), np.float64(-3.5)):
        expected = reference_sigmoid(z)
        actual = sigmoid(z)
        assert np.shape(actual) == np.shape(expected)
        assert np.asarray(actual).tobytes() == expected.tobytes()


def test_canonical_order_matches_one_key_per_column():
    rng = np.random.default_rng(73)
    for n, d in ((1, 1), (2, 3), (29, 7), (60, 4), (40, 0)):
        # Few distinct values, so ties reach the later columns and the label.
        X = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        y = rng.integers(0, 2, size=n).astype(np.float64)
        X_new, y_new = learners._canonical_order(X, y)
        X_ref, y_ref = reference_canonical_order(X, y)
        assert X_new.tobytes() == X_ref.tobytes()
        assert y_new.tobytes() == y_ref.tobytes()
        assert X_new.flags.c_contiguous


# ---------------------------------------------------------------------------
# Gradient boosted trees
# ---------------------------------------------------------------------------

def test_gbrt_single_stump_hand_computed():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    params = LearnerParams(gbrt_n_estimators=1, gbrt_max_depth=1,
                           gbrt_min_child_weight=0.0)
    ensemble = train_gbrt(X, y, params)
    assert ensemble.base_score == 0.0  # log-odds of rate 0.5
    stump = ensemble.trees[0]
    # p = 0.5 for both rows: g = (0.5, -0.5), h = (0.25, 0.25), lambda = 1.
    assert stump.feature == 0
    assert stump.threshold == 0.5
    assert stump.left.weight == pytest.approx(-0.5 / 1.25, abs=0)
    assert stump.right.weight == pytest.approx(0.5 / 1.25, abs=0)


def test_gbrt_all_labels_identical_constant():
    X = np.random.default_rng(5).normal(size=(8, 3))
    y = np.ones(8)
    ensemble = train_gbrt(X, y, LearnerParams(gbrt_n_estimators=5))
    p = ensemble.predict_proba(X)
    assert np.all(p > 0.99)
    assert predict(ensemble, X).tolist() == [1] * 8


def test_gbrt_log_loss_non_increasing():
    rng = np.random.default_rng(11)
    for _ in range(3):
        X, y = random_instance(rng, 100, 6, positive_rate=0.3)
        ensemble = train_gbrt(X, y)
        losses = [binary_log_loss(y, raw) for raw in staged_raw_scores(ensemble, X)]
        assert len(losses) == 101
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_gbrt_leaf_weights_recomputable():
    # Every leaf weight must equal -G/(H+lambda) over its member rows.
    rng = np.random.default_rng(13)
    X, y = random_instance(rng, 60, 4)
    params = LearnerParams(gbrt_n_estimators=3)
    ensemble = train_gbrt(X, y, params)
    # Rebuild the member sets by replaying the boosting path.
    from adpredict.learners import _canonical_order
    Xs, ys = _canonical_order(np.asarray(X, float), np.asarray(y, float))
    raw = np.full(len(ys), ensemble.base_score)
    lam = params.gbrt_lambda
    for tree in ensemble.trees:
        p = sigmoid(raw)
        g, h = p - ys, p * (1 - p)

        def check(node, mask):
            if node.is_leaf:
                expected = -g[mask].sum() / (h[mask].sum() + lam)
                assert node.weight == pytest.approx(expected, rel=1e-12)
                return
            left = mask & (Xs[:, node.feature] <= node.threshold)
            check(node.left, left)
            check(node.right, mask & ~left)

        check(tree, np.ones(len(ys), dtype=bool))
        raw += params.gbrt_learning_rate * apply_tree(tree, Xs)


def test_gbrt_min_child_weight_blocks_tiny_splits():
    X = np.array([[0.0], [1.0]])
    y = np.array([0, 1])
    # Child hessian mass is 0.25 < 1, so the default refuses the stump.
    ensemble = train_gbrt(X, y, LearnerParams(gbrt_n_estimators=1, gbrt_max_depth=1))
    assert ensemble.trees[0].is_leaf


def reference_train_gbrt(X, y, params=LearnerParams(), searches=None):
    """The booster that ``train_gbrt`` must reproduce bit for bit.

    It searches for a split at every node above ``gbrt_max_depth`` that
    holds two rows or more, whatever its hessian mass. When ``searches`` is
    a list, each search appends (node hessian mass, whether it split).
    """
    lam = params.gbrt_lambda
    mcw = params.gbrt_min_child_weight

    def best_split(mask, m, g_sum, h_sum):
        member = mask[order]
        sorted_idx = order.T[member.T].reshape(d, m)
        x_sorted = X[sorted_idx, np.arange(d)[:, None]]
        g_left = np.cumsum(g[sorted_idx], axis=1)[:, :-1]
        h_left = np.cumsum(h[sorted_idx], axis=1)[:, :-1]
        g_right = g_sum - g_left
        h_right = h_sum - h_left
        valid = ((x_sorted[:, :-1] < x_sorted[:, 1:])
                 & (h_left >= mcw) & (h_right >= mcw))
        if not valid.any():
            return None
        gain = 0.5 * (g_left ** 2 / (h_left + lam) + g_right ** 2 / (h_right + lam)
                      - g_sum * g_sum / (h_sum + lam))
        gain[~valid] = -math.inf
        flat = int(np.argmax(gain))
        if not gain.flat[flat] > 0.0:
            return None
        feature, boundary = divmod(flat, m - 1)
        lo = float(x_sorted[feature, boundary])
        hi = float(x_sorted[feature, boundary + 1])
        threshold = (lo + hi) / 2.0
        return feature, (lo if threshold >= hi else threshold)

    def grow(mask, depth):
        g_sum = float(g[mask].sum())
        h_sum = float(h[mask].sum())
        weight = -g_sum / (h_sum + lam)
        m = int(mask.sum())
        split = None
        if depth < params.gbrt_max_depth and m >= 2:
            split = best_split(mask, m, g_sum, h_sum)
            if searches is not None:
                searches.append((h_sum, split is not None))
        if split is None:
            leaves.append((mask, weight))
            return learners.TreeNode(weight=weight)
        feature, threshold = split
        left = mask & (X[:, feature] <= threshold)
        right = mask & ~(X[:, feature] <= threshold)
        return learners.TreeNode(feature=feature, threshold=threshold,
                                 left=grow(left, depth + 1), right=grow(right, depth + 1))

    X, y = learners._check_training_input(X, y)
    X, y = reference_canonical_order(X, y)
    n, d = X.shape
    rate = min(max(float(y.mean()), learners._PROB_CLAMP), 1.0 - learners._PROB_CLAMP)
    base_score = math.log(rate / (1.0 - rate))
    raw = np.full(n, base_score)
    order = np.argsort(X, axis=0, kind="stable")
    trees = []
    for _ in range(params.gbrt_n_estimators):
        p = reference_sigmoid(raw)
        g = p - y
        h = p * (1.0 - p)
        leaves = []
        trees.append(grow(np.ones(n, dtype=bool), 0))
        for mask, weight in leaves:
            raw[mask] += params.gbrt_learning_rate * weight
    return learners.BoostedEnsemble(trees=trees, learning_rate=params.gbrt_learning_rate,
                                    base_score=base_score, n_features=d)


def gbrt_to_hex(ensemble) -> list:
    """Every tree as nested tuples, with each float as ``float.hex``."""
    def node(t):
        if t.is_leaf:
            return float(t.weight).hex()
        return (t.feature, float(t.threshold).hex(), node(t.left), node(t.right))
    return [float(ensemble.base_score).hex()] + [node(t) for t in ensemble.trees]


def matrix_fold(rng, n):
    X = np.zeros((n, 13))
    X[np.arange(n), rng.integers(0, 5, size=n)] = 1.0  # one-hot demographics
    X[:, 5:] = np.abs(rng.normal(size=(n, 8))) * 500.0
    X[:, 5:][rng.random((n, 8)) < 0.8] = 0.0  # mostly zero exposure
    return X


def gbrt_oracle_cases(rng):
    """(X, y, rounds) shaped like the folds of the experiment matrix: 4- and
    5-row user bases, tied one-hot and mostly-zero columns, single-class
    labels; plus nodes without a candidate boundary, adjacent floats and a
    full-size fold boosted long enough that rounds revisit row sets."""
    for n in (4, 5):
        for _ in range(3):
            yield *random_instance(rng, n, 6, positive_rate=0.5), 20
            X = np.abs(random_instance(rng, n, 6)[0]) * 3000.0
            X[rng.random(X.shape) < 0.7] = 0.0  # mostly zero
            yield X, rng.integers(0, 2, size=n), 20
        yield rng.normal(size=(n, 3)), np.ones(n), 20
    for n in (29, 160):
        X = matrix_fold(rng, n)
        yield X, (rng.random(n) < 0.3).astype(np.int64), 20
        yield X, np.zeros(n), 20
    X, y = random_instance(rng, 12, 3)  # duplicate rows with conflicting labels
    yield np.vstack([X, X, X[:5]]), np.concatenate([y, y, 1 - y[:5]]), 20
    # A constant column; two row patterns, each repeated with both labels,
    # so every child of the root holds tied rows only.
    X = np.repeat([[7.0, 0.0, 1.0], [7.0, 1.0, 0.0]], 6, axis=0)
    yield X, np.array([0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 0]), 20
    # Adjacent floats whose midpoint rounds up to the larger one (the
    # smaller has an odd last bit), next to a column of ordinary values.
    lo = np.nextafter(1.0, 2.0)
    y = (rng.random(10) < 0.5).astype(np.int64)
    y[:2] = (0, 1)
    X = np.column_stack([np.where(y == 1, np.nextafter(lo, 2.0), lo),
                         rng.normal(size=10)])
    yield X, y, 20
    yield matrix_fold(rng, 160), (rng.random(160) < 0.3).astype(np.int64), 100


def spy_on_layouts(monkeypatch) -> list:
    """Record (served from the node cache, candidate count) per search."""
    lookups = []
    layout = learners._TreeBuilder._layout

    def spy(builder, rows):
        cached = rows.tobytes() in builder.layouts
        sorted_idx, cand = layout(builder, rows)
        lookups.append((cached, cand.size))
        return sorted_idx, cand

    monkeypatch.setattr(learners._TreeBuilder, "_layout", spy)
    return lookups


def assert_same_gbrt_fit(X, y, params, searches=None):
    expected = reference_train_gbrt(X, y, params, searches)
    actual = train_gbrt(X, y, params)
    assert gbrt_to_hex(actual) == gbrt_to_hex(expected)
    assert model_to_text(actual) == model_to_text(expected)
    return actual


def midpoint_rounded_up(X, ensemble) -> bool:
    """Whether some split took ``threshold = lo``: the midpoint of ``lo`` and
    the next larger value of its column rounds up to that value."""
    def walk(t):
        if t.is_leaf:
            return False
        above = X[:, t.feature][X[:, t.feature] > t.threshold]
        hi = above.min()
        return (t.threshold + hi) / 2.0 >= hi or walk(t.left) or walk(t.right)
    return any(walk(t) for t in ensemble.trees)


def test_gbrt_matches_reference_booster_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(83)
    cases = list(gbrt_oracle_cases(rng))
    lookups = spy_on_layouts(monkeypatch)
    searches, rounded_up = [], False
    for mcw in (0.0, 0.5, 1.0, 5.0):
        for X, y, rounds in cases:
            params = LearnerParams(gbrt_n_estimators=rounds, gbrt_min_child_weight=mcw)
            found = []
            del lookups[:]
            actual = assert_same_gbrt_fit(X, y, params, found)
            rounded_up = rounded_up or midpoint_rounded_up(X, actual)
            searches += [(h_sum < 2.0 * mcw, split) for h_sum, split in found]
            if rounds == 100 and mcw <= 1.0:
                assert any(cached for cached, _ in lookups)
            if mcw == 0.0 and X.shape == (12, 3):
                assert (False, 0) in lookups  # a search with no candidate
    # Searches the trainer skips exist, and none of them found a split.
    assert (True, False) in searches and (True, True) not in searches
    assert (False, True) in searches
    assert rounded_up


def test_gbrt_node_cache_budget_does_not_change_bits(monkeypatch):
    monkeypatch.setattr(learners, "_FIT_CACHE_BYTES", 1)  # no layout fits
    lookups = spy_on_layouts(monkeypatch)
    for X, y, rounds in gbrt_oracle_cases(np.random.default_rng(83)):
        assert_same_gbrt_fit(X, y, LearnerParams(gbrt_n_estimators=rounds))
    assert lookups and not any(cached for cached, _ in lookups)


def tree_depth(node) -> int:
    return 0 if node.is_leaf else 1 + max(tree_depth(node.left), tree_depth(node.right))


def probe_rows(X, ensemble, rng):
    """X, then rows of X edited to hold NaN, +-inf, and each split threshold
    of the ensemble's first ten trees in its feature."""
    probes = [X]
    for value in (np.nan, np.inf, -np.inf):
        rows = X.copy()
        rows[rng.random(X.shape) < 0.4] = value
        probes.append(rows)

    def thresholds(t):
        if not t.is_leaf:
            yield t.feature, t.threshold
            yield from thresholds(t.left)
            yield from thresholds(t.right)

    for tree in ensemble.trees[:10]:
        for feature, threshold in thresholds(tree):
            row = X[rng.integers(X.shape[0])].copy()
            row[feature] = threshold
            probes.append(row[None, :])
    return np.vstack(probes)


def test_ensemble_scores_equal_sequential_tree_sum_bit_for_bit():
    rng = np.random.default_rng(89)
    depth_mixes = []
    for X, y, rounds in gbrt_oracle_cases(np.random.default_rng(83)):
        fits = [train_gbrt(X, y, LearnerParams(gbrt_n_estimators=rounds,
                                               gbrt_min_child_weight=mcw))
                for mcw in (0.0, 1.0)]
        # Both fits' trees interleaved, then a single leaf: mixed depths.
        trees = [tree for pair in zip(fits[0].trees, fits[1].trees) for tree in pair]
        mixed = learners.BoostedEnsemble(
            trees=trees + [learners.TreeNode(weight=-0.75)], learning_rate=0.3,
            base_score=fits[1].base_score, n_features=X.shape[1])
        depth_mixes.append({tree_depth(t) for t in mixed.trees})
        for ensemble in fits + [mixed]:
            rows = probe_rows(X, ensemble, rng)
            *_, expected = staged_raw_scores(ensemble, rows)
            assert ensemble.raw_scores(rows).tobytes() == expected.tobytes()
            assert ensemble.raw_scores(rows[:1]).tobytes() == expected[:1].tobytes()
            assert (predict(ensemble, rows).tolist()
                    == (sigmoid(expected) >= 0.5).astype(np.int64).tolist())
    assert any({0, 2, 3} <= depths for depths in depth_mixes)


# ---------------------------------------------------------------------------
# Shared behavior
# ---------------------------------------------------------------------------

def test_permuting_rows_leaves_models_bit_identical():
    rng = np.random.default_rng(19)
    X, y = random_instance(rng, 40, 5)
    perm = rng.permutation(40)
    params = LearnerParams(gbrt_n_estimators=10, svm_max_epochs=200)
    for kind in ("svm", "logreg"):
        a = train(kind, X, y, params)
        b = train(kind, X[perm], y[perm], params)
        assert np.array_equal(a.weights, b.weights)
        assert a.bias == b.bias
    ga = train_gbrt(X, y, params)
    gb = train_gbrt(X[perm], y[perm], params)
    assert model_to_text(ga) == model_to_text(gb)


def test_predict_tie_rules():
    svm = LinearModel(weights=np.array([1.0]), bias=0.0, kind="svm")
    assert predict(svm, np.array([[-2.0]])).tolist() == [0]
    assert predict(svm, np.array([[0.0]])).tolist() == [1]  # 0 maps to positive
    logistic = LinearModel(weights=np.array([0.0]), bias=0.0, kind="logistic")
    assert predict(logistic, np.array([[3.0]])).tolist() == [1]  # p = 0.5 -> 1


def test_trained_models_reproduce_separable_fixture():
    rng = np.random.default_rng(29)
    X = np.vstack([rng.normal(-3.0, 0.3, size=(15, 2)),
                   rng.normal(3.0, 0.3, size=(15, 2))])
    y = np.array([0] * 15 + [1] * 15)
    for kind in ("svm", "gbrt", "logreg"):
        model = train(kind, X, y, LearnerParams(gbrt_min_child_weight=0.5))
        assert predict(model, X).tolist() == y.tolist(), kind


def test_dimension_mismatch_rejected():
    X, y = random_instance(np.random.default_rng(0), 10, 3)
    model = train_logreg(X, y)
    with pytest.raises(LearnerError):
        predict(model, np.zeros((2, 5)))
    with pytest.raises(LearnerError):
        train_svm(np.zeros((3, 2)), np.array([0, 1]))
