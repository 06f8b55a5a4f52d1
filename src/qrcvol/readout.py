"""Linear readouts (logistic regression, ridge classifier) and metrics.

Both readouts standardize features with statistics fitted on the
training rows only.  Logistic regression is trained by full-batch
Newton steps with Armijo backtracking, so the regularized loss never
increases across iterations.  The ridge classifier maps labels {0,1}
to {-1,+1} and solves the normal equations (X^T X + alpha I) w = X^T y.

A whole regularization path is fitted in one call: fit_logistic_path
steps every L2 value together as one batch of Newton iterations, and
fit_ridge_path forms X^T X and X^T y once and solves every alpha in one
stacked solve.  evaluate_path scores and evaluates the models of a path
as one batch.  Each model and result of a path equals its own single
fit (fit_logistic, fit_ridge) and evaluation (predict_scores, evaluate)
bit for bit; those are one-row wrappers of the batched code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, InputShapeError

CONSTANT_STD = 1e-12
DEGENERATE_LOGIT = 25.0  # sigmoid(+-25) saturates well past any 0.5 threshold


@dataclass
class Standardizer:
    mean: np.ndarray
    std: np.ndarray  # 1.0 for constant features
    constant: np.ndarray  # bool mask of constant features

    @classmethod
    def fit(cls, x: np.ndarray) -> "Standardizer":
        mean = x.mean(axis=0)
        std = x.std(axis=0)
        constant = std < CONSTANT_STD
        std = np.where(constant, 1.0, std)
        return cls(mean, std, constant)

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (x - self.mean) / self.std


@dataclass
class LinearModel:
    kind: str  # "logistic" | "ridge"
    weights: np.ndarray
    bias: float
    regularization: float
    scaler: Standardizer
    converged: bool = True
    degenerate: bool = False

    @property
    def threshold(self) -> float:
        return 0.5 if self.kind == "logistic" else 0.0


@dataclass
class EvalResult:
    accuracy: float
    average_precision: float
    confusion: tuple  # (tp, fp, tn, fn)
    ap_defined: bool = True


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) <= 1 never overflows: 1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z)) below
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of u with the same row of v."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _rownorm(u: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of u: the square root of the row's own dot."""
    return np.sqrt(_rowdot(u, u))


def _loss_grad_rows(wb: np.ndarray, x: np.ndarray, y: np.ndarray, l2: np.ndarray):
    """logistic_loss_grad of each row of a (B, d+1) stack wb with its own
    l2[i], plus the (B, m) probabilities sigmoid(z).

    Every product is a stacked matmul, which calls the BLAS kernel of the
    one-row product once per row, and every mean runs along a row, so each
    row equals its one-row result bit for bit.
    """
    m, d = x.shape
    w, b = wb[:, :d], wb[:, d]
    z = np.matmul(x[None], w[:, :, None])[:, :, 0] + b[:, None]
    # log(1 + exp(-s*z)) computed stably
    s = 2.0 * y - 1.0
    loss = np.mean(np.logaddexp(0.0, -s * z), axis=1) + 0.5 * l2 * _rowdot(w, w)
    p = _sigmoid(z)
    r = p - y
    g = np.empty((len(wb), d + 1))
    g[:, :d] = np.matmul(x.T[None], r[:, :, None])[:, :, 0] / m + l2[:, None] * w
    g[:, d] = np.mean(r, axis=1)
    return loss, g, p


def _features_and_labels(x, y):
    """x and y as float arrays; InputShapeError unless x is 2-D, y holds one
    value per row of x, and both are finite."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2:
        raise InputShapeError(f"features must be 2-D, got shape {x.shape}")
    if y.shape != (len(x),):
        raise InputShapeError(f"{len(x)} feature rows, labels of shape {y.shape}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputShapeError("features and labels must be finite")
    return x, y


def logistic_loss_grad(wb: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float):
    """Mean log-loss + (l2/2)*||w||^2 (bias unregularized) and gradient.

    wb stacks [weights..., bias].
    """
    loss, g, _ = _loss_grad_rows(np.asarray(wb, dtype=float)[None], x, y, np.array([l2], dtype=float))
    return float(loss[0]), g[0]


def fit_logistic_path(x, y, l2s, max_iter=100, tol=1e-8) -> list:
    """One model per value of l2s: Newton's method with backtracking on the
    regularized mean log-loss, every value stepped together as one batch.

    Each model equals fit_logistic with its own l2 bit for bit: a row
    keeps its own step length and leaves the batch when it converges or
    its line search fails.
    """
    l2s = list(l2s)
    lam = np.array(l2s, dtype=float)
    if not np.all(lam >= 0):
        raise InputShapeError("logistic l2 must be >= 0")
    x, y = _features_and_labels(x, y)
    scaler = Standardizer.fit(x)
    classes = np.unique(y)
    if len(classes) < 2:
        only = int(classes[0]) if len(classes) else 0
        bias = DEGENERATE_LOGIT if only == 1 else -DEGENERATE_LOGIT
        return [
            LinearModel("logistic", np.zeros(x.shape[1]), bias, l2, scaler, degenerate=True)
            for l2 in l2s
        ]
    xs = scaler.transform(x)
    m, d = xs.shape
    a = np.hstack([xs, np.ones((m, 1))])
    wb = np.zeros((len(lam), d + 1))
    loss, g, p = _loss_grad_rows(wb, xs, y, lam)
    converged = np.zeros(len(lam), dtype=bool)
    active = np.arange(len(lam))  # rows still iterating
    for _ in range(max_iter):
        # a row's own norm: norm(g, axis=1) sums in another order
        norm = _rownorm(g[active])
        small = norm < tol
        converged[active[small]] = True
        active, norm = active[~small], norm[~small]
        if not len(active):
            break
        # p is sigmoid(z) of the accepted step; the Hessian, step and slope
        # are stacked forms of the one-row products, as in _loss_grad_rows
        s = np.clip(p[active] * (1.0 - p[active]), 1e-12, None)
        hess = np.matmul((a[None] * s[:, :, None]).transpose(0, 2, 1), a[None]) / m
        hess[:, :d, :d] += lam[active, None, None] * np.eye(d)
        hess += 1e-12 * np.eye(d + 1)
        step = np.linalg.solve(hess, g[active, :, None])[:, :, 0]
        slope = _rowdot(g[active], step)
        # Armijo backtracking keeps the loss non-increasing; each row
        # halves its own eta, and only rows still searching are evaluated
        eta = np.ones(len(active))
        cand = np.empty_like(step)
        cand_loss = np.empty(len(active))
        cand_g = np.empty_like(step)
        cand_p = np.empty((len(active), m))
        search = np.arange(len(active))
        for _ in range(50):
            rows = active[search]
            cand[search] = wb[rows] - eta[search, None] * step[search]
            cand_loss[search], cand_g[search], cand_p[search] = _loss_grad_rows(
                cand[search], xs, y, lam[rows])
            done = cand_loss[search] <= loss[rows] - 1e-4 * eta[search] * slope[search]
            search = search[~done]
            if not len(search):
                break
            eta[search] *= 0.5
        # a failed line search ends the row; g is still that of its last step
        rise = cand_loss > loss[active]
        converged[active[rise]] = norm[rise] < max(tol, 1e-6)
        active = active[~rise]
        wb[active], loss[active] = cand[~rise], cand_loss[~rise]
        g[active], p[active] = cand_g[~rise], cand_p[~rise]
    else:
        converged[active] = _rownorm(g[active]) < tol
    weights = np.where(scaler.constant, 0.0, wb[:, :d])
    return [
        LinearModel("logistic", weights[i], float(wb[i, d]), l2, scaler, converged=bool(converged[i]))
        for i, l2 in enumerate(l2s)
    ]


def fit_logistic(x, y, l2=1e-2, max_iter=100, tol=1e-8) -> LinearModel:
    """Newton's method with backtracking on the regularized mean log-loss."""
    return fit_logistic_path(x, y, [l2], max_iter, tol)[0]


def ridge_solve(x: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Solve (X^T X + alpha I) w = X^T y."""
    d = x.shape[1]
    return np.linalg.solve(x.T @ x + alpha * np.eye(d), x.T @ y)


def fit_ridge_path(x, y, alphas) -> list:
    """One ridge classifier per value of alphas, on standardized features
    with {-1,+1} targets; X^T X and X^T y are formed once, and one stacked
    solve gives every alpha's weights.
    """
    alphas = list(alphas)
    if any(alpha <= 0 for alpha in alphas):
        raise InputShapeError("ridge alpha must be > 0")
    x, y = _features_and_labels(x, y)
    scaler = Standardizer.fit(x)
    xs = scaler.transform(x)
    targets = 2.0 * y - 1.0
    d = xs.shape[1]
    gram, rhs = xs.T @ xs, xs.T @ targets
    # the same gesv per alpha as ridge_solve
    lhs = gram + np.array(alphas, dtype=float)[:, None, None] * np.eye(d)
    solved = np.linalg.solve(lhs, np.broadcast_to(rhs[:, None], (len(alphas), d, 1)))[:, :, 0]
    weights = np.where(scaler.constant, 0.0, solved)
    # standardized features have zero mean, so the intercept is the
    # target mean; at extreme alpha the margin collapses to it and
    # prediction falls back to the training-majority class (exact zero
    # margins resolve to label 0).
    bias = float(targets.mean())
    return [LinearModel("ridge", w, bias, alpha, scaler) for w, alpha in zip(weights, alphas)]


def fit_ridge(x, y, alpha=1.0) -> LinearModel:
    """Ridge classifier on standardized features with {-1,+1} targets."""
    return fit_ridge_path(x, y, [alpha])[0]


def _path_scores(models, xs: np.ndarray) -> np.ndarray:
    """(B, n) scores of B models on rows xs that their scaler standardized.

    One stacked matmul gives each model the gemv of xs @ weights, as in
    _loss_grad_rows; logistic rows then pass through the sigmoid.
    """
    weights = np.array([model.weights for model in models], dtype=float)
    bias = np.array([model.bias for model in models], dtype=float)
    z = np.matmul(xs[None], weights[:, :, None])[:, :, 0] + bias[:, None]
    logistic = [model.kind == "logistic" for model in models]
    if any(logistic):
        z[logistic] = _sigmoid(z[logistic])
    return z


def predict_scores(model: LinearModel, x) -> np.ndarray:
    """Logistic: sigmoid probability; ridge: raw margin."""
    x = np.asarray(x, dtype=float)
    if x.shape[1] != len(model.weights):
        raise InputShapeError(
            f"{x.shape[1]} features, model expects {len(model.weights)}"
        )
    return _path_scores([model], model.scaler.transform(x))[0]


def _average_precision_rows(scores: np.ndarray, labels: np.ndarray):
    """Step-wise AP of each row of a (B, n) score array against one label
    vector: (B,) values and whether AP is defined (any positive label).

    Each row sums, in row order, one term per block of equal scores; the
    positions that end no block add an exact +0.0, so the running sum
    equals that of the block terms alone.
    """
    n_pos = int(labels.sum())
    if n_pos == 0:
        return np.zeros(len(scores)), False
    order = np.argsort(-scores, axis=1, kind="stable")
    s = scores[np.arange(len(scores))[:, None], order]
    # last row of each block of equal scores
    ends = np.ones(s.shape, dtype=bool)
    np.not_equal(s[:, 1:], s[:, :-1], out=ends[:, :-1])
    tp = labels[order].cumsum(axis=1)
    recall = tp / n_pos
    # R_k - R_{k-1}: recall less that of the last block end before it
    gain = recall.copy()
    gain[:, 1:] -= np.maximum.accumulate(recall * ends, axis=1)[:, :-1]
    # (R_k - R_{k-1}) * P_k, multiplied in this order: a*b/c rounds differently
    terms = np.where(ends, gain * (tp / np.arange(1, s.shape[1] + 1)), 0.0)
    # cumsum adds in row order, as a running sum does; sum's pairwise order may not
    return terms.cumsum(axis=1)[:, -1], True


def average_precision(scores, labels) -> tuple:
    """Step-wise PR summation AP = sum_k (R_k - R_{k-1}) * P_k.

    Rows are ranked by descending score; equal-score rows form one block
    whose precision/recall are computed after the whole block.  Returns
    (ap, defined); ap is 0.0 and defined False when there are no
    positive labels.
    """
    ap, defined = _average_precision_rows(
        np.asarray(scores, dtype=float)[None], np.asarray(labels, dtype=int))
    return float(ap[0]), defined


def _evaluate_rows(scores: np.ndarray, labels, thresholds) -> list:
    """One EvalResult per row of a (B, n) score array, each row at its own
    threshold, against one label vector."""
    labels = np.asarray(labels)
    if scores.shape[1] == 0 or scores.shape[1] != len(labels):
        raise EvaluationError("scores and labels must be equal-length and non-empty")
    # checked before the cast, which would truncate a fractional label
    if not ((labels == 0) | (labels == 1)).all():
        raise EvaluationError("labels must be binary")
    labels = labels.astype(int)
    if not np.isfinite(scores).all():
        raise EvaluationError("scores must be finite")
    # counts of (prediction, label) = (0, 0), (0, 1), (1, 0), (1, 1), offset by 4 per row
    codes = 2 * (scores > np.array(thresholds)[:, None]) + labels
    codes += np.arange(0, 4 * len(scores), 4)[:, None]
    counts = np.bincount(codes.ravel(), minlength=4 * len(scores)).reshape(-1, 4).tolist()
    aps, defined = _average_precision_rows(scores, labels)
    return [
        EvalResult(accuracy=(tp + tn) / len(labels), average_precision=float(ap),
                   confusion=(tp, fp, tn, fn), ap_defined=defined)
        for (tn, fn, fp, tp), ap in zip(counts, aps)
    ]


def evaluate(scores, labels, threshold) -> EvalResult:
    """Accuracy at the given score threshold plus step-wise AP."""
    return _evaluate_rows(np.asarray(scores, dtype=float)[None], labels, [threshold])[0]


def evaluate_path(models, x, labels) -> list:
    """evaluate(predict_scores(model, x), labels, model.threshold) of each
    model, bit for bit, with every model scored and evaluated as one batch.

    The models share one Standardizer, as the models of a fitted path do.
    """
    models = list(models)
    if not models:
        return []
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or any(len(model.weights) != x.shape[1] for model in models):
        raise InputShapeError(f"features of shape {x.shape}, models expect {len(models[0].weights)} columns")
    scaler = models[0].scaler
    if any(model.scaler is not scaler for model in models):
        raise InputShapeError("the models of a path share one Standardizer")
    return _evaluate_rows(_path_scores(models, scaler.transform(x)), labels, [model.threshold for model in models])
