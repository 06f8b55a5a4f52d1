"""Linear readouts (logistic regression, ridge classifier) and metrics.

Both readouts standardize features with statistics fitted on the
training rows only.  Logistic regression is trained by full-batch
Newton steps with Armijo backtracking, so the regularized loss never
increases across iterations.  The ridge classifier maps labels {0,1}
to {-1,+1} and solves the normal equations (X^T X + alpha I) w = X^T y.

A whole regularization path is fitted in one call: fit_logistic_path
steps every L2 value together as one batch of Newton iterations, and
fit_ridge_path forms X^T X and X^T y once for every alpha.  Each model
of a path equals its own single fit (fit_logistic, fit_ridge) bit for
bit.
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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _rowdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Dot product of each row of u with the same row of v."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
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
        # one norm per row: norm(g, axis=1) sums in another order than a row's own norm
        small = np.array([np.linalg.norm(g[i]) < tol for i in active], dtype=bool)
        converged[active[small]] = True
        active = active[~small]
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
        rise = cand_loss > loss[active]
        for i in active[rise]:
            converged[i] = np.linalg.norm(g[i]) < max(tol, 1e-6)
        active = active[~rise]
        wb[active], loss[active] = cand[~rise], cand_loss[~rise]
        g[active], p[active] = cand_g[~rise], cand_p[~rise]
    else:
        for i in active:
            converged[i] = np.linalg.norm(g[i]) < tol
    return [
        LinearModel("logistic", np.where(scaler.constant, 0.0, wb[i, :d]), float(wb[i, d]),
                    l2, scaler, converged=bool(converged[i]))
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
    with {-1,+1} targets; X^T X and X^T y are formed once for all of them.
    """
    alphas = list(alphas)
    if any(alpha <= 0 for alpha in alphas):
        raise InputShapeError("ridge alpha must be > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scaler = Standardizer.fit(x)
    xs = scaler.transform(x)
    targets = 2.0 * y - 1.0
    gram, rhs, eye = xs.T @ xs, xs.T @ targets, np.eye(xs.shape[1])
    # standardized features have zero mean, so the intercept is the
    # target mean; at extreme alpha the margin collapses to it and
    # prediction falls back to the training-majority class (exact zero
    # margins resolve to label 0).
    bias = float(targets.mean())
    return [
        LinearModel("ridge", np.where(scaler.constant, 0.0, np.linalg.solve(gram + alpha * eye, rhs)),
                    bias, alpha, scaler)
        for alpha in alphas
    ]


def fit_ridge(x, y, alpha=1.0) -> LinearModel:
    """Ridge classifier on standardized features with {-1,+1} targets."""
    return fit_ridge_path(x, y, [alpha])[0]


def predict_scores(model: LinearModel, x) -> np.ndarray:
    """Logistic: sigmoid probability; ridge: raw margin."""
    x = np.asarray(x, dtype=float)
    if x.shape[1] != len(model.weights):
        raise InputShapeError(
            f"{x.shape[1]} features, model expects {len(model.weights)}"
        )
    z = model.scaler.transform(x) @ model.weights + model.bias
    return _sigmoid(z) if model.kind == "logistic" else z


def average_precision(scores, labels) -> tuple:
    """Step-wise PR summation AP = sum_k (R_k - R_{k-1}) * P_k.

    Rows are ranked by descending score; equal-score rows form one block
    whose precision/recall are computed after the whole block.  Returns
    (ap, defined); ap is 0.0 and defined False when there are no
    positive labels.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    if n_pos == 0:
        return 0.0, False
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    # last row of each block of equal scores
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    tp = np.cumsum(labels[order])[ends]
    recall = tp / n_pos
    gain = recall.copy()
    gain[1:] -= recall[:-1]
    # cumsum adds in row order, as a running sum does; np.sum's pairwise order may not
    terms = gain * (tp / (ends + 1))
    return float(np.cumsum(terms)[-1]), True


def evaluate(scores, labels, threshold) -> EvalResult:
    """Accuracy at the given score threshold plus step-wise AP."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(scores) == 0 or len(scores) != len(labels):
        raise EvaluationError("scores and labels must be equal-length and non-empty")
    if not np.all((labels == 0) | (labels == 1)):
        raise EvaluationError("labels must be binary")
    if not np.all(np.isfinite(scores)):
        raise EvaluationError("scores must be finite")
    # counts of (prediction, label) = (0, 0), (0, 1), (1, 0), (1, 1)
    tn, fn, fp, tp = map(int, np.bincount(2 * (scores > threshold) + labels, minlength=4))
    acc = (tp + tn) / len(labels)
    ap, defined = average_precision(scores, labels)
    return EvalResult(
        accuracy=float(acc),
        average_precision=ap,
        confusion=(tp, fp, tn, fn),
        ap_defined=defined,
    )

