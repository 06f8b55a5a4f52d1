"""Linear readouts (logistic regression, ridge classifier) and metrics.

Both readouts standardize features with statistics fitted on the
training rows only.  Logistic regression is trained by full-batch
Newton steps with Armijo backtracking, so the regularized loss never
increases across iterations.  The ridge classifier maps labels {0,1}
to {-1,+1} and solves the normal equations (X^T X + alpha I) w = X^T y.
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


def logistic_loss_grad(wb: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float):
    """Mean log-loss + (l2/2)*||w||^2 (bias unregularized) and gradient.

    wb stacks [weights..., bias].
    """
    m, d = x.shape
    w, b = wb[:d], wb[d]
    z = x @ w + b
    # log(1 + exp(-s*z)) computed stably
    s = 2.0 * y - 1.0
    loss = float(np.mean(np.logaddexp(0.0, -s * z))) + 0.5 * l2 * float(w @ w)
    p = _sigmoid(z)
    g = np.empty(d + 1)
    g[:d] = x.T @ (p - y) / m + l2 * w
    g[d] = float(np.mean(p - y))
    return loss, g


def fit_logistic(x, y, l2=1e-2, max_iter=100, tol=1e-8) -> LinearModel:
    """Newton's method with backtracking on the regularized mean log-loss."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scaler = Standardizer.fit(x)
    classes = np.unique(y)
    if len(classes) < 2:
        only = int(classes[0]) if len(classes) else 0
        return LinearModel(
            kind="logistic",
            weights=np.zeros(x.shape[1]),
            bias=DEGENERATE_LOGIT if only == 1 else -DEGENERATE_LOGIT,
            regularization=l2,
            scaler=scaler,
            degenerate=True,
        )
    xs = scaler.transform(x)
    m, d = xs.shape
    wb = np.zeros(d + 1)
    loss, g = logistic_loss_grad(wb, xs, y, l2)
    converged = False
    for _ in range(max_iter):
        if np.linalg.norm(g) < tol:
            converged = True
            break
        z = xs @ wb[:d] + wb[d]
        p = _sigmoid(z)
        s = np.clip(p * (1.0 - p), 1e-12, None)
        a = np.hstack([xs, np.ones((m, 1))])
        hess = (a * s[:, None]).T @ a / m
        hess[:d, :d] += l2 * np.eye(d)
        hess += 1e-12 * np.eye(d + 1)
        step = np.linalg.solve(hess, g)
        # Armijo backtracking keeps the loss non-increasing
        eta = 1.0
        for _ in range(50):
            cand = wb - eta * step
            cand_loss, cand_g = logistic_loss_grad(cand, xs, y, l2)
            if cand_loss <= loss - 1e-4 * eta * float(g @ step):
                break
            eta *= 0.5
        if cand_loss > loss:
            converged = np.linalg.norm(g) < max(tol, 1e-6)
            break
        wb, loss, g = cand, cand_loss, cand_g
    else:
        converged = bool(np.linalg.norm(g) < tol)
    weights = np.where(scaler.constant, 0.0, wb[:d])
    return LinearModel(
        kind="logistic",
        weights=weights,
        bias=float(wb[d]),
        regularization=l2,
        scaler=scaler,
        converged=converged,
    )


def ridge_solve(x: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Solve (X^T X + alpha I) w = X^T y."""
    d = x.shape[1]
    return np.linalg.solve(x.T @ x + alpha * np.eye(d), x.T @ y)


def fit_ridge(x, y, alpha=1.0) -> LinearModel:
    """Ridge classifier on standardized features with {-1,+1} targets."""
    if alpha <= 0:
        raise InputShapeError("ridge alpha must be > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scaler = Standardizer.fit(x)
    xs = scaler.transform(x)
    targets = 2.0 * y - 1.0
    weights = ridge_solve(xs, targets, alpha)
    weights = np.where(scaler.constant, 0.0, weights)
    # standardized features have zero mean, so the intercept is the
    # target mean; at extreme alpha the margin collapses to it and
    # prediction falls back to the training-majority class (exact zero
    # margins resolve to label 0).
    bias = float(targets.mean())
    return LinearModel(
        kind="ridge",
        weights=weights,
        bias=bias,
        regularization=alpha,
        scaler=scaler,
    )


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
    # cumsum adds in row order, as a running sum does; np.sum's pairwise order may not
    terms = np.diff(recall, prepend=0.0) * (tp / (ends + 1))
    return float(np.cumsum(terms)[-1]), True


def evaluate(scores, labels, threshold) -> EvalResult:
    """Accuracy at the given score threshold plus step-wise AP."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if len(scores) == 0 or len(scores) != len(labels):
        raise EvaluationError("scores and labels must be equal-length and non-empty")
    if not set(np.unique(labels)) <= {0, 1}:
        raise EvaluationError("labels must be binary")
    if not np.all(np.isfinite(scores)):
        raise EvaluationError("scores must be finite")
    preds = (scores > threshold).astype(int)
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    tn = int(np.sum((preds == 0) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    acc = (tp + tn) / len(labels)
    ap, defined = average_precision(scores, labels)
    return EvalResult(
        accuracy=float(acc),
        average_precision=ap,
        confusion=(tp, fp, tn, fn),
        ap_defined=defined,
    )

