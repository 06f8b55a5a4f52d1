import zipfile

import numpy as np

from qrcvol.harness import GridCell
from qrcvol.pipeline import FORMAT_VERSION
from qrcvol.readout import DEGENERATE_LOGIT, Standardizer


def taylor_expm(mat: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring truncated-Taylor matrix exponential.

    Independent oracle for the eigendecomposition evolution path: scale
    the matrix by 2^-k until its norm is small, sum the Taylor series to
    machine convergence, then square k times.
    """
    mat = np.asarray(mat, dtype=complex)
    norm = np.linalg.norm(mat, ord=np.inf)
    k = max(0, int(np.ceil(np.log2(max(norm, 1e-300)))) + 1)
    scaled = mat / (2.0**k)
    dim = mat.shape[0]
    result = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for order in range(1, 60):
        term = term @ scaled / order
        result = result + term
        if np.linalg.norm(term, ord=np.inf) < 1e-20:
            break
    for _ in range(k):
        result = result @ result
    return result


_I = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _on_qubits(n, factors):
    """Kronecker product with factors[q] on qubit q; qubit 0 is the rightmost factor."""
    mat = np.ones((1, 1))
    for q in reversed(range(n)):
        mat = np.kron(mat, factors.get(q, _I))
    return mat


def kron_hamiltonian(window, scalers):
    """The paper's H built from 2x2 Kronecker products, independently of qrcvol:
    a_x sum_i X_i + a_z sum_i x_i Z_i + a_zz sum_i (x_i + x_{i+1}) Z_i Z_{i+1}.
    """
    a_x, a_z, a_zz = scalers
    n = len(window)
    h = np.zeros((2**n, 2**n))
    for i in range(n):
        h += a_x * _on_qubits(n, {i: _X}) + a_z * window[i] * _on_qubits(n, {i: _Z})
    for i in range(n - 1):
        h += a_zz * (window[i] + window[i + 1]) * _on_qubits(n, {i: _Z, i + 1: _Z})
    return h


def dense(h):
    """Dense matrix of one window's Hamiltonian pair (diag, a_x): the
    diagonal plus a_x on every entry that flips one bit."""
    diag, a_x = h
    dim = len(diag)
    mat = np.diag(diag)
    idx = np.arange(dim)
    for q in range(dim.bit_length() - 1):
        mat[idx ^ (1 << q), idx] += a_x
    return mat


def random_window_scalers(rng, n):
    """Random window of n returns and (a_x, a_z, a_zz), each possibly negative or zero."""
    window = rng.normal(0, 0.5, size=n)
    scalers = rng.normal(0, 1.5, size=3)
    window[rng.random(n) < 0.2] = 0.0
    scalers[rng.random(3) < 0.2] = 0.0
    return window, tuple(float(s) for s in scalers)


def random_state(rng, n):
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return amps / np.linalg.norm(amps)


def zero_state(n):
    amps = np.zeros(2**n, dtype=complex)
    amps[0] = 1.0
    return amps


def best_cells(report):
    """The best cell of each (embedding kind, readout kind) of a report:
    the least by GridCell.sort_key, the order emit_report lists them in."""
    best = {}
    for cell in sorted(report.cells, key=GridCell.sort_key):
        best.setdefault((cell.embedding.kind, cell.readout_kind), cell)
    return best


def reference_average_precision(scores, labels):
    """Step-wise AP by an explicit walk over blocks of equal scores, in
    descending score order: the running sum of (R_k - R_{k-1}) * P_k."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="stable")
    s_sorted = scores[order]
    l_sorted = labels[order]
    ap = 0.0
    tp = fp = 0
    prev_recall = 0.0
    i = 0
    m = len(scores)
    while i < m:
        j = i
        while j < m and s_sorted[j] == s_sorted[i]:
            j += 1
        tp += int(l_sorted[i:j].sum())
        fp += (j - i) - int(l_sorted[i:j].sum())
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return float(ap)


def reference_sigmoid(z):
    """Logistic sigmoid, each sign on its own branch: 1/(1+exp(-z)) for
    z >= 0 and exp(z)/(1+exp(z)) below, neither of which overflows."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_esn_step(state, value, w, w_in, params):
    """Leaky echo-state update of one state:
    state' = (1 - leak) * state + leak * tanh(W state + W_in * u * scaling).
    """
    leak = params.leak_rate
    pre = w @ state + w_in * (value * params.input_scaling)
    return (1.0 - leak) * state + leak * np.tanh(pre)


def reference_ridge_solve(x, y, alpha):
    """Solve (X^T X + alpha I) w = X^T y."""
    d = x.shape[1]
    return np.linalg.solve(x.T @ x + alpha * np.eye(d), x.T @ y)


def reference_logistic_loss_grad(wb, x, y, l2):
    """Mean log-loss + (l2/2)*||w||^2 and its gradient for one [weights..., bias] vector."""
    m, d = x.shape
    w, b = wb[:d], wb[d]
    z = x @ w + b
    s = 2.0 * y - 1.0
    loss = float(np.mean(np.logaddexp(0.0, -s * z))) + 0.5 * l2 * float(w @ w)
    p = reference_sigmoid(z)
    g = np.empty(d + 1)
    g[:d] = x.T @ (p - y) / m + l2 * w
    g[d] = float(np.mean(p - y))
    return loss, g


def reference_fit_logistic(x, y, l2=1e-2, max_iter=100, tol=1e-8):
    """One logistic fit alone: Newton's method with Armijo backtracking.

    Returns (weights, bias, converged, degenerate, l2) of the model.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    scaler = Standardizer.fit(x)
    classes = np.unique(y)
    if len(classes) < 2:
        only = int(classes[0]) if len(classes) else 0
        bias = DEGENERATE_LOGIT if only == 1 else -DEGENERATE_LOGIT
        return np.zeros(x.shape[1]), bias, True, True, l2
    xs = scaler.transform(x)
    m, d = xs.shape
    wb = np.zeros(d + 1)
    loss, g = reference_logistic_loss_grad(wb, xs, y, l2)
    converged = False
    for _ in range(max_iter):
        if np.linalg.norm(g) < tol:
            converged = True
            break
        z = xs @ wb[:d] + wb[d]
        p = reference_sigmoid(z)
        s = np.clip(p * (1.0 - p), 1e-12, None)
        a = np.hstack([xs, np.ones((m, 1))])
        hess = (a * s[:, None]).T @ a / m
        hess[:d, :d] += l2 * np.eye(d)
        hess += 1e-12 * np.eye(d + 1)
        step = np.linalg.solve(hess, g)
        eta = 1.0
        for _ in range(50):
            cand = wb - eta * step
            cand_loss, cand_g = reference_logistic_loss_grad(cand, xs, y, l2)
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
    return weights, float(wb[d]), bool(converged), False, l2



def reference_save_arrays(path, **arrays):
    """The `.npz` bytes a save_arrays file must have: the format version,
    then each array written whole by np.lib.format.write_array into a
    stored zip entry dated 1980-01-01, in order."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, value in {"format": FORMAT_VERSION, **arrays}.items():
            with zf.open(zipfile.ZipInfo(name + ".npy", (1980, 1, 1, 0, 0, 0)), "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asarray(value, order="C"), allow_pickle=False)
