"""Exact statevector simulation of the quantum-reservoir Hamiltonian.

A return window x_0 .. x_{n-1} is encoded into

    H = a_x * sum_i X_i + a_z * sum_i x_i Z_i + a_zz * sum_i (x_i + x_{i+1}) Z_i Z_{i+1},

a real symmetric 2^n x 2^n operator: a_x on the entries that flip one bit
and a window-dependent diagonal.  H is kept as that diagonal and a_x (a
Hamiltonian pair); no 2^n x 2^n matrix is formed.  e^{-iHt}|0...0> is
computed matrix-free by a Chebyshev expansion (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967, 1984): with the spectrum of H inside
[c - r, c + r] and H' = (H - c) / r,

    e^{-iHt} = e^{-ict} sum_k (2 - [k = 0]) (-i)^k J_k(r t) T_k(H'),

where T_k(H')|0...0> follows the three-term recurrence and the Bessel
coefficients are the FFT of e^{-i r t cos(theta)} (Jacobi-Anger).  Many
windows are evolved in one pass, one state per column.

Conventions
-----------
* Qubit 0 is the least-significant bit of the basis-state index, so the
  basis state |b_{n-1} ... b_1 b_0> has index sum_i b_i 2^i.
* Every state starts as |0...0>, index 0.  States are arrays of 2^n
  complex amplitudes along the last axis; leading axes are a batch, one
  state per row of H's diagonal.
* Feature vectors list <Z_0> ... <Z_{n-1}> followed by <Z_i Z_j> for all
  i < j in lexicographic (i, j) order: 45 entries when n = 9.

Accuracy
--------
The series of each state is cut where its coefficients fall below
CHEB_TOL (1e-15), independently of the other states in the batch, and
a state's result is bit for bit the same whichever states share its
batch.  For the benchmark's 9-qubit configurations (r t of about 10 to
40) amplitudes agree with a dense eigendecomposition or a Taylor-series
exponential to about 1e-14 and norms stay within about 1e-14 of 1; the
coefficients' rounding error grows about as 1e-16 r |t|.

Memory
------
evolve on m states of n qubits holds, at its peak, eight real arrays of
m x 2^n float64: H's diagonal, its shifted and scaled transpose,
T_{k-1} and T_k, two work arrays and the accumulators of the even and
odd terms.  The complex result is allocated after the recurrence's
arrays are freed.  quantum_embed evolves BLOCK windows per call, so a
9-qubit block of 64 holds about 2 MiB; tracemalloc measured a 2.2 MiB
peak over 173 windows.  On those windows (2 vCPUs, numpy 2.4.6) blocks
of 64 took as much CPU time as blocks of 128 or 256, and blocks of 32
about 13% more.

Guards
------
* InputShapeError: a non-finite window value, scaler or time.
* ResourceError: more than MAX_QUBITS qubits, or r * |t| above
  MAX_PHASE.  The series needs about r * |t| terms and its coefficient
  table about 3 r * |t| samples per state, so an extreme a_x * t fails
  before anything of that size is allocated.
* StateError: measure_features on a state whose norm is more than
  NORM_ATOL from 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InputShapeError, ResourceError, StateError

MAX_QUBITS = 14

MAX_PHASE = 2000.0  # largest r * |t| that evolve accepts

NORM_ATOL = 1e-6

CHEB_TOL = 1e-15  # the Chebyshev series stops below this coefficient modulus

BLOCK = 64  # windows per evolve call in quantum_embed; see Memory above


@dataclass
class FeatureVector:
    """Z and ZZ expectation values; length n + n(n-1)/2 along the last axis."""

    values: np.ndarray


class Hamiltonian(NamedTuple):
    """H = diag(diag) + a_x * sum_i X_i; diag has shape (..., 2^n), one row per window."""

    diag: np.ndarray
    a_x: float


@lru_cache(maxsize=MAX_QUBITS + 1)
def _z_signs(n: int) -> np.ndarray:
    """(2^n, n) matrix of (-1)^{bit_i(b)} with qubit 0 as LSB."""
    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n)) & 1
    signs = 1.0 - 2.0 * bits
    signs.setflags(write=False)
    return signs


@lru_cache(maxsize=MAX_QUBITS + 1)
def _feature_signs(n: int) -> np.ndarray:
    """(2^n, n + n(n-1)/2) signs of Z_0 .. Z_{n-1}, then Z_i Z_j for i < j."""
    zs = _z_signs(n)
    iu, ju = np.triu_indices(n, k=1)
    table = np.concatenate([zs, zs[:, iu] * zs[:, ju]], axis=1)
    table.setflags(write=False)
    return table


def build_hamiltonian(windows, scalers) -> Hamiltonian:
    """H = H_X + H_Z + H_ZZ for one window (n,) or a batch of windows (..., n).

    H_X = a_x * sum_i X_i
    H_Z = a_z * sum_i x_i Z_i
    H_ZZ = a_zz * sum_i (x_i + x_{i+1}) Z_i Z_{i+1}

    One qubit per window entry.  The diagonal is summed term by term in
    the order Z_0 .. Z_{n-1}, Z_0 Z_1 .. Z_{n-2} Z_{n-1}.
    """
    windows = np.asarray(windows, dtype=float)
    a_x, a_z, a_zz = (float(s) for s in scalers)
    for name, val in (("a_x", a_x), ("a_z", a_z), ("a_zz", a_zz)):
        if not math.isfinite(val):
            raise InputShapeError(f"scaler {name} is not finite")
    if windows.ndim == 0:
        raise InputShapeError("a window is a 1-D array of returns")
    if not np.all(np.isfinite(windows)):
        raise InputShapeError("window holds a non-finite value")
    n = windows.shape[-1]
    if n > MAX_QUBITS:
        raise ResourceError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit guard")
    zs = _z_signs(n)
    x = windows[..., None]  # x[..., i, :] has shape (..., 1): one value per window
    diag = np.zeros(windows.shape[:-1] + (2**n,))
    for i in range(n):
        diag += (a_z * x[..., i, :]) * zs[:, i]
    for i in range(n - 1):
        diag += (a_zz * (x[..., i, :] + x[..., i + 1, :])) * (zs[:, i] * zs[:, i + 1])
    return Hamiltonian(diag, a_x)


def _chebyshev_coefficients(z: float) -> np.ndarray:
    """Real coefficients 0 .. K of e^{-i z x} = sum_k (2 - [k = 0]) (-i)^k J_k(z) T_k(x).

    By Jacobi-Anger they are the cosine coefficients of e^{-i z cos(theta)},
    read off its FFT on N > 3|z| + 128 points, so the aliased terms N - k
    lie far below CHEB_TOL.  |J_k(z)| decreases in k once k > |z|, so the
    series stops before the first such k with a coefficient below
    CHEB_TOL; a later test would only see the FFT's rounding noise, which
    is about 1e-16 |z|.  (-i)^k J_k is real for even k and imaginary for
    odd k: entry k holds the real part for even k, the imaginary part for
    odd k.
    """
    size = 1 << int(3 * abs(z) + 128).bit_length()
    theta = 2 * np.pi * np.arange(size) / size
    coef = np.fft.fft(np.exp(-1j * z * np.cos(theta)))[: size // 2] / size
    coef[1:] *= 2
    k = np.arange(size // 2)
    below = (np.abs(coef) < CHEB_TOL) & (k > abs(z))
    coef = coef[: np.argmax(np.append(below, True))]
    return np.where(k[: len(coef)] % 2 == 0, coef.real, coef.imag)


def _sum_x(src: np.ndarray, out: np.ndarray, n: int) -> None:
    """out = sum_q X_q src for states in the columns of src (2^n, cols).

    X_q swaps the row blocks of height 2^q at bit q = 0 and 1, which is a
    reversal of axis 1 of the (2^(n-q-1), 2, 2^q, cols) reshape.  The
    q = 0 term is copied into out and the others added, so n >= 1.
    """
    dim, cols = src.shape
    for q in range(n):
        shape = (dim >> (q + 1), 2, 1 << q, cols)
        if q == 0:
            np.copyto(out.reshape(shape), src.reshape(shape)[:, ::-1])
        else:
            view = out.reshape(shape)
            view += src.reshape(shape)[:, ::-1]


def _chebyshev_series(diag, x, coef, n):
    """sum_k coef[k] T_k(H')|0...0> per state, H' = diag(diag) + x sum_q X_q.

    diag (2^n, m) C-ordered, the transposed diagonals of H'; x (m,) and
    coef (K+1, m) real, one column per state.  The recurrence overwrites
    diag and x.  H' and |0...0> are real, so the recurrence runs in real
    arithmetic on (2^n, m) arrays, one state per column: even rows of
    coef make the real part, odd rows the imaginary part.
    """
    dim, m = diag.shape
    prev = np.zeros((dim, m))  # T_0 = |0...0>
    prev[0] = 1.0
    acc = [coef[0] * prev, np.zeros_like(prev)]
    if len(coef) > 1:
        cur, work, tmp = (np.empty_like(prev) for _ in range(3))
        _sum_x(prev, cur, n)  # T_1 = H' T_0
        cur *= x
        np.multiply(diag, prev, out=tmp)
        cur += tmp
        np.multiply(coef[1], cur, out=tmp)
        acc[1] += tmp
        diag *= 2.0  # the recurrence applies 2 H'
        x *= 2.0
        for k in range(2, len(coef)):
            # T_k = 2 H' T_{k-1} - T_{k-2}, written over T_{k-2}
            _sum_x(cur, work, n)
            work *= x
            np.multiply(diag, cur, out=tmp)
            work += tmp
            np.subtract(work, prev, out=prev)
            prev, cur = cur, prev
            np.multiply(coef[k], cur, out=tmp)
            acc[k % 2] += tmp
        del cur, work, tmp
    del prev, diag  # the recurrence's arrays go before the complex output comes
    out = np.empty((m, dim), dtype=complex)
    out.real = acc[0].T
    out.imag = acc[1].T
    return out


def evolve(h: Hamiltonian, t: float) -> np.ndarray:
    """e^{-iHt}|0...0> for each row of h.diag (..., 2^n), by a Chebyshev expansion.

    The result has h.diag's shape.  Every state gets its own spectral
    bounds (Gershgorin: min/max of its diagonal -/+ n|a_x|) and its own
    series length.
    """
    if not math.isfinite(t):
        raise InputShapeError("evolution time must be finite")
    diag, a_x = h
    shape = diag.shape
    diag = diag.reshape(-1, shape[-1])
    n = shape[-1].bit_length() - 1
    lo = diag.min(axis=1) - n * abs(a_x)
    hi = diag.max(axis=1) + n * abs(a_x)
    center, radius = (hi + lo) / 2, (hi - lo) / 2
    rt = radius * t
    if not np.all(np.abs(rt) <= MAX_PHASE):  # also catches an overflow to inf or nan
        raise ResourceError(
            f"spectral radius times |t| is {np.max(np.abs(rt))}, above the {MAX_PHASE} guard")
    # one column of coefficients per state, zero past that state's own
    # cutoff, so no state's result depends on the others in the batch
    series = [_chebyshev_coefficients(z) for z in rt]
    coef = np.zeros((max(map(len, series), default=1), len(series)))
    for j, column in enumerate(series):
        coef[: len(column), j] = column
    radius = np.where(radius > 0, radius, 1.0)  # H = c * I: H' = 0 and the series is its k = 0 term
    # H's diagonal, shifted and scaled, in the recurrence's (2^n, m) layout;
    # a C-ordered buffer, since the recurrence runs slower on an F-ordered one
    scaled = np.subtract(diag.T, center, out=np.empty(diag.shape[::-1]))
    scaled /= radius
    out = _chebyshev_series(scaled, a_x / radius, coef, n)
    # phase first: complex multiplication does not commute bit for bit
    np.multiply(np.exp(-1j * center * t)[:, None], out, out=out)
    return out.reshape(shape)


def measure_features(amplitudes: np.ndarray) -> FeatureVector:
    """Z and ZZ expectation values from exact Born probabilities, per state."""
    amplitudes = np.asarray(amplitudes)
    n = amplitudes.shape[-1].bit_length() - 1
    probs = amplitudes.real**2 + amplitudes.imag**2
    deviation = np.abs(np.sqrt(probs.sum(axis=-1)) - 1.0)
    if not np.all(deviation <= NORM_ATOL):
        raise StateError(f"statevector norm deviates from 1 by {np.max(deviation)}")
    # one (1, 2^n) @ table product per state, so a state's features do
    # not depend on how many states share the call
    return FeatureVector((probs[..., None, :] @ _feature_signs(n))[..., 0, :])


def quantum_embed(windows, a_x, a_z, a_zz, t) -> FeatureVector:
    """Encode each window, evolve |0...0> under it, measure Z/ZZ features.

    windows is one window (n,) or m windows (m, n); values then has shape
    (d,) or (m, d).  The windows are evolved BLOCK at a time.
    """
    windows = np.asarray(windows, dtype=float)
    if windows.ndim not in (1, 2) or len(windows) == 0:
        raise InputShapeError(f"expected a window (n,) or windows (m, n), got shape {windows.shape}")
    batch = np.atleast_2d(windows)
    rows = []
    for start in range(0, len(batch), BLOCK):
        h = build_hamiltonian(batch[start : start + BLOCK], (a_x, a_z, a_zz))
        rows.append(measure_features(evolve(h, t)).values)
    values = np.concatenate(rows)
    return FeatureVector(values if windows.ndim == 2 else values[0])
