"""Exact statevector simulation of the quantum-reservoir Hamiltonian.

A return window x_0 .. x_{n-1} is encoded into

    H = a_x * sum_i X_i + a_z * sum_i x_i Z_i + a_zz * sum_i (x_i + x_{i+1}) Z_i Z_{i+1},

a real symmetric 2^n x 2^n matrix: a_x on the entries that flip one bit
and a window-dependent diagonal.  Time evolution e^{-iHt}|psi> is
computed exactly through a dense symmetric eigendecomposition
(H = V diag(lam) V^T), which is feasible and exact for the qubit counts
used here (n <= 14, guarded).

Conventions
-----------
* Qubit 0 is the least-significant bit of the basis-state index, so the
  basis state |b_{n-1} ... b_1 b_0> has index sum_i b_i 2^i.
* States are plain arrays of 2^n complex amplitudes with unit norm.
* Feature vectors list <Z_0> ... <Z_{n-1}> followed by <Z_i Z_j> for all
  i < j in lexicographic (i, j) order: 45 entries when n = 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputShapeError, ResourceError, StateError

try:
    from scipy.linalg import eigh as _scipy_eigh

    def _eigh(mat):
        # the divide-and-conquer driver without the finite check is the
        # fastest full symmetric eigensolver here
        return _scipy_eigh(mat, driver="evd", overwrite_a=True, check_finite=False)

except ImportError:  # pragma: no cover

    def _eigh(mat):
        return np.linalg.eigh(mat)


MAX_QUBITS = 14

NORM_ATOL = 1e-6


@dataclass
class FeatureVector:
    """Z and ZZ expectation values; length n + n(n-1)/2."""

    values: np.ndarray
    n: int


@lru_cache(maxsize=MAX_QUBITS + 1)
def _z_signs(n: int) -> np.ndarray:
    """(2^n, n) matrix of (-1)^{bit_i(b)} with qubit 0 as LSB."""
    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n)) & 1
    signs = 1.0 - 2.0 * bits
    signs.setflags(write=False)
    return signs


def build_hamiltonian(window, scalers) -> np.ndarray:
    """Dense real symmetric matrix of H = H_X + H_Z + H_ZZ for one window.

    H_X = a_x * sum_i X_i
    H_Z = a_z * sum_i x_i Z_i
    H_ZZ = a_zz * sum_i (x_i + x_{i+1}) Z_i Z_{i+1}

    One qubit per window entry.  The diagonal is summed term by term in
    the order Z_0 .. Z_{n-1}, Z_0 Z_1 .. Z_{n-2} Z_{n-1}.
    """
    window = np.asarray(window, dtype=float)
    a_x, a_z, a_zz = (float(s) for s in scalers)
    for name, val in (("a_x", a_x), ("a_z", a_z), ("a_zz", a_zz)):
        if not math.isfinite(val):
            raise InputShapeError(f"scaler {name} is not finite")
    n = len(window)
    if n > MAX_QUBITS:
        raise ResourceError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit guard")
    dim = 2**n
    zs = _z_signs(n)
    diag = np.zeros(dim)
    for i in range(n):
        diag += (a_z * window[i]) * zs[:, i]
    for i in range(n - 1):
        diag += (a_zz * (window[i] + window[i + 1])) * (zs[:, i] * zs[:, i + 1])
    mat = np.zeros((dim, dim))
    np.fill_diagonal(mat, diag)
    idx = np.arange(dim)
    for q in range(n):
        mat[idx ^ (1 << q), idx] += a_x  # X_q maps |b> to |b ^ 2^q>
    return mat


def _check_normalized(amplitudes: np.ndarray) -> None:
    norm = float(np.linalg.norm(amplitudes))
    if abs(norm - 1.0) > NORM_ATOL:
        raise StateError(f"statevector norm {norm} deviates from 1")


def evolve(amplitudes: np.ndarray, h: np.ndarray, t: float) -> np.ndarray:
    """Apply e^{-iHt} exactly via symmetric eigendecomposition.

    h is a real symmetric matrix from build_hamiltonian.  The eigensolver
    overwrites it in place, so it must not be reused.
    """
    if not math.isfinite(t):
        raise InputShapeError("evolution time must be finite")
    _check_normalized(amplitudes)
    if h.shape != (len(amplitudes), len(amplitudes)):
        raise InputShapeError(f"hamiltonian of shape {h.shape}, state of length {len(amplitudes)}")
    # h is symmetric, so h.T is the same matrix in the Fortran order
    # LAPACK overwrites without a copy
    lam, vec = _eigh(h.T)
    phases = np.exp(-1j * lam * t)
    # real eigenvectors: two real matvecs per side beat promoting vec to
    # complex (which allocates and quadruples the flops)
    rotated = phases * (vec.T @ amplitudes.real + 1j * (vec.T @ amplitudes.imag))
    return vec @ rotated.real + 1j * (vec @ rotated.imag)


def measure_features(amplitudes: np.ndarray) -> FeatureVector:
    """Z and ZZ expectation values from exact Born probabilities."""
    _check_normalized(amplitudes)
    n = len(amplitudes).bit_length() - 1
    probs = np.abs(amplitudes) ** 2
    zs = _z_signs(n)
    z = probs @ zs
    corr = zs.T @ (zs * probs[:, None])  # corr[i, j] = <Z_i Z_j>
    iu, ju = _upper_pairs(n)
    values = np.concatenate([z, corr[iu, ju]])
    return FeatureVector(values, n)


@lru_cache(maxsize=MAX_QUBITS + 1)
def _upper_pairs(n: int):
    iu, ju = np.triu_indices(n, k=1)
    iu.setflags(write=False)
    ju.setflags(write=False)
    return iu, ju


def quantum_embed(window, a_x=1.0, a_z=1.0, a_zz=0.5, t=1.0) -> FeatureVector:
    """Encode a window, evolve |0...0> under it, measure Z/ZZ features."""
    h = build_hamiltonian(window, (a_x, a_z, a_zz))
    zero = np.zeros(len(h), dtype=complex)
    zero[0] = 1.0
    return measure_features(evolve(zero, h, t))
