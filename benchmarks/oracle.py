"""Dense reference for the quantum-reservoir features.

The Hamiltonian of the paper,
    H = a_x sum_i X_i + a_z sum_i x_i Z_i + a_zz sum_i (x_i + x_{i+1}) Z_i Z_{i+1},
is built here from Kronecker products of 2x2 matrices, without any
qrcvol.quantum code, and |0...0> is evolved with scipy.linalg.expm.
Qubit 0 is the least-significant bit of the basis index; features are
<Z_0>..<Z_{n-1}> then <Z_i Z_j> for i < j in lexicographic order.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

TOLERANCE = 1e-8  # the C1 acceptance tolerance

_I = np.eye(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def _operator(n, factors):
    """Dense operator with factors[q] on qubit q and identity elsewhere."""
    mat = np.ones((1, 1))
    for q in range(n - 1, -1, -1):  # qubit 0 is the rightmost factor
        mat = np.kron(mat, factors.get(q, _I))
    return mat


def hamiltonian(window, a_x, a_z, a_zz):
    x = np.asarray(window, dtype=float)
    n = len(x)
    h = np.zeros((2**n, 2**n))
    for i in range(n):
        h += a_x * _operator(n, {i: _X}) + a_z * x[i] * _operator(n, {i: _Z})
    for i in range(n - 1):
        h += a_zz * (x[i] + x[i + 1]) * _operator(n, {i: _Z, i + 1: _Z})
    return h


def features(window, a_x, a_z, a_zz, t):
    n = len(window)
    psi = expm(-1j * t * hamiltonian(window, a_x, a_z, a_zz))[:, 0]
    probs = np.abs(psi) ** 2
    z = [np.diag(_operator(n, {i: _Z})) for i in range(n)]
    singles = [probs @ z[i] for i in range(n)]
    pairs = [probs @ (z[i] * z[j]) for i in range(n) for j in range(i + 1, n)]
    return np.array(singles + pairs)


def feature_error(window, row, params):
    """Max absolute difference of a feature row from the reference."""
    return float(np.max(np.abs(np.asarray(row) - features(window, **params))))
