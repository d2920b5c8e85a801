"""Dense complex linear algebra for small multi-qubit operators.

Everything works on plain complex128 ndarrays. Registers stay small (a few
hundred rows), so dense O(d^3) routines are the right tool.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-8


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def is_hermitian(m: np.ndarray) -> bool:
    """Square and within HERMITIAN_TOL of its conjugate transpose."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return float(np.abs(m - dag(m)).max()) <= HERMITIAN_TOL


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    The input is symmetrised as (M + M^dag)/2 before decomposition, which
    absorbs roundoff; anything farther than HERMITIAN_TOL from Hermitian is
    rejected.
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise ValueError(f"matrix is not Hermitian within {HERMITIAN_TOL:g}")
    return np.linalg.eigvalsh((m + dag(m)) / 2.0)


def n_qubits_of(dim: int) -> int:
    """Number of qubits for a register dimension, rejecting non powers of two."""
    n = int(dim).bit_length() - 1
    if dim <= 1 or (1 << n) != dim:
        raise ValueError(f"dimension {dim} is not a power of two >= 2")
    return n


def partial_transpose(rho: np.ndarray, dim_left: int, dim_right: int) -> np.ndarray:
    """Transpose the left tensor factor of an operator on C^dl (x) C^dr."""
    rho = np.asarray(rho, dtype=complex)
    d = dim_left * dim_right
    if rho.shape != (d, d):
        raise ValueError(f"operator shape {rho.shape} does not match {dim_left}x{dim_right}")
    t = rho.reshape(dim_left, dim_right, dim_left, dim_right)
    return t.transpose(2, 1, 0, 3).reshape(d, d)


def negativity(rho: np.ndarray, cut: int) -> float:
    """Entanglement negativity of a qubit register across a bipartition.

    ``cut`` groups parties 0..cut against the rest. Returns twice the absolute
    sum of the negative partial-transpose eigenvalues: 0 for product states and
    1 for a maximally entangled qubit pair. Invariant under local unitaries.
    """
    rho = np.asarray(rho, dtype=complex)
    n = n_qubits_of(rho.shape[0])
    if not 0 <= cut <= n - 2:
        raise ValueError(f"cut {cut} out of range for {n} parties")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"state trace {tr} is not 1")
    pt = partial_transpose(rho, 2 ** (cut + 1), 2 ** (n - cut - 1))
    evs = hermitian_eigenvalues(pt)
    return float(-2.0 * evs[evs < 0.0].sum())
