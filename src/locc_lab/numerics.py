"""Dense complex linear algebra kernel.

Matrices are plain complex numpy arrays treated as immutable values; every
operation returns a fresh array. Tolerances are relative to max(1, norm)
unless noted, with DEFAULT_TOL as the global default.
"""

import numpy as np

from .errors import ClusterFailure, DimensionMismatch, NotUnitary

DEFAULT_TOL = 1e-10

# eigenvalues of the Hermitian part closer than this are treated as one
# degenerate cluster when diagonalizing a unitary
CLUSTER_GAP = 1e-8


def _tol(tol):
    return DEFAULT_TOL if tol is None else tol


def dag(a):
    """Conjugate transpose."""
    return np.conj(a.T)


def frob(a):
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def as_complex(a):
    """Copy input as a 2-d complex array, rejecting non-finite entries."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains NaN/Inf entries")
    return m


def identity(d):
    return np.eye(d, dtype=complex)


def is_unitary(u, tol=None):
    if u.shape[0] != u.shape[1]:
        return False
    return frob(dag(u) @ u - np.eye(u.shape[0])) <= _tol(tol) * max(1.0, np.sqrt(u.shape[0]))


def kron(a, b):
    """Tensor product: out[i*rb+p, j*cb+q] = a[i,j] * b[p,q]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def diagonalize_unitary(u, tol=None):
    """Unitarily diagonalize a unitary matrix: returns (V, D) with u = V D V†.

    Diagonalizes the Hermitian part (u+u†)/2, then rediagonalizes the
    anti-Hermitian part (u-u†)/2i inside each eigenvalue cluster; the two
    parts commute because u is normal, so this resolves degeneracies exactly.
    """
    u = as_complex(u)
    n = u.shape[0]
    if not is_unitary(u, tol):
        raise NotUnitary(
            f"matrix deviates from unitary by {frob(dag(u) @ u - np.eye(n)):.3e}"
        )
    uh = dag(u)
    skew = (u - uh) / 2j
    # (u + u†)/2 is Hermitian bit for bit, so eigh needs no further checks
    vals, vecs = np.linalg.eigh((u + uh) / 2)

    start = 0
    while start < n:
        stop = start + 1
        while stop < n and vals[stop] - vals[stop - 1] <= CLUSTER_GAP:
            stop += 1
        if stop - start > 1:
            block = vecs[:, start:stop]
            sub = dag(block) @ skew @ block
            sub = (sub + dag(sub)) / 2
            _, rot = np.linalg.eigh(sub)
            vecs[:, start:stop] = block @ rot
        start = stop

    d = np.diag(dag(vecs) @ u @ vecs)
    residual = frob((vecs * d) @ dag(vecs) - u)
    if residual > 1e-9 * max(1.0, frob(u)):
        raise ClusterFailure(
            f"unitary diagonalization residual {residual:.3e} exceeds tolerance"
        )
    return vecs, np.diag(d)

