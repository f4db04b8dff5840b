"""Dense complex linear algebra kernel, and the monomial form of a unitary
(one nonzero entry per row and column), read from its exact pattern.

Matrices are plain complex numpy arrays treated as immutable values; every
operation returns a fresh array. Tolerances are relative to max(1, norm)
unless noted, with DEFAULT_TOL as the global default.
"""

import functools

import numpy as np

from .errors import ClusterFailure, DimensionMismatch, NotUnitary

DEFAULT_TOL = 1e-10

# eigenvalues of the Hermitian part closer than this are treated as one
# degenerate cluster when diagonalizing a unitary
CLUSTER_GAP = 1e-8


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


def is_unitary(u, tol=DEFAULT_TOL):
    if u.shape[0] != u.shape[1]:
        return False
    return frob(dag(u) @ u - np.eye(u.shape[0])) <= tol * max(1.0, np.sqrt(u.shape[0]))


def kron(a, b):
    """Tensor product: out[i*rb+p, j*cb+q] = a[i,j] * b[p,q]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def diagonalize_unitary(u):
    """Unitarily diagonalize a unitary matrix: returns (V, D) with u = V D V†.

    Diagonalizes the Hermitian part (u+u†)/2, then rediagonalizes the
    anti-Hermitian part (u-u†)/2i inside each eigenvalue cluster; the two
    parts commute because u is normal, so this resolves degeneracies exactly.
    """
    u = as_complex(u)
    n = u.shape[0]
    if not is_unitary(u):
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


def monomial_form(u):
    """(perm, phases) with u[perm[j], j] = phases[j] when every row and column
    of u holds exactly one nonzero entry, else None.

    Read from the exact nonzero pattern, with no tolerance.
    """
    u = as_complex(u)
    n = u.shape[0]
    rows, cols = np.nonzero(u)
    # nonzero lists rows in order, so n entries fill every row once exactly
    # when rows is 0 .. n-1
    if u.shape != (n, n) or rows.size != n or not (rows == np.arange(n)).all():
        return None
    perm = np.full(n, -1)
    perm[cols] = rows
    if (perm < 0).any():
        return None
    return perm, u[perm, np.arange(n)]


@functools.lru_cache(maxsize=16)
def _fourier(size):
    """The unitary DFT matrix exp(-2 pi i t m / size) / sqrt(size), with t m
    reduced mod size before scaling. Read-only: every call shares it."""
    t = np.arange(size)
    f = np.exp(-2j * np.pi * ((t[:, None] * t) % size) / size) / np.sqrt(size)
    f.flags.writeable = False
    return f


def diagonalize_monomial(u):
    """(V, D) with u = V D V^dag, read cycle by cycle, or None when u is not
    monomial (see monomial_form).

    Let u e_j = c_j e_perm[j] and take a cycle j_0 -> ... -> j_{L-1} -> j_0
    whose phases have the angles a_t and the sum phi. Its eigenvalues are
    exp(i (phi + 2 pi m) / L), m = 0 .. L-1, and eigenvector m has amplitude
    exp(i g_t - 2 pi i t m / L) / sqrt L on j_t, where g_t is the running sum
    of a_s - phi / L over s < t. Its L columns of V sit at the cycle's sorted
    positions, so a fixed point j keeps e_j in column j. The refusals are
    those of diagonalize_unitary: NotUnitary on |u^dag u - I| =
    sqrt(sum (|c_j|^2 - 1)^2), and ClusterFailure when |u V - V D| exceeds
    1e-9 max(1, |u|).
    """
    form = monomial_form(u)
    if form is None:
        return None
    perm, phases = form
    n = perm.size
    mod2 = phases.real**2 + phases.imag**2
    deviation = float(np.sqrt(((mod2 - 1.0) ** 2).sum()))
    if deviation > DEFAULT_TOL * max(1.0, np.sqrt(n)):
        raise NotUnitary(f"matrix deviates from unitary by {deviation:.3e}")
    angles = np.angle(phases).tolist()
    # one pass over the cycles of perm, each listed from its smallest entry:
    # g and the eigenvalue angles per position, the cycles grouped by length
    # so that V is filled with one assignment per length, not per cycle
    succ, seen, g, theta, groups = perm.tolist(), [False] * n, [0.0] * n, [0.0] * n, {}
    for start in range(n):
        if seen[start]:
            continue
        cycle, j = [start], succ[start]
        while j != start:
            cycle.append(j)
            j = succ[j]
        size = len(cycle)
        phi = sum(angles[j] for j in cycle)
        acc = 0.0
        for j in cycle:
            seen[j] = True
            g[j] = acc
            acc += angles[j] - phi / size
        cols = sorted(cycle)
        for m, col in enumerate(cols):
            theta[col] = (phi + 2.0 * np.pi * m) / size
        groups.setdefault(size, []).append((cycle, cols))
    amp = np.exp(1j * np.array(g))
    vals = np.exp(1j * np.array(theta))
    vecs = np.zeros((n, n), dtype=complex)
    for size, group in groups.items():
        rows, cols = np.array(group).transpose(1, 0, 2)
        vecs[rows[:, :, None], cols[:, None, :]] = amp[rows][:, :, None] * _fourier(size)
    # row perm[j] of u V is c_j times row j of V
    residual = frob(phases[:, None] * vecs - vecs[perm] * vals)
    if residual > 1e-9 * max(1.0, float(np.sqrt(mod2.sum()))):
        raise ClusterFailure(f"unitary diagonalization residual {residual:.3e} exceeds tolerance")
    return vecs, np.diag(vals)
