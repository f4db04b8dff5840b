"""POVM representation, PPT membership testing, and discrimination statistics.

The canonical complete discriminating measurement for k orthogonal maximally
entangled states is M_i = (1/k)(I + (k-1) rho_i - sum_{j != i} rho_j); its
partial transposes stay positive whenever k <= d/2 + 1, with per-element
eigenvalue floor (1/k)(1 - 2(k-1)/d). It is I/k plus a rank-k correction on
the states' joint support S (k*d basis vectors at most for monomial
unitaries), and is built from that; discrimination matrices read only S x S.
The PT and POVM checks run on the materialized elements.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadPriors, DimensionMismatch, TooManyStates

PSD_TOL = 1e-9


@dataclass(frozen=True)
class Povm:
    """Positive operators summing to identity, with a provenance label."""

    elements: tuple
    dims: tuple  # (dimA, dimB) for bipartite operators, (d,) otherwise
    label: str = ""

    @property
    def total_dim(self):
        return math.prod(self.dims)

    @property
    def k(self):
        return len(self.elements)


@dataclass(frozen=True)
class PptReport:
    """Minimum partial-transpose eigenvalue per element against the floor."""

    min_pt_eigenvalues: tuple
    bound: float
    pass_: bool

    def to_json(self):
        return {
            "min_pt_eigenvalues": [float(v) for v in self.min_pt_eigenvalues],
            "bound": float(self.bound),
            "pass": bool(self.pass_),
        }


def _components(mask):
    """Connected components of the graph with adjacency mask, as one
    (count, size) index array per component size, a component per row.

    Permuting to these components makes any matrix with this nonzero pattern
    block diagonal, so the split is exact.
    """
    n = mask.shape[0]
    adj = mask | mask.T
    adj.flat[:: n + 1] = True
    rows, cols = np.nonzero(adj)
    starts = np.searchsorted(rows, np.arange(n))
    # each node takes the smallest label among its neighbours, then jumps to
    # its label's label; at the fixed point labels are constant on components
    labels = np.arange(n)
    while True:
        new = np.minimum.reduceat(labels[cols], starts)
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    size = np.bincount(labels, minlength=n)[labels]
    # nodes sorted by component size, then component, then index
    order = np.lexsort((labels, size))
    count = np.bincount(size)
    end = np.cumsum(count)
    return [order[end[s] - count[s] : end[s]].reshape(-1, s) for s in np.flatnonzero(count)]


def _block_entries(p, db):
    """Entries of the elements' partial transposes over a second factor of
    dimension db (db = 1 keeps the elements) on the diagonal blocks of their
    joint exact nonzero pattern, read straight from the elements.

    Returns (b, bh, flat, shapes): row e of b holds element e's block
    entries, block after block in row-major order, and bh the matching
    entries of the conjugate transposes; flat holds the elements' flat
    indices of b's entries and shapes the (count, size) of each group of
    equal-size blocks. Every nonzero entry lies in a block, so checking the
    blocks checks the elements for NaN and Inf.
    """
    n = p.total_dim
    elements = [np.asarray(m) for m in p.elements]
    if any(m.shape != (n, n) for m in elements):
        raise DimensionMismatch(f"element shapes {[m.shape for m in elements]} do not match dims {p.dims}")
    mask = elements[0] != 0
    for m in elements[1:]:
        mask |= m != 0
    # <i,j|PT m|k,l> = <i,l|m|k,j>
    groups = _components(mask.reshape(n // db, db, n // db, db).transpose(0, 3, 2, 1).reshape(n, n))
    idx = []
    for g in groups:
        r, c = g[:, :, None], g[:, None, :]
        j, l = r % db, c % db
        idx.append((r - j + l) * n + c - l + j)
    flat = np.concatenate([i.reshape(-1) for i in idx] + [i.swapaxes(1, 2).reshape(-1) for i in idx])
    both = np.stack([m.take(flat) for m in elements])
    if not np.all(np.isfinite(both)):
        raise ValueError("matrix contains NaN/Inf entries")
    half = flat.size // 2
    return both[:, :half], np.conj(both[:, half:]), flat[:half], [g.shape for g in groups]


def _min_eigenvalues(h, shapes):
    """Smallest eigenvalue per row of h, a row holding Hermitian blocks laid
    out as by _block_entries."""
    mins, start = np.full(len(h), np.inf), 0
    for count, size in shapes:
        stop = start + count * size * size
        blocks = h[:, start:stop].reshape(len(h), count, size, size)
        mins = np.minimum(mins, np.linalg.eigvalsh(blocks).min(axis=(1, 2)))
        start = stop
    return [float(v) for v in mins]


def validate_povm(p, tol=PSD_TOL):
    """Hermiticity, positivity, and completeness residuals for a POVM.

    Every entry outside the blocks of the joint nonzero pattern is zero in
    each element and in the identity, so all three residuals come from the
    blocks.
    """
    n = p.total_dim
    b, bh, flat, shapes = _block_entries(p, 1)
    skew = b - bh
    herm = [float(v) for v in np.sqrt(np.sum(np.abs(skew) ** 2, axis=1))]
    min_eigs = _min_eigenvalues((b + bh) / 2, shapes)
    # flat index q is on the diagonal exactly when q = r (n + 1)
    excess = b.sum(axis=0) - (flat % (n + 1) == 0)
    completeness = float(np.sqrt(np.vdot(excess, excess).real))
    return {
        "hermiticity_residuals": herm,
        "min_eigenvalues": min_eigs,
        "completeness_residual": completeness,
        "pass": max(herm) <= tol and min(min_eigs) >= -tol and completeness <= tol,
    }


def _support(mes):
    """The states on their joint support S, and where S x S lies in an operator.

    Returns (v, flat): row i of v is psi_i[S], with S the basis indices where
    some state is exactly nonzero, ascending, and flat holds the row-major
    flat indices of the S x S entries of a d^2 x d^2 operator.
    psi_i = vec(U_i^T)/sqrt(d), so a monomial U_i puts d entries into S.
    """
    n = mes.d * mes.d
    psi = np.asarray(mes.unitaries, dtype=complex).transpose(0, 2, 1).reshape(mes.k, n) / np.sqrt(mes.d)
    s = np.flatnonzero(psi.any(axis=0))
    return psi[:, s], (s[:, None] * n + s).reshape(-1)


def ppt_discriminator(mes, force=False):
    """Complete measurement distinguishing the states of an orthogonal set.

    Element i is (1/k)(I + (k-1) rho_i - sum_{j != i} rho_j), built for all i
    at once as I/k plus rho_i - (1/k) sum_j rho_j on the joint support. PT
    positivity is only guaranteed for k <= d/2 + 1; larger sets raise
    TooManyStates unless force is set, in which case the measurement is still
    built so the failure can be inspected via check_ppt.
    """
    d, k = mes.d, mes.k
    if k > d / 2 + 1 and not force:
        raise TooManyStates(
            f"k={k} exceeds d/2+1={d / 2 + 1}; PT positivity not guaranteed "
            "(pass force=True to build anyway)"
        )
    v, flat = _support(mes)
    n = d * d
    rhos = v[:, :, None] * v.conj()[:, None, :]
    out = np.zeros((k, n * n), dtype=complex)
    out[:, :: n + 1] = 1.0 / k
    # (k rho_i - sum_j rho_j) / k is exactly zero wherever all rho_j agree
    out[:, flat] += ((k * rhos - rhos.sum(axis=0)) / k).reshape(k, -1)
    return Povm(elements=tuple(out.reshape(k, n, n)), dims=(d, d), label=f"ppt_discriminator[{mes.label}]")


def pt_floor(k, d):
    """Analytic lower bound on PT eigenvalues of the discriminator elements."""
    return (1.0 / k) * (1.0 - 2.0 * (k - 1) / d)


def check_ppt(p, tol=PSD_TOL):
    """Minimum eigenvalue of each element's partial transpose."""
    if len(p.dims) != 2:
        raise DimensionMismatch("check_ppt needs bipartite dims (dimA, dimB)")
    da, db = p.dims
    b, bh, _, shapes = _block_entries(p, db)
    mins = _min_eigenvalues((b + bh) / 2, shapes)
    return PptReport(
        min_pt_eigenvalues=tuple(mins),
        bound=pt_floor(p.k, min(da, db)),
        pass_=min(mins) >= -tol,
    )


def discrimination_matrix(mes, p):
    """Matrix of outcome probabilities: entry (i, j) = <psi_i| M_j |psi_i>."""
    if p.k != mes.k:
        raise DimensionMismatch(
            f"POVM has {p.k} elements but the set has {mes.k} states"
        )
    if p.total_dim != mes.d * mes.d:
        raise DimensionMismatch("POVM dimension does not match the state space")
    v, flat = _support(mes)
    size = v.shape[1]
    # psi_i vanishes off S, so <psi_i|M_j|psi_i> reads only M_j[S, S]
    blocks = np.stack([np.asarray(m).take(flat) for m in p.elements]).reshape(p.k, size, size)
    return ((v.conj() @ blocks) * v).sum(axis=2).real.T


def _check_priors(priors, k):
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (k,):
        raise BadPriors(f"need {k} prior probabilities, got shape {priors.shape}")
    if np.any(priors < 0) or abs(priors.sum() - 1.0) > 1e-12:
        raise BadPriors("priors must be nonnegative and sum to 1")
    return priors


def success_probability(mes, p, priors):
    """Probability of a correct guess: sum_i priors[i] <psi_i| M_i |psi_i>."""
    priors = _check_priors(priors, mes.k)
    return float(priors @ np.diag(discrimination_matrix(mes, p)))
