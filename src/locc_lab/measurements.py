"""POVM representation, PPT membership testing, and discrimination statistics.

The canonical complete discriminating measurement for k orthogonal maximally
entangled states is M_i = (1/k)(I + (k-1) rho_i - sum_{j != i} rho_j); its
partial transposes stay positive whenever k <= d/2 + 1, with per-element
eigenvalue floor (1/k)(1 - 2(k-1)/d). A Povm holds each element as a scalar
times I plus a small coefficient matrix on a few basis vectors; the
discriminator is I/k plus diag(e_i - 1/k) on the k states, so no d^2 x d^2
operator is built. The POVM checks and discrimination matrices work on the
span of the basis, the PT check on the exact blocks that the basis vectors'
nonzero entries set, eigensolving each distinct block once.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadPriors, DimensionMismatch, TooManyStates

PSD_TOL = 1e-9


@dataclass(frozen=True)
class Povm:
    """Positive operators summing to identity, with a provenance label.

    Element i is scalars[i] I + sum_ab elements[i][a, b] |v_a><v_b| over the
    rows v_a of basis. basis None is the standard basis with zero scalars,
    so that the elements are then the operators themselves.
    """

    elements: tuple
    dims: tuple  # (dimA, dimB) for bipartite operators, (d,) otherwise
    label: str = ""
    basis: np.ndarray = None
    scalars: tuple = None

    @property
    def total_dim(self):
        return math.prod(self.dims)

    @property
    def k(self):
        return len(self.elements)

    @functools.cached_property
    def _frame(self):
        """(basis, scalars, coefficients) as arrays of shapes (r, n), (k,) and
        (k, r, r), checked for k >= 1, for shape and for NaN and Inf. Built
        on first use and kept, so the checks of one POVM share it; a check
        that fails keeps nothing, so every later use raises again."""
        if self.k == 0:
            raise DimensionMismatch("a POVM needs at least one element")
        n = self.total_dim
        basis = np.eye(n) if self.basis is None else np.asarray(self.basis)
        scalars = np.zeros(self.k) if self.scalars is None else np.asarray(self.scalars, dtype=float)
        r = len(basis)
        if basis.shape != (r, n) or scalars.shape != (self.k,) or any(np.shape(m) != (r, r) for m in self.elements):
            raise DimensionMismatch(
                f"elements {[np.shape(m) for m in self.elements]} on a basis of shape {basis.shape} "
                f"do not match dims {self.dims}"
            )
        c = np.array(self.elements, dtype=complex)
        if not (np.isfinite(c).all() and np.isfinite(basis).all() and np.isfinite(scalars).all()):
            raise ValueError("matrix contains NaN/Inf entries")
        return basis, scalars, c


@dataclass(frozen=True)
class PptReport:
    """Minimum partial-transpose eigenvalue per element against the floor,
    the check's tolerance, and the PT block counts and largest size."""

    min_pt_eigenvalues: tuple
    bound: float
    tol: float
    pass_: bool
    blocks: int
    distinct_blocks: int
    largest_block: int

    @property
    def margin(self):
        """Smallest PT eigenvalue above the analytic floor less the
        tolerance, so that a floor attained up to rounding reads >= 0."""
        return min(self.min_pt_eigenvalues) - (self.bound - self.tol)

    def to_json(self):
        return {
            "min_pt_eigenvalues": [float(v) for v in self.min_pt_eigenvalues],
            "bound": float(self.bound),
            "tol": float(self.tol),
            "margin": float(self.margin),
            "pass": bool(self.pass_),
            "blocks": int(self.blocks),
            "distinct_blocks": int(self.distinct_blocks),
            "largest_block": int(self.largest_block),
        }


def _blocks(rows, cols, n):
    """Exact block layout of n nodes joined by edges (rows, cols), each edge
    listed in both directions.

    Returns (base, local, shapes): entry (r, c) of a connected component lies
    at base[r] + local[c] of a buffer holding each component's size x size
    block row-major, group after group of equal-size components, and shapes
    lists each group's (count, size). Permuting to the components makes any
    matrix with this nonzero pattern block diagonal, so the split is exact.
    """
    # each node takes the smallest label among its neighbours, then jumps to
    # its label's label; at the fixed point labels are constant on components
    labels = np.arange(n)
    while True:
        new = labels.copy()
        np.minimum.at(new, rows, labels[cols])
        new = new[new]
        if (new == labels).all():
            break
        labels = new
    # nodes sorted by component size, then component, then index; count[s]
    # nodes lie in components of size s, off[s] buffer entries before them
    size = np.bincount(labels, minlength=n)[labels]
    pos = np.empty(n, dtype=np.intp)
    pos[np.argsort(size * n + labels, kind="stable")] = np.arange(n)
    count = np.bincount(size)
    s = np.arange(len(count))
    off = np.cumsum(count * s) - count * s
    u = pos - (np.cumsum(count) - count)[size]
    return off[size] + u * size, u % size, [(count[t] // t, t) for t in np.flatnonzero(count)]


def validate_povm(p, tol=PSD_TOL):
    """Hermiticity, positivity, and completeness residuals for a POVM.

    With basis^T = QR a thin QR factorization, element i is s_i I + R C_i R^dag
    on the span of Q and s_i I on the rest, so all three residuals come from
    those small matrices.
    """
    basis, s, c = p._frame
    rt = np.linalg.qr(basis.T, mode="r")
    rest = p.total_dim - len(rt)
    span = rt @ c @ rt.conj().T
    span_h = span.conj().transpose(0, 2, 1)
    herm = [float(v) for v in np.linalg.norm(span - span_h, axis=(1, 2))]
    eye = np.eye(len(rt))
    mins = np.linalg.eigvalsh((span + span_h) / 2 + s[:, None, None] * eye)[:, 0]
    if rest:
        mins = np.minimum(mins, s)
    excess = s.sum() - 1.0
    completeness = math.sqrt(np.linalg.norm(span.sum(axis=0) + excess * eye) ** 2 + rest * excess**2)
    min_eigs = [float(v) for v in mins]
    return {
        "hermiticity_residuals": herm,
        "min_eigenvalues": min_eigs,
        "completeness_residual": completeness,
        "pass": max(herm) <= tol and min(min_eigs) >= -tol and completeness <= tol,
    }


def _states(mes):
    """Row i is psi_i = vec(U_i^T)/sqrt(d); a monomial U_i gives d nonzeros."""
    u = np.asarray(mes.unitaries, dtype=complex)
    return u.transpose(0, 2, 1).reshape(mes.k, -1) / np.sqrt(mes.d)


def ppt_discriminator(mes, force=False):
    """Complete measurement distinguishing the states of an orthogonal set.

    Element i is (1/k)(I + (k-1) rho_i - sum_{j != i} rho_j) = I/k plus
    diag(e_i - 1/k) on the basis of the k states. PT positivity is only
    guaranteed for k <= d/2 + 1; larger sets raise TooManyStates unless
    force is set, in which case the measurement is still built so the
    failure can be inspected via check_ppt.
    """
    d, k = mes.d, mes.k
    if k > d / 2 + 1 and not force:
        raise TooManyStates(
            f"k={k} exceeds d/2+1={d / 2 + 1}; PT positivity not guaranteed "
            "(pass force=True to build anyway)"
        )
    coef = np.zeros((k, k * k))
    coef[:, :: k + 1] = np.eye(k) - 1.0 / k
    return Povm(
        elements=tuple(coef.reshape(k, k, k)),
        dims=(d, d),
        label=f"ppt_discriminator[{mes.label}]",
        basis=_states(mes),
        scalars=(1.0 / k,) * k,
    )


def pt_floor(k, d):
    """Analytic lower bound on PT eigenvalues of the discriminator elements."""
    return (1.0 / k) * (1.0 - 2.0 * (k - 1) / d)


def _pt_blocks(p):
    """(blocks, shapes, scalars): row i of blocks holds the partial transpose
    of element i less scalars[i] I, block by block as _blocks lays them out.

    The partial transpose of s I + sum_ab H_ab |v_a><v_b| is s I plus each
    term H_ab v_a[x] conj(v_b[y]) moved from (x, y) to its transposed place.
    The places of all pairs of nonzero basis entries with H_ab nonzero set
    the exact blocks, and each element's Hermitian part is summed into them
    place by place.
    """
    if len(p.dims) != 2:
        raise DimensionMismatch("check_ppt needs bipartite dims (dimA, dimB)")
    da, db = p.dims
    basis, s, c = p._frame
    h = (c + c.conj().transpose(0, 2, 1)) / 2
    a, x = np.nonzero(basis)
    e, f = np.nonzero(h.any(axis=0)[a[:, None], a])
    xe, xf = x[e], x[f]
    # <i,j|PT m|k,l> = <i,l|m|k,j>
    row, col = xe - xe % db + xf % db, xf - xf % db + xe % db
    base, local, shapes = _blocks(row, col, da * db)
    total = sum(count * size * size for count, size in shapes)
    nz = basis[a, x]
    terms = h[:, a[e], a[f]]
    terms *= nz[e] * nz[f].conj()
    at = (base[row] + local[col] + total * np.arange(p.k)[:, None]).ravel()
    blocks = np.bincount(at, terms.imag.ravel(), p.k * total) * 1j
    blocks += np.bincount(at, terms.real.ravel(), p.k * total)
    return blocks.reshape(p.k, total), shapes, s


def check_ppt(p, tol=PSD_TOL):
    """Minimum eigenvalue of each element's partial transpose, over the
    exact blocks of _pt_blocks. Positions whose blocks in all k elements
    match bit for bit share their spectra and are eigensolved once; the
    report counts blocks, distinct blocks and the largest block size."""
    blocks, shapes, s = _pt_blocks(p)
    mins, start, distinct = np.full(p.k, np.inf), 0, 0
    for count, size in shapes:
        stop = start + count * size * size
        group = blocks[:, start:stop].reshape(p.k, count, size * size)
        # key each position by the bytes of its k blocks; keep one per key
        kept_at = {row.tobytes(): c for c, row in enumerate(group.transpose(1, 0, 2))}
        kept = group[:, list(kept_at.values())]
        kept[:, :, :: size + 1] += s[:, None, None]
        mins = np.minimum(mins, np.linalg.eigvalsh(kept.reshape(p.k, -1, size, size)).min(axis=(1, 2)))
        distinct += kept.shape[1]
        start = stop
    mins = [float(v) for v in mins]
    return PptReport(
        min_pt_eigenvalues=tuple(mins),
        bound=pt_floor(p.k, min(p.dims)),
        tol=tol,
        pass_=min(mins) >= -tol,
        blocks=int(sum(count for count, _ in shapes)),
        distinct_blocks=distinct,
        largest_block=int(shapes[-1][1]),
    )


def discrimination_matrix(mes, p):
    """Matrix of outcome probabilities: entry (i, j) = <psi_i| M_j |psi_i>.

    With w_i = (<v_a|psi_i>)_a, entry (i, j) is s_j |psi_i|^2 + w_i^dag C_j w_i.
    """
    if p.k != mes.k:
        raise DimensionMismatch(
            f"POVM has {p.k} elements but the set has {mes.k} states"
        )
    if p.total_dim != mes.d * mes.d:
        raise DimensionMismatch("POVM dimension does not match the state space")
    basis, s, c = p._frame
    psi = _states(mes)
    w = basis.conj() @ psi.T
    quad = np.einsum("ai,jab,bi->ij", w.conj(), c, w).real
    return quad + np.einsum("ix,ix->i", psi.conj(), psi).real[:, None] * s


def _check_priors(priors, k):
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (k,):
        raise BadPriors(f"need {k} prior probabilities, got shape {priors.shape}")
    # stated as what must hold, so that NaN, which fails every comparison,
    # is refused; an infinite prior fails the sum
    if not (np.all(priors >= 0) and abs(priors.sum() - 1.0) <= 1e-12):
        raise BadPriors("priors must be finite, nonnegative and sum to 1")
    return priors
