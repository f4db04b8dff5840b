"""One-way LOCC analysis: witnesses, impossibility certificates, and the
randomized near-optimal protocol.

A first-round measurement element M of any perfect one-way protocol must
satisfy Tr(U_j^dag U_i M) = 0 for every pair of states i != j. Those trace
constraints form a real linear system A over the Hermitian coordinates of M.
When they force the 2 x 2 compression of M on some coordinate pair to be
scalar, every rank-one first-round element vanishes on both coordinates and
no complete rank-one first round exists. The certificate searches for such a
forced pair by testing row-space membership after one thin SVD of A, never
building the null space, and needs no knowledge of the family. It is
numerical: it certifies the specific phase values of the set it is given,
not the generic statement.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BadPriors, NotCoisometry, SpecInvalid
from .measurements import _check_priors
from .numerics import dag, diagonalize_monomial, diagonalize_unitary, frob, identity
from .states import KSpec, MaxEntSet, pauli_product

ONE_WAY_IMPOSSIBLE = "OneWayImpossible"
INCONCLUSIVE = "Inconclusive"

# singular values below this fraction of the largest are treated as zero;
# the genericity margin on phases keeps true small singular values far above
NULLSPACE_RTOL = 1e-8

SCALAR_TOL = 1e-8

# a 3-state set is in the randomized protocol's frame when u_0 is I and u_1
# is diagonal, each to within this Frobenius distance
FRAME_TOL = 1e-9


# ------------------------------------------------------------------ witnesses


def check_isometry_witness(mes, w, tol=1e-9):
    """Zero-diagonal test certifying one-way distinguishability.

    w is a d x r matrix whose columns encode the directions and weights of a
    rank-one first-round measurement; its completeness W W^dag = I is checked
    first (NotCoisometry). For each pair i != j the r x r matrix
    W^dag U_i^dag U_j W must then have zero diagonal; a pass means the columns
    of W define a working first round. The diagonal entries are
    <U_i w_c|U_j w_c>, read from the k products U_i W; a single state has
    none, so it passes with worst 0.
    """
    d = w.shape[0]
    residual = frob(w @ dag(w) - identity(d))
    if residual > 1e-9 * max(1.0, np.sqrt(d)):
        raise NotCoisometry(f"W W^dag deviates from identity by {residual:.3e}")
    uw = mes.unitaries @ w
    diags = np.abs(np.einsum("iac,jac->ijc", np.conj(uw), uw)).max(axis=2)
    diag_max = {(i, j): float(diags[i, j]) for i in range(mes.k) for j in range(mes.k) if i != j}
    worst = max(diag_max.values(), default=0.0)
    return {"diag_max": diag_max, "worst": worst, "pass": worst <= tol}


# ----------------------------------------------------------- trace constraints


@functools.lru_cache(maxsize=32)
def _upper_pairs(n):
    """np.triu_indices(n, 1), built once per n and read-only."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def trace_coords(t, d):
    """Coordinates of Tr(t M) against the orthonormal Hermitian basis of M.

    t may carry leading batch axes; the coordinates run along the last axis.
    """
    t = np.asarray(t)
    i, j = _upper_pairs(d)
    lo, up = t[..., j, i], t[..., i, j]
    pairs = np.stack((lo + up, 1j * (lo - up)), axis=-1) / np.sqrt(2.0)
    diag = np.diagonal(t, axis1=-2, axis2=-1)
    return np.concatenate((diag, pairs.reshape(t.shape[:-2] + (d * (d - 1),))), axis=-1)


def build_constraint_system(mes):
    """The pairwise trace constraints of a state set as a real matrix.

    Rows 2p and 2p + 1 map the Hermitian coordinates of M (the basis that
    trace_coords reads against) to Re and Im of Tr(U_j^dag U_i M) for the
    p-th pair i < j of np.triu_indices(k, 1).
    """
    d, u = mes.d, mes.unitaries
    i, j = _upper_pairs(mes.k)
    coords = trace_coords(np.conj(u[j]).transpose(0, 2, 1) @ u[i], d)
    return np.stack((coords.real, coords.imag), axis=1).reshape(2 * len(i), d * d)


# --------------------------------------------------------------- certificates


@dataclass(frozen=True)
class ImpossibilityCertificate:
    family: object
    nullspace_dim: int
    forced_pair: tuple
    conclusion: str
    residuals: dict
    reduction_holds: bool = None

    def to_json(self):
        return {
            "family": None if self.family is None else self.family.to_json(),
            "nullspace_dim": self.nullspace_dim,
            "forced_pair": None if self.forced_pair is None else list(self.forced_pair),
            "conclusion": self.conclusion,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "reduction_holds": self.reduction_holds,
        }


def certify_impossible(mes):
    """Search the first-round trace constraints for a forced coordinate pair.

    One thin SVD of the constraint matrix A gives its rank and an orthonormal
    basis V of rowspace(A). The pair (a, b) is forced when its traceless
    functionals Re M_ab, Im M_ab and M_aa - M_bb all lie in rowspace(A), so
    that they vanish on every admissible M; this needs no family structure.

    Pairs are ranked by the squared norm of those functionals off rowspace(A),
    read from the column norms of V in O(d^2 rank). That estimate, 1 - |V e|^2,
    rounds to about 1e-16, or 1e-8 in norm, so it only screens: the pairs
    whose estimate is within SCALAR_TOL, and always the best-ranked pair, are
    projected off rowspace(A) explicitly, and the first of them whose
    projection has spectral norm within SCALAR_TOL is forced. That norm is the worst deviation from scalar
    of the pair's compression over unit null-space elements, and
    max_scalar_deviation, its smallest value over the projected pairs, is the
    verdict's margin. For a set that still has its k_state spec's layout,
    each U_i equal to diag(alpha_i X_i, B_i) within the builders' unitarity
    tolerance 1e-10 sqrt(d), the certificate also reports whether the
    constraints force Tr(M_top X_i X_j) = 0 against the base Pauli products
    (reduction_holds); for any other set it is None. A single state has no
    pairs to constrain: it is Inconclusive, and its reduction holds vacuously.
    """
    d, spec = mes.d, mes.spec
    a = build_constraint_system(mes)
    if not np.all(np.isfinite(a)):
        raise SpecInvalid("constraint system has non-finite entries")
    svals, vt = np.linalg.svd(a, full_matrices=False)[1:] if len(a) else (np.zeros(0), a)
    cuts = svals / svals[0] if svals.size and svals[0] > 0 else np.zeros(0)
    rank = int(np.sum(cuts > NULLSPACE_RTOL))
    row = vt[:rank]

    def off_rowspace(f):
        return f - (f @ row.T) @ row

    # the pair (a, b) at position p of triu_indices owns the coordinates
    # d + 2p (sqrt 2 Re M_ab) and d + 2p + 1 (sqrt 2 Im M_ab); its third
    # functional is (e_a - e_b) / sqrt 2 on the diagonal coordinates
    i, j = _upper_pairs(d)
    norms = np.einsum("rc,rc->c", row, row)
    diag_gram = row[:, :d].T @ row[:, :d]
    estimate = 3.0 - norms[d::2] - norms[d + 1 :: 2] - (norms[i] + norms[j] - 2.0 * diag_gram[i, j]) / 2.0

    def deviation(p):
        f = np.zeros((3, d * d))
        f[0, d + 2 * p] = f[1, d + 2 * p + 1] = 1.0
        f[2, i[p]], f[2, j[p]] = np.sqrt(0.5), -np.sqrt(0.5)
        return float(np.linalg.norm(off_rowspace(f), 2))

    best = {int(np.argmin(estimate))} if estimate.size else set()
    screened = sorted(best.union(np.flatnonzero(estimate <= SCALAR_TOL).tolist()))
    deviations = {p: deviation(p) for p in screened}
    forced = next((p for p in screened if deviations[p] <= SCALAR_TOL), None)

    residuals = {
        "max_constraint_residual": float(np.abs(off_rowspace(a)).max()) if a.size else 0.0,
        "max_scalar_deviation": min(deviations.values(), default=np.inf),
        "rank_cut_kept": float(cuts[rank - 1]) if rank else 0.0,
        "rank_cut_dropped": float(cuts[rank]) if rank < cuts.size else 0.0,
    }
    reduction_holds = None
    if isinstance(spec, KSpec) and mes.k == spec.k:
        m = 2 ** len(spec.lattice_indices[0])
        xs = [pauli_product(t) for t in spec.lattice_indices]
        # what each U_i has off diag(alpha_i X_i, B_i), the spec's layout
        off = np.array(mes.unitaries, dtype=complex)
        off[:, :m, :m] -= np.reshape(spec.alphas, (-1, 1, 1)) * xs
        off[:, m:, m:] = 0.0
        if np.linalg.norm(off, axis=(1, 2)).max() <= 1e-10 * np.sqrt(d):
            emb = np.zeros((spec.k * (spec.k - 1), d, d), dtype=complex)
            products = [xs[p] @ xs[q] for p in range(spec.k) for q in range(spec.k) if p != q]
            emb[:, :m, :m] = np.reshape(products, (-1, m, m))
            c = trace_coords(emb, d)
            projected = off_rowspace(np.stack((c.real, c.imag), axis=1))
            residuals["max_reduction_residual"] = float(np.linalg.norm(projected, 2, axis=(1, 2)).max(initial=0.0))
            reduction_holds = bool(residuals["max_reduction_residual"] <= SCALAR_TOL)

    return ImpossibilityCertificate(
        family=spec,
        nullspace_dim=d * d - rank,
        forced_pair=None if forced is None else (int(i[forced]), int(j[forced])),
        conclusion=INCONCLUSIVE if forced is None else ONE_WAY_IMPOSSIBLE,
        residuals=residuals,
        reduction_holds=reduction_holds,
    )


# ------------------------------------------------------- randomized protocol


def randomized_priors(priors):
    """Three priors sorted descending, as an array; otherwise BadPriors.

    The protocol perfectly distinguishes the first two states, so they must
    be the two most likely.
    """
    priors = _check_priors(priors, 3)
    if not (priors[0] >= priors[1] >= priors[2]):
        raise BadPriors("priors must be sorted descending (protocol targets the two most likely states)")
    return priors


def standardize_triple(mes):
    """The 3-state set in the randomized protocol's frame: u_0 = I, u_1 diagonal.

    Absorbs u_0 by a fixed rotation on Bob's side (u_i -> u_i u_0^dag) when
    u_0 is not I, then conjugates with an eigenbasis of the new u_1 when it
    is not diagonal: read cycle by cycle when u_1 is monomial, eigensolved
    only when it is not. Both steps are local rotations, so probabilities of
    any discrimination strategy are unchanged. A set already in the frame,
    to within FRAME_TOL, is returned as it is.
    """
    us, moved = _frame(mes)
    return MaxEntSet(d=mes.d, unitaries=us, spec=None, label=mes.label + "|standardized") if moved else mes


def _frame(mes):
    """The (3, d, d) stack of standardize_triple's unitaries, and whether
    either step moved them; a set already in the frame gives its own array."""
    if mes.k != 3:
        raise SpecInvalid(f"randomized protocol needs exactly 3 states, got {mes.k}")
    given = us = mes.unitaries
    if frob(us[0] - identity(mes.d)) > FRAME_TOL:
        us = us @ dag(us[0])
    if frob(us[1] - np.diag(np.diag(us[1]))) > FRAME_TOL:
        v, _ = diagonalize_monomial(us[1]) or diagonalize_unitary(us[1])
        us = dag(v) @ us @ v
    return us, us is not given


def randomized_error_exact(mes, priors):
    """Exact error probability of the randomized protocol.

    Priors must be sorted descending; the protocol perfectly distinguishes
    the two most likely states, so only the third contributes error:
    p_2 <psi_2|(Pi0 + Pi1)|psi_2>, at most 2/(3d) under uniform priors. The
    dephasing averages are Pi_t = |psi_t><psi_t| + R/d, where R projects onto
    the product states |a (x) b> with a != b. The value is read from two
    overlaps and the diagonal of U_2 in the frame of standardize_triple.
    """
    # the frame's stack, not a second set
    u0, u1, u2 = _frame(mes)[0]
    priors = randomized_priors(priors)
    d = mes.d
    # <psi_i|psi_j> = Tr(U_i^dag U_j)/d does not depend on the local basis
    overlaps = (abs(np.vdot(u2, u0)) ** 2 + abs(np.vdot(u2, u1)) ** 2) / d**2
    # <psi_2|R|psi_2> is the weight of psi_2 off the |a (x) a> diagonal,
    # clamped at 0 where rounding would take it below
    off_diagonal = max(0.0, 1.0 - float(np.sum(np.abs(np.diag(u2)) ** 2)) / d)
    return float(priors[2] * (overlaps + 2.0 * off_diagonal / d))


def randomized_error_bound(d):
    """Uniform-prior guarantee for the randomized protocol."""
    return 2.0 / (3.0 * d)
