"""One-way LOCC analysis: witnesses, impossibility certificates, and the
randomized near-optimal protocol.

A first-round measurement element M of any perfect one-way protocol must
satisfy Tr(U_j^dag U_i M) = 0 for every pair of states i != j. Those trace
constraints form a real linear system A over the Hermitian coordinates of M.
The top-left block of every solution is scalar exactly when each traceless
top-block functional lies in rowspace(A); the certificate tests that
membership after one thin SVD of A, never building the null space, and then
no complete rank-one first round exists. The certificate is numerical: it
certifies the specific phase values of the family it is given, not the
generic statement.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadPriors, NotCoisometry, SpecInvalid, UnknownBlockStructure
from .numerics import dag, diagonalize_unitary, frob, identity
from .states import MaxEntSet, pauli_product

ONE_WAY_IMPOSSIBLE = "OneWayImpossible"
INCONCLUSIVE = "Inconclusive"

# singular values below this fraction of the largest are treated as zero;
# the genericity margin on phases keeps true small singular values far above
NULLSPACE_RTOL = 1e-8

SCALAR_TOL = 1e-8


# ------------------------------------------------------------------ witnesses


@dataclass(frozen=True)
class IsometryCandidate:
    """A d x r matrix W with W W^dag = I_d.

    The columns encode the directions and weights of a rank-one first-round
    measurement; W W^dag = I is its completeness.
    """

    w: np.ndarray

    @staticmethod
    def identity(d):
        return IsometryCandidate(w=identity(d))

    def check(self, tol=1e-9):
        d = self.w.shape[0]
        residual = frob(self.w @ dag(self.w) - identity(d))
        if residual > tol * max(1.0, np.sqrt(d)):
            raise NotCoisometry(f"W W^dag deviates from identity by {residual:.3e}")


def check_isometry_witness(mes, cand, tol=1e-9):
    """Zero-diagonal test certifying one-way distinguishability.

    For each pair i != j the r x r matrix W^dag U_i^dag U_j W must have zero
    diagonal; a pass means the columns of W define a working first round.
    """
    cand.check()
    w = cand.w
    diag_max = {}
    for i in range(mes.k):
        for j in range(mes.k):
            if i == j:
                continue
            m = dag(w) @ dag(mes.unitaries[i]) @ mes.unitaries[j] @ w
            diag_max[(i, j)] = float(np.abs(np.diag(m)).max())
    worst = max(diag_max.values())
    return {"diag_max": diag_max, "worst": worst, "pass": worst <= tol}


# ----------------------------------------------------------- trace constraints


def trace_coords(t, d):
    """Coordinates of Tr(t M) against the orthonormal Hermitian basis of M.

    t may carry leading batch axes; the coordinates run along the last axis.
    """
    t = np.asarray(t)
    i, j = np.triu_indices(d, 1)
    lo, up = t[..., j, i], t[..., i, j]
    pairs = np.stack((lo + up, 1j * (lo - up)), axis=-1) / np.sqrt(2.0)
    diag = np.diagonal(t, axis1=-2, axis2=-1)
    return np.concatenate((diag, pairs.reshape(t.shape[:-2] + (-1,))), axis=-1)


def hermitian_coords(m):
    """Real coordinates of a Hermitian matrix in the orthonormal basis."""
    i, j = np.triu_indices(m.shape[0], 1)
    up = m[i, j] * np.sqrt(2.0)
    return np.concatenate((np.diag(m).real, np.stack((up.real, up.imag), axis=-1).reshape(-1)))


@dataclass(frozen=True)
class ConstraintSystem:
    """Real linear system mapping Hermitian M to (Re, Im) of Tr(U_j^dag U_i M)."""

    d: int
    pairs: tuple
    real_matrix: np.ndarray

    def evaluate(self, m):
        return self.real_matrix @ hermitian_coords(m)


def build_constraint_system(mes):
    """Stack the pairwise trace constraints of a state set as a real matrix."""
    d = mes.d
    pairs = tuple((i, j) for i in range(mes.k) for j in range(i + 1, mes.k))
    mat = np.zeros((2 * len(pairs), d * d))
    for p, (i, j) in enumerate(pairs):
        t = dag(mes.unitaries[j]) @ mes.unitaries[i]
        coords = trace_coords(t, d)
        mat[2 * p] = coords.real
        mat[2 * p + 1] = coords.imag
    return ConstraintSystem(d=d, pairs=pairs, real_matrix=mat)


# --------------------------------------------------------------- certificates


@dataclass(frozen=True)
class ImpossibilityCertificate:
    family: object
    nullspace_dim: int
    top_block_size: int
    top_block_image_dim: int
    forced_scalar: bool
    conclusion: str
    residuals: dict
    reduction_holds: bool = None

    def to_json(self):
        return {
            "family": self.family.to_json(),
            "nullspace_dim": self.nullspace_dim,
            "top_block_size": self.top_block_size,
            "top_block_image_dim": self.top_block_image_dim,
            "forced_scalar": bool(self.forced_scalar),
            "conclusion": self.conclusion,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "reduction_holds": self.reduction_holds,
        }


def certify_impossible(mes, rtol=NULLSPACE_RTOL):
    """Row-space analysis of the first-round trace constraints.

    One thin SVD of the constraint matrix A gives its rank and an orthonormal
    basis V of rowspace(A). A linear functional of M vanishes on the whole
    null space exactly when it lies in rowspace(A), so each top-block
    functional is projected off rowspace(A): the top block is forced scalar
    when the projected traceless functionals vanish, and the rank of the
    projected top-block functionals is the dimension of the top-block image.
    For k-state families the certificate additionally reports whether the
    constraints force Tr(M_top X_i X_j) = 0 against the base Pauli products
    (reduction_holds); for k > 3 the conclusion stays Inconclusive because the
    remaining step rests on properties of the base set that this analysis
    does not re-derive.
    """
    spec = mes.spec
    if spec is None or spec.kind not in ("even_d", "mod3", "k_state"):
        kind = None if spec is None else spec.kind
        raise UnknownBlockStructure(
            f"no known top-block structure for family kind {kind!r}"
        )
    d, m_top = mes.d, spec.top_block_size()
    a = build_constraint_system(mes).real_matrix
    if not np.all(np.isfinite(a)):
        raise SpecInvalid("constraint system has non-finite entries")
    svals, vt = np.linalg.svd(a, full_matrices=False)[1:] if len(a) else (np.zeros(0), a)
    rank = int(np.sum(svals > rtol * svals[0])) if svals.size and svals[0] > 0 else 0
    row = vt[:rank]

    def off_rowspace(ts):
        """(Re, Im) of the functionals Tr(t M_top), projected off rowspace(A)."""
        emb = np.zeros((len(ts), d, d), dtype=complex)
        emb[:, :m_top, :m_top] = ts
        c = trace_coords(emb, d)
        f = np.stack((c.real, c.imag), axis=1)
        return f - (f @ row.T) @ row

    # Tr(e_rs M_top) is entry (s, r) of the top block; subtracting I/m on the
    # diagonal gives the entries of its traceless part
    entries = np.eye(m_top * m_top).reshape(-1, m_top, m_top)
    traceless = entries - np.einsum("qrr->q", entries)[:, None, None] * np.eye(m_top) / m_top
    top = off_rowspace(entries).reshape(-1, d * d)
    max_scalar_dev = float(np.linalg.norm(off_rowspace(traceless).reshape(-1, d * d), 2))
    forced_scalar = bool(max_scalar_dev <= SCALAR_TOL)
    image = np.linalg.svd(top, compute_uv=False)
    image_dim = int(np.sum(image > rtol * image[0])) if rank < d * d else 0

    residuals = {
        "max_constraint_residual": float(np.abs(a - (a @ row.T) @ row).max()) if a.size else 0.0,
        "max_scalar_deviation": max_scalar_dev,
    }
    reduction_holds = None
    if spec.kind == "k_state":
        xs = [pauli_product(t) for t in spec.lattice_indices]
        products = [xs[i] @ xs[j] for i in range(spec.k) for j in range(spec.k) if i != j]
        max_reduction = float(np.linalg.norm(off_rowspace(np.array(products)), 2, axis=(1, 2)).max())
        residuals["max_reduction_residual"] = max_reduction
        reduction_holds = bool(max_reduction <= SCALAR_TOL)

    conclusion = ONE_WAY_IMPOSSIBLE if forced_scalar else INCONCLUSIVE
    if spec.kind == "k_state" and spec.k > 3:
        conclusion = INCONCLUSIVE

    return ImpossibilityCertificate(
        family=spec,
        nullspace_dim=d * d - rank,
        top_block_size=m_top,
        top_block_image_dim=image_dim,
        forced_scalar=forced_scalar,
        conclusion=conclusion,
        residuals=residuals,
        reduction_holds=reduction_holds,
    )


# ------------------------------------------------------- randomized protocol


def standardize_triple(mes):
    """Rotate a 3-state set so that u_0 = I and u_1 is diagonal.

    First absorbs u_0 by a fixed rotation on Bob's side (u_i -> u_i u_0^dag),
    then conjugates with the eigenbasis of the new u_1; both steps are local
    rotations, so probabilities of any discrimination strategy are unchanged.
    """
    if mes.k != 3:
        raise SpecInvalid("standardize_triple expects a 3-state set")
    u0 = mes.unitaries[0]
    us = mes.unitaries
    if frob(u0 - identity(mes.d)) > 1e-12:
        us = tuple(u @ dag(u0) for u in us)
    v, _ = diagonalize_unitary(us[1])
    rotated = tuple(dag(v) @ u @ v for u in us)
    return MaxEntSet(d=mes.d, unitaries=rotated, spec=None, label=mes.label + "|standardized")


def fourier_basis(d):
    """Columns are |phi_j> = (1/sqrt d) sum_k exp(2 pi i jk/d)|k>."""
    j, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    return np.exp(2j * np.pi * j * k / d) / np.sqrt(d)


def randomized_error_exact(mes, priors):
    """Exact error probability of the randomized protocol.

    Priors must be sorted descending; the protocol perfectly distinguishes
    the two most likely states, so only the third contributes error:
    p_2 <psi_2|(Pi0 + Pi1)|psi_2>, at most 2/(3d) under uniform priors. The
    dephasing averages are Pi_t = |psi_t><psi_t| + R/d, where R projects onto
    the product states |a (x) b> with a != b; the value is computed in O(d^2)
    from two overlaps and the diagonal of U_2.
    """
    priors = np.asarray(priors, dtype=float)
    if priors.shape != (3,) or np.any(priors < 0) or abs(priors.sum() - 1.0) > 1e-12:
        raise BadPriors("need 3 nonnegative priors summing to 1")
    if not (priors[0] >= priors[1] >= priors[2]):
        raise BadPriors("priors must be sorted descending (protocol targets the two most likely states)")
    if mes.k != 3:
        raise SpecInvalid(f"randomized protocol needs exactly 3 states, got {mes.k}")
    u0, u1, u2 = mes.unitaries
    d = mes.d
    # <psi_i|psi_j> = Tr(U_i^dag U_j)/d does not depend on the local basis
    overlaps = (abs(np.vdot(u2, u0)) ** 2 + abs(np.vdot(u2, u1)) ** 2) / d**2
    # standardize_triple takes U_2 to V^dag U_2 U_0^dag V, V the eigenbasis of
    # U_1 U_0^dag, and only its diagonal is needed; <psi_2|R|psi_2> is the
    # weight of psi_2 off the |a (x) a> diagonal, 1 - sum_a |U_2[a, a]|^2 / d
    w1, w2 = u1 @ dag(u0), u2 @ dag(u0)
    diag = np.diag(w2)
    if frob(w1 - np.diag(np.diag(w1))) > 1e-9:
        v, _ = diagonalize_unitary(w1)
        diag = np.einsum("ia,ij,ja->a", np.conj(v), w2, v)
    off_diagonal = 1.0 - float(np.sum(np.abs(diag) ** 2)) / d
    return float(priors[2] * (overlaps + 2.0 * off_diagonal / d))


def randomized_error_bound(d):
    """Uniform-prior guarantee for the randomized protocol."""
    return 2.0 / (3.0 * d)
