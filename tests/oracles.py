"""Dense reference implementations that the fast paths must agree with.

Each function here is the straightforward dense form of a verdict: the full
SVD and explicit null-space basis of the one-way constraint system, the
canonical discriminator summed from k dense outer products and its
discrimination matrix from full matrix-vector products, full
eigendecompositions of every POVM element and of its partial transpose, and
the d^2 x d^2 measurements and dephasing averages of the randomized
protocol. They cost O(d^6) time and O(d^4) memory, so they are only meant
for small d.
"""

import numpy as np

from locc_lab.errors import DimensionMismatch, NotDiagonal, SpecInvalid, TooManyStates
from locc_lab.measurements import Povm, PptReport, pt_floor
from locc_lab.numerics import as_complex, dag, eig_hermitian, frob, identity, kron
from locc_lab.oneway import (
    INCONCLUSIVE,
    NULLSPACE_RTOL,
    ONE_WAY_IMPOSSIBLE,
    SCALAR_TOL,
    build_constraint_system,
    fourier_basis,
    standardize_triple,
)
from locc_lab.states import pauli_product


def hermitian_from_coords(c, d):
    """Inverse of locc_lab.oneway.hermitian_coords."""
    m = np.zeros((d, d), dtype=complex)
    np.fill_diagonal(m, c[:d])
    idx = d
    s = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            m[i, j] = (c[idx] + 1j * c[idx + 1]) * s
            m[j, i] = (c[idx] - 1j * c[idx + 1]) * s
            idx += 2
    return m


def nullspace(cs, rtol=NULLSPACE_RTOL):
    """Orthonormal Hermitian basis of the constraint system's null space."""
    rows, cols = cs.real_matrix.shape
    if rows == 0:
        return [hermitian_from_coords(e, cs.d) for e in np.eye(cols)]
    _, svals, vt = np.linalg.svd(cs.real_matrix)
    smax = svals[0] if len(svals) else 0.0
    rank = int(np.sum(svals > rtol * smax)) if smax > 0 else 0
    return [hermitian_from_coords(v, cs.d) for v in vt[rank:]]


def certify_impossible(mes, rtol=NULLSPACE_RTOL):
    """Certificate fields from the explicit null-space basis.

    Returns a dict with the fields of ImpossibilityCertificate that do not
    depend on the residual definitions; max_scalar_deviation and
    max_reduction_residual are the largest values over the basis elements.
    """
    spec = mes.spec
    m_top = spec.top_block_size()
    basis = nullspace(build_constraint_system(mes), rtol)
    products = []
    if spec.kind == "k_state":
        xs = [pauli_product(t) for t in spec.lattice_indices]
        products = [xs[i] @ xs[j] for i in range(spec.k) for j in range(spec.k) if i != j]
    max_scalar_dev = max_reduction = 0.0
    image_rows = []
    for n in basis:
        a = n[:m_top, :m_top]
        max_scalar_dev = max(max_scalar_dev, frob(a - (np.trace(a) / m_top) * identity(m_top)))
        image_rows.append(a.reshape(-1))
        for prod in products:
            max_reduction = max(max_reduction, abs(np.trace(a @ prod)))
    if image_rows:
        svals = np.linalg.svd(np.array(image_rows), compute_uv=False)
        image_dim = int(np.sum(svals > rtol * max(svals[0], 1e-300)))
    else:
        image_dim = 0
    forced_scalar = max_scalar_dev <= SCALAR_TOL
    conclusion = ONE_WAY_IMPOSSIBLE if forced_scalar else INCONCLUSIVE
    if spec.kind == "k_state" and spec.k > 3:
        conclusion = INCONCLUSIVE
    return {
        "nullspace_dim": len(basis),
        "top_block_image_dim": image_dim,
        "forced_scalar": forced_scalar,
        "conclusion": conclusion,
        "max_scalar_deviation": max_scalar_dev,
        "reduction_holds": bool(max_reduction <= SCALAR_TOL) if products else None,
        "max_reduction_residual": max_reduction,
    }


def ppt_discriminator(mes, force=False):
    """Elements (1/k)(I + k rho_i - sum_j rho_j) from k dense outer products."""
    d, k = mes.d, mes.k
    if k > d / 2 + 1 and not force:
        raise TooManyStates(f"k={k} exceeds d/2+1={d / 2 + 1}")
    rhos = [np.outer(v, v.conj()) for v in mes.states()]
    total = sum(rhos)
    elements = tuple((identity(d * d) + k * rhos[i] - total) / k for i in range(k))
    return Povm(elements=elements, dims=(d, d), label=f"ppt_discriminator[{mes.label}]")


def discrimination_matrix(mes, p):
    """Entry (i, j) = <psi_i| M_j |psi_i> from full matrix-vector products."""
    out = np.zeros((mes.k, p.k))
    for i, psi in enumerate(mes.states()):
        for j, m in enumerate(p.elements):
            out[i, j] = np.real(np.vdot(psi, m @ psi))
    return out


def check_orthogonal_mes(mes, tol=1e-9):
    """Residuals from each unitary and from the reduced states of each
    state vector, one matrix at a time."""
    d = mes.d
    unitarity = [frob(dag(u) @ u - identity(d)) for u in mes.unitaries]
    pairwise = {}
    for i in range(mes.k):
        for j in range(i + 1, mes.k):
            pairwise[(i, j)] = abs(np.trace(dag(mes.unitaries[i]) @ mes.unitaries[j]))
    reduced = []
    for psi in mes.states():
        m = psi.reshape(d, d)
        rho_a, rho_b = m @ dag(m), m.T @ np.conj(m)
        reduced.append(max(frob(rho_a - identity(d) / d), frob(rho_b - identity(d) / d)))
    return {
        "unitarity_residuals": unitarity,
        "pairwise_trace_residuals": pairwise,
        "reduced_state_residuals": reduced,
        "pass": max(unitarity) <= tol
        and (not pairwise or max(pairwise.values()) <= tol)
        and max(reduced) <= tol,
    }


def partial_transpose(m, dim_a, dim_b):
    """Transpose the second tensor factor: <i,j|out|k,l> = <i,l|m|k,j>."""
    m = as_complex(m)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise DimensionMismatch(
            f"matrix shape {m.shape} does not match dims ({dim_a},{dim_b})"
        )
    return (
        m.reshape(dim_a, dim_b, dim_a, dim_b)
        .transpose(0, 3, 2, 1)
        .reshape(n, n)
    )


def validate_povm(p, tol=1e-9):
    """Full eigendecomposition of the Hermitian part of every element."""
    n = p.total_dim
    herm = [frob(m - dag(m)) for m in p.elements]
    min_eigs = [float(eig_hermitian((m + dag(m)) / 2).eigenvalues[0]) for m in p.elements]
    completeness = frob(sum(p.elements) - identity(n))
    return {
        "hermiticity_residuals": herm,
        "min_eigenvalues": min_eigs,
        "completeness_residual": completeness,
        "pass": max(herm) <= tol and min(min_eigs) >= -tol and completeness <= tol,
    }


def check_ppt(p, tol=1e-9):
    """Full eigendecomposition of every element's dense partial transpose."""
    da, db = p.dims
    mins = []
    for m in p.elements:
        pt = partial_transpose(m, da, db)
        mins.append(float(eig_hermitian((pt + dag(pt)) / 2).eigenvalues[0]))
    return PptReport(
        min_pt_eigenvalues=tuple(mins),
        bound=pt_floor(p.k, min(da, db)),
        pass_=min(mins) >= -tol,
    )


def require_standard_triple(mes, tol=1e-9):
    """Raise unless mes is three states with u_0 = I and u_1 diagonal."""
    if mes.k != 3:
        raise SpecInvalid(f"randomized protocol needs exactly 3 states, got {mes.k}")
    if frob(mes.unitaries[0] - identity(mes.d)) > tol:
        raise SpecInvalid("randomized protocol needs u_0 = identity")
    u1 = mes.unitaries[1]
    off = frob(u1 - np.diag(np.diag(u1)))
    if off > tol:
        raise NotDiagonal(f"u_1 deviates from diagonal by {off:.3e}; rotate the set with standardize_triple first")


def randomized_measurement_at(mes, x):
    """Three-outcome one-way measurement at dephasing angles x.

    Outcomes 0 and 1 perfectly identify the first two states; outcome 2 is
    the remainder and is attributed to the third state. The d^2 x d^2
    elements are what locc_lab.simulate.run_randomized_oneway samples
    without building them.
    """
    require_standard_triple(mes)
    d = mes.d
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise SpecInvalid(f"need {d} dephasing angles, got shape {x.shape}")
    wx = np.exp(2j * np.pi * x)
    f = fourier_basis(d)
    u1 = mes.unitaries[1]
    n2 = d * d
    pi0 = np.zeros((n2, n2), dtype=complex)
    pi1 = np.zeros((n2, n2), dtype=complex)
    for j in range(d):
        a = wx * f[:, j]
        b = np.conj(wx) * f[:, (d - j) % d]
        b1 = np.conj(wx) * (u1 @ f[:, (d - j) % d])
        pi0 += kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
        pi1 += kron(np.outer(a, a.conj()), np.outer(b1, b1.conj()))
    pi2 = identity(n2) - pi0 - pi1
    return Povm(elements=(pi0, pi1, pi2), dims=(d, d), label=f"randomized(x)[{mes.label}]")


def averaged_operators(mes):
    """Exact dephasing averages of the first two randomized outcomes.

    Returns (Pi0, Pi1) with Pi_t = |psi_t><psi_t| + R/d, where R projects
    onto the off-diagonal product basis states |i (x) j>, i != j.
    """
    require_standard_triple(mes)
    d = mes.d
    r = np.ones(d * d)
    r[:: d + 1] = 0.0
    r = np.diag(r).astype(complex)
    psi0, psi1 = mes.state(0), mes.state(1)
    pi0 = np.outer(psi0, psi0.conj()) + r / d
    pi1 = np.outer(psi1, psi1.conj()) + r / d
    return pi0, pi1


def averaged_povm(mes):
    """The averaged operators completed to a 3-outcome measurement."""
    pi0, pi1 = averaged_operators(mes)
    pi2 = identity(mes.d * mes.d) - pi0 - pi1
    return Povm(elements=(pi0, pi1, pi2), dims=(mes.d, mes.d), label=f"averaged[{mes.label}]")


def randomized_error_exact(mes, priors):
    """p_2 <psi_2|(Pi0 + Pi1)|psi_2> from the dense averaged operators."""
    work = mes
    off = mes.unitaries[1] - np.diag(np.diag(mes.unitaries[1]))
    if frob(off) > 1e-9 or frob(mes.unitaries[0] - identity(mes.d)) > 1e-9:
        work = standardize_triple(mes)
    pi0, pi1 = averaged_operators(work)
    psi2 = work.state(2)
    return float(priors[2] * np.real(np.vdot(psi2, (pi0 + pi1) @ psi2)))


def randomized_error_standardized(mes, priors):
    """The closed form p_2 (|<psi_2|psi_0>|^2 + |<psi_2|psi_1>|^2 + 2(1 -
    sum_a |U_2[a, a]|^2 / d) / d) on the whole set rotated by
    standardize_triple."""
    work = mes
    off = mes.unitaries[1] - np.diag(np.diag(mes.unitaries[1]))
    if frob(off) > 1e-9 or frob(mes.unitaries[0] - identity(mes.d)) > 1e-9:
        work = standardize_triple(mes)
    require_standard_triple(work)
    u0, u1, u2 = work.unitaries
    d = work.d
    overlaps = (abs(np.vdot(u2, u0)) ** 2 + abs(np.vdot(u2, u1)) ** 2) / d**2
    off_diagonal = 1.0 - float(np.sum(np.abs(np.diag(u2)) ** 2)) / d
    return float(priors[2] * (overlaps + 2.0 * off_diagonal / d))
