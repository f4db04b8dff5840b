"""Dense reference implementations that the fast paths must agree with.

Each function here is the straightforward dense form of a verdict: the full
SVD and explicit null-space basis of the one-way constraint system, the
canonical discriminator summed from k dense outer products, any POVM's
elements expanded to d^2 x d^2 arrays, discrimination matrices from full
matrix-vector products, full eigendecompositions of every POVM element and
of its partial transpose, the randomized protocol's frame from an eigh
eigendecomposition of u_1, and the d^2 x d^2 measurements and dephasing
averages of that protocol. They cost O(d^6) time and O(d^4)
memory, so they are only meant for small d. The randomized protocol's
per-trial Monte Carlo loop is kept too, reading the same stream as the
chunked sampler; so are Bob's probabilities averaged over all of Alice's
outcomes by d FFTs per trial, as the sampler computed them before it drew
her outcome, and the exact-block partial transpose with one eigensolve per
block, equal blocks included.

Protocol-tree references sit beside them: the per-trial Monte Carlo walk
that draws every Kraus outcome of every trial from its own Philox stream;
the zero-diagonal witness test from one dense product per ordered pair;
the one-way witness tree built column by column from outer products, with
the lattice triples' witness chosen by brute force (eigh of each Pauli
class, then the trace test); the lattice tree that measures that witness
basis on both sides, each of Bob's outcomes read from overlaps
|<w_b|U_i w_c>|; and the lattice teleport and parallel trees,
an independent one-way protocol built outcome by outcome, with eigh of the
Paulis and product labels from traces. The checked Hermitian
eigendecomposition, the success probability of a POVM and the errors only
these references raise live here too.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from locc_lab.errors import DimensionMismatch, LoccLabError, SpecInvalid, TooManyStates
from locc_lab.measurements import Povm, PptReport, _check_priors, _pt_blocks, pt_floor
from locc_lab.numerics import DEFAULT_TOL, as_complex, dag, diagonalize_unitary, frob, identity, kron
from locc_lab.oneway import (
    FRAME_TOL,
    INCONCLUSIVE,
    NULLSPACE_RTOL,
    ONE_WAY_IMPOSSIBLE,
    SCALAR_TOL,
    build_constraint_system,
    fourier_basis,
    standardize_triple,
)
from locc_lab.protocols import Decide, Measure
from locc_lab.states import PAULIS, MaxEntSet, pauli_product


class NotHermitian(LoccLabError):
    pass


class NoConvergence(LoccLabError):
    pass


class NotDiagonal(LoccLabError):
    pass


def states(mes):
    """The state vectors of every member of mes."""
    return [mes.state(i) for i in range(mes.k)]


def is_hermitian(h, tol=None):
    tol = DEFAULT_TOL if tol is None else tol
    return frob(h - dag(h)) <= tol * max(1.0, frob(h))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors holds the matching
    orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self):
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dag(v)


def eig_hermitian(h, tol=None):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NotHermitian when the input fails the Hermiticity tolerance and
    NoConvergence if the underlying solver gives up (a numerics bug at the
    dimensions used here, never expected).
    """
    h = as_complex(h)
    if not is_hermitian(h, tol):
        raise NotHermitian(
            f"matrix deviates from Hermitian by {frob(h - dag(h)):.3e}"
        )
    try:
        vals, vecs = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NoConvergence(str(exc)) from exc
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


def hermitian_coords(m):
    """Real coordinates of a Hermitian matrix in the orthonormal basis that
    locc_lab.oneway.trace_coords reads against: the diagonal, then sqrt 2
    (Re, Im) of each upper entry in np.triu_indices order."""
    i, j = np.triu_indices(m.shape[0], 1)
    up = m[i, j] * np.sqrt(2.0)
    return np.concatenate((np.diag(m).real, np.stack((up.real, up.imag), axis=-1).reshape(-1)))


def hermitian_from_coords(c, d):
    """Inverse of hermitian_coords."""
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


def nullspace(a, rtol=NULLSPACE_RTOL):
    """Orthonormal Hermitian basis of the null space of the constraint
    matrix a of build_constraint_system."""
    rows, cols = a.shape
    d = math.isqrt(cols)
    if rows == 0:
        return [hermitian_from_coords(e, d) for e in np.eye(cols)]
    _, svals, vt = np.linalg.svd(a)
    smax = svals[0] if len(svals) else 0.0
    rank = int(np.sum(svals > rtol * smax)) if smax > 0 else 0
    return [hermitian_from_coords(v, d) for v in vt[rank:]]


def has_spec_layout(mes):
    """True when mes has a k_state spec and each U_i, one at a time, is
    diag(alpha_i X_i, B_i) for some block B_i, up to 1e-10 sqrt(d)."""
    spec = mes.spec
    if spec is None or spec.kind != "k_state" or (mes.k, mes.d) != (spec.k, spec.d):
        return False
    m = 2 ** len(spec.lattice_indices[0])
    for u, alpha, idx in zip(mes.unitaries, spec.alphas, spec.lattice_indices):
        expected = np.array(u, dtype=complex)
        expected[:m, :] = 0.0
        expected[:, :m] = 0.0
        expected[:m, :m] = alpha * pauli_product(idx)
        if frob(u - expected) > 1e-10 * np.sqrt(mes.d):
            return False
    return True


def certify_impossible(mes, rtol=NULLSPACE_RTOL):
    """Certificate fields from the explicit null-space basis.

    The pair (a, b) is forced when every basis element N has N[a, a] =
    N[b, b] and N[a, b] = 0 within SCALAR_TOL; the first forced pair in
    lexicographic order is reported. max_scalar_deviation is the smallest,
    over all pairs, of the largest deviation from scalar of a basis
    element's 2 x 2 compression; max_reduction_residual is the largest
    |Tr(N_top X_i X_j)| over the basis, reported only for sets that keep
    their k_state spec's block layout.
    """
    d, spec = mes.d, mes.spec
    basis = np.array(nullspace(build_constraint_system(mes), rtol)).reshape(-1, d, d)
    i, j = np.triu_indices(d, 1)
    diff = basis[:, i, i] - basis[:, j, j]
    off = basis[:, i, j]
    forced = np.flatnonzero(np.all((np.abs(diff) <= SCALAR_TOL) & (np.abs(off) <= SCALAR_TOL), axis=0))
    deviation = np.sqrt(np.abs(diff) ** 2 / 2 + 2 * np.abs(off) ** 2).max(axis=0, initial=0.0)
    out = {
        "nullspace_dim": len(basis),
        "forced_pair": (int(i[forced[0]]), int(j[forced[0]])) if forced.size else None,
        "conclusion": ONE_WAY_IMPOSSIBLE if forced.size else INCONCLUSIVE,
        "max_scalar_deviation": float(deviation.min(initial=np.inf)),
        "reduction_holds": None,
    }
    if has_spec_layout(mes):
        m = 2 ** len(spec.lattice_indices[0])
        xs = [pauli_product(t) for t in spec.lattice_indices]
        products = [xs[p] @ xs[q] for p in range(spec.k) for q in range(spec.k) if p != q]
        out["max_reduction_residual"] = max(
            (abs(np.trace(n[:m, :m] @ prod)) for n in basis for prod in products), default=0.0
        )
        out["reduction_holds"] = bool(out["max_reduction_residual"] <= SCALAR_TOL)
    return out


def ppt_discriminator(mes, force=False):
    """Elements (1/k)(I + k rho_i - sum_j rho_j) from k dense outer products."""
    d, k = mes.d, mes.k
    if k > d / 2 + 1 and not force:
        raise TooManyStates(f"k={k} exceeds d/2+1={d / 2 + 1}")
    rhos = [np.outer(v, v.conj()) for v in states(mes)]
    total = sum(rhos)
    elements = tuple((identity(d * d) + k * rhos[i] - total) / k for i in range(k))
    return Povm(elements=elements, dims=(d, d), label=f"ppt_discriminator[{mes.label}]")


def dense_elements(p):
    """The elements of p as dense operators s_i I + V^T C_i conj(V), with V
    the basis rows (the identity when p has no basis)."""
    n = p.total_dim
    v = identity(n) if p.basis is None else np.asarray(p.basis)
    scalars = np.zeros(p.k) if p.scalars is None else p.scalars
    return tuple(s * identity(n) + v.T @ np.asarray(c) @ v.conj() for s, c in zip(scalars, p.elements))


def discrimination_matrix(mes, p):
    """Entry (i, j) = <psi_i| M_j |psi_i> from full matrix-vector products."""
    out = np.zeros((mes.k, p.k))
    for i, psi in enumerate(states(mes)):
        for j, m in enumerate(dense_elements(p)):
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
    for psi in states(mes):
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


def success_probability(mes, p, priors):
    """Probability of a correct guess: sum_i priors[i] <psi_i| M_i |psi_i>."""
    priors = _check_priors(priors, mes.k)
    return float(priors @ np.diag(discrimination_matrix(mes, p)))


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
    elements = dense_elements(p)
    herm = [frob(m - dag(m)) for m in elements]
    min_eigs = [float(eig_hermitian((m + dag(m)) / 2).eigenvalues[0]) for m in elements]
    completeness = frob(sum(elements) - identity(n))
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
    for m in dense_elements(p):
        pt = partial_transpose(m, da, db)
        mins.append(float(eig_hermitian((pt + dag(pt)) / 2).eigenvalues[0]))
    return PptReport(
        min_pt_eigenvalues=tuple(mins),
        bound=pt_floor(p.k, min(da, db)),
        tol=tol,
        pass_=min(mins) >= -tol,
        blocks=1,
        distinct_blocks=1,
        largest_block=da * db,
    )


def check_ppt_every_block(p, tol=1e-9):
    """measurements.check_ppt on the same exact blocks, with one eigensolve
    per block, equal blocks included."""
    blocks, shapes, s = _pt_blocks(p)
    mins, start = np.full(p.k, np.inf), 0
    for count, size in shapes:
        stop = start + count * size * size
        group = blocks[:, start:stop].reshape(p.k, count, size, size)
        group[:, :, range(size), range(size)] += s[:, None, None]
        mins = np.minimum(mins, np.linalg.eigvalsh(group).min(axis=(1, 2)))
        start = stop
    mins = [float(v) for v in mins]
    return PptReport(
        min_pt_eigenvalues=tuple(mins),
        bound=pt_floor(p.k, min(p.dims)),
        tol=tol,
        pass_=min(mins) >= -tol,
        blocks=sum(count for count, _ in shapes),
        distinct_blocks=sum(count for count, _ in shapes),
        largest_block=shapes[-1][1],
    )


def isometry_witness_diagonals(mes, w):
    """{(i, j): largest |diagonal entry| of W^dag U_i^dag U_j W}, i != j, from
    one dense product per ordered pair."""
    out = {}
    for i, j in itertools.permutations(range(mes.k), 2):
        m = dag(w) @ dag(mes.unitaries[i]) @ mes.unitaries[j] @ w
        out[(i, j)] = float(np.abs(np.diag(m)).max())
    return out


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
    elements are what locc_lab.simulate.run_randomized_oneway and
    randomized_oneway_counts sample without building them.
    """
    require_standard_triple(mes)
    d = mes.d
    x = np.asarray(x, dtype=float)
    if x.shape != (d,):
        raise SpecInvalid(f"need {d} dephasing angles, got shape {x.shape}")
    wx = np.exp(2j * np.pi * x)
    f = fourier_basis(d)
    f_rev = f[:, [(d - j) % d for j in range(d)]]
    a = wx[:, None] * f  # column j: a_j
    b = np.conj(wx)[:, None] * np.stack((f_rev, mes.unitaries[1] @ f_rev))  # b_j, then b1_j
    # outcome o is sum_j |a_j (x) b_oj><a_j (x) b_oj|
    vecs = np.einsum("pj,oqj->opqj", a, b).reshape(2, d * d, d)
    pi0, pi1 = vecs @ np.conj(vecs.transpose(0, 2, 1))
    pi2 = identity(d * d) - pi0 - pi1
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


def eigh_standardize_triple(mes):
    """The randomized protocol's frame with u_1 always diagonalized by
    diagonalize_unitary (eigh of its Hermitian part), monomial or not."""
    us = np.asarray(mes.unitaries, dtype=complex)
    if frob(us[0] - identity(mes.d)) > FRAME_TOL:
        us = us @ dag(us[0])
    if frob(us[1] - np.diag(np.diag(us[1]))) > FRAME_TOL:
        v, _ = diagonalize_unitary(us[1])
        us = dag(v) @ us @ v
    return MaxEntSet(d=mes.d, unitaries=tuple(us), label=mes.label + "|eigh")


def randomized_error_dense(mes, priors):
    """p_2 <psi_2|(Pi0 + Pi1)|psi_2> from the dense averaged operators in
    the eigh frame."""
    work = eigh_standardize_triple(mes)
    pi0, pi1 = averaged_operators(work)
    psi2 = work.state(2)
    return float(priors[2] * np.real(np.vdot(psi2, (pi0 + pi1) @ psi2)))


def randomized_error_exact(mes, priors):
    """randomized_error_dense without the d^2 x d^2 operators, for larger d:
    Pi_t psi_2 = psi_t <psi_t|psi_2> + R psi_2 / d, where R zeroes the
    |a (x) a> entries."""
    work = eigh_standardize_triple(mes)
    psi0, psi1, psi2 = states(work)
    r_psi2 = psi2.copy()
    r_psi2[:: work.d + 1] = 0.0
    leak = abs(np.vdot(psi0, psi2)) ** 2 + abs(np.vdot(psi1, psi2)) ** 2 + 2.0 * np.vdot(psi2, r_psi2).real / work.d
    return float(priors[2] * leak)


def _draw(rng, weights):
    """The first outcome whose running sum reaches one uniform times the total."""
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if r <= acc:
            return i
    return len(weights) - 1


def randomized_oneway_counts(mes, cfg):
    """(prepared, guessed) counts of the randomized one-way protocol, one
    trial at a time, each trial reading its d + 3 uniforms (prepared state,
    d angles, Alice's outcome, guess) in turn from the one Philox stream keyed
    by the seed, and Bob's two probabilities for the drawn outcome from the
    state and bra vectors."""
    priors = np.asarray(cfg.priors, dtype=float)
    work = standardize_triple(mes)
    d = work.d
    f = fourier_basis(d)
    f_rev = f[:, [(d - j) % d for j in range(d)]]
    u1f_rev = work.unitaries[1] @ f_rev
    us = work.unitaries
    cum = np.cumsum(priors)
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    counts = np.zeros((3, 3), dtype=np.int64)
    for _ in range(cfg.trials):
        prepared = min(int(np.searchsorted(cum, rng.random(), side="right")), 2)
        wx = np.exp(2j * np.pi * rng.random(d))
        j = min(int(rng.random() * d), d - 1)
        bob = us[prepared] @ np.conj(wx * f[:, j])  # U_p conj(a_j)
        p0 = abs(np.vdot(np.conj(wx) * f_rev[:, j], bob)) ** 2
        p1 = abs(np.vdot(np.conj(wx) * u1f_rev[:, j], bob)) ** 2
        counts[prepared, _draw(rng, (p0, p1, max(1.0 - p0 - p1, 0.0)))] += 1
    return counts


def averaged_outcome_probabilities(mes, prepared, x):
    """Bob's probabilities (q0, q1) of outcomes 0 and 1, averaged over all d
    of Alice's outcomes, for each trial's prepared state and row of angles x:
    the chunked sampler before it drew Alice's outcome, d FFTs of length d
    per trial."""
    work = standardize_triple(mes)
    d = work.d
    f = fourier_basis(d)
    f_rev = f[:, [(d - j) % d for j in range(d)]]
    bras = np.conj(np.stack((f_rev, work.unitaries[1] @ f_rev)))
    us = np.asarray(work.unitaries)
    wx = np.exp(2j * np.pi * np.asarray(x))
    # amp[t, :, j] = wx * U_p conj(wx * f[:, j]); the product with conj(f)
    # is the unitary DFT along the last axis
    amp = np.fft.fft(us[prepared] * np.conj(wx)[:, None, :], axis=-1, norm="ortho")
    amp *= wx[:, :, None]
    q0 = np.sum(np.abs(np.einsum("kj,tkj->tj", bras[0], amp)) ** 2, axis=1) / d
    q1 = np.sum(np.abs(np.einsum("kj,tkj->tj", bras[1], amp)) ** 2, axis=1) / d
    return q0, q1


# ------------------------------------------------------------ protocol trees


def _act(m, party, op):
    """m (rows: Alice, columns: Bob) after op acts on one party."""
    return op @ m if party == "A" else m @ op.T


def sample_walk(node, m, rng):
    """One trial down the tree: each Kraus outcome drawn from its weight; a
    one-outcome node applies its operator without a draw."""
    while True:
        if isinstance(node, Decide):
            return node.guess
        if len(node.kraus) == 1:
            m = _act(m, node.party, node.kraus[0])
            node = node.children[0]
            continue
        # Kraus completeness makes the branch weights sum to |m|^2, so a
        # single draw against the running total picks the outcome
        r = rng.random() * float(np.vdot(m, m).real)
        acc = 0.0
        for kr, child in zip(node.kraus, node.children):
            mm = _act(m, node.party, kr)
            acc += float(np.vdot(mm, mm).real)
            if r <= acc:
                break
        m, node = mm, child


def walk_monte_carlo_counts(tree, mes, cfg):
    """(prepared, decided) counts of cfg.trials walks, trial t on the Philox
    stream keyed by (seed, t)."""
    cum = np.cumsum(cfg.priors)
    states = [mes.state(i).reshape(mes.d, mes.d) for i in range(mes.k)]
    counts = np.zeros((mes.k, mes.k), dtype=np.int64)
    for t in range(cfg.trials):
        rng = np.random.Generator(np.random.Philox(key=np.array([cfg.seed, t], dtype=np.uint64)))
        prepared = min(int(np.searchsorted(cum, rng.random(), side="right")), mes.k - 1)
        counts[prepared, sample_walk(tree.root, states[prepared], rng)] += 1
    return counts


def lattice_teleport_tree(indices):
    """Teleport branch for lattice triples whose first labels all agree:
    Alice's four Bell bras, Bob's correction (X^a Z^b sigma_x) (x) I, then his
    Bell measurement deciding the triple's index of each sigma_y."""
    x = indices[0][0]
    ys = [t[1] for t in indices]
    px = np.array([[0, 1], [1, 0]], dtype=complex)
    z = np.diag(np.exp(2j * np.pi * np.arange(2) / 2))
    kraus = []
    children = []
    for u in (identity(2), z, px, px @ z):
        k = np.zeros((1, 4), dtype=complex)
        for a1 in range(2):
            for a2 in range(2):
                k[0, a1 * 2 + a2] = np.conj(u[a2, a1]) / np.sqrt(2)
        kraus.append(k)
        bell_kraus = []
        bell_children = []
        for y in range(4):
            beta = sum(kron(np.eye(2)[:, t] + 0j, PAULIS[y][:, t]) for t in range(2)) / np.sqrt(2)
            bell_kraus.append(np.conj(beta).reshape(1, -1))
            bell_children.append(Decide(ys.index(y) if y in ys else 0))
        bob = Measure(party="B", kraus=tuple(bell_kraus), children=tuple(bell_children))
        children.append(Measure(party="B", kraus=(kron(u @ PAULIS[x], identity(2)),), children=(bob,)))
    return Measure(party="A", kraus=tuple(kraus), children=tuple(children))


def _pair_basis(target, others):
    """Eigenvectors (np.linalg.eigh) of the first of X, Y, Z not proportional
    to any product sigma_target sigma_o, o in others."""
    products = set()
    for o in others:
        if o != target:
            prod = PAULIS[target] @ PAULIS[o]
            products.add(max(range(4), key=lambda f: abs(np.trace(PAULIS[f] @ prod))))
    h = min(h for h in (1, 2, 3) if h not in products)
    vecs = np.linalg.eigh(PAULIS[h])[1]
    return vecs[:, 0], vecs[:, 1]


def lattice_parallel_tree(indices):
    """Parallel tree for lattice triples with no label shared on a factor,
    built outcome by outcome from outer products: the first relabeling
    `order` whose middle first label and last second label are singletons,
    Alice's product bras f1 (x) f2, and for each of them Bob's bras
    conj(v1) (x) conj(v2) with v in (sigma f, its orthogonal complement)."""
    xs0 = [t[0] for t in indices]
    ys0 = [t[1] for t in indices]
    order = next(
        o for o in itertools.permutations(range(3))
        if xs0[o[1]] not in (xs0[o[0]], xs0[o[2]]) and ys0[o[2]] not in (ys0[o[0]], ys0[o[1]])
    )
    xs = [xs0[i] for i in order]
    ys = [ys0[i] for i in order]
    decisions = {(1, 1): order[0], (0, 1): order[1], (1, 0): order[2], (0, 0): order[0]}
    kraus = []
    children = []
    for f1 in _pair_basis(xs[1], (xs[0], xs[2])):
        for f2 in _pair_basis(ys[2], (ys[0], ys[1])):
            kraus.append(np.outer(f1, f2).reshape(1, -1))
            w1 = PAULIS[xs[1]] @ f1
            w2 = PAULIS[ys[2]] @ f2
            bob_kraus = []
            bob_children = []
            for o1, v1 in ((0, w1), (1, np.array([-np.conj(w1[1]), np.conj(w1[0])]))):
                for o2, v2 in ((0, w2), (1, np.array([-np.conj(w2[1]), np.conj(w2[0])]))):
                    bob_kraus.append(np.outer(np.conj(v1), np.conj(v2)).reshape(1, -1))
                    bob_children.append(Decide(decisions[(o1, o2)]))
            children.append(Measure(party="B", kraus=tuple(bob_kraus), children=tuple(bob_children)))
    return Measure(party="A", kraus=tuple(kraus), children=tuple(children))


def lattice_triple_branch(indices):
    """Which tree lattice_triple_tree builds: "teleport" when the first
    labels agree, "swapped" when the second labels agree, else "parallel"."""
    if len({t[0] for t in indices}) == 1:
        return "teleport"
    if len({t[1] for t in indices}) == 1:
        return "swapped"
    return "parallel"


def lattice_triple_tree(indices):
    """Root of the one-way tree for any lattice triple: the teleport tree
    when the first labels agree, the same on swapped qubit factors (both
    parties apply the swap gate first) when the second labels agree, else
    the parallel tree."""
    branch = lattice_triple_branch(indices)
    if branch == "teleport":
        return lattice_teleport_tree(indices)
    if branch == "swapped":
        swap = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                swap[b * 2 + a, a * 2 + b] = 1.0
        inner = lattice_teleport_tree(tuple((b, a) for a, b in indices))
        bob = Measure(party="B", kraus=(swap,), children=(inner,))
        return Measure(party="A", kraus=(swap,), children=(bob,))
    return lattice_parallel_tree(indices)


# two members of each of the five classes of three commuting two-qubit
# Paulis, as (first-factor, second-factor) labels, in the order tried
MUB_GENERATORS = (((0, 1), (1, 0)), ((0, 2), (2, 0)), ((0, 3), (3, 0)), ((1, 2), (2, 3)), ((1, 3), (2, 1)))


def class_bases():
    """The eigenbases (columns) of P + 2Q for the (P, Q) of each class, in order."""
    return [np.linalg.eigh(pauli_product(p) + 2 * pauli_product(q))[1] for p, q in MUB_GENERATORS]


def lattice_witness(mes, tol=1e-9):
    """The first class basis whose every column w has
    |Tr(|w><w| U_i^dag U_j)| <= tol for all i != j."""
    for w in class_bases():
        if all(
            abs(np.trace(np.outer(v, v.conj()) @ dag(ui) @ uj)) <= tol
            for v in w.T
            for ui, uj in itertools.permutations(mes.unitaries, 2)
        ):
            return w
    raise AssertionError(f"no class basis witnesses {mes.label}")


def witness_tree(mes, w):
    """Root of the one-way tree of witness w, column by column: Alice's row
    w_c, then Bob's bras onto the normalized U_i w_c, deciding i, and, when
    k < d, the remainder I minus their outer products, deciding 0."""
    kraus = []
    children = []
    for c in range(w.shape[1]):
        kraus.append(w[:, c].reshape(1, -1))
        vs = [u @ w[:, c] for u in mes.unitaries]
        vs = [v / np.linalg.norm(v) for v in vs]
        bob_kraus = [np.conj(v).reshape(1, -1) for v in vs]
        bob_children = [Decide(i) for i in range(mes.k)]
        if mes.k < mes.d:
            bob_kraus.append(identity(mes.d) - sum(np.outer(v, v.conj()) for v in vs))
            bob_children.append(Decide(0))
        children.append(Measure(party="B", kraus=tuple(bob_kraus), children=tuple(bob_children)))
    return Measure(party="A", kraus=tuple(kraus), children=tuple(children))


def class_basis_tree(mes):
    """Root of the one-way tree that measures the brute-force lattice witness
    w on both sides: Alice's row w_c, then Bob's bras onto every column w_b,
    deciding the i with |<w_b|U_i w_c>| > 1/2, or 0 where no state lands."""
    w = lattice_witness(mes)
    bob_kraus = tuple(np.conj(w[:, b]).reshape(1, -1) for b in range(w.shape[1]))
    kraus = []
    children = []
    for c in range(w.shape[1]):
        kraus.append(w[:, c].reshape(1, -1))
        bob_children = []
        for b in range(w.shape[1]):
            hits = [i for i, u in enumerate(mes.unitaries) if abs(np.vdot(w[:, b], u @ w[:, c])) > 0.5]
            assert len(hits) <= 1
            bob_children.append(Decide(hits[0] if hits else 0))
        children.append(Measure(party="B", kraus=bob_kraus, children=tuple(bob_children)))
    return Measure(party="A", kraus=tuple(kraus), children=tuple(children))
