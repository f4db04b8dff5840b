"""Fast verdict paths against the dense oracles of tests/oracles.py.

The certificate, the PT and POVM eigenvalue checks, the canonical
discriminator and its discrimination matrix, the orthogonality report and
the randomized error must give the same verdicts and sizes as the dense
implementations, with values within 1e-12, on the built-in families, on all
lattice triples, and on sets whose block pattern is changed by local
monomial or dense rotations. Every lattice tree must match, node by node,
the tree that measures a basis found by brute force on both sides, and it,
the generic witness tree on that basis and the independent teleport and
parallel trees must all be exact;
Monte Carlo drawn from the exact walk must agree with the per-trial walk
sampler cell by cell, and the randomized sampler's probabilities after each
of Alice's outcomes must average to the d-FFT oracle's.
"""

import collections
import itertools

import numpy as np
import pytest

import oracles
from locc_lab import simulate
from locc_lab.errors import TooManyStates
from locc_lab.measurements import Povm, check_ppt, discrimination_matrix, ppt_discriminator, validate_povm
from locc_lab.oneway import (
    NULLSPACE_RTOL,
    certify_impossible,
    check_isometry_witness,
    randomized_error_exact,
    standardize_triple,
)
from locc_lab.protocols import (
    Decide,
    ProtocolTree,
    all_lattice_triples,
    build_lattice_triple_protocol,
    evaluate_exact,
    teleport_candidate_set,
    teleport_subprotocol,
)
from locc_lab.simulate import CHUNK_ELEMENTS, SimConfig, run_monte_carlo, run_randomized_oneway
from locc_lab.states import (
    MaxEntSet,
    build_even_family,
    build_lattice_state,
    build_k_family,
    build_mod3_family,
    builtin_triples_at,
    check_orthogonal_mes,
    even_spec,
    k_spec,
    lattice_triple_set,
    mod3_spec,
)

EIG_TOL = 1e-12
UNIFORM3 = (1 / 3, 1 / 3, 1 / 3)

FAMILIES = {
    **{f"even{d}": (lambda d=d: build_even_family(even_spec(d))) for d in (4, 6, 8, 10)},
    **{f"mod3_{d}": (lambda d=d: build_mod3_family(mod3_spec(d))) for d in (5, 8)},
    **{
        f"k3_r{r}": (lambda r=r: build_k_family(k_spec(k=3, r=r, indices=((0,), (1,), (3,)))))
        for r in (1, 2)
    },
    "k4_r1": lambda: build_k_family(k_spec(k=4, r=1)),
    "even4_omega_minus_1": lambda: build_even_family(even_spec(4, omega=-1.0), allow_degenerate=True),
}


def random_monomial(rng, d):
    """A random permutation matrix times random unit phases."""
    return np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d))


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated(mes, left, right):
    """The set U_i -> left U_i right, a local rotation on both parties."""
    unitaries = tuple(left @ u @ right for u in mes.unitaries)
    return MaxEntSet(d=mes.d, unitaries=unitaries, spec=mes.spec, label=mes.label + "|rotated")


def assert_certificates_agree(mes):
    fast, dense = certify_impossible(mes), oracles.certify_impossible(mes)
    assert fast.conclusion == dense["conclusion"]
    assert fast.forced_pair == dense["forced_pair"]
    assert fast.nullspace_dim == dense["nullspace_dim"]
    assert fast.reduction_holds == dense["reduction_holds"]
    return fast, dense


def assert_povm_checks_agree(povm):
    fast, dense = check_ppt(povm), oracles.check_ppt(povm)
    assert fast.pass_ == dense.pass_
    assert np.abs(np.subtract(fast.min_pt_eigenvalues, dense.min_pt_eigenvalues)).max() <= EIG_TOL
    fast, dense = validate_povm(povm), oracles.validate_povm(povm)
    assert fast["pass"] == dense["pass"]
    assert np.abs(np.subtract(fast["min_eigenvalues"], dense["min_eigenvalues"])).max() <= EIG_TOL
    assert np.abs(np.subtract(fast["hermiticity_residuals"], dense["hermiticity_residuals"])).max() <= EIG_TOL
    assert abs(fast["completeness_residual"] - dense["completeness_residual"]) <= EIG_TOL


def assert_ppt_matches_every_block(povm):
    """check_ppt eigensolves each distinct PT block once; the oracle
    eigensolves every block, so the two must agree to rounding."""
    fast, every = check_ppt(povm), oracles.check_ppt_every_block(povm)
    assert fast.pass_ == every.pass_
    assert np.abs(np.subtract(fast.min_pt_eigenvalues, every.min_pt_eigenvalues)).max() <= 1e-15
    assert (fast.blocks, fast.largest_block) == (every.blocks, every.largest_block)
    assert 1 <= fast.distinct_blocks <= fast.blocks
    return fast


def assert_discriminators_agree(mes, force=False):
    """Elements, discrimination matrix and check verdicts of the rank-k build
    against the dense outer-product build."""
    fast, dense = ppt_discriminator(mes, force), oracles.ppt_discriminator(mes, force)
    assert fast.k == dense.k and fast.dims == dense.dims
    assert max(np.abs(a - b).max() for a, b in zip(oracles.dense_elements(fast), dense.elements)) <= EIG_TOL
    # expanded, the rank-k form has the dense build's exact nonzero pattern
    assert np.array_equal(np.any(np.array(oracles.dense_elements(fast)) != 0, axis=0), np.any(np.array(dense.elements) != 0, axis=0))
    dm = discrimination_matrix(mes, fast)
    assert np.abs(dm - oracles.discrimination_matrix(mes, dense)).max() <= EIG_TOL
    assert np.abs(dm - oracles.discrimination_matrix(mes, fast)).max() <= EIG_TOL
    ppt_fast, ppt_dense = check_ppt(fast), check_ppt(dense)
    assert ppt_fast.pass_ == ppt_dense.pass_
    assert np.abs(np.subtract(ppt_fast.min_pt_eigenvalues, ppt_dense.min_pt_eigenvalues)).max() <= EIG_TOL
    assert validate_povm(fast)["pass"] == validate_povm(dense)["pass"]
    return fast


def assert_orthogonality_reports_agree(mes):
    fast, dense = check_orthogonal_mes(mes), oracles.check_orthogonal_mes(mes)
    assert fast["pass"] == dense["pass"]
    for key in ("unitarity_residuals", "reduced_state_residuals"):
        assert np.abs(np.subtract(fast[key], dense[key])).max() <= EIG_TOL
    pairs = fast["pairwise_trace_residuals"]
    assert pairs.keys() == dense["pairwise_trace_residuals"].keys()
    for key, value in pairs.items():
        assert abs(value - dense["pairwise_trace_residuals"][key]) <= EIG_TOL


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_discriminator_matches_dense_builder(name):
    mes = FAMILIES[name]()
    assert_discriminators_agree(mes)
    assert_orthogonality_reports_agree(mes)


def test_lattice_discriminators_match_dense_builder():
    for triple in all_lattice_triples():
        mes = lattice_triple_set(triple)
        assert_discriminators_agree(mes)
        assert_orthogonality_reports_agree(mes)


def test_dense_rotation_support_is_whole_space():
    rng = np.random.default_rng(3)
    mes = build_mod3_family(mod3_spec(5))
    rot = rotated(mes, random_unitary(rng, 5), random_unitary(rng, 5))
    povm = assert_discriminators_agree(rot)
    # every element's correction reaches the whole 25 x 25 space
    assert all(np.count_nonzero(m) == 25 * 25 for m in oracles.dense_elements(povm))
    assert_orthogonality_reports_agree(rot)


def test_discrimination_matrix_of_any_povm_matches_dense_oracle():
    # only the rows and columns on the states' support are read, whatever M is
    rng = np.random.default_rng(9)
    mes = build_even_family(even_spec(6))
    elements = tuple(rng.standard_normal((36, 36)) + 1j * rng.standard_normal((36, 36)) for _ in range(3))
    povm = Povm(elements=elements, dims=(6, 6))
    assert np.abs(discrimination_matrix(mes, povm) - oracles.discrimination_matrix(mes, povm)).max() <= EIG_TOL


def test_forced_discriminator_beyond_ppt_range_matches_dense_builder():
    # four states sharing the first Bell factor: k = 4 > d/2 + 1 = 3
    mes = MaxEntSet(d=4, unitaries=tuple(build_lattice_state(0, y) for y in range(4)))
    with pytest.raises(TooManyStates):
        ppt_discriminator(mes)
    povm = assert_discriminators_agree(mes, force=True)
    assert not check_ppt(povm).pass_


def test_dependent_basis_matches_dense_oracle():
    # a repeated state makes the rows of the discriminator's basis linearly
    # dependent, so the thin QR factor is rank deficient
    mes = build_even_family(even_spec(6))
    rep = MaxEntSet(d=6, unitaries=mes.unitaries + mes.unitaries[:1])
    povm = assert_discriminators_agree(rep, force=True)
    assert_povm_checks_agree(povm)


def test_orthogonality_report_flags_match_dense_oracle():
    rng = np.random.default_rng(13)
    e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for unitaries in (
        (np.eye(4) + 0.01 * e, build_lattice_state(1, 2)),
        (build_lattice_state(1, 2), build_lattice_state(1, 2), build_lattice_state(3, 0)),
    ):
        mes = MaxEntSet(d=4, unitaries=unitaries)
        assert not check_orthogonal_mes(mes)["pass"]
        assert_orthogonality_reports_agree(mes)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_certificate_matches_dense_oracle(name):
    fast, dense = assert_certificates_agree(FAMILIES[name]())
    # each pair's projected norm is a worst case over the whole null space,
    # so it bounds that pair's largest value over one orthonormal basis
    assert fast.residuals["max_scalar_deviation"] >= dense["max_scalar_deviation"] - EIG_TOL
    assert fast.residuals["max_constraint_residual"] <= 1e-12


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_certificate_rank_cut_is_clean(name):
    residuals = certify_impossible(FAMILIES[name]()).residuals
    assert residuals["rank_cut_kept"] > NULLSPACE_RTOL >= residuals["rank_cut_dropped"]


def test_degenerate_control_dimensions():
    fast, _ = assert_certificates_agree(FAMILIES["even4_omega_minus_1"]())
    assert (fast.nullspace_dim, fast.forced_pair) == (11, None)
    assert fast.conclusion == "Inconclusive"


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_povm_checks_match_dense_oracle(name):
    assert_povm_checks_agree(ppt_discriminator(FAMILIES[name](), force=True))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_monomial_rotations_match_dense_oracle(name):
    rng = np.random.default_rng(sorted(FAMILIES).index(name))
    mes = FAMILIES[name]()
    for _ in range(2):
        rot = rotated(mes, random_monomial(rng, mes.d), random_monomial(rng, mes.d))
        assert_certificates_agree(rot)
        assert_povm_checks_agree(ppt_discriminator(rot, force=True))


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_distinct_blocks_match_every_block_oracle(name):
    mes = FAMILIES[name]()
    assert_ppt_matches_every_block(ppt_discriminator(mes, force=True))
    rng = np.random.default_rng(sorted(FAMILIES).index(name))
    for _ in range(2):
        rot = rotated(mes, random_monomial(rng, mes.d), random_monomial(rng, mes.d))
        # random phases make every block differ, so nothing is merged
        rep = assert_ppt_matches_every_block(ppt_discriminator(rot, force=True))
        assert rep.distinct_blocks == rep.blocks


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_dense_triples_match_every_block_oracle(d):
    rng = np.random.default_rng(d)
    for _ in range(3):
        mes = MaxEntSet(d=d, unitaries=tuple(random_unitary(rng, d) for _ in range(3)))
        rep = assert_ppt_matches_every_block(ppt_discriminator(mes, force=True))
        assert (rep.blocks, rep.distinct_blocks, rep.largest_block) == (1, 1, d * d)


def test_dense_rotation_is_one_block_and_matches_oracle():
    rng = np.random.default_rng(5)
    mes = build_mod3_family(mod3_spec(5))
    rot = rotated(mes, random_unitary(rng, 5), random_unitary(rng, 5))
    assert_certificates_agree(rot)
    assert_povm_checks_agree(ppt_discriminator(rot))


def test_lattice_triples_match_dense_oracle():
    for triple in all_lattice_triples():
        mes = lattice_triple_set(triple)
        # every lattice triple is one-way distinguishable, so none is forced
        fast, _ = assert_certificates_agree(mes)
        assert fast.forced_pair is None
        assert_povm_checks_agree(ppt_discriminator(mes))
        assert abs(randomized_error_exact(mes, UNIFORM3) - oracles.randomized_error_exact(mes, UNIFORM3)) <= EIG_TOL


def test_non_hermitian_elements_match_dense_oracle():
    # eigenvalues of the Hermitian part, residuals of the anti-Hermitian part
    rng = np.random.default_rng(11)
    elements = tuple(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)) for _ in range(2))
    assert_povm_checks_agree(Povm(elements=elements, dims=(3, 3)))


def test_scalars_off_a_sparse_basis_match_dense_oracle():
    # negative scalars put the smallest eigenvalues off the basis' span, and
    # basis entries on a few product states leave most PT places untouched
    rng = np.random.default_rng(17)
    basis = np.zeros((2, 9), dtype=complex)
    basis[:, [1, 3, 4]] = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    g = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    elements = tuple(m @ m.conj().T for m in g)
    assert_povm_checks_agree(Povm(elements=elements, dims=(3, 3), basis=basis, scalars=(-0.3, 0.7)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_elements_rejected(bad):
    m = np.eye(4, dtype=complex)
    m[1, 2] = bad
    povm = Povm(elements=(m, np.eye(4) - m), dims=(2, 2))
    with pytest.raises(ValueError, match="NaN/Inf"):
        validate_povm(povm)
    with pytest.raises(ValueError, match="NaN/Inf"):
        check_ppt(povm)


def assert_randomized_error_matches_oracle_in_every_order(mes):
    # every order, so that U_0 is rarely the identity and U_1 U_0^dag is
    # diagonal for some orders and not others; the cycle frame and the eigh
    # frame must give the same error, and rounding must not take it below 0.
    # Up to d = 16 the dense averaged operators check the closed form too.
    for order in itertools.permutations(range(3)):
        s = MaxEntSet(d=mes.d, unitaries=tuple(mes.unitaries[i] for i in order))
        for priors in (UNIFORM3, (0.5, 0.3, 0.2)):
            err = randomized_error_exact(s, priors)
            assert err >= 0.0
            assert abs(err - oracles.randomized_error_exact(s, priors)) <= EIG_TOL
            if s.d <= 16:
                assert abs(err - oracles.randomized_error_dense(s, priors)) <= EIG_TOL


@pytest.mark.parametrize("d", range(4, 41))
def test_randomized_error_matches_dense_oracle(d):
    for mes in builtin_triples_at(d):
        assert_randomized_error_matches_oracle_in_every_order(mes)


def test_randomized_error_matches_dense_oracle_in_every_order():
    # the sets that builtin_triples_at does not list: all lattice triples and
    # the k=3 family on the single-qubit base (0), (1), (3)
    sets = [lattice_triple_set(t) for t in all_lattice_triples()]
    sets += [build_k_family(k_spec(k=3, r=r, indices=((0,), (1,), (3,)))) for r in (1, 2, 5)]
    for mes in sets:
        assert_randomized_error_matches_oracle_in_every_order(mes)


def even_ivu(d):
    """The even family ordered (I, V, U), so that the third state leaks."""
    s = build_even_family(even_spec(d))
    return MaxEntSet(d=d, unitaries=(s.unitaries[0], s.unitaries[2], s.unitaries[1]), label=f"even_ivu({d})")


@pytest.mark.parametrize(
    "mes, trials, priors",
    [
        (even_ivu(4), 1001, UNIFORM3),
        (even_ivu(16), 1001, UNIFORM3),
        (even_ivu(32), 1001, UNIFORM3),
        (even_ivu(64), 301, UNIFORM3),
        (build_mod3_family(mod3_spec(5)), 1001, UNIFORM3),  # rotated by standardize_triple
        (even_ivu(6), 1001, (0.5, 0.3, 0.2)),
        (even_ivu(4), 1, UNIFORM3),
        (even_ivu(8), 1, (0.6, 0.25, 0.15)),
    ],
    ids=["even4", "even16", "even32", "even64", "mod3_5", "even6_priors", "even4_one_trial", "even8_one_trial"],
)
def test_randomized_counts_match_per_trial_oracle(mes, trials, priors):
    # the last chunk is a short one, except where every chunk holds one trial
    chunk = max(1, CHUNK_ELEMENTS // mes.d)
    assert chunk == 1 or trials % chunk
    cfg = SimConfig(seed=5 + mes.d, trials=trials, priors=priors)
    counts = run_randomized_oneway(mes, cfg).empirical_confusion
    assert counts.sum() == trials
    assert np.array_equal(counts, oracles.randomized_oneway_counts(mes, cfg))


def dense_even4():
    """The even d=4 set under a random dense rotation on each side, as in
    test_simulate.dense_triple."""
    rng = np.random.default_rng(3)
    left, right = random_unitary(rng, 4), random_unitary(rng, 4)
    return rotated(build_even_family(even_spec(4)), left, right)


@pytest.mark.parametrize(
    "mes",
    [
        even_ivu(4),
        even_ivu(16),
        even_ivu(64),
        build_mod3_family(mod3_spec(5)),
        lattice_triple_set(((0, 1), (2, 3), (3, 0))),
        dense_even4(),
    ],
    ids=["even4", "even16", "even64", "mod3_5", "lattice", "dense"],
)
def test_outcome_probabilities_average_to_fft_oracle(mes):
    # for fixed angles, Bob's (p0, p1) after each of Alice's d outcomes
    # average to the (q0, q1) that the sampler read from d FFTs per trial
    work = standardize_triple(mes)
    d = work.d
    bras = simulate._bob_bras(work)
    rng = np.random.default_rng(d)
    for prepared in (0, 1, 2, 2):
        x = rng.random(d)
        every_j = np.arange(d)
        wx = np.tile(np.exp(2j * np.pi * x), (d, 1))
        p0, p1 = simulate._outcome_probabilities(work.unitaries, bras, np.full(d, prepared), wx, every_j)
        q0, q1 = oracles.averaged_outcome_probabilities(work, np.array([prepared]), x[None])
        assert abs(p0.mean() - q0[0]) <= 1e-12 and abs(p1.mean() - q1[0]) <= 1e-12
        # outcomes 0 and 1 identify the first two states after every j
        if prepared < 2:
            assert np.abs((p0, p1)[prepared] - 1.0).max() <= 1e-12
            assert np.abs((p1, p0)[prepared]).max() <= 1e-12


# ------------------------------------------------------------ protocol trees

def assert_same_tree(a, b, tol=1e-15):
    assert type(a) is type(b)
    if isinstance(a, Decide):
        assert a.guess == b.guess
        return
    assert a.party == b.party
    assert len(a.kraus) == len(b.kraus) == len(a.children) == len(b.children)
    for ka, kb in zip(a.kraus, b.kraus):
        assert ka.shape == kb.shape and np.abs(ka - kb).max() <= tol
    for ca, cb in zip(a.children, b.children):
        assert_same_tree(ca, cb, tol)


def test_witness_diagonals_match_dense_oracle():
    # every lattice triple against all five class bases (passing and not),
    # and every built-in triple against the identity
    cases = [(lattice_triple_set(t), w) for t in all_lattice_triples() for w in oracles.class_bases()]
    cases += [(mes, np.eye(d)) for d in range(4, 17) for mes in builtin_triples_at(d)]
    for mes, w in cases:
        report = check_isometry_witness(mes, w)
        expected = oracles.isometry_witness_diagonals(mes, w)
        assert report["diag_max"].keys() == expected.keys()
        assert max(abs(report["diag_max"][p] - expected[p]) for p in expected) <= 1e-12
        assert report["pass"] == (max(expected.values()) <= 1e-9)


def test_lattice_trees_match_class_basis_oracle():
    # the class and move tables against the brute-force basis and moves
    # read from overlaps, node by node
    for triple in all_lattice_triples():
        expected = oracles.class_basis_tree(lattice_triple_set(triple))
        assert_same_tree(build_lattice_triple_protocol(triple).root, expected)


def test_lattice_confusions_match_oracle_trees_exactly():
    # the teleport and parallel trees are an independent one-way protocol,
    # and the generic witness tree (with its remainder) a second; all three
    # are exact for every triple
    branches = collections.Counter()
    for triple in all_lattice_triples():
        mes = lattice_triple_set(triple)
        tree = build_lattice_triple_protocol(triple)
        branches[oracles.lattice_triple_branch(triple)] += 1
        references = (
            ProtocolTree(root=oracles.lattice_triple_tree(triple), round_count=1),
            ProtocolTree(root=oracles.witness_tree(mes, oracles.lattice_witness(mes)), round_count=1),
        )
        for t in (tree, *references):
            assert np.abs(evaluate_exact(t, mes).confusion - np.eye(3)).max() <= 1e-15, triple
    # 4 shared first labels x 4 triples of second labels, the swapped 16,
    # and every other triple on the parallel tree
    assert branches == {"teleport": 16, "swapped": 16, "parallel": 528}


def cell_z(counts, exact):
    """Per-cell z-scores of row-conditional rates against exact rows."""
    n = counts.sum(axis=1, keepdims=True)
    return (counts / n - exact) / np.sqrt(exact * (1.0 - exact) / n)


def mixed_bell_set(rows):
    """States (I (x) V_i)|Phi_4> with V_i = a I + i(b X + c Z) on Bob's
    qubit, so that teleport_subprotocol(2) decides 0, 1, 2 with
    probabilities (a^2, b^2, c^2) = rows[i]."""
    px, pz = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])
    vs = [np.sqrt(p[0]) * np.eye(2) + 1j * (np.sqrt(p[1]) * px + np.sqrt(p[2]) * pz) for p in rows]
    return MaxEntSet(d=4, unitaries=tuple(np.kron(np.eye(2), v) for v in vs))


@pytest.mark.parametrize(
    "tree, mes",
    [
        # no corrections: Bob measures in a random frame, every row (2/3, 1/6, 1/6)
        (teleport_subprotocol(3, corrections=False), teleport_candidate_set(3)),
        # distinct rows, so that a sampler mixing up prepared states shows
        (teleport_subprotocol(2), mixed_bell_set(((0.6, 0.3, 0.1), (0.2, 0.5, 0.3), (0.1, 0.2, 0.7)))),
    ],
    ids=["teleport3_uncorrected", "teleport2_mixed_rows"],
)
def test_samplers_agree_with_exact_walk_off_identity(tree, mes):
    priors = (0.5, 0.3, 0.2)
    exact = evaluate_exact(tree, mes).confusion
    assert np.all((exact > 0.05) & (exact < 0.95))  # every cell worth sampling
    cfg = SimConfig(seed=11, trials=4_000, priors=priors)
    drawn = run_monte_carlo(tree, mes, cfg).empirical_confusion
    walked = oracles.walk_monte_carlo_counts(tree, mes, cfg)
    for counts in (drawn, walked):
        prepared = counts.sum(axis=1)
        assert prepared.sum() == cfg.trials
        p = np.asarray(priors)
        assert np.abs((prepared / cfg.trials - p) / np.sqrt(p * (1 - p) / cfg.trials)).max() <= 4.0
        assert np.abs(cell_z(counts, exact)).max() <= 4.0
