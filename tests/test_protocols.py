import tracemalloc

import numpy as np
import pytest

from locc_lab import protocols
from locc_lab.errors import (
    BadPriors,
    DuplicateStates,
    MalformedTree,
    NotOrthogonal,
    NotUnitary,
    SpecInvalid,
    UnsupportedR,
)
from locc_lab.numerics import dag, frob, identity, is_unitary
from locc_lab.oneway import INCONCLUSIVE, certify_impossible
from locc_lab.protocols import (
    TREE_TOL,
    _CLASS_BRAS,
    _MUB,
    Decide,
    Measure,
    ProtocolTree,
    _bell_pair_subtree,
    all_lattice_triples,
    build_lattice_triple_protocol,
    build_twoway_even,
    build_twoway_mod3,
    evaluate_exact,
    first_round_elements,
    is_one_way,
    oneway_tree,
    refinement_isometry,
    validate_tree,
)
from locc_lab.simulate import SimConfig, run_monte_carlo
from locc_lab.states import (
    DEFAULT_OMEGA,
    MaxEntSet,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    block_diag,
    build_family,
    cycle_permutation,
    even_spec,
    k_spec,
    lattice_triple_set,
    mod3_spec,
)
from oracles import ChannelTooSmall, teleport_candidate_set, teleport_subprotocol


def bell_pair_discriminator(ua, ub):
    """One-way tree perfectly distinguishing two orthogonal qubit states,
    from the Bell-pair subtree that closes every even tree."""
    ua = np.asarray(ua, dtype=complex)
    ub = np.asarray(ub, dtype=complex)
    if ua.shape != (2, 2) or ub.shape != (2, 2):
        raise SpecInvalid("bell_pair_discriminator expects 2x2 unitaries")
    for u in (ua, ub):
        if not is_unitary(u, 1e-9):
            raise NotUnitary("bell_pair_discriminator expects unitaries")
    return ProtocolTree(_bell_pair_subtree(ua, ub, (0, 1)), label="bell_pair")


# ------------------------------------------------------------- tree basics


def test_decide_only_tree():
    s = build_family(even_spec(4))
    tree = ProtocolTree(Decide(0))
    ev = evaluate_exact(tree, s, [0.2, 0.5, 0.3])
    assert np.allclose(ev.confusion[:, 0], 1.0)
    assert np.allclose(ev.confusion[:, 1:], 0.0)
    assert abs(ev.success - 0.2) <= 1e-12


def test_evaluate_rejects_non_finite_priors():
    # NaN fails every comparison, so a sum test alone would let it through
    s = build_family(even_spec(4))
    with pytest.raises(BadPriors, match="finite"):
        evaluate_exact(ProtocolTree(Decide(0)), s, [float("nan"), 0.5, 0.5])


def test_validate_rejects_incomplete_kraus():
    k0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    k1 = np.array([[0.0, 0.0], [0.0, 0.9]], dtype=complex)  # deliberately scaled
    node = Measure(party="A", kraus=(k0, k1), children=(Decide(0), Decide(1)))
    with pytest.raises(MalformedTree):
        validate_tree(node)


def test_validate_rejects_non_finite_kraus():
    node = Measure(party="A", kraus=(np.full((1, 2), np.nan, dtype=complex),), children=(Decide(0),))
    with pytest.raises(MalformedTree, match="nan"):
        validate_tree(node)


def test_validate_rejects_child_count_mismatch():
    k0 = np.eye(2, dtype=complex)
    node = Measure(party="A", kraus=(k0,), children=(Decide(0), Decide(1)))
    with pytest.raises(MalformedTree):
        validate_tree(node)


def test_validate_rejects_non_isometry_one_outcome_measure():
    node = Measure(party="B", kraus=(np.ones((2, 2), dtype=complex),), children=(Decide(0),))
    with pytest.raises(MalformedTree, match="Kraus completeness"):
        validate_tree(node)


def test_evaluate_rejects_out_of_range_decision():
    s = build_family(even_spec(4))
    tree = ProtocolTree(Decide(7))
    with pytest.raises(MalformedTree):
        evaluate_exact(tree, s)


def test_evaluate_rejects_operators_that_do_not_fit():
    with pytest.raises(MalformedTree, match="operator expects dimension 4, Alice holds 6"):
        evaluate_exact(build_twoway_even(even_spec(4)), build_family(even_spec(6)))
    # Alice's bra leaves her one level, and her next operator reads two
    inner = Measure(party="A", kraus=(identity(2),), children=(Decide(0),))
    tree = ProtocolTree(Measure(party="A", kraus=(np.eye(2)[:1], np.eye(2)[1:]), children=(inner, Decide(1))))
    with pytest.raises(MalformedTree, match="operator expects dimension 2, Alice holds 1"):
        evaluate_exact(tree, MaxEntSet(d=2, unitaries=(identity(2), PAULI_X)))


@pytest.mark.parametrize(
    "root, message",
    [
        (Measure(party="A", kraus=(np.diag([1.0, 0.0]), np.diag([0.0, 0.9])), children=(Decide(0), Decide(1))),
         "Kraus completeness violated: residual 1.900e-01"),
        (Measure(party="A", kraus=(np.full((1, 2), np.nan),), children=(Decide(0),)), "violated: residual nan"),
        # sqrt(0.5) I leaves the remainder I/2, which is no projector:
        # ||G^2 - G|| = ||I/4 - I/2|| = sqrt(2)/4
        (Measure(party="B", kraus=(np.sqrt(0.5) * identity(2),), children=(Decide(0),), rest=Decide(1)),
         "remainder I - sum K\\^dag K is not a projector: residual 3.536e-01"),
        (Measure(party="B", kraus=(np.full((1, 2), np.nan),), children=(Decide(0),), rest=Decide(1)), "residual nan"),
    ],
    ids=["incomplete", "nan", "rest_not_projector", "rest_nan"],
)
def test_tree_is_checked_when_made(root, message):
    with pytest.raises(MalformedTree, match=message):
        ProtocolTree(root=root)


def test_rest_outcome_takes_the_remainder():
    # Alice's <0| with a rest outcome is her basis measurement; then Bob's
    # <0| with a rest outcome tells I from X on the Bell pair
    bob = Measure(party="B", kraus=(np.eye(2)[:1],), children=(Decide(0),), rest=Decide(1))
    flipped = Measure(party="B", kraus=(np.eye(2)[:1],), children=(Decide(1),), rest=Decide(0))
    tree = ProtocolTree(Measure(party="A", kraus=(np.eye(2)[:1],), children=(bob,), rest=flipped))
    assert (tree.leaves, tree.distinct_nodes, tree.completeness_residual) == (4, 7, 0.0)
    s = MaxEntSet(d=2, unitaries=(identity(2), PAULI_X))
    assert np.abs(evaluate_exact(tree, s).confusion - np.eye(2)).max() <= 1e-15


def test_evaluation_does_not_check_again(monkeypatch):
    spec = mod3_spec(5)
    tree, mes = build_twoway_mod3(spec), build_family(spec)
    calls = []
    checked = validate_tree
    monkeypatch.setattr(protocols, "validate_tree", lambda root: calls.append(root) or checked(root))
    evaluate_exact(tree, mes)
    cfg = SimConfig(seed=1, trials=100, priors=(1 / 3,) * 3)
    run_monte_carlo(tree, mes, cfg)
    assert calls == []
    ProtocolTree(tree.root)
    assert calls == [tree.root]


def test_nodes_compare_and_hash_by_identity():
    # trees share nodes by identity; compared by field, == read the Kraus
    # arrays and raised ValueError, and hash raised TypeError
    leaves = (Decide(0), Decide(1))
    a = Measure(party="A", kraus=(np.eye(2)[:1], np.eye(2)[1:]), children=leaves)
    b = Measure(party="A", kraus=a.kraus, children=leaves)
    assert a == a and a != b and Decide(0) != Decide(0)
    assert hash(a) == object.__hash__(a) and hash(leaves[0]) == object.__hash__(leaves[0])
    # a set of every node on every path holds each shared node once
    tree = build_twoway_even(even_spec(8))
    paths, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        paths.append(node)
        if isinstance(node, Measure):
            stack.extend(node.children if node.rest is None else (*node.children, node.rest))
    assert len(paths) == tree.nodes and len(set(paths)) == tree.distinct_nodes < tree.nodes


def test_branch_probabilities_sum_to_one():
    spec = mod3_spec(5)
    tree = build_twoway_mod3(spec)
    ev = evaluate_exact(tree, build_family(spec))
    assert np.allclose(ev.confusion.sum(axis=1), 1.0, atol=1e-9)


# ------------------------------------------------- bell pair discriminator


def test_bell_pair_identity_x_uses_computational_basis():
    tree = bell_pair_discriminator(identity(2), PAULI_X)
    rows = np.vstack([k for k in tree.root.kraus])
    # the rows span the computational basis (zero-diagonal direction of X)
    assert np.allclose(np.abs(rows), np.eye(2), atol=1e-9) or np.allclose(
        np.abs(rows), np.eye(2)[::-1], atol=1e-9
    )
    s = MaxEntSet(d=2, unitaries=(identity(2), PAULI_X))
    assert np.abs(evaluate_exact(tree, s).confusion - np.eye(2)).max() <= 1e-9


def test_bell_pair_identity_z_uses_hadamard_basis():
    tree = bell_pair_discriminator(identity(2), PAULI_Z)
    rows = np.vstack([k for k in tree.root.kraus])
    assert np.allclose(np.abs(rows), 1 / np.sqrt(2), atol=1e-9)
    s = MaxEntSet(d=2, unitaries=(identity(2), PAULI_Z))
    assert np.abs(evaluate_exact(tree, s).confusion - np.eye(2)).max() <= 1e-9


def test_bell_pair_x_y_pair():
    tree = bell_pair_discriminator(PAULI_X, PAULI_Y)
    s = MaxEntSet(d=2, unitaries=(PAULI_X, PAULI_Y))
    assert np.abs(evaluate_exact(tree, s).confusion - np.eye(2)).max() <= 1e-9
    assert tree.round_count == 1
    assert is_one_way(tree)


def test_bell_pair_rejects_non_orthogonal():
    with pytest.raises(NotOrthogonal):
        bell_pair_discriminator(identity(2), np.diag([1.0, 1j]))


# ---------------------------------------------------- one-way witness trees

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


@pytest.mark.parametrize("k, r", [(4, 1), (4, 3), (3, 1), (3, 2), (3, 4)])
def test_oneway_tree_from_hadamard_witness(k, r):
    # diag(I (x) H, I) has zero diagonal in every U_i^dag U_j of these sets,
    # which the certificate leaves Inconclusive
    mes = build_family(k_spec(k=k, r=r, indices=None if k == 4 else ((0, 0), (1, 1), (2, 2))))
    tree = oneway_tree(mes, block_diag(np.kron(identity(2), HADAMARD), identity(k * r)))
    assert (tree.round_count, is_one_way(tree)) == (1, True)
    assert np.abs(evaluate_exact(tree, mes).confusion - np.eye(k)).max() <= 1e-15
    assert certify_impossible(mes).conclusion == INCONCLUSIVE


def test_oneway_tree_refuses_a_non_witness():
    # the standard basis sees sigma_Z (x) I on its diagonal
    mes = lattice_triple_set(((0, 0), (3, 0), (0, 3)))
    with pytest.raises(NotOrthogonal, match=r"U_0\^dag U_1"):
        oneway_tree(mes, identity(4))


def test_oneway_tree_refuses_a_zero_column():
    # [I, 0] is a coisometry with zero diagonals, but Bob's states after the
    # zero column have no direction to project onto
    mes = lattice_triple_set(((0, 0), (1, 1), (2, 3)))
    with pytest.raises(MalformedTree, match="nan"), np.errstate(invalid="ignore"):
        oneway_tree(mes, np.hstack((identity(4), np.zeros((4, 1)))))


def test_oneway_tree_remainder_only_when_states_do_not_span_bob():
    # k = d = 2 for a Bell pair; k = 3 < d = 4 for a lattice triple
    bell = bell_pair_discriminator(identity(2), PAULI_X)
    assert all(len(bob.kraus) == 2 and bob.rest is None for bob in bell.root.children)
    # the pairwise products of this triple miss class 1, whose basis is a witness
    lattice = oneway_tree(lattice_triple_set(((0, 0), (1, 1), (2, 3))), _MUB[1])
    for bob in lattice.root.children:
        # three bras and a rest outcome over the remainder of Bob's four
        # levels, which is applied, not stored
        assert [k.shape for k in bob.kraus] == [(1, 4)] * 3
        assert [leaf.guess for leaf in (*bob.children, bob.rest)] == [0, 1, 2, 0]


# ------------------------------------------------------------ teleportation


def test_teleport_bob_recovers_bell_state_every_outcome():
    tree = teleport_subprotocol(2)
    s = teleport_candidate_set(2)
    psi = s.states()[0].reshape(4, 4)
    phi2 = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    root = tree.root
    for kraus, child in zip(root.kraus, root.children):
        after = kraus @ psi  # 1 x 4 row over Bob's space
        assert isinstance(child, Measure) and len(child.kraus) == 1  # Bob's correction
        bob = (after @ child.kraus[0].T).reshape(-1)
        bob /= np.linalg.norm(bob)
        overlap = abs(np.vdot(phi2, bob))
        assert abs(overlap - 1.0) <= 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_teleport_perfect_decisions(n):
    ev = evaluate_exact(teleport_subprotocol(n), teleport_candidate_set(n))
    assert np.abs(ev.confusion - np.eye(3)).max() <= 1e-9


def test_teleport_without_corrections_fails():
    ev = evaluate_exact(
        teleport_subprotocol(3, corrections=False), teleport_candidate_set(3)
    )
    assert ev.success < 0.99


def test_teleport_channel_too_small():
    with pytest.raises(ChannelTooSmall):
        teleport_subprotocol(1)


# --------------------------------------------------------- two-way, even d


@pytest.mark.parametrize("d", [4, 6, 8])
def test_twoway_even_exact(d):
    spec = even_spec(d)
    tree = build_twoway_even(spec)
    ev = evaluate_exact(tree, build_family(spec))
    assert np.abs(ev.confusion - np.eye(3)).max() <= 1e-9
    assert tree.round_count >= 2
    assert not is_one_way(tree)


def test_twoway_even_d4_has_no_collect_outcome():
    tree = build_twoway_even(even_spec(4))
    # two one-outcome rotations then Alice's measurement with 2(m-1) = 2 outcomes
    alice = tree.root.children[0].children[0]
    assert isinstance(alice, Measure)
    assert len(alice.kraus) == 2


def test_twoway_even_d6_includes_collect_outcome():
    tree = build_twoway_even(even_spec(6))
    alice = tree.root.children[0].children[0]
    assert len(alice.kraus) == 1 + 2 * 2


@pytest.mark.parametrize(
    "fo,fg",
    [(0.6315, 0.279), (0.0593, 0.0359), (0.8032, 0.0226), (0.8487, 0.5398)],
)
def test_twoway_even_all_rotation_cases(fo, fg):
    spec = even_spec(4, omega=np.exp(2j * np.pi * fo), gamma=np.exp(2j * np.pi * fg))
    ev = evaluate_exact(build_twoway_even(spec), build_family(spec))
    assert np.abs(ev.confusion - np.eye(3)).max() <= 1e-9


def test_twoway_even_rotation_labels_cover_all_cases():
    cases = {
        (0.6315, 0.279): 0,
        (0.0593, 0.0359): 1,
        (0.8032, 0.0226): 2,
        (0.8487, 0.5398): 3,
    }
    for (fo, fg), j in cases.items():
        spec = even_spec(4, omega=np.exp(2j * np.pi * fo), gamma=np.exp(2j * np.pi * fg))
        assert f"rotation={j}" in build_twoway_even(spec).label


# -------------------------------------------------------- two-way, d = 2+3r


def test_refinement_isometry_goldens():
    spec = mod3_spec(5)
    w15 = refinement_isometry(spec.omega, spec.gamma)
    assert frob(dag(w15) @ w15 - identity(5)) <= 1e-12
    mes = build_family(spec)
    a0 = first_round_elements(1)[0]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            sandwich = w15 @ mes.unitaries[i] @ a0 @ dag(mes.unitaries[j]) @ dag(w15)
            assert np.abs(np.diag(sandwich)).max() <= 1e-10


def test_first_round_elements_complete():
    for r in (1, 2):
        total = sum(first_round_elements(r))
        assert frob(total - identity(2 + 3 * r)) <= 1e-12


def test_twoway_mod3_exact():
    spec = mod3_spec(5)
    tree = build_twoway_mod3(spec)
    ev = evaluate_exact(tree, build_family(spec))
    assert np.abs(ev.confusion - np.eye(3)).max() <= 1e-9
    assert tree.round_count >= 2


def test_twoway_builders_share_one_guard():
    # both builders refuse a spec of another kind; the even construction
    # alone, whose rotation reads three signs, also refuses degenerate phases
    with pytest.raises(SpecInvalid, match="expected a 'mod3' spec, got 'even_d'"):
        build_twoway_mod3(even_spec(4))
    with pytest.raises(SpecInvalid, match="expected a 'even_d' spec, got 'mod3'"):
        build_twoway_even(mod3_spec(5))
    with pytest.raises(SpecInvalid, match=r"degenerate phases \(omega_nonreal.*\); two-way construction needs generic phases"):
        build_twoway_even(even_spec(4, omega=1.0))


@pytest.mark.parametrize("sign", [1, -1])
def test_twoway_mod3_exact_on_the_degeneracy_locus(sign):
    # gamma = +-i omega^2 with the default omega: the tree reads no sign of
    # the phases, and stays exact and complete there
    spec = mod3_spec(5, gamma=sign * 1j * DEFAULT_OMEGA**2)
    assert not spec.is_generic
    tree = build_twoway_mod3(spec)
    ev = evaluate_exact(tree, build_family(spec))
    assert np.abs(ev.confusion - np.eye(3)).max() <= 1e-15
    assert tree.completeness_residual <= TREE_TOL


def test_twoway_mod3_rejects_larger_r():
    with pytest.raises(UnsupportedR):
        build_twoway_mod3(mod3_spec(8))


# ------------------------------------------------------------ lattice triples


def _assert_one_round_exact(triple):
    tree = build_lattice_triple_protocol(triple)
    assert (tree.round_count, is_one_way(tree)) == (1, True)
    ev = evaluate_exact(tree, lattice_triple_set(triple))
    assert np.abs(ev.confusion - np.eye(3)).max() <= 1e-15


# a triple sharing its first labels, one sharing its second labels, and one
# sharing neither
def test_lattice_teleport_case():
    _assert_one_round_exact(((0, 0), (0, 1), (0, 3)))


def test_lattice_swapped_teleport_case():
    _assert_one_round_exact(((0, 2), (1, 2), (3, 2)))


def test_lattice_parallel_case():
    _assert_one_round_exact(((0, 0), (1, 1), (2, 3)))


def test_lattice_trees_share_read_only_class_measurements():
    for triple in all_lattice_triples():
        tree = build_lattice_triple_protocol(triple)
        validate_tree(tree.root)
        assert (round_count(tree.root), is_one_way(tree)) == (1, True)
        bras = tree.root.children[0].kraus
        assert any(bras is b for b in _CLASS_BRAS), triple
        assert [k.shape for k in bras] == [(1, 4)] * 4
        for bob in tree.root.children:
            assert bob.kraus is bras
        for bra in bras:
            with pytest.raises(ValueError):
                bra[0, 0] = 0.0


def test_lattice_rejects_duplicates():
    with pytest.raises(DuplicateStates):
        build_lattice_triple_protocol(((0, 0), (0, 0), (1, 1)))


@pytest.mark.parametrize(
    "triple",
    [
        ((0, 0), (0, 0), (1, 1)),
        ((4, 0), (1, 1), (2, 2)),
        ((0, 0), (1, 1)),
        ((0, 0), (1, 1), (2, 2), (3, 3)),
        ((0, 0), (1, 1), (2,)),
    ],
)
def test_lattice_builder_refuses_as_the_set_does(triple):
    # the builder checks the indices as a lattice_triple spec, with no set
    with pytest.raises((SpecInvalid, DuplicateStates)) as from_set:
        lattice_triple_set(triple)
    with pytest.raises((SpecInvalid, DuplicateStates)) as from_tree:
        build_lattice_triple_protocol(triple)
    assert type(from_tree.value) is type(from_set.value)
    assert str(from_tree.value) == str(from_set.value)


def test_lattice_builder_labels_like_the_set():
    for triple in all_lattice_triples():
        assert build_lattice_triple_protocol(triple).label == f"oneway[{lattice_triple_set(triple).label}]"
    assert build_lattice_triple_protocol([[0, 0], [1, 1], [2, 3]]).label == "oneway[lattice((0, 0), (1, 1), (2, 3))]"


def test_lattice_tree_labels_numpy_labels_as_python_ints():
    tree = build_lattice_triple_protocol(np.array([[0, 0], [1, 1], [2, 3]]))
    assert tree.label == "oneway[lattice((0, 0), (1, 1), (2, 3))]"


@pytest.mark.parametrize(
    "triple", [((4, 0), (1, 1), (2, 2)), ((-1, 0), (1, 1), (2, 2)), ((0, 0), (0, 1), (0, -1)), ((0.5, 0), (1, 1), (2, 2))]
)
def test_lattice_rejects_labels_out_of_range(triple):
    with pytest.raises(SpecInvalid, match="0..3"):
        build_lattice_triple_protocol(triple)


def test_lattice_sample_sweep():
    rng = np.random.default_rng(77)
    triples = all_lattice_triples()
    assert len(triples) == 560
    for idx in rng.choice(len(triples), size=80, replace=False):
        triple = triples[idx]
        tree = build_lattice_triple_protocol(triple)
        assert is_one_way(tree), triple
        assert tree.round_count <= 2
        ev = evaluate_exact(tree, lattice_triple_set(triple))
        assert np.abs(ev.confusion - np.eye(3)).max() <= 1e-9, triple


# ------------------------------------------------------------------ sharing


def _distinct(root):
    """Counts of the distinct nodes and distinct Kraus arrays under root."""
    nodes, arrays, stack = set(), set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in nodes:
            continue
        nodes.add(id(node))
        if isinstance(node, Measure):
            # Kraus operators of one shape may be stacked in one array
            arrays.update([id(node.kraus)] if isinstance(node.kraus, np.ndarray) else map(id, node.kraus))
            stack.extend(node.children)
            if node.rest is not None:
                stack.append(node.rest)
    return len(nodes), len(arrays)


@pytest.mark.parametrize(
    "build, spec, counts",
    [
        (build_twoway_even, even_spec(8), (41, 38)),
        (build_twoway_even, even_spec(32), (281, 302)),
        (build_twoway_mod3, mod3_spec(5), (55, 66)),
    ],
    ids=["even8", "even32", "mod3"],
)
def test_twoway_trees_share_nodes_and_arrays(build, spec, counts):
    # branches that end alike hold one subtree and one array, not copies; no
    # remainder is stored, and the bras of one projective step, Alice's
    # teleport bras and each eliminating measurement are one stacked array
    # each (with every bra its own array and a stored remainder per rest
    # outcome, these were 74, 626 and 183 arrays)
    tree = build(spec)
    assert _distinct(tree.root) == counts
    assert tree.distinct_nodes == counts[0] < tree.nodes


def test_shared_closing_measurement_checked_once(monkeypatch):
    # at d = 32 each of the (m - 1)^2 = 225 teleport corrections leads into one
    # closing Bell measurement, whose Kraus tuple is checked once
    seen = []
    check = protocols._kraus_check
    monkeypatch.setattr(protocols, "_kraus_check", lambda kraus, proj: seen.append(kraus) or check(kraus, proj))
    tree = build_twoway_even(even_spec(32))
    teleport = tree.root.children[0].children[0].children[0]
    closing = teleport.children[0].children[0]
    assert len(teleport.children) == 225 and closing.rest is not None
    assert sum(kraus is closing.kraus for kraus in seen) == 1
    # each of the 281 distinct nodes is checked once, save its 12 leaves and
    # the 9 measurements of the survivor subtrees, checked at import
    assert tree.distinct_nodes == 281
    assert len(seen) == len({id(k) for k in seen}) == 281 - 12 - 9


def test_oneway_tree_at_d256_stores_no_remainder():
    # the shift set (I, X, X^2): 256 Bob nodes, each three bras and a rest
    # outcome; storing each remainder took about 280 MB
    x = cycle_permutation(256)
    mes = MaxEntSet(d=256, unitaries=(identity(256), x, x @ x))
    tracemalloc.start()
    try:
        tree = oneway_tree(mes, identity(256))
        confusion = evaluate_exact(tree, mes).confusion
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.abs(confusion - np.eye(3)).max() <= 1e-12
    assert tree.largest_kraus == (1, 256)
    assert peak < 32e6


def test_even_tree_shares_closing_subtrees():
    tree = build_twoway_even(even_spec(8))
    alice = tree.root.children[0].children[0]
    # every elimination leads into the same survivor rounds
    assert alice.children[1].children[0] is alice.children[2].children[0]
    # every teleport correction leads into the same closing Bell measurement
    teleport = alice.children[0]
    assert teleport.children[0].children[0] is teleport.children[-1].children[0]


def test_teleport_remainder_only_when_bob_space_uncovered():
    # four Bell outcomes span Bob's two qubits at n = 2; at n = 3 a rest
    # outcome covers the rest of his space
    closing = [teleport_subprotocol(n).root.children[0].children[0] for n in (2, 3)]
    assert [len(node.kraus) for node in closing] == [4, 4]
    rest = closing[1].rest
    assert closing[0].rest is None and isinstance(rest, Decide) and rest.guess == 0


# -------------------------------------------------------- rounds and direction

# a two-outcome measurement (projectors onto |0> and |1>) and a one-outcome one
K2 = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
K1 = (np.eye(2, dtype=complex),)


def round_count(root):
    return ProtocolTree(root).round_count


def _measure(party, child, kraus=K2):
    return Measure(party=party, kraus=kraus, children=(child,) * len(kraus))


def test_round_count_alternation_semantics():
    leaf = Decide(0)
    a_then_b = _measure("A", _measure("B", leaf))
    assert round_count(a_then_b) == 1
    a_b_a = _measure("A", _measure("B", _measure("A", leaf)))
    assert round_count(a_b_a) == 2


def test_one_outcome_node_adds_no_round():
    leaf = Decide(0)
    assert round_count(_measure("A", _measure("B", _measure("A", leaf, K1)))) == 1
    assert round_count(_measure("A", _measure("B", _measure("A", leaf), K1))) == 0
    assert round_count(_measure("B", _measure("A", _measure("B", leaf)), K1)) == 1


def test_one_outcome_bob_node_keeps_tree_one_way():
    leaf = Decide(0)
    assert is_one_way(ProtocolTree(_measure("B", _measure("A", _measure("B", leaf)), K1)))
    assert not is_one_way(ProtocolTree(_measure("B", _measure("A", leaf))))
    # Alice acting after a Bob measurement still needs his message
    assert not is_one_way(ProtocolTree(_measure("B", _measure("A", leaf, K1))))


@pytest.mark.parametrize("d", [4, 8])
def test_built_trees_rounds_and_direction(d):
    even = build_twoway_even(even_spec(d))
    assert (even.round_count, is_one_way(even)) == (3, False)
    mod3 = build_twoway_mod3(mod3_spec(5))
    assert (mod3.round_count, is_one_way(mod3)) == (2, False)
    one_way = [
        build_lattice_triple_protocol(((0, 0), (0, 1), (0, 3))),  # shared first labels
        build_lattice_triple_protocol(((0, 2), (1, 2), (3, 2))),  # shared second labels
        build_lattice_triple_protocol(((0, 0), (1, 1), (2, 3))),  # no shared label
        teleport_subprotocol(d // 2),
        teleport_subprotocol(d // 2, corrections=False),
    ]
    for tree in one_way:
        assert (tree.round_count, is_one_way(tree)) == (1, True), tree.label
