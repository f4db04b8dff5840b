"""Adaptive LOCC protocols as executable trees.

A protocol is a tree of two node kinds: Measure (Kraus operators on one
party, one subtree per outcome) and Decide leaves. A local unitary or
isometry is a one-outcome Measure. Classical communication is implicit in
the branching: acting after the other party's measurement of two or more
outcomes consumes one message; a one-outcome node sends none.

A Measure may have a rest outcome, the projector E = I - sum K^dag K,
applied as m - sum K^dag (K m) and never stored. A ProtocolTree is checked
when it is made, each distinct node once (E from the Gram matrix of the
stacked Kraus rows), and evaluation does not check again.

Evaluation propagates non-normalized state matrices (rows = Alice's levels,
columns = Bob's) down every branch; the squared norm at a leaf is the branch
probability. Kraus operators may be rectangular, so parties can shed
subsystems they have measured away.

Conventions: Alice's side of a prepared state (I (x) u)|Phi> carries the
transpose of whatever acts on Bob's side, so constructors that realize a
textbook measurement "M" on Alice store its transpose as the literal Kraus.

One-way trees from a zero-diagonal witness, the Bell-pair subtree
included, come from one builder (oneway_tree). A lattice triple's witness
is one of five constant two-qubit bases made at import, and every Pauli
outside that basis's class permutes its columns up to phases; so its tree
is assembled from the class's constant measurements (the same basis on both
sides, checked once at import) and a move table, with no rest outcome.
Every tree that ends in a projection onto orthonormal conditional states,
plus a rest outcome of probability zero, ends in one builder (_projective).

The even two-way tree reads its rotation off three signs (_select_rotation)
and its Weyl operators X^a Z^b off their shift and phases (_weyl_stack).
"""

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MalformedTree, NotOrthogonal, SpecInvalid, UnsupportedR
from .measurements import _check_priors
from .numerics import dag, diagonalize_unitary, frob, identity, kron
from .oneway import check_isometry_witness
from .states import (
    GENERICITY_MARGIN, LATTICE, PAULIS, EvenSpec, LatticeTripleSpec, Mod3Spec, block_diag, cycle_permutation
)

TREE_TOL = 1e-9


# ------------------------------------------------------------------- nodes


# nodes compare and hash by identity, as trees share them
@dataclass(frozen=True, slots=True, eq=False)
class Decide:
    guess: int


@dataclass(frozen=True, slots=True, eq=False)
class Measure:
    """Kraus operators on one party (a tuple, or one array stacking operators
    of one shape), one child each; rest, when given, is one more outcome, the
    projector I - sum K^dag K, applied and never stored."""

    party: str
    kraus: object
    children: tuple
    rest: object = None


@dataclass(frozen=True)
class ProtocolTree:
    """A protocol tree, checked once, when it is made, so no unchecked tree
    exists; it carries what validate_tree records as attributes."""

    root: object
    label: str = ""

    def __post_init__(self):
        for name, value in validate_tree(self.root).items():
            object.__setattr__(self, name, value)


# Kraus tuples checked complete at import, by id: trees holding one skip that check
_CHECKED = {}


def _kraus_check(kraus, projector):
    """(residual / max(1, sqrt(n)), largest shape) of Kraus operators on n
    levels: ||sum K^dag K - I||, or, when a rest outcome takes the remainder
    E = I - B^dag B of the stacked rows B, ||G^2 - G|| for G = B B^dag,
    which equals ||E^2 - E||, so nothing n x n is formed."""
    n = kraus[0].shape[1]
    if any(k.shape[1] != n for k in kraus):
        raise MalformedTree("Kraus operators disagree on input dimension")
    b = kraus[0] if len(kraus) == 1 else np.vstack(kraus)
    g = b @ dag(b) if projector else None
    residual = frob(g @ g - g) if projector else frob(dag(b) @ b - identity(n))
    # written so that a NaN residual fails too
    if not residual <= TREE_TOL * max(1.0, np.sqrt(n)):
        what = "remainder I - sum K^dag K is not a projector" if projector else "Kraus completeness violated"
        raise MalformedTree(f"{what}: residual {residual:.3e}")
    return residual / max(1.0, np.sqrt(n)), max((k.shape for k in kraus), key=lambda s: s[0] * s[1])


def _checked(kraus):
    """kraus, read-only and checked complete once, for every tree that holds it."""
    for k in [kraus] if isinstance(kraus, np.ndarray) else kraus:
        k.setflags(write=False)
    _CHECKED[id(kraus)] = (kraus, _kraus_check(kraus, projector=False))
    return kraus


class _Node(NamedTuple):  # one distinct node's share of the check (see _summarize)
    nodes: int
    leaves: int
    lead: object
    rounds: int
    one_way: tuple


def _summarize(node, memo, found):
    """Check node once, memoized by id, and sum up the tree below it: its
    nodes and leaves, counted once per path; lead, the party of the first
    node of two or more outcomes on each path (None if none), with the
    rounds from there; and one_way[b], whether every message flows from
    Alice to Bob, b saying whether Bob measured above it. Each Kraus check's
    (residual, shape) goes to found."""
    if id(node) in memo:
        return memo[id(node)]
    if isinstance(node, Decide):
        if not isinstance(node.guess, int) or node.guess < 0:
            raise MalformedTree(f"bad decision index {node.guess!r}")
        return memo.setdefault(id(node), _Node(1, 1, None, 0, (True, True)))
    if not isinstance(node, Measure):
        raise MalformedTree(f"unknown node type {type(node).__name__}")
    if node.party not in ("A", "B"):
        raise MalformedTree(f"bad party {node.party!r}")
    if len(node.kraus) == 0 or len(node.kraus) != len(node.children):
        raise MalformedTree("Measure needs one child per Kraus operator")
    checked = _CHECKED.get(id(node.kraus)) if node.rest is None else None
    found.append(checked[1] if checked else _kraus_check(node.kraus, node.rest is not None))
    kids = node.children if node.rest is None else (*node.children, node.rest)
    subs = [_summarize(c, memo, found) for c in kids]
    # one outcome sends no message, so it adds no round
    lead, rounds = (subs[0].lead, subs[0].rounds) if len(kids) == 1 else (
        node.party, max(x.rounds + (x.lead not in (None, node.party)) for x in subs))
    # Alice acting after a Bob measurement of two or more outcomes needs his
    # message; a one-outcome Bob node tells her nothing
    if node.party == "A":
        one_way = (all(x.one_way[0] for x in subs), False)
    else:
        one_way = subs[0].one_way if len(kids) == 1 else (all(x.one_way[1] for x in subs),) * 2
    nodes, leaves = 1 + sum(x.nodes for x in subs), sum(x.leaves for x in subs)
    return memo.setdefault(id(node), _Node(nodes, leaves, lead, rounds, one_way))


def validate_tree(root):
    """Check every distinct node once: Kraus completeness (an isometry, for
    one outcome), a projector remainder where a rest outcome takes it, and
    decision leaves. Return what ProtocolTree records: round_count (A<->B
    alternations along the deepest path of nodes of two or more outcomes),
    one_way, nodes and leaves (counted once per path, so leaves are the
    transcripts), distinct_nodes, largest_kraus and completeness_residual
    (the worst, over max(1, sqrt(n)))."""
    memo, found = {}, []
    s = _summarize(root, memo, found)
    return dict(
        round_count=s.rounds, one_way=s.one_way[0], nodes=s.nodes, leaves=s.leaves, distinct_nodes=len(memo),
        largest_kraus=max((f[1] for f in found), default=(0, 0), key=lambda sh: sh[0] * sh[1]),
        completeness_residual=float(max((f[0] for f in found), default=0.0)))


def is_one_way(tree):
    """True when every classical message flows from Alice to Bob."""
    return tree.one_way


# -------------------------------------------------------------- evaluation


@dataclass(frozen=True)
class ExactEvaluation:
    confusion: np.ndarray
    success: float
    transcript_count: int


def _apply_node_op(m, party, op):
    side = 0 if party == "A" else 1
    if op.shape[1] != m.shape[side]:
        holder = ("Alice", "Bob")[side]
        raise MalformedTree(f"operator expects dimension {op.shape[1]}, {holder} holds {m.shape[side]}")
    return m @ op.T if side else op @ m


def _walk_exact(node, m, k, out_row):
    if isinstance(node, Decide):
        if node.guess >= k:
            raise MalformedTree(f"decision index {node.guess} out of range for {k} states")
        out_row[node.guess] += np.linalg.norm(m) ** 2
        return
    outs = [_apply_node_op(m, node.party, kr) for kr in node.kraus]
    for out, child in zip(outs, node.children):
        _walk_exact(child, out, k, out_row)
    if node.rest is not None:
        # m - sum K^dag (K m) on the node's side
        kept = (dag(kr) @ o if node.party == "A" else o @ np.conj(kr) for kr, o in zip(node.kraus, outs))
        _walk_exact(node.rest, m - sum(kept), k, out_row)


def evaluate_exact(tree, mes, priors=None):
    """Walk every branch, accumulating exact decision probabilities; the tree
    was checked when it was made."""
    k = mes.k
    priors = _check_priors([1.0 / k] * k if priors is None else priors, k)
    confusion = np.zeros((k, k))
    for i, psi in enumerate(mes.states().reshape(k, mes.d, mes.d)):
        _walk_exact(tree.root, psi, k, confusion[i])
    success = float(priors @ np.diag(confusion))
    return ExactEvaluation(confusion=confusion, success=success, transcript_count=tree.leaves)


# ------------------------------------------------------------- primitives


def require_spec(spec, spec_type):
    """Refuse a spec that is not a spec_type."""
    if not isinstance(spec, spec_type):
        raise SpecInvalid(f"expected a {spec_type.kind!r} spec, got {spec.kind!r}")


def _bra(v):
    # conj of the reshaped view owns its data, so trees keep no base arrays
    return np.conj(v.reshape(1, -1))


def _projective(party, vecs, leaves, rest):
    """party projects onto the orthonormal rows of vecs, row i leading to
    leaves[i]; when the rows do not span the space, the rest outcome (the
    remainder, of probability 0 on the states it is built for) leads to rest."""
    rest = rest if len(vecs) < vecs.shape[1] else None
    return Measure(party=party, kraus=np.conj(vecs[:, None]), children=tuple(leaves), rest=rest)


def _witness_node(unitaries, w, decisions):
    """Alice measures the columns w_c of the witness w; after outcome c Bob
    projects onto the orthonormal states U_i w_c, deciding decisions[i], or
    decisions[0] on the remainder."""
    # vecs[c, i] = U_i w_c / |U_i w_c|, every column of every state at once
    vecs = np.einsum("iab,bc->cia", np.asarray(unitaries), w)
    vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
    leaves = tuple(Decide(x) for x in decisions)
    rest = Decide(decisions[0])
    children = tuple(_projective("B", v, leaves, rest) for v in vecs)
    # Alice's literal operator for column c is the transpose of the bra of
    # conj(w_c): the row w_c itself
    return Measure(party="A", kraus=tuple(np.ascontiguousarray(w.T)[:, None]), children=children)


def oneway_tree(mes, w):
    """One-round, one-way tree distinguishing mes perfectly from a witness.

    w is a d x r matrix with w w^dag = I whose columns w satisfy
    <w|U_i^dag U_j|w> = 0 for every i != j; anything else is refused with
    NotOrthogonal, naming the worst pair.
    """
    w = np.asarray(w, dtype=complex)
    report = check_isometry_witness(mes, w)
    if not report["pass"]:
        i, j = max(report["diag_max"], key=report["diag_max"].get)
        raise NotOrthogonal(f"diagonal of W^dag U_{i}^dag U_{j} W reaches {report['worst']:.3e}, not 0")
    return ProtocolTree(_witness_node(mes.unitaries, w, range(mes.k)), label=f"oneway[{mes.label}]")


def _bell_pair_subtree(ua, ub, decisions):
    """One-round discrimination of (I (x) ua)|Phi_2> vs (I (x) ub)|Phi_2>.

    The witness is the pair of mixed eigenvectors of the traceless unitary
    ua^dag ub, along which it has zero diagonal.
    """
    u = dag(ua) @ ub
    if abs(np.trace(u)) > TREE_TOL:
        raise NotOrthogonal(f"|tr(ua^dag ub)| = {abs(np.trace(u)):.3e}")
    v, _ = diagonalize_unitary(u)
    w = np.stack((v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]), axis=1) / np.sqrt(2)
    return _witness_node((ua, ub), w, decisions)


def _weyl_stack(n):
    """The n^2 unitaries X^a Z^b on an n-level system, a-major, as one
    (n^2, n, n) array: X^a Z^b sends |t> to e^{2 pi i (bt mod n)/n} |t+a mod n>."""
    a, b, t = np.ogrid[:n, :n, :n]
    ops = np.zeros((n, n, n, n), dtype=complex)
    ops[a, b, (t + a) % n, t] = np.exp(2j * np.pi * (b * t % n) / n)
    return ops.reshape(n * n, n, n)


def _teleport_branch(m):
    """Teleport Alice's qubit through the channel on Bob's levels 1..m-1,
    then let Bob decide.

    Alice holds C^(m-1) (x) C^2; Bob holds C^m (x) C^2. After each of Alice's
    Bell outcomes Bob undoes its Weyl operator on the channel, and one shared
    closing Bell-basis measurement on (levels 1, 2) (x) qubit decides
    (0, 1, 0, 2) for the Bell pair (I (x) sigma_y), with a rest outcome for
    the remainder of his space.
    """
    n = m - 1
    s = np.eye(m, n, -1)
    betas = np.array([sum(kron(s[:, t], PAULIS[y][:, t]) for t in range(2)) / np.sqrt(2) for y in range(4)])
    final = _projective("B", betas, [Decide(dec) for dec in (0, 1, 0, 2)], Decide(0))
    ops = _weyl_stack(n)
    children = tuple(
        Measure(party="B", kraus=(kron(block_diag(identity(1), cu), identity(2)),), children=(final,)) for cu in ops
    )
    # Alice's Bell bra on (channel (x) qubit) for X^a Z^b: its rows 0 and 1, conjugated
    bras = np.conj(ops[:, :2].transpose(0, 2, 1)).reshape(n * n, 1, 2 * n) / np.sqrt(n)
    return Measure(party="A", kraus=bras, children=children)


# --------------------------------------------------- two-way, even dimension


def _elimination_weights(omega, gamma):
    """Nonnegative weights orthogonal to (1, omega, gamma).

    Valid whenever the imaginary parts of conj(omega), gamma, and
    conj(gamma)*omega share one sign.
    """
    return (
        abs(np.imag(np.conj(gamma) * omega)),
        abs(np.imag(gamma)),
        abs(np.imag(omega)),
    )


# (a, b) -> j: conjugating by sigma_j multiplies X by a and Z by b
_ROTATION = {(1, 1): 0, (1, -1): 1, (-1, -1): 2, (-1, 1): 3}


def _select_rotation(omega, gamma):
    """(j, a omega, b gamma) for the one sigma_j whose signs (a, b) on X and Z
    give conj(omega'), gamma', conj(gamma') omega' imaginary parts of one sign;
    build_twoway_even keeps all three off zero by more than GENERICITY_MARGIN."""
    s_w, s_g, s_gw = (int(np.sign(np.imag(v))) for v in (omega, gamma, np.conj(gamma) * omega))
    a, b = s_g * s_gw, -s_w * s_gw
    return _ROTATION[a, b], omega * a, gamma * b


def _eliminating_measure(m, j, kk, phases, weights, survivors):
    """Bob's three-outcome POVM killing one candidate on span{|0>, |j>},
    outcome i leading to survivors[i]; his levels off that span are the rest
    outcome, leading to survivors[3]."""
    e0 = np.zeros(m, dtype=complex)
    e0[0] = 1.0
    ej = np.zeros(m, dtype=complex)
    ej[j] = 1.0
    total = sum(weights)
    kraus = []
    for i in range(3):
        b = (e0 - (-1) ** kk * np.conj(phases[i]) * ej) / np.sqrt(2)
        scale = np.sqrt(2 * weights[i] / total)
        kraus.append(scale * kron(_bra(b), identity(2)))
    return Measure(party="B", kraus=np.array(kraus), children=survivors[:3], rest=survivors[3])


def _survivor_subtrees():
    """After eliminating candidate i, a Bell-pair round decides the other
    two, then the off-span rest leaf (probability 0). Every Kraus tuple is
    checked once, here."""
    sigmas = (PAULIS[0], PAULIS[1], PAULIS[3])
    pairs = tuple(_bell_pair_subtree(sigmas[a], sigmas[b], (a, b)) for a, b in ((1, 2), (0, 2), (0, 1)))
    for kraus in [a.kraus for a in pairs] + [b.kraus for a in pairs for b in a.children]:
        _checked(kraus)
    return pairs + (Decide(0),)


# every elimination of every even tree shares these subtrees
_SURVIVORS = _survivor_subtrees()


def build_twoway_even(spec):
    """Two-way protocol distinguishing the even-dimension family exactly.

    An initializing controlled-Pauli rotation moves the phases into the
    convex-position configuration; Alice then measures superposition
    directions on her m-level system (plus, for m > 2, a collect-everything
    outcome that funnels into teleportation), Bob's weighted POVM eliminates
    one candidate, and a final qubit Bell-pair round decides between the two
    survivors.
    """
    require_spec(spec, EvenSpec)
    if not spec.is_generic:
        name, distance = min(spec.genericity().items(), key=lambda item: item[1])
        raise SpecInvalid(
            f"degenerate phases ({name}); two-way construction needs generic phases: its distance from the "
            f"degeneracy locus, {distance:.3e}, is within the margin {GENERICITY_MARGIN:g}"
        )
    d = spec.d
    m = d // 2
    j_rot, omega_p, gamma_p = _select_rotation(spec.omega, spec.gamma)
    phases = (1.0, omega_p, gamma_p)
    weights = _elimination_weights(omega_p, gamma_p)
    kraus = []
    children = []
    if m > 2:
        # collect levels 1..m-1; the shared state there is phase-free
        kraus.append(np.sqrt((m - 2) / (m - 1)) * kron(np.eye(m - 1, m, 1), identity(2)))
        children.append(_teleport_branch(m))
    for jj in range(1, m):
        for kk in range(2):
            a = np.zeros(m, dtype=complex)
            a[0] = 1.0
            a[jj] = (-1) ** kk
            a /= np.sqrt(2)
            # Alice realizes the transposed projector onto a (a is real)
            kraus.append(kron(_bra(np.conj(a)), identity(2)) / np.sqrt(m - 1))
            children.append(_eliminating_measure(m, jj, kk, phases, weights, _SURVIVORS))

    alice = Measure(party="A", kraus=tuple(kraus), children=tuple(children))
    wj = block_diag(PAULIS[j_rot], identity(d - 2))
    bob = Measure(party="B", kraus=(wj,), children=(alice,))
    root = Measure(party="A", kraus=(np.conj(wj),), children=(bob,))
    return ProtocolTree(root, label=f"twoway_even(d={d},rotation={j_rot})")


# ----------------------------------------------------- two-way, d = 2 + 3r


def refinement_isometry(omega, gamma):
    """The 15 x 5 isometry refining Bob's side of the five-level family.

    Columns of its adjoint are built from the three Pauli eigenbases on the
    qubit block paired with matched phases on the cyclic block, plus three
    bare basis directions.
    """
    s3 = np.sqrt(3.0)
    s32 = np.sqrt(1.5)
    s10 = np.sqrt(10.0)
    cg = np.conj(gamma)
    cw = np.conj(omega)
    iwg = 1j * omega * np.conj(gamma)
    cols = [
        [s3, 0, 1, 0, -cg],
        [-s3, 0, 1, 0, -cg],
        [0, s3, 1, 0, cg],
        [0, -s3, 1, 0, cg],
        [s32, s32, 1, -cw, 0],
        [-s32, -s32, 1, -cw, 0],
        [s32, -s32, 1, cw, 0],
        [-s32, s32, 1, cw, 0],
        [s32, -1j * s32, 0, 1, -iwg],
        [-s32, 1j * s32, 0, 1, -iwg],
        [s32, 1j * s32, 0, 1, iwg],
        [-s32, -1j * s32, 0, 1, iwg],
        [0, 0, s10, 0, 0],
        [0, 0, 0, s10, 0],
        [0, 0, 0, 0, s10],
    ]
    w_adj = np.array(cols, dtype=complex).T / np.sqrt(18.0)  # 5 x 15
    return dag(w_adj)  # 15 x 5


def first_round_elements(r=1):
    """Alice's diagonal first-round POVM elements for the d = 2+3r family."""
    d = 2 + 3 * r
    out = []
    for k in range(3 * r):
        a = np.zeros(d)
        a[0] = a[1] = 1.0 / (3 * r)
        a[2 + k] = 1.0
        out.append(np.diag(a).astype(complex))
    return out


# Bob's standard-basis bras after the refinement, and the three leaves,
# shared by every mod3 tree
_BASIS15 = _checked(tuple(_bra(np.eye(15)[x]) for x in range(15)))
_LEAVES3 = tuple(Decide(i) for i in range(3))


def build_twoway_mod3(spec):
    """Two-way protocol distinguishing the d = 5 family exactly.

    Alice applies a diagonal weakening measurement, Bob embeds his system
    through the 15-outcome refinement isometry and measures the standard
    basis, and Alice finishes with a projective measurement onto her three
    orthogonal conditional states.
    """
    require_spec(spec, Mod3Spec)
    if spec.r != 1:
        raise UnsupportedR(
            "the 15-outcome refinement is defined for r = 1 (d = 5) only"
        )
    unitaries = spec.unitaries()
    w15 = refinement_isometry(spec.omega, spec.gamma)
    q = cycle_permutation(3)

    elements = first_round_elements(r=1)
    alice_kraus = []
    branches = []
    qk = identity(3)
    for k in range(3):
        a_sqrt = np.sqrt(elements[k].real).astype(complex)  # diagonal, real
        alice_kraus.append(a_sqrt.T)
        gk = block_diag(identity(2), qk)
        wk = w15 @ dag(gk)
        outcome_children = []
        for x in range(15):
            # Alice's conditional states after Bob's outcome x; the vanishing ones are dropped
            vecs = [a_sqrt.T @ u.T @ wk.T[:, x] for u in unitaries]
            norms = [np.linalg.norm(v) for v in vecs]
            keep = [i for i in range(3) if norms[i] > 1e-12]
            units = np.array([vecs[i] / norms[i] for i in keep])
            outcome_children.append(_projective("A", units, [_LEAVES3[i] for i in keep], _LEAVES3[0]))
        bob = Measure(party="B", kraus=_BASIS15, children=tuple(outcome_children))
        branches.append(Measure(party="B", kraus=(wk,), children=(bob,)))
        qk = q @ qk
    root = Measure(party="A", kraus=tuple(alice_kraus), children=tuple(branches))
    return ProtocolTree(root, label="twoway_mod3(d=5)")


# ------------------------------------------------------------ lattice triples


# _PAULI_CLASS[a, b]: which of five classes of three commuting Paulis holds
# sigma_a (x) sigma_b; the classes partition the fifteen non-identity ones
_PAULI_CLASS = np.array([[-1, 0, 1, 2], [0, 0, 3, 4], [1, 4, 1, 3], [2, 3, 4, 2]])
_PAULI_CLASS.setflags(write=False)


def _class_basis(c):
    # P + 2Q, for the first two members P, Q of the class, has the distinct
    # eigenvalues +-1 +-2, so its eigenbasis is the joint one, unique up to phases
    p, q = np.argwhere(_PAULI_CLASS == c)[:2]
    return np.linalg.eigh(LATTICE[tuple(p)] + 2 * LATTICE[tuple(q)])[1]


# columns of _MUB[c]: the joint eigenbasis of class c, in which every Pauli
# outside the class has zero diagonal (the five bases are mutually unbiased)
_MUB = np.array([_class_basis(c) for c in range(5)])
_MUB.setflags(write=False)

# _MOVE[c, x, y, col] = b when sigma_x (x) sigma_y maps column col of _MUB[c]
# to a phase times column b: a Pauli in class c fixes every column, one
# outside it moves every column, and |<w_b|U w_col>| is 1 at b and 0 elsewhere
_MOVE = np.abs(np.einsum("cab,xyad,cde->cxybe", _MUB.conj(), LATTICE, _MUB)).argmax(axis=3)
_MOVE.setflags(write=False)


def _class_measurements(w):
    """Alice's rows w_col and Bob's bras <w_b| for the class basis w, read-only
    and each checked complete once."""
    rows = tuple(w[:, col].reshape(1, -1).copy() for col in range(4))
    return _checked(rows), _checked(tuple(_bra(w[:, b]) for b in range(4)))


# one pair of constant measurements per class, shared by every lattice tree
_CLASS_ROWS, _CLASS_BRAS = zip(*(_class_measurements(w) for w in _MUB))


def build_lattice_triple_protocol(indices):
    """One-way tree distinguishing any three distinct two-qubit lattice states.

    U_i^dag U_j is a Pauli up to phase, with labels x_i ^ x_j, y_i ^ y_j; the
    three pairs hit at most three of the five classes, and the first class c
    none of them hits gives the witness _MUB[c]. Alice measures its columns;
    after outcome col, U_i w_col is a phase times column _MOVE[c, x_i, y_i, col],
    so Bob measures the same basis and reads i off the column, the column no
    state reaches deciding 0. Every Kraus tuple is a constant checked at
    import, so the tree's check at construction is structural only. The
    indices are checked as a LatticeTripleSpec; no state set is built.
    """
    spec = LatticeTripleSpec(indices)
    hit = {_PAULI_CLASS[x ^ u, y ^ v] for (x, y), (u, v) in itertools.combinations(spec.lattice_indices, 2)}
    c = next(c for c in range(5) if c not in hit)
    moves = [_MOVE[c, x, y].tolist() for x, y in spec.lattice_indices]
    bobs = []
    for col in range(4):
        leaves = [_LEAVES3[0]] * 4
        for i, move in enumerate(moves):
            leaves[move[col]] = _LEAVES3[i]
        bobs.append(Measure(party="B", kraus=_CLASS_BRAS[c], children=tuple(leaves)))
    root = Measure(party="A", kraus=_CLASS_ROWS[c], children=tuple(bobs))
    return ProtocolTree(root, label=f"oneway[{spec.label}]")


def all_lattice_triples():
    """Every 3-subset of the sixteen two-qubit lattice states."""
    labels = [(x, y) for x in range(4) for y in range(4)]
    return list(itertools.combinations(labels, 3))
