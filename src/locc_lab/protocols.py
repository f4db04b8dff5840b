"""Adaptive LOCC protocols as executable trees.

A protocol is a tree of two node kinds: Measure (Kraus operators on one
party, one subtree per outcome) and Decide leaves. A local unitary or
isometry is a one-outcome Measure. Classical communication is implicit in
the branching: acting after the other party's measurement of two or more
outcomes consumes one message; a one-outcome node sends none.

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
sides, checked once at import) and a move table, with no remainder. Every
tree that ends in a projection onto orthonormal conditional states, plus a
remainder of probability zero, ends in one builder (_projective).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelTooSmall,
    MalformedTree,
    NotOrthogonal,
    SpecInvalid,
    UnsupportedR,
)
from .measurements import _check_priors
from .numerics import dag, diagonalize_unitary, frob, identity, kron
from .oneway import check_isometry_witness
from .states import (
    LATTICE, MaxEntSet, PAULIS, block_diag, build_mod3_family, cycle_permutation, lattice_triple_set, require_spec
)

TREE_TOL = 1e-9


# ------------------------------------------------------------------- nodes


@dataclass(frozen=True, slots=True)
class Decide:
    guess: int


@dataclass(frozen=True, slots=True)
class Measure:
    party: str
    kraus: tuple
    children: tuple


@dataclass(frozen=True)
class ProtocolTree:
    root: object
    round_count: int
    label: str = ""


def _measure_rounds(node, last_party):
    if isinstance(node, Decide):
        return 0
    if len(node.kraus) == 1:
        return _measure_rounds(node.children[0], last_party)
    step = 1 if (last_party is not None and node.party != last_party) else 0
    return step + max(_measure_rounds(c, node.party) for c in node.children)


def round_count(root):
    """Number of A<->B alternations along the deepest measurement path.

    One-outcome nodes send no message, so they pass through without a round.
    """
    return _measure_rounds(root, None)


def _one_way(node, bob_acted):
    if isinstance(node, Decide):
        return True
    if node.party == "A" and bob_acted:
        return False
    acted = bob_acted or (node.party == "B" and len(node.kraus) > 1)
    return all(_one_way(c, acted) for c in node.children)


def is_one_way(tree):
    """True when every classical message flows from Alice to Bob.

    Alice acting after a Bob measurement makes a tree two-way; a one-outcome
    Bob node tells Alice nothing, so it does not.
    """
    return _one_way(tree.root, False)


def make_tree(root, label=""):
    validate_tree(root)
    return ProtocolTree(root=root, round_count=round_count(root), label=label)


def validate_tree(node):
    """Check Kraus completeness (an isometry, for one outcome) and Decide leaves."""
    if isinstance(node, Decide):
        if not isinstance(node.guess, int) or node.guess < 0:
            raise MalformedTree(f"bad decision index {node.guess!r}")
        return
    if isinstance(node, Measure):
        if node.party not in ("A", "B"):
            raise MalformedTree(f"bad party {node.party!r}")
        if len(node.kraus) == 0 or len(node.kraus) != len(node.children):
            raise MalformedTree("Measure needs one child per Kraus operator")
        n = node.kraus[0].shape[1]
        total = np.zeros((n, n), dtype=complex)
        for k in node.kraus:
            if k.shape[1] != n:
                raise MalformedTree("Kraus operators disagree on input dimension")
            total += dag(k) @ k
        residual = frob(total - identity(n))
        # written so that a NaN residual fails too
        if not residual <= TREE_TOL * max(1.0, np.sqrt(n)):
            raise MalformedTree(f"Kraus completeness violated by {residual:.3e}")
        for c in node.children:
            validate_tree(c)
        return
    raise MalformedTree(f"unknown node type {type(node).__name__}")


def count_leaves(node):
    if isinstance(node, Decide):
        return 1
    return sum(count_leaves(c) for c in node.children)


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
    for kr, child in zip(node.kraus, node.children):
        _walk_exact(child, _apply_node_op(m, node.party, kr), k, out_row)


def evaluate_exact(tree, mes, priors=None):
    """Walk every branch, accumulating exact decision probabilities."""
    validate_tree(tree.root)
    k = mes.k
    priors = _check_priors([1.0 / k] * k if priors is None else priors, k)
    confusion = np.zeros((k, k))
    for i in range(k):
        psi = mes.state(i).reshape(mes.d, mes.d)
        _walk_exact(tree.root, psi, k, confusion[i])
    success = float(priors @ np.diag(confusion))
    return ExactEvaluation(
        confusion=confusion, success=success, transcript_count=count_leaves(tree.root)
    )


# ------------------------------------------------------------- primitives


def _bra(v):
    # conj of the reshaped view owns its data, so trees keep no base arrays
    return np.conj(v.reshape(1, -1))


def _projective(party, vecs, leaves, rest):
    """party projects onto the orthonormal rows of vecs, row i leading to
    leaves[i]; when the rows do not span the space, the remainder
    I - sum |v><v| (probability 0 on the states it is built for) leads to rest."""
    bras = np.conj(vecs)
    kraus, children = tuple(bras[:, None]), tuple(leaves)
    if len(vecs) < vecs.shape[1]:
        kraus += (identity(vecs.shape[1]) - (vecs[:, :, None] * bras[:, None]).sum(axis=0),)
        children += (rest,)
    return Measure(party=party, kraus=kraus, children=children)


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
    return make_tree(_witness_node(mes.unitaries, w, range(mes.k)), label=f"oneway[{mes.label}]")


def _bell_pair_subtree(ua, ub, decisions, tol=TREE_TOL):
    """One-round discrimination of (I (x) ua)|Phi_2> vs (I (x) ub)|Phi_2>.

    The witness is the pair of mixed eigenvectors of the traceless unitary
    ua^dag ub, along which it has zero diagonal.
    """
    u = dag(ua) @ ub
    if abs(np.trace(u)) > tol:
        raise NotOrthogonal(f"|tr(ua^dag ub)| = {abs(np.trace(u)):.3e}")
    v, _ = diagonalize_unitary(u)
    w = np.stack((v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]), axis=1) / np.sqrt(2)
    return _witness_node((ua, ub), w, decisions)


def _weyl_ops(n):
    """The n^2 unitaries X^a Z^b on an n-level system."""
    x = cycle_permutation(n)
    z = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    ops = []
    xa = identity(n)
    for a in range(n):
        zb = identity(n)
        for b in range(n):
            ops.append(xa @ zb)
            zb = z @ zb
        xa = x @ xa
    return ops


def _teleport_kraus(ops):
    """Alice's joint Bell bras on (channel (x) qubit), one per n x n Weyl
    operator, qubit embedded in the first two channel levels."""
    n = ops[0].shape[0]
    return tuple(np.conj(u[:2].T).reshape(1, 2 * n) / np.sqrt(n) for u in ops)


def _teleport_branch(n, m_b, shift, decisions, corrections=True):
    """Teleport Alice's qubit through an n-level channel, then let Bob decide.

    Alice holds C^n (x) C^2; Bob holds C^m_b (x) C^2 with his channel half on
    levels shift..shift+n-1. Bob's closing Bell-basis measurement on (levels
    shift, shift+1) (x) qubit decides decisions[y] for the Bell pair
    (I (x) sigma_y); when m_b > 2 a remainder outcome covers the rest of his
    space. All branches share one closing measurement.
    """
    s = np.eye(m_b, n, -shift)
    rest = identity(m_b) - s @ s.T
    betas = np.array([sum(kron(s[:, t], PAULIS[y][:, t]) for t in range(2)) / np.sqrt(2) for y in range(4)])
    final = _projective("B", betas, [Decide(dec) for dec in decisions], Decide(decisions[0]))
    ops = _weyl_ops(n)
    children = [final] * len(ops)
    if corrections:
        children = [
            Measure(party="B", kraus=(kron(s @ cu @ dag(s) + rest, identity(2)),), children=(final,))
            for cu in ops
        ]
    return Measure(party="A", kraus=_teleport_kraus(ops), children=tuple(children))


def teleport_subprotocol(channel_dim, corrections=True):
    """Standalone teleport-and-measure tree for the three Bell candidates.

    The shared state is an n-level maximally entangled channel times one of
    the qubit Bell pairs (I (x) sigma)|Phi_2>, sigma in (I, X, Z); after
    teleportation Bob holds both qubit halves and decides with a local
    Bell-basis measurement.
    """
    n = channel_dim
    if n < 2:
        raise ChannelTooSmall(f"teleportation channel needs dimension >= 2, got {n}")
    root = _teleport_branch(n, n, 0, (0, 1, 0, 2), corrections=corrections)
    return make_tree(root, label=f"teleport(n={n})")


def teleport_candidate_set(channel_dim):
    """The state set teleport_subprotocol discriminates."""
    n = channel_dim
    sigmas = (PAULIS[0], PAULIS[1], PAULIS[3])
    return MaxEntSet(
        d=2 * n,
        unitaries=tuple(kron(identity(n), s) for s in sigmas),
        label=f"channel+bell(n={n})",
    )


# --------------------------------------------------- two-way, even dimension


def _twoway_spec(spec, kind):
    """The validated spec, refused unless it has `kind` and generic phases."""
    return require_spec(spec, kind, refusal="two-way construction needs generic phases")


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


def _sign_condition(omega, gamma):
    # _twoway_spec keeps all three imaginary parts off zero by more than
    # states.GENERICITY_MARGIN, so each has a definite sign
    ims = (
        np.imag(np.conj(omega)),
        np.imag(gamma),
        np.imag(np.conj(gamma) * omega),
    )
    return all(v > 0 for v in ims) or all(v < 0 for v in ims)


# sign of sigma_j sigma_k sigma_j relative to sigma_k
_CONJ_SIGN = {
    (0, 1): 1, (1, 1): 1, (2, 1): -1, (3, 1): -1,  # conjugating X
    (0, 3): 1, (1, 3): -1, (2, 3): -1, (3, 3): 1,  # conjugating Z
}


def _select_rotation(omega, gamma):
    hits = []
    for j in range(4):
        op = omega * _CONJ_SIGN[(j, 1)]
        gp = gamma * _CONJ_SIGN[(j, 3)]
        if _sign_condition(op, gp):
            hits.append((j, op, gp))
    if len(hits) != 1:
        raise SpecInvalid(
            f"sign condition selected {len(hits)} rotations instead of exactly one"
        )
    return hits[0]


def _eliminating_measure(m, j, kk, phases, weights, children):
    """Bob's three-outcome POVM killing one candidate on span{|0>, |j>}."""
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
    rest = identity(m)  # Bob's levels off span{|0>, |j>}
    rest[[0, j], [0, j]] = 0.0
    kraus.append(kron(rest, identity(2)))
    return Measure(party="B", kraus=tuple(kraus), children=tuple(children))


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


def _survivor_subtrees():
    """After eliminating candidate i, a Bell-pair round decides the other
    two, then the off-span remainder leaf (probability 0)."""
    sigmas = (PAULIS[0], PAULIS[1], PAULIS[3])
    pairs = tuple(_bell_pair_subtree(sigmas[a], sigmas[b], (a, b)) for a, b in ((1, 2), (0, 2), (0, 1)))
    for alice in pairs:
        _read_only(*alice.kraus, *(k for bob in alice.children for k in bob.kraus))
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
    _twoway_spec(spec, "even_d")
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
        children.append(_teleport_branch(m - 1, m, 1, (0, 1, 0, 2)))
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
    return make_tree(root, label=f"twoway_even(d={d},rotation={j_rot})")


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
_BASIS15 = tuple(_bra(np.eye(15)[x]) for x in range(15))
_read_only(*_BASIS15)
_LEAVES3 = tuple(Decide(i) for i in range(3))


def build_twoway_mod3(spec):
    """Two-way protocol distinguishing the d = 5 family exactly.

    Alice applies a diagonal weakening measurement, Bob embeds his system
    through the 15-outcome refinement isometry and measures the standard
    basis, and Alice finishes with a projective measurement onto her three
    orthogonal conditional states.
    """
    _twoway_spec(spec, "mod3")
    if spec.r != 1:
        raise UnsupportedR(
            "the 15-outcome refinement is defined for r = 1 (d = 5) only"
        )
    mes = build_mod3_family(spec)
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
            vecs = [a_sqrt.T @ u.T @ wk.T[:, x] for u in mes.unitaries]
            norms = [np.linalg.norm(v) for v in vecs]
            keep = [i for i in range(3) if norms[i] > 1e-12]
            units = np.array([vecs[i] / norms[i] for i in keep])
            outcome_children.append(_projective("A", units, [_LEAVES3[i] for i in keep], _LEAVES3[0]))
        bob = Measure(party="B", kraus=_BASIS15, children=tuple(outcome_children))
        branches.append(Measure(party="B", kraus=(wk,), children=(bob,)))
        qk = q @ qk
    root = Measure(party="A", kraus=tuple(alice_kraus), children=tuple(branches))
    return make_tree(root, label="twoway_mod3(d=5)")


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
    bras = tuple(_bra(w[:, b]) for b in range(4))
    _read_only(*rows, *bras)
    for party, kraus in (("A", rows), ("B", bras)):
        validate_tree(Measure(party=party, kraus=kraus, children=(_LEAVES3[0],) * 4))
    return rows, bras


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
    import, so the tree is not validated again here.
    """
    indices = tuple(tuple(int(x) for x in t) for t in indices)
    mes = lattice_triple_set(indices)
    hit = {_PAULI_CLASS[x ^ u, y ^ v] for (x, y), (u, v) in itertools.combinations(indices, 2)}
    c = next(c for c in range(5) if c not in hit)
    moves = [_MOVE[c, x, y].tolist() for x, y in indices]
    bobs = []
    for col in range(4):
        leaves = [_LEAVES3[0]] * 4
        for i, move in enumerate(moves):
            leaves[move[col]] = _LEAVES3[i]
        bobs.append(Measure(party="B", kraus=_CLASS_BRAS[c], children=tuple(leaves)))
    root = Measure(party="A", kraus=_CLASS_ROWS[c], children=tuple(bobs))
    return ProtocolTree(root=root, round_count=1, label=f"oneway[{mes.label}]")


def all_lattice_triples():
    """Every 3-subset of the sixteen two-qubit lattice states."""
    labels = [(x, y) for x in range(4) for y in range(4)]
    return list(itertools.combinations(labels, 3))
