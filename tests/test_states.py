import functools
import json

import numpy as np
import pytest

from locc_lab.errors import DimensionMismatch, DuplicateStates, NotUnitary, SpecInvalid
from locc_lab.numerics import dag, frob, identity
from locc_lab.protocols import all_lattice_triples
from locc_lab.states import (
    DEFAULT_GAMMA,
    DEFAULT_OMEGA,
    GENERICITY_MARGIN,
    LATTICE,
    PAULI_X,
    PAULIS,
    PAULI_Z,
    EvenSpec,
    FamilySpec,
    KSpec,
    LatticeTripleSpec,
    MaxEntSet,
    Mod3Spec,
    build_family,
    check_orthogonal_mes,
    even_spec,
    k_spec,
    lattice_triple_set,
    mod3_spec,
    default_alphas,
)
from oracles import builtin_triples_at, state_of, std_mes


SPEC_TYPES = {t.kind: t for t in (EvenSpec, Mod3Spec, KSpec, LatticeTripleSpec)}


def spec_from_json(doc):
    """The spec of a to_json document, checked as it is made; omitted fields
    take their defaults, and a field the kind does not read is a TypeError."""
    fields = dict(doc)
    spec_type = SPEC_TYPES[fields.pop("kind")]
    for name in ("omega", "gamma"):
        if name in fields:
            fields[name] = complex(*fields[name])
    if "alphas" in fields:
        fields["alphas"] = tuple(complex(*a) for a in fields["alphas"])
    return spec_type(**fields)


def rand_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ----------------------------------------------------------- std_mes


def test_std_mes_d2():
    assert np.allclose(std_mes(2), np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_std_mes_d4():
    v = std_mes(4)
    assert abs(np.linalg.norm(v) - 1.0) <= 1e-12
    nz = v[v != 0]
    assert len(nz) == 4 and np.allclose(nz, 0.5)


def test_mes_overlap_is_normalized_trace():
    rng = np.random.default_rng(21)
    for d in (2, 5):
        u = rand_unitary(rng, d)
        overlap = np.vdot(std_mes(d), state_of(u))
        assert abs(overlap - np.trace(u) / d) <= 1e-12


# ----------------------------------------------------------- state_of


def test_state_of_identity():
    assert np.allclose(state_of(identity(3)), std_mes(3))


def test_state_of_even_d4_matches_tensor_form():
    s = build_family(even_spec(4))
    w = DEFAULT_OMEGA
    expected = np.zeros(16, dtype=complex)
    for a1, b1, amp1 in [(0, 0, w), (1, 1, 1)]:
        for a2, b2, amp2 in [(0, 1, 1), (1, 0, 1)]:
            expected[(a1 * 2 + a2) * 4 + (b1 * 2 + b2)] = amp1 * amp2 / 2
    assert np.linalg.norm(s.states()[1] - expected) <= 1e-12


def test_state_of_mod3_d5_matches_flattened_amplitudes():
    s = build_family(mod3_spec(5))
    w, g = DEFAULT_OMEGA, DEFAULT_GAMMA
    e1 = np.zeros(25, dtype=complex)
    e2 = np.zeros(25, dtype=complex)
    for a, b, amp in [(0, 1, w), (1, 0, w), (2, 3, 1), (3, 4, 1), (4, 2, 1)]:
        e1[a * 5 + b] = amp / np.sqrt(5)
    for a, b, amp in [(0, 0, g), (1, 1, -g), (2, 4, 1), (3, 2, 1), (4, 3, 1)]:
        e2[a * 5 + b] = amp / np.sqrt(5)
    assert np.linalg.norm(s.states()[1] - e1) <= 1e-12
    assert np.linalg.norm(s.states()[2] - e2) <= 1e-12


def test_state_equals_state_of_bit_for_bit():
    # MaxEntSet.states reads u^T / sqrt(d) with no product against |Phi>
    sets = [s for d in range(4, 41) for s in builtin_triples_at(d)]
    sets += [lattice_triple_set(t) for t in all_lattice_triples()]
    rng = np.random.default_rng(5)
    sets.append(MaxEntSet(d=6, unitaries=tuple(rand_unitary(rng, 6) for _ in range(3))))
    for s in sets:
        psi = s.states()
        assert psi.shape == (s.k, s.d * s.d), s.label
        for i in range(s.k):
            assert np.array_equal(psi[i], state_of(s.unitaries[i])), s.label


def test_state_refuses_nan():
    u = identity(3)
    u[1, 2] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        MaxEntSet(d=3, unitaries=(identity(3), u))


def test_set_checked_when_made():
    # no state, or a unitary of the wrong shape, is refused naming its index
    # and shape, before any verdict reads the set
    with pytest.raises(DimensionMismatch, match="at least one state"):
        MaxEntSet(d=4, unitaries=())
    with pytest.raises(DimensionMismatch, match="at least one state"):
        MaxEntSet(d=4, unitaries=np.zeros((0, 4, 4)))
    # d = 0 would pass the shape test and leave NaN residuals in every report
    with pytest.raises(DimensionMismatch, match=r"d >= 1, got d=0"):
        MaxEntSet(d=0, unitaries=(np.eye(0),))
    with pytest.raises(DimensionMismatch, match=r"unitary 0 has shape \(4, 4\), not \(5, 5\)"):
        MaxEntSet(d=5, unitaries=(np.eye(4),) * 3)
    with pytest.raises(DimensionMismatch, match=r"unitary 1 has shape \(3,\), not \(3, 3\)"):
        MaxEntSet(d=3, unitaries=(identity(3), np.ones(3)))
    u = identity(3)
    u[0, 0] = np.inf
    with pytest.raises(ValueError, match="NaN/Inf"):
        MaxEntSet(d=3, unitaries=(identity(3), u))


def test_every_builder_holds_one_read_only_stack():
    sets = [build_family(spec) for spec in (even_spec(8), mod3_spec(11), k_spec(k=4, r=2))]
    sets.append(lattice_triple_set(((0, 1), (2, 3), (3, 0))))
    for s in sets:
        u = s.unitaries
        assert type(u) is np.ndarray and u.dtype == np.complex128 and u.shape == (s.k, s.d, s.d), s.label
        assert not u.flags.writeable, s.label
    # a set checked when it was made stays as it was checked
    mes = build_family(even_spec(4))
    with pytest.raises(ValueError, match="read-only"):
        mes.unitaries[1][0, 0] = np.nan
    assert np.isfinite(mes.states()).all()


def test_set_copies_its_input_once_in_any_form():
    # a tuple, a list and a (k, d, d) array of real or complex rows give one
    # bit-for-bit equal complex128 stack, which later writes to the input
    # leave unchanged
    rows = [np.eye(3), np.roll(np.eye(3), 1, axis=0) * 1j]
    stack = np.array(rows)
    sets = [MaxEntSet(d=3, unitaries=tuple(rows)), MaxEntSet(d=3, unitaries=rows), MaxEntSet(d=3, unitaries=stack)]
    want = np.array(rows, dtype=complex)
    for s in sets:
        assert s.unitaries.dtype == np.complex128 and s.unitaries.tobytes() == want.tobytes()
    rows[1][0, 1] = np.nan
    stack[1, 0, 1] = np.nan
    for s in sets:
        assert s.unitaries.tobytes() == want.tobytes()


def test_sets_compare_by_identity():
    # two sets built from one spec hold equal arrays, yet are two sets; an
    # array field compared element-wise would raise instead of answering
    a, b = build_family(even_spec(4)), build_family(even_spec(4))
    assert a == a and a != b and not (a == b)


def test_sets_hash_by_identity():
    a, b = build_family(even_spec(4)), build_family(even_spec(4))
    assert hash(a) == hash(a) and len({a, b, a}) == 2
    assert {a: 1}[a] == 1


def test_state_of_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        state_of(np.ones((2, 2), dtype=complex))


# ------------------------------------------------------ family builders


@pytest.mark.parametrize("d", [4, 6, 10])
def test_even_family_structure(d):
    s = build_family(even_spec(d))
    m = d // 2
    u, v = s.unitaries[1], s.unitaries[2]
    assert np.array_equal(u[:2, :2], DEFAULT_OMEGA * PAULI_X)
    assert np.array_equal(v[:2, :2], DEFAULT_GAMMA * PAULI_Z)
    for blk in range(1, m):
        sl = slice(2 * blk, 2 * blk + 2)
        assert np.array_equal(u[sl, sl], PAULI_X)
        assert np.array_equal(v[sl, sl], PAULI_Z)
    assert check_orthogonal_mes(s)["pass"]


def test_even_family_degenerate_phases_built():
    spec = even_spec(4, omega=1.0, gamma=1.0)
    assert not spec.is_generic
    s = build_family(spec)
    assert check_orthogonal_mes(s)["pass"]


def test_genericity_is_a_distance_checked_against_the_margin():
    # omega = exp(i t) sits |sin t|, about t, from the real axis
    near, far = even_spec(4, omega=np.exp(1e-7j)), even_spec(4, omega=np.exp(1e-5j))
    assert abs(near.genericity()["omega_nonreal"] - 1e-7) <= 1e-20
    assert not near.is_generic and far.is_generic
    # both are built; the margin only sorts the reported distance
    assert build_family(near).spec.genericity()["omega_nonreal"] < GENERICITY_MARGIN
    assert build_family(far).spec.genericity()["omega_nonreal"] > GENERICITY_MARGIN


@pytest.mark.parametrize("d", [5, 8, 11])
def test_mod3_family_orthogonal(d):
    s = build_family(mod3_spec(d))
    assert check_orthogonal_mes(s)["pass"]


def test_mod3_builds_gamma_on_degeneracy_locus():
    w = DEFAULT_OMEGA
    for gamma in (1j * w**2, -1j * w**2):
        s = build_family(mod3_spec(5, omega=w, gamma=gamma))
        assert not s.spec.is_generic and check_orthogonal_mes(s)["pass"]


def test_mod3_rejects_wrong_dimension():
    with pytest.raises(SpecInvalid):
        mod3_spec(6)


def test_lattice_state_values():
    assert np.array_equal(LATTICE[0, 0], identity(4))
    assert np.array_equal(LATTICE[1, 3], np.kron(PAULI_X, PAULI_Z))


def test_lattice_table_is_kron_of_paulis_and_read_only():
    assert LATTICE.shape == (4, 4, 4, 4)
    for x in range(4):
        for y in range(4):
            assert np.array_equal(LATTICE[x, y], np.kron(PAULIS[x], PAULIS[y]))
    assert not LATTICE.flags.writeable
    with pytest.raises(ValueError):
        LATTICE[1, 2][0, 0] = 7.0


def test_lattice_states_pairwise_orthogonal():
    mats = [LATTICE[x, y] for x in range(4) for y in range(4)]
    for i in range(16):
        for j in range(16):
            t = np.trace(dag(mats[i]) @ mats[j])
            assert abs(t - (4.0 if i == j else 0.0)) <= 1e-12


def test_k_family_default_four_states():
    s = build_family(k_spec(k=4, r=1))
    assert s.d == 8 and s.k == 4
    rep = check_orthogonal_mes(s)
    assert rep["pass"]
    # orthogonality is exact in exact arithmetic; float residue stays tiny
    assert max(rep["pairwise_trace_residuals"].values()) <= 1e-12


def test_k_family_reduces_to_mod3_pattern():
    w, g = DEFAULT_OMEGA, DEFAULT_GAMMA
    ks = build_family(k_spec(k=3, r=1, indices=[(0,), (1,), (3,)], alphas=[1.0, w, g]))
    m3 = build_family(mod3_spec(5))
    for a, b in zip(ks.unitaries, m3.unitaries):
        assert np.array_equal(a, b)


def test_k_family_builds_degenerate_alphas():
    # (a0 conj(a1) a1 conj(a2))^4 = 1 when all alphas are equal
    s = build_family(k_spec(k=4, r=1, alphas=[1.0, 1.0, 1.0, 1.0]))
    assert s.spec.genericity() == {"phase_chain_1_nondegenerate": 0.0, "phase_chain_2_nondegenerate": 0.0}
    assert check_orthogonal_mes(s)["pass"]


def test_k_family_rejects_duplicate_base():
    with pytest.raises(DuplicateStates):
        build_family(k_spec(k=3, r=1, indices=[(0, 0), (0, 0), (1, 1)]))


def test_k_spec_refuses_repeated_labels_and_k_below_one():
    with pytest.raises(DuplicateStates):
        k_spec(k=3, indices=((0, 0), (0, 0), (1, 1)))
    doc = k_spec(k=3).to_json()
    doc["lattice_indices"] = [[0, 0], [0, 0], [1, 1]]
    with pytest.raises(DuplicateStates):
        spec_from_json(doc)
    for k in (0, -1):
        with pytest.raises(SpecInvalid, match="k >= 1"):
            k_spec(k=k)


def test_k_spec_refuses_r_below_one():
    # r = 0 would leave no cyclic block, r = -1 a negative dimension
    for r in (0, -1):
        with pytest.raises(SpecInvalid, match="k_state family needs r >= 1"):
            k_spec(k=3, r=r)
    doc = k_spec(k=3).to_json()
    doc.update(r=0)
    with pytest.raises(SpecInvalid, match="r >= 1"):
        spec_from_json(doc)


# -------------------------------------------------- check_orthogonal_mes


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8, 10])
def test_builtin_families_validate(d):
    for s in builtin_triples_at(d):
        rep = check_orthogonal_mes(s)
        assert rep["pass"], s.label
        assert max(rep["reduced_state_residuals"]) <= 1e-10


def test_duplicate_unitary_fails_with_residual_d():
    from locc_lab.states import MaxEntSet

    s = MaxEntSet(d=3, unitaries=(identity(3), identity(3)))
    rep = check_orthogonal_mes(s)
    assert not rep["pass"]
    assert abs(rep["pairwise_trace_residuals"][(0, 1)] - 3.0) <= 1e-12


def test_perturbed_unitary_reports_magnitude():
    rng = np.random.default_rng(17)
    from locc_lab.states import MaxEntSet

    e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u = identity(4) + 0.01 * e
    s = MaxEntSet(d=4, unitaries=(u,))
    rep = check_orthogonal_mes(s)
    got = rep["unitarity_residuals"][0]
    expected = frob(dag(u) @ u - identity(4))
    assert abs(got - expected) <= 1e-12
    assert got > 1e-3


class NonUnitaryFormula(FamilySpec):
    """A kind whose formula's element 1 misses unitarity by 1e-8."""

    kind, d, label = "non_unitary", 3, "non_unitary(d=3)"

    def unitaries(self):
        bad = identity(3)
        bad[0, 0] = 1.0 + 1e-8
        return identity(3), bad


class RepeatedFormula(FamilySpec):
    """A kind whose formula gives one state twice."""

    kind, d, label = "repeated", 3, "repeated(d=3)"

    def unitaries(self):
        return identity(3), identity(3)


def test_builder_set_check_messages():
    # the one builder refuses any kind's bad formula with today's
    # thresholds, naming the kind
    with pytest.raises(SpecInvalid, match="^non_unitary: element 1 is not unitary$"):
        build_family(NonUnitaryFormula())
    with pytest.raises(SpecInvalid, match=r"^repeated: states 0,1 not orthogonal \(\|tr\|=3.000e\+00\)$"):
        build_family(RepeatedFormula())
    ok = build_family(even_spec(6))
    assert check_orthogonal_mes(ok)["pass"]


def test_build_then_check_computes_the_residuals_once(monkeypatch):
    calls = []
    compute = MaxEntSet.residuals.func

    def counted(mes):
        calls.append(mes)
        return compute(mes)

    prop = functools.cached_property(counted)
    prop.__set_name__(MaxEntSet, "residuals")
    monkeypatch.setattr(MaxEntSet, "residuals", prop)
    for spec in (even_spec(8), LatticeTripleSpec(((0, 0), (1, 1), (2, 3)))):
        calls.clear()
        mes = build_family(spec)
        check_orthogonal_mes(mes)
        check_orthogonal_mes(mes, tol=1e-3)
        assert calls == [mes]


@pytest.mark.parametrize(
    "spec", [even_spec(8), mod3_spec(11), k_spec(k=4, r=2), LatticeTripleSpec(((0, 0), (1, 1), (2, 3)))]
)
def test_report_of_a_built_set_is_that_of_a_fresh_set(spec):
    # the kept residuals give the report a set made from the same unitaries gives, bit for bit
    mes = build_family(spec)
    check_orthogonal_mes(mes)
    got, want = check_orthogonal_mes(mes), check_orthogonal_mes(MaxEntSet(d=mes.d, unitaries=spec.unitaries()))
    assert got == want and repr(got) == repr(want)


def test_a_report_is_fresh_on_every_call():
    mes = build_family(mod3_spec(8))
    report = check_orthogonal_mes(mes)
    want = repr(report)
    report["unitarity_residuals"][0] = 7.0
    report["pairwise_trace_residuals"][(0, 1)] = 7.0
    report["reduced_state_residuals"].clear()
    assert repr(check_orthogonal_mes(mes)) == want
    unitarity, gram = mes.residuals
    assert not unitarity.flags.writeable and not gram.flags.writeable
    assert unitarity.shape == (3,) and gram.shape == (3, 3)


# -------------------------------------------------------- spec handling


def test_spec_json_roundtrip():
    for spec in (even_spec(6), mod3_spec(8), k_spec(k=4, r=3)):
        doc = json.loads(json.dumps(spec.to_json()))
        back = spec_from_json(doc)
        assert back == spec


def test_spec_rejects_nonunit_phase():
    with pytest.raises(SpecInvalid):
        even_spec(4, omega=2.0)


def test_default_alphas_are_unit_modulus():
    for a in default_alphas(6):
        assert abs(abs(a) - 1.0) <= 1e-12


def test_lattice_triple_set_distinctness():
    s = lattice_triple_set([(0, 0), (1, 1), (2, 3)])
    assert check_orthogonal_mes(s)["pass"]
    with pytest.raises(DuplicateStates):
        lattice_triple_set([(0, 0), (0, 0), (2, 3)])


@pytest.mark.parametrize("triple", [((4, 0), (1, 1), (2, 2)), ((-1, 0), (1, 1), (2, 2)), ((0, 0), (0, 1), (0, -1))])
def test_lattice_triple_set_rejects_labels_out_of_range(triple):
    # a negative label would otherwise index the table from its end
    with pytest.raises(SpecInvalid, match="0..3"):
        lattice_triple_set(triple)


def lattice_triple_doc(triple):
    return {"kind": "lattice_triple", "lattice_indices": [list(t) for t in triple]}


@pytest.mark.parametrize("triple", [((4, 0), (1, 1), (2, 2)), ((-1, 0), (1, 1), (2, 2)), ((0, 0), (0, 1), (0, -1))])
def test_lattice_triple_spec_rejects_labels_out_of_range(triple):
    with pytest.raises(SpecInvalid, match="0..3"):
        LatticeTripleSpec(triple)
    with pytest.raises(SpecInvalid, match="0..3"):
        spec_from_json(lattice_triple_doc(triple))


@pytest.mark.parametrize("triple", [((0, 1), (0, 1), (2, 2)), ((3, 3), (1, 2), (3, 3))])
def test_lattice_triple_spec_rejects_repeated_pairs(triple):
    with pytest.raises(DuplicateStates):
        LatticeTripleSpec(triple)
    with pytest.raises(DuplicateStates):
        spec_from_json(lattice_triple_doc(triple))


def test_lattice_triple_spec_rejects_labels_that_are_not_pairs():
    with pytest.raises(SpecInvalid, match="three index pairs"):
        LatticeTripleSpec(((0, 1), (1, 2, 3), (2, 2)))


A1 = DEFAULT_OMEGA


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: EvenSpec(4, omega=2.0), SpecInvalid, "omega must be finite with unit modulus, got omega=2.0"),
        (lambda: Mod3Spec(5, gamma=complex("nan")), SpecInvalid,
         "gamma must be finite with unit modulus, got gamma=(nan+0j)"),
        (lambda: KSpec(((0,), (1,)), 1, (1.0, 0.5)), SpecInvalid,
         "every alpha must be finite with unit modulus, got 0.5"),
        (lambda: EvenSpec(5), SpecInvalid, "even_d family needs even d >= 4, got d=5"),
        (lambda: EvenSpec(2), SpecInvalid, "even_d family needs even d >= 4, got d=2"),
        (lambda: Mod3Spec(6), SpecInvalid, "mod3 family needs d = 2 + 3r, r >= 1, got d=6"),
        (lambda: Mod3Spec(2), SpecInvalid, "mod3 family needs d = 2 + 3r, r >= 1, got d=2"),
        (lambda: KSpec((), 1, ()), SpecInvalid, "k_state family needs k >= 1, got k=0"),
        (lambda: KSpec(((0,), (1,)), 0, (1.0, A1)), SpecInvalid, "k_state family needs r >= 1, got r=0"),
        (lambda: KSpec(((0, 0), (1,)), 1, (1.0, A1)), SpecInvalid,
         "lattice_indices tuples must all have the same length"),
        (lambda: KSpec(((0,), (4,)), 1, (1.0, A1)), SpecInvalid, "lattice indices must lie in 0..3"),
        (lambda: KSpec(((1, 2), (1, 2)), 1, (1.0, A1)), DuplicateStates,
         "base lattice states must be distinct, got ((1, 2), (1, 2))"),
        # a label that is no integer in 0..3 is refused, so k <= m^2 always holds
        (lambda: KSpec(((0,), (1,), (2,), (0.5,), (1.5,)), 1, (1.0,) * 5), SpecInvalid,
         "lattice indices must lie in 0..3"),
        (lambda: KSpec(((0,), (1,)), 1, (1.0,)), SpecInvalid, "need one alpha per state"),
        (lambda: LatticeTripleSpec(((0, 0), (1, 1))), SpecInvalid,
         "lattice_triple family needs d=4 and three index pairs"),
        (lambda: LatticeTripleSpec(((0, 0), (1, 1), (2, 4))), SpecInvalid, "lattice indices must lie in 0..3"),
        (lambda: LatticeTripleSpec(((0, 0), (2, 2), (0, 0))), DuplicateStates,
         "need three distinct index pairs, got ((0, 0), (2, 2), (0, 0))"),
    ],
)
def test_every_invalid_spec_is_refused_when_made(make, error, message):
    with pytest.raises(error) as caught:
        make()
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "make",
    [
        lambda: EvenSpec(d=4, k=7),
        lambda: EvenSpec(4, r=1),
        lambda: EvenSpec(4, lattice_indices=((5, 5),)),
        lambda: Mod3Spec(5, r=1),
        lambda: KSpec(((0,), (1,)), 1, (1.0, A1), d=4),
        lambda: KSpec(((0,), (1,)), 1, (1.0, A1), omega=A1),
        lambda: LatticeTripleSpec(((0, 0), (1, 1), (2, 2)), d=4),
    ],
)
def test_a_field_the_kind_does_not_read_is_a_type_error(make):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        make()


def test_spec_json_holds_only_the_kinds_fields():
    keys = {
        "even_d": {"kind", "d", "omega", "gamma"},
        "mod3": {"kind", "d", "omega", "gamma"},
        "k_state": {"kind", "lattice_indices", "r", "alphas"},
        "lattice_triple": {"kind", "lattice_indices"},
    }
    for spec in (even_spec(4), mod3_spec(8), k_spec(k=3, r=2), LatticeTripleSpec(((0, 0), (1, 1), (2, 3)))):
        assert set(spec.to_json()) == keys[spec.kind]
    # derived values are read from the fields: mod3 r from d, k and d from the labels and r
    assert mod3_spec(11).r == 3 and (k_spec(k=3, r=2).k, k_spec(k=3, r=2).d) == (3, 4 + 3 * 2)
    assert LatticeTripleSpec([[0, 0], [1, 1], [2, 3]]).lattice_indices == ((0, 0), (1, 1), (2, 3))


def test_build_family_dispatches_on_the_spec_type():
    triple = ((0, 0), (1, 1), (2, 3))
    labels = ("even_d(d=6)", "mod3(d=8)", "k_state(k=3,d=10)", "lattice((0, 0), (1, 1), (2, 3))")
    for spec, label in zip((even_spec(6), mod3_spec(8), k_spec(k=3, r=2), LatticeTripleSpec(triple)), labels):
        mes = build_family(spec)
        assert mes.spec == spec and mes.label == spec.label == label
        assert np.array_equal(mes.unitaries, np.array(spec.unitaries()))
    assert build_family(LatticeTripleSpec(triple)).label == lattice_triple_set(triple).label
    with pytest.raises(SpecInvalid, match="no construction rule for object"):
        build_family(object())


def test_lattice_triple_labels_are_python_ints():
    mes = lattice_triple_set(np.array([[0, 0], [1, 1], [2, 3]]))
    assert mes.label == "lattice((0, 0), (1, 1), (2, 3))"
    assert all(type(x) is int for t in mes.spec.lattice_indices for x in t)


def test_k_spec_labels_are_python_ints():
    spec = k_spec(k=3, r=1, indices=np.array([[0, 0], [1, 1], [2, 3]]))
    assert spec.lattice_indices == ((0, 0), (1, 1), (2, 3))
    assert all(type(x) is int for t in spec.lattice_indices for x in t)
    assert build_family(spec).label == "k_state(k=3,d=7)"


def test_a_label_that_is_not_an_integer_is_refused_when_made():
    # 1.0 lies in 0..3 as a number but indexes no lattice state
    with pytest.raises(SpecInvalid, match="lattice indices must lie in 0..3"):
        LatticeTripleSpec(((0, 0), (1.0, 1), (2, 3)))
    with pytest.raises(SpecInvalid, match="lattice indices must lie in 0..3"):
        k_spec(k=2, indices=((0,), (np.float64(1.0),)))


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1.0, float("nan"))])
def test_spec_rejects_non_finite_phases(bad):
    with pytest.raises(SpecInvalid, match="finite"):
        even_spec(4, omega=bad)
    with pytest.raises(SpecInvalid, match="finite"):
        mod3_spec(5, gamma=bad)
    with pytest.raises(SpecInvalid, match="finite"):
        k_spec(k=3, r=1, indices=((0,), (1,), (3,)), alphas=(1.0, bad, 1.0))
