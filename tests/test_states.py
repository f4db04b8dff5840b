import json

import numpy as np
import pytest

from locc_lab.errors import DuplicateStates, NotUnitary, SpecInvalid
from locc_lab.numerics import dag, frob, identity
from locc_lab.states import (
    DEFAULT_GAMMA,
    DEFAULT_OMEGA,
    LATTICE,
    PAULI_X,
    PAULIS,
    PAULI_Z,
    FamilySpec,
    build_even_family,
    build_k_family,
    build_lattice_state,
    build_mod3_family,
    builtin_triples_at,
    check_orthogonal_mes,
    even_spec,
    k_spec,
    lattice_triple_set,
    mod3_spec,
    default_alphas,
    state_of,
    std_mes,
)


def spec_from_json(doc):
    """The validated FamilySpec of a FamilySpec.to_json document; omitted
    fields take their defaults."""

    def j2c(v):
        return complex(v[0], v[1])

    return FamilySpec(
        kind=doc["kind"],
        d=int(doc["d"]),
        k=int(doc.get("k", 3)),
        r=int(doc.get("r", 1)),
        omega=j2c(doc.get("omega", [DEFAULT_OMEGA.real, DEFAULT_OMEGA.imag])),
        gamma=j2c(doc.get("gamma", [DEFAULT_GAMMA.real, DEFAULT_GAMMA.imag])),
        alphas=tuple(j2c(a) for a in doc.get("alphas", [])),
        lattice_indices=tuple(tuple(t) for t in doc.get("lattice_indices", [])),
    ).validate()


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
    s = build_even_family(even_spec(4))
    w = DEFAULT_OMEGA
    expected = np.zeros(16, dtype=complex)
    for a1, b1, amp1 in [(0, 0, w), (1, 1, 1)]:
        for a2, b2, amp2 in [(0, 1, 1), (1, 0, 1)]:
            expected[(a1 * 2 + a2) * 4 + (b1 * 2 + b2)] = amp1 * amp2 / 2
    assert np.linalg.norm(s.state(1) - expected) <= 1e-12


def test_state_of_mod3_d5_matches_flattened_amplitudes():
    s = build_mod3_family(mod3_spec(5))
    w, g = DEFAULT_OMEGA, DEFAULT_GAMMA
    e1 = np.zeros(25, dtype=complex)
    e2 = np.zeros(25, dtype=complex)
    for a, b, amp in [(0, 1, w), (1, 0, w), (2, 3, 1), (3, 4, 1), (4, 2, 1)]:
        e1[a * 5 + b] = amp / np.sqrt(5)
    for a, b, amp in [(0, 0, g), (1, 1, -g), (2, 4, 1), (3, 2, 1), (4, 3, 1)]:
        e2[a * 5 + b] = amp / np.sqrt(5)
    assert np.linalg.norm(s.state(1) - e1) <= 1e-12
    assert np.linalg.norm(s.state(2) - e2) <= 1e-12


def test_state_of_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        state_of(np.ones((2, 2), dtype=complex))


# ------------------------------------------------------ family builders


@pytest.mark.parametrize("d", [4, 6, 10])
def test_even_family_structure(d):
    s = build_even_family(even_spec(d))
    m = d // 2
    u, v = s.unitaries[1], s.unitaries[2]
    assert np.array_equal(u[:2, :2], DEFAULT_OMEGA * PAULI_X)
    assert np.array_equal(v[:2, :2], DEFAULT_GAMMA * PAULI_Z)
    for blk in range(1, m):
        sl = slice(2 * blk, 2 * blk + 2)
        assert np.array_equal(u[sl, sl], PAULI_X)
        assert np.array_equal(v[sl, sl], PAULI_Z)
    assert check_orthogonal_mes(s)["pass"]


def test_even_family_degenerate_phases_rejected_then_forced():
    spec = even_spec(4, omega=1.0, gamma=1.0)
    assert not spec.is_generic
    with pytest.raises(SpecInvalid):
        build_even_family(spec)
    s = build_even_family(spec, allow_degenerate=True)
    assert check_orthogonal_mes(s)["pass"]


@pytest.mark.parametrize("d", [5, 8, 11])
def test_mod3_family_orthogonal(d):
    s = build_mod3_family(mod3_spec(d))
    assert check_orthogonal_mes(s)["pass"]


def test_mod3_rejects_gamma_on_degeneracy_locus():
    w = DEFAULT_OMEGA
    with pytest.raises(SpecInvalid):
        build_mod3_family(mod3_spec(5, omega=w, gamma=1j * w**2))


def test_mod3_rejects_wrong_dimension():
    with pytest.raises(SpecInvalid):
        mod3_spec(6)


def test_lattice_state_values():
    assert np.array_equal(build_lattice_state(0, 0), identity(4))
    assert np.array_equal(build_lattice_state(1, 3), np.kron(PAULI_X, PAULI_Z))


def test_lattice_table_is_kron_of_paulis_and_read_only():
    assert LATTICE.shape == (4, 4, 4, 4)
    for x in range(4):
        for y in range(4):
            assert np.array_equal(LATTICE[x, y], np.kron(PAULIS[x], PAULIS[y]))
    assert not LATTICE.flags.writeable
    with pytest.raises(ValueError):
        build_lattice_state(1, 2)[0, 0] = 7.0


def test_lattice_states_pairwise_orthogonal():
    mats = [build_lattice_state(x, y) for x in range(4) for y in range(4)]
    for i in range(16):
        for j in range(16):
            t = np.trace(dag(mats[i]) @ mats[j])
            assert abs(t - (4.0 if i == j else 0.0)) <= 1e-12


def test_k_family_default_four_states():
    s = build_k_family(k_spec(k=4, r=1))
    assert s.d == 8 and s.k == 4
    rep = check_orthogonal_mes(s)
    assert rep["pass"]
    # orthogonality is exact in exact arithmetic; float residue stays tiny
    assert max(rep["pairwise_trace_residuals"].values()) <= 1e-12


def test_k_family_reduces_to_mod3_pattern():
    w, g = DEFAULT_OMEGA, DEFAULT_GAMMA
    ks = build_k_family(k_spec(k=3, r=1, indices=[(0,), (1,), (3,)], alphas=[1.0, w, g]))
    m3 = build_mod3_family(mod3_spec(5))
    for a, b in zip(ks.unitaries, m3.unitaries):
        assert np.array_equal(a, b)


def test_k_family_rejects_degenerate_alphas():
    # (a0 conj(a1) a1 conj(a2))^4 = 1 when all alphas are equal
    with pytest.raises(SpecInvalid):
        build_k_family(k_spec(k=4, r=1, alphas=[1.0, 1.0, 1.0, 1.0]))


def test_k_family_rejects_duplicate_base():
    with pytest.raises(DuplicateStates):
        build_k_family(k_spec(k=3, r=1, indices=[(0, 0), (0, 0), (1, 1)]))


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
    doc.update(r=0, d=4)
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


def test_builder_set_check_messages():
    # the builders' guard reads check_orthogonal_mes with today's thresholds
    from locc_lab.states import MaxEntSet, _checked

    bad = identity(3).copy()
    bad[0, 0] = 1.0 + 1e-8
    with pytest.raises(SpecInvalid, match="even_d: element 1 is not unitary"):
        _checked(MaxEntSet(d=3, unitaries=(identity(3), bad)), "even_d")
    with pytest.raises(SpecInvalid, match=r"mod3: states 0,1 not orthogonal \(\|tr\|=3.000e\+00\)"):
        _checked(MaxEntSet(d=3, unitaries=(identity(3), identity(3))), "mod3")
    ok = build_even_family(even_spec(6))
    assert _checked(ok, "even_d") is ok


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
    return {"kind": "lattice_triple", "d": 4, "lattice_indices": [list(t) for t in triple]}


@pytest.mark.parametrize("triple", [((4, 0), (1, 1), (2, 2)), ((-1, 0), (1, 1), (2, 2)), ((0, 0), (0, 1), (0, -1))])
def test_lattice_triple_spec_rejects_labels_out_of_range(triple):
    with pytest.raises(SpecInvalid, match="0..3"):
        FamilySpec(kind="lattice_triple", d=4, lattice_indices=triple).validate()
    with pytest.raises(SpecInvalid, match="0..3"):
        spec_from_json(lattice_triple_doc(triple))


@pytest.mark.parametrize("triple", [((0, 1), (0, 1), (2, 2)), ((3, 3), (1, 2), (3, 3))])
def test_lattice_triple_spec_rejects_repeated_pairs(triple):
    with pytest.raises(DuplicateStates):
        FamilySpec(kind="lattice_triple", d=4, lattice_indices=triple).validate()
    with pytest.raises(DuplicateStates):
        spec_from_json(lattice_triple_doc(triple))


def test_lattice_triple_spec_rejects_labels_that_are_not_pairs():
    with pytest.raises(SpecInvalid, match="three index pairs"):
        FamilySpec(kind="lattice_triple", d=4, lattice_indices=((0, 1), (1, 2, 3), (2, 2))).validate()


@pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1.0, float("nan"))])
def test_spec_rejects_non_finite_phases(bad):
    with pytest.raises(SpecInvalid, match="finite"):
        even_spec(4, omega=bad)
    with pytest.raises(SpecInvalid, match="finite"):
        mod3_spec(5, gamma=bad)
    with pytest.raises(SpecInvalid, match="finite"):
        k_spec(k=3, r=1, indices=((0,), (1,), (3,)), alphas=(1.0, bad, 1.0))
