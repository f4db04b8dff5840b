import numpy as np
import pytest

from locc_lab import oneway
from locc_lab.errors import BadPriors, NotCoisometry, SpecInvalid
from locc_lab.measurements import discrimination_matrix, validate_povm
from locc_lab.numerics import dag, frob, identity
from locc_lab.oneway import (
    INCONCLUSIVE,
    NULLSPACE_RTOL,
    ONE_WAY_IMPOSSIBLE,
    SCALAR_TOL,
    _upper_pairs,
    build_constraint_system,
    certify_impossible,
    check_isometry_witness,
    randomized_confusion,
    randomized_error_bound,
    randomized_error_exact,
    trace_coords,
)
from locc_lab.states import (
    DEFAULT_OMEGA,
    MaxEntSet,
    PAULI_X,
    PAULI_Z,
    build_family,
    cycle_permutation,
    even_spec,
    k_spec,
    mod3_spec,
)
from oracles import (
    NotDiagonal,
    averaged_operators,
    averaged_povm,
    builtin_triples_at,
    certify_impossible as oracle_certificate,
    eig_hermitian,
    hermitian_coords,
    hermitian_from_coords,
    nullspace,
    randomized_measurement_at,
    standardize_triple,
    success_probability,
)


def even4_ordered_ivu():
    """Even d=4 family reordered (identity, diagonal member, off-diagonal member)."""
    s = build_family(even_spec(4))
    return MaxEntSet(d=4, unitaries=(s.unitaries[0], s.unitaries[2], s.unitaries[1]))


# ------------------------------------------------------------- witnesses


def test_witness_cyclic_shifts_pass():
    x3 = cycle_permutation(3)
    s = MaxEntSet(d=3, unitaries=(identity(3), x3, x3 @ x3))
    rep = check_isometry_witness(s, identity(3))
    assert rep["pass"]


def test_witness_bell_pair_passes():
    s = MaxEntSet(d=2, unitaries=(identity(2), PAULI_X))
    assert check_isometry_witness(s, identity(2))["pass"]


def test_witness_even4_identity_fails():
    s = build_family(even_spec(4))
    rep = check_isometry_witness(s, identity(4))
    assert not rep["pass"]
    # the diagonal member contributes |gamma| = 1 on the diagonal
    assert abs(rep["worst"] - 1.0) <= 1e-12


def test_witness_rejects_non_coisometry():
    s = MaxEntSet(d=2, unitaries=(identity(2), PAULI_X))
    with pytest.raises(NotCoisometry):
        check_isometry_witness(s, np.ones((2, 3), dtype=complex))


# --------------------------------------------------------- constraint system


def test_constraint_shapes():
    assert build_constraint_system(build_family(even_spec(4))).shape == (6, 16)
    assert build_constraint_system(build_family(mod3_spec(5))).shape == (6, 25)


def test_constraints_vanish_on_identity():
    for s in builtin_triples_at(8):
        mat = build_constraint_system(s)
        assert np.abs(mat @ hermitian_coords(identity(s.d))).max() <= 1e-9


def test_hermitian_coords_roundtrip():
    rng = np.random.default_rng(13)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = g + dag(g)
    back = hermitian_from_coords(hermitian_coords(h), 5)
    assert frob(back - h) <= 1e-12
    # coordinates are an isometry for the Hilbert-Schmidt norm
    assert abs(np.linalg.norm(hermitian_coords(h)) - frob(h)) <= 1e-12


def test_trace_coords_pair_with_hermitian_coords():
    # Tr(t M) = trace_coords(t) . hermitian_coords(M), also for a batch of t
    rng = np.random.default_rng(29)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    h = g + dag(g)
    ts = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
    batch = trace_coords(ts, 6)
    for t, row in zip(ts, batch):
        assert abs(trace_coords(t, 6) @ hermitian_coords(h) - np.trace(t @ h)) <= 1e-12
        assert np.array_equal(row, trace_coords(t, 6))


def test_upper_pairs_table_is_triu_indices_read_only():
    for n in (1, 2, 3, 4, 17):
        i, j = _upper_pairs(n)
        ref_i, ref_j = np.triu_indices(n, 1)
        assert np.array_equal(i, ref_i) and np.array_equal(j, ref_j)
        assert i.dtype == ref_i.dtype and j.dtype == ref_j.dtype
        # one table per dimension, shared by every caller, so nobody may write it
        assert _upper_pairs(n)[0] is i
        with pytest.raises(ValueError, match="read-only"):
            i[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            j[...] = 0


def test_nullspace_single_state_is_everything():
    s = MaxEntSet(d=3, unitaries=(identity(3),))
    basis = nullspace(build_constraint_system(s))
    assert len(basis) == 9


def test_nullspace_basis_properties():
    s = build_family(even_spec(4))
    mat = build_constraint_system(s)
    basis = nullspace(mat)
    for a, na in enumerate(basis):
        assert np.abs(mat @ hermitian_coords(na)).max() <= 1e-9
        assert frob(na - dag(na)) <= 1e-12
        for b, nb in enumerate(basis):
            ip = np.trace(dag(na) @ nb).real
            assert abs(ip - (1.0 if a == b else 0.0)) <= 1e-9


def test_nullspace_even4_contains_identity_and_scalar_blocks_only():
    s = build_family(even_spec(4))
    basis = nullspace(build_constraint_system(s))
    # identity lies in the span
    coeffs = [np.trace(dag(n) @ identity(4)) for n in basis]
    recon = sum(c * n for c, n in zip(coeffs, basis))
    assert frob(recon - identity(4)) <= 1e-9
    # every top-left block is a multiple of I_2
    for n in basis:
        a = n[:2, :2]
        assert frob(a - np.trace(a) / 2 * identity(2)) <= 1e-9


def test_nullspace_degenerate_phases_has_nonscalar_block():
    s = build_family(even_spec(4, omega=1.0, gamma=1.0))
    basis = nullspace(build_constraint_system(s))
    devs = [frob(n[:2, :2] - np.trace(n[:2, :2]) / 2 * identity(2)) for n in basis]
    assert max(devs) > 1e-3


# --------------------------------------------------------------- certificates


@pytest.mark.parametrize("d", [4, 6, 8, 10])
def test_certificate_even_family_impossible(d):
    c = certify_impossible(build_family(even_spec(d)))
    assert c.conclusion == ONE_WAY_IMPOSSIBLE
    # the top-left 2 x 2 block carries omega X and gamma Z
    assert c.forced_pair == (0, 1)
    assert c.residuals["max_scalar_deviation"] <= SCALAR_TOL


@pytest.mark.parametrize("d", [5, 8, 11])
def test_certificate_mod3_family_impossible(d):
    c = certify_impossible(build_family(mod3_spec(d)))
    assert c.conclusion == ONE_WAY_IMPOSSIBLE


@pytest.mark.parametrize("sign", [1, -1])
def test_certificate_ignores_the_mod3_degeneracy_locus(sign):
    # gamma = +-i omega^2 is the mod3 degeneracy locus, yet the certificate
    # still forces a pair there, by a wide rank cut
    w = DEFAULT_OMEGA
    spec = mod3_spec(5, omega=w, gamma=sign * 1j * w**2)
    assert not spec.is_generic
    c = certify_impossible(build_family(spec))
    assert c.conclusion == ONE_WAY_IMPOSSIBLE
    assert c.residuals["rank_cut_kept"] > 0.1


def test_certificate_degenerate_even4_inconclusive():
    s = build_family(even_spec(4, omega=1.0, gamma=1.0))
    c = certify_impossible(s)
    assert c.conclusion == INCONCLUSIVE
    assert c.forced_pair is None
    # reported as the verdict's margin, far from the forcing tolerance
    assert c.residuals["max_scalar_deviation"] > 1e-3


@pytest.mark.parametrize("d, slope", [(4, 0.5), (8, 0.433)])
@pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-7, 1e-5])
def test_certificate_conclusion_moves_with_its_rank_cut_near_the_even_locus(d, slope, eps):
    # omega = exp(i eps) sits eps from the real axis: the singular value that
    # separates the two conclusions is slope * eps, so the conclusion changes
    # only where it crosses NULLSPACE_RTOL, on the side of the cut it reports
    c = certify_impossible(build_family(even_spec(d, omega=np.exp(1j * eps))))
    if eps <= 1e-9:
        assert c.conclusion == INCONCLUSIVE
        assert c.residuals["rank_cut_dropped"] < NULLSPACE_RTOL
    else:
        assert c.conclusion == ONE_WAY_IMPOSSIBLE
        assert abs(c.residuals["rank_cut_kept"] - slope * eps) <= 0.2 * slope * eps


def test_certificate_dimensions_frozen():
    assert certify_impossible(build_family(even_spec(4))).nullspace_dim == 10
    assert certify_impossible(build_family(mod3_spec(5))).nullspace_dim == 20
    degenerate = build_family(even_spec(4, omega=1.0, gamma=1.0))
    assert certify_impossible(degenerate).nullspace_dim == 13


@pytest.mark.parametrize("r", [1, 3])
def test_certificate_k_state_reduction(r):
    c = certify_impossible(build_family(k_spec(4, r=r)))
    assert c.conclusion == INCONCLUSIVE
    assert c.reduction_holds is True
    assert c.residuals["max_reduction_residual"] <= 1e-9


def test_certificate_k3_reduction_concludes():
    # three-state member of the k-family matches the mod3 analysis
    from locc_lab.states import DEFAULT_GAMMA, DEFAULT_OMEGA

    s = build_family(
        k_spec(k=3, r=1, indices=[(0,), (1,), (3,)], alphas=[1.0, DEFAULT_OMEGA, DEFAULT_GAMMA])
    )
    c = certify_impossible(s)
    assert c.conclusion == ONE_WAY_IMPOSSIBLE
    assert c.forced_pair == (0, 1)
    assert c.reduction_holds is True


@pytest.mark.parametrize("k, indices", [(4, None), (3, ((0,), (1,), (3,)))])
def test_certificate_reduction_needs_spec_layout(k, indices):
    # a local monomial rotation keeps the set's spec but moves its blocks, so
    # the spec's Pauli products say nothing about the rotated constraints
    rng = np.random.default_rng(k)
    mes = build_family(k_spec(k=k, r=1, indices=indices))
    unrotated = certify_impossible(mes)
    assert unrotated.reduction_holds is True
    d = mes.d
    for _ in range(3):
        left, right = (np.eye(d)[rng.permutation(d)] * np.exp(2j * np.pi * rng.random(d)) for _ in range(2))
        rot = MaxEntSet(d=d, unitaries=tuple(left @ u @ right for u in mes.unitaries), spec=mes.spec)
        c = certify_impossible(rot)
        assert c.reduction_holds is None
        assert "max_reduction_residual" not in c.residuals
        assert c.conclusion == unrotated.conclusion
        assert oracle_certificate(rot)["reduction_holds"] is None


def test_certificate_spec_less_bell_pair_inconclusive():
    # any state set is accepted; (I, X) is one-way distinguishable, so no
    # pair may be forced, and the set it reads carries no family
    s = MaxEntSet(d=2, unitaries=(identity(2), PAULI_X))
    c = certify_impossible(s)
    assert c.conclusion == INCONCLUSIVE
    assert c.forced_pair is None
    assert c.residuals["max_scalar_deviation"] > SCALAR_TOL
    assert s.spec is None and "family" not in c.to_json()


def test_certificate_rejects_non_finite_unitaries():
    # a NaN must never reach the rank cut and come out as a verdict: the set
    # holding it is refused when it is made, so no certificate can read it
    s = build_family(even_spec(4))
    with pytest.raises(ValueError, match="NaN/Inf"):
        MaxEntSet(d=4, unitaries=(s.unitaries[0], s.unitaries[1] * np.nan, s.unitaries[2]), spec=s.spec)


def test_certificate_json():
    mes = build_family(even_spec(4))
    doc = certify_impossible(mes).to_json()
    assert doc["conclusion"] == ONE_WAY_IMPOSSIBLE
    assert doc["nullspace_dim"] == 10
    assert doc["forced_pair"] == [0, 1]
    assert {"max_scalar_deviation", "rank_cut_kept", "rank_cut_dropped"} <= doc["residuals"].keys()
    # the family is the set's spec, not echoed by the certificate
    assert mes.spec.kind == "even_d" and "family" not in doc


def test_witness_and_certificate_mutually_exclusive():
    for d in (4, 5, 6, 7, 8):
        for s in builtin_triples_at(d):
            witness = check_isometry_witness(s, identity(s.d))
            cert = certify_impossible(s)
            assert not (witness["pass"] and cert.conclusion == ONE_WAY_IMPOSSIBLE), s.label


def test_impossible_sets_remain_ppt_discriminable():
    # the central gap: one-way impossible, yet a PPT measurement is perfect
    from locc_lab.measurements import check_ppt, discrimination_matrix, ppt_discriminator

    for d in (4, 5, 6, 8):
        for s in builtin_triples_at(d):
            if certify_impossible(s).conclusion != ONE_WAY_IMPOSSIBLE:
                continue
            povm = ppt_discriminator(s)
            assert np.abs(discrimination_matrix(s, povm) - np.eye(3)).max() <= 1e-9
            assert check_ppt(povm).pass_, s.label


# ------------------------------------------------------ randomized protocol


def test_randomized_measurement_is_povm_and_pins_targets():
    rng = np.random.default_rng(101)
    s = even4_ordered_ivu()
    psi0, psi1 = s.states()[:2]
    for _ in range(1000):
        x = rng.uniform(size=4)
        p = randomized_measurement_at(s, x)
        pi0, pi1, pi2 = p.elements
        # completeness is exact by construction; remainder must stay PSD
        assert eig_hermitian((pi2 + dag(pi2)) / 2).eigenvalues[0] >= -1e-9
        assert abs(np.vdot(psi0, pi0 @ psi0) - 1.0) <= 1e-9
        assert abs(np.vdot(psi1, pi1 @ psi1) - 1.0) <= 1e-9
        assert frob(pi0 @ psi0 - psi0) <= 1e-9


def test_randomized_measurement_d2_bell_structure():
    s = MaxEntSet(d=2, unitaries=(identity(2), PAULI_Z, PAULI_X))
    p = randomized_measurement_at(s, np.zeros(2))
    pi0, pi1, pi2 = p.elements
    phi0, phi_z = s.states()[:2]
    assert frob(pi0 @ phi0 - phi0) <= 1e-12
    assert frob(pi1 @ phi_z - phi_z) <= 1e-12
    assert frob(pi2) <= 1e-12


def test_randomized_measurement_requires_diagonal_u1():
    s = build_family(mod3_spec(5))
    with pytest.raises(NotDiagonal):
        randomized_measurement_at(s, np.zeros(5))


def test_standardize_triple_mod3():
    # the oracle's rotated set is in the frame, and the library's confusion
    # reads its overlaps and its third state's diagonal without forming it
    given = build_family(mod3_spec(5))
    s = standardize_triple(given)
    assert s.unitaries.shape == (3, 5, 5) and not s.unitaries.flags.writeable
    assert frob(s.unitaries[0] - identity(5)) <= 1e-9
    u0, u1, u2 = s.unitaries
    assert frob(u1 - np.diag(np.diag(u1))) <= 1e-9
    leak = max(0.0, 1.0 - np.sum(np.abs(np.diagonal(u2)) ** 2) / 5) / 5
    row = [abs(np.vdot(u, u2)) ** 2 / 25 + leak for u in (u0, u1)]
    assert np.abs(randomized_confusion(given)[2] - [*row, 1 - sum(row)]).max() <= 1e-15


def test_standardize_triple_returns_in_frame_set_unchanged(monkeypatch):
    s = even4_ordered_ivu()  # u_0 = I and u_1 = diag(gamma, -1, 1, -1)
    assert standardize_triple(s) is s
    # in the frame the confusion reads U_2's own diagonal, with no eigenbasis
    for name in ("diagonalize_monomial", "diagonalize_unitary"):
        monkeypatch.setattr(oneway, name, lambda u: pytest.fail("a set in the frame needs no eigenbasis"))
    u0, u1, u2 = s.unitaries
    diagonal = np.diagonal(u2)
    leak = max(0.0, 1.0 - float(np.vdot(diagonal, diagonal).real) / 4) / 4
    row = [min(1.0, abs(np.vdot(u, u2)) ** 2 / 16 + leak) for u in (u0, u1)]
    assert randomized_confusion(s)[2].tolist() == [*row, max(0.0, 1.0 - sum(row))] == [0.25, 0.25, 0.5]


def test_monte_carlo_mean_matches_averaged_operators():
    rng = np.random.default_rng(7)
    s = even4_ordered_ivu()
    pi0, pi1 = averaged_operators(s)
    target = pi0 + pi1
    n = 10_000
    acc = np.zeros_like(target)
    for x in rng.uniform(size=(n, 4)):  # the same values as n draws of size 4
        p = randomized_measurement_at(s, x)
        acc += p.elements[0] + p.elements[1]
    err = frob(acc / n - target)
    assert err < 5 * frob(target) / np.sqrt(n)


def test_monte_carlo_third_state_leakage_mean():
    rng = np.random.default_rng(23)
    s = even4_ordered_ivu()
    psi2 = s.states()[2]
    n = 10_000
    vals = np.empty(n)
    for t, x in enumerate(rng.uniform(size=(n, 4))):
        p = randomized_measurement_at(s, x)
        vals[t] = np.real(np.vdot(psi2, (p.elements[0] + p.elements[1]) @ psi2))
    sigma = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - 2 / 4) <= 3 * sigma + 1e-12


def test_averaged_operators_fixed_points():
    s = even4_ordered_ivu()
    pi0, pi1 = averaged_operators(s)
    psi0, psi1, psi2 = s.states()
    assert abs(np.vdot(psi0, pi0 @ psi0) - 1.0) <= 1e-12
    assert abs(np.vdot(psi1, pi1 @ psi1) - 1.0) <= 1e-12
    # off-diagonal projector expectation: exactly 1 for the zero-diagonal member
    r4 = (pi0 - np.outer(psi0, psi0.conj())) * 4
    assert abs(np.vdot(psi2, r4 @ psi2) - 1.0) <= 1e-12
    assert np.abs(eig_hermitian(r4).eigenvalues).max() <= 1.0 + 1e-12


def test_averaged_povm_discrimination_matrix():
    s = even4_ordered_ivu()
    p = averaged_povm(s)
    assert validate_povm(p)["pass"]
    dm = discrimination_matrix(s, p)
    assert np.allclose(np.diag(dm), [1.0, 1.0, 1.0 - 2 / 4], atol=1e-9)
    assert np.allclose(dm[2, :2], [1 / 4, 1 / 4], atol=1e-9)
    assert abs(success_probability(s, p, [1 / 3] * 3) - 5 / 6) <= 1e-9


def test_randomized_error_even4_exact_sixth():
    err = randomized_error_exact(even4_ordered_ivu(), [1 / 3] * 3)
    assert abs(err - 1 / 6) <= 1e-12
    assert abs(err - randomized_error_bound(4)) <= 1e-9


def test_randomized_error_skewed_priors():
    err = randomized_error_exact(even4_ordered_ivu(), [0.5, 0.4, 0.1])
    assert abs(err - 0.05) <= 1e-12


def test_randomized_error_zero_prior_third_state():
    err = randomized_error_exact(even4_ordered_ivu(), [0.5, 0.5, 0.0])
    assert abs(err) <= 1e-12


def test_randomized_error_bound_all_builtins():
    for d in range(4, 17):
        for s in builtin_triples_at(d):
            err = randomized_error_exact(s, [1 / 3] * 3)
            assert err <= randomized_error_bound(s.d) + 1e-9, s.label


def test_randomized_error_rejects_bad_priors():
    s = even4_ordered_ivu()
    with pytest.raises(BadPriors):
        randomized_error_exact(s, [0.1, 0.4, 0.5])
    with pytest.raises(BadPriors):
        randomized_error_exact(s, [0.6, 0.6, -0.2])
    with pytest.raises(BadPriors):
        randomized_error_exact(s, [float("nan"), 0.5, 0.5])


def test_randomized_error_refuses_four_states_before_priors():
    s = build_family(k_spec(k=4, r=1))
    for priors in ([0.25] * 4, [1 / 3] * 3):
        with pytest.raises(SpecInvalid, match="exactly 3 states, got 4"):
            randomized_error_exact(s, priors)
