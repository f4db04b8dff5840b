import functools
import tracemalloc

import numpy as np
import pytest

from locc_lab.errors import BadPriors, DimensionMismatch
from locc_lab.measurements import (
    Povm,
    check_ppt,
    discrimination_matrix,
    ppt_discriminator,
    pt_floor,
    validate_povm,
)
from locc_lab.numerics import identity
from locc_lab.states import (
    MaxEntSet,
    PAULI_X,
    build_family,
    LATTICE,
    even_spec,
    mod3_spec,
)
from oracles import builtin_triples_at, std_mes, success_probability


def basis_projectors(n):
    return tuple(np.diag(np.eye(n)[i]).astype(complex) for i in range(n))


# -------------------------------------------------------- validate_povm


def test_validate_basis_projectors():
    p = Povm(elements=basis_projectors(4), dims=(4,))
    rep = validate_povm(p)
    assert rep["pass"]
    assert rep["completeness_residual"] == 0.0
    assert max(rep["hermiticity_residuals"]) == 0.0


def test_validate_ppt_discriminator_d6():
    s = build_family(even_spec(6))
    rep = validate_povm(ppt_discriminator(s), tol=1e-10)
    assert rep["pass"]


def test_validate_scaled_elements_completeness_residual():
    n = 4
    p = Povm(elements=tuple(1.01 * m for m in basis_projectors(n)), dims=(n,))
    rep = validate_povm(p)
    assert not rep["pass"]
    assert abs(rep["completeness_residual"] - 0.01 * np.sqrt(n)) <= 1e-12


# ----------------------------------------------------- ppt_discriminator


def test_discriminator_floor_even_d4():
    s = build_family(even_spec(4))
    rep = check_ppt(ppt_discriminator(s))
    assert abs(pt_floor(3, 4) - 0.0) <= 1e-15
    assert min(rep.min_pt_eigenvalues) >= pt_floor(3, 4) - 1e-9
    assert rep.pass_


def test_discriminator_floor_d6_is_one_ninth():
    s = build_family(even_spec(6))
    rep = check_ppt(ppt_discriminator(s))
    assert abs(pt_floor(3, 6) - 1 / 9) <= 1e-15
    assert min(rep.min_pt_eigenvalues) >= 1 / 9 - 1e-9


def test_discriminator_bell_pair():
    s = MaxEntSet(d=2, unitaries=(identity(2), PAULI_X))
    p = ppt_discriminator(s)
    assert validate_povm(p)["pass"]
    assert np.allclose(discrimination_matrix(s, p), np.eye(2), atol=1e-12)


def test_discriminator_fails_pt_on_lattice_set_sharing_a_bell_factor():
    # four states sharing the first Bell factor, k = 4 > d/2 + 1 = 3: the
    # canonical measurement is built and complete, and check_ppt finds it
    # leaves PPT (Yu, Duan and Ying, PRL 109, 020506 (2012))
    lat = MaxEntSet(
        d=4,
        unitaries=tuple(LATTICE[0, y] for y in range(4)),
    )
    p = ppt_discriminator(lat)
    assert validate_povm(p)["pass"]
    assert np.allclose(discrimination_matrix(lat, p), np.eye(4), atol=1e-12)
    rep = check_ppt(p)
    assert not rep.pass_
    assert abs(min(rep.min_pt_eigenvalues) - (-0.125)) <= 1e-12


def test_discriminator_is_built_on_the_states():
    s = build_family(mod3_spec(5))
    p = ppt_discriminator(s)
    assert p.basis.shape == (3, 25) and p.scalars == (1 / 3,) * 3
    for i, c in enumerate(p.elements):
        assert np.array_equal(c, np.diag(np.eye(3)[i] - 1 / 3))


@pytest.mark.parametrize("field", ["basis", "scalars"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_basis_or_scalar_rejected(field, bad):
    p = ppt_discriminator(build_family(even_spec(4)))
    basis, scalars = p.basis.copy(), list(p.scalars)
    if field == "basis":
        basis[1, 5] = bad
    else:
        scalars[2] = bad
    bad_p = Povm(elements=p.elements, dims=p.dims, basis=basis, scalars=tuple(scalars))
    for check in (validate_povm, check_ppt):
        with pytest.raises(ValueError, match="NaN/Inf"):
            check(bad_p)


def test_basis_of_wrong_width_rejected():
    p = ppt_discriminator(build_family(even_spec(4)))
    narrow = Povm(elements=p.elements, dims=p.dims, basis=p.basis[:, :15], scalars=p.scalars)
    for check in (validate_povm, check_ppt):
        with pytest.raises(DimensionMismatch):
            check(narrow)
    with pytest.raises(DimensionMismatch):
        discrimination_matrix(build_family(even_spec(4)), narrow)


def test_ppt_verify_at_d64_allocates_no_dense_operator():
    # one d^2 x d^2 complex operator alone would take 256 MB here
    s = build_family(even_spec(64))
    tracemalloc.start()
    try:
        p = ppt_discriminator(s)
        assert check_ppt(p).pass_
        assert np.abs(discrimination_matrix(s, p) - np.eye(3)).max() <= 1e-9
        assert validate_povm(p)["pass"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ------------------------------------------------------------ check_ppt


def test_check_ppt_separable_projector():
    e00 = np.zeros((4, 4), dtype=complex)
    e00[0, 0] = 1.0
    p = Povm(elements=(e00, identity(4) - e00), dims=(2, 2))
    rep = check_ppt(p)
    assert abs(rep.min_pt_eigenvalues[0]) <= 1e-12
    assert rep.pass_


def test_check_ppt_mes_projector_fails():
    d = 4
    phi = std_mes(d)
    proj = np.outer(phi, phi.conj())
    p = Povm(elements=(proj, identity(d * d) - proj), dims=(d, d))
    rep = check_ppt(p)
    assert abs(rep.min_pt_eigenvalues[0] - (-1 / d)) <= 1e-12
    assert not rep.pass_


def test_check_ppt_discriminator_mod3_d5():
    s = build_family(mod3_spec(5))
    rep = check_ppt(ppt_discriminator(s))
    assert rep.pass_
    assert abs(pt_floor(3, 5) - 1 / 15) <= 1e-15
    assert min(rep.min_pt_eigenvalues) >= 1 / 15 - 1e-9


@pytest.mark.parametrize("d", [6, 64, 200])
def test_ppt_margin_nonnegative_on_attained_floor(d):
    # the even family's PT minimum sits on the floor up to rounding; the
    # margin is taken against the check's own tolerance, so it cannot read
    # negative on a passing verdict
    rep = check_ppt(ppt_discriminator(build_family(even_spec(d))), tol=1e-9)
    assert rep.pass_ and rep.tol == 1e-9
    assert rep.margin >= 0
    assert rep.margin == min(rep.min_pt_eigenvalues) - (rep.bound - rep.tol)
    assert rep.to_json()["tol"] == 1e-9


def test_even_family_distinct_blocks_do_not_grow_with_d():
    # the PT blocks grow as d^2, but only the few phased levels differ
    reports = [check_ppt(ppt_discriminator(build_family(even_spec(d)))) for d in (8, 40, 200)]
    assert [rep.blocks for rep in reports] == [d * d // 4 + d // 2 for d in (8, 40, 200)]
    assert [rep.distinct_blocks for rep in reports] == [8, 8, 8]
    assert [rep.largest_block for rep in reports] == [4, 4, 4]


def test_empty_povm_rejected():
    p = Povm(elements=(), dims=(2, 2))
    for check in (validate_povm, check_ppt):
        with pytest.raises(DimensionMismatch, match="at least one element"):
            check(p)


def test_frame_built_once_per_povm(monkeypatch):
    # the three checks of one POVM share its checked frame
    calls = []
    build = Povm._frame.func
    counted = functools.cached_property(lambda p: calls.append(1) or build(p))
    counted.__set_name__(Povm, "_frame")
    monkeypatch.setattr(Povm, "_frame", counted)
    mes = build_family(even_spec(8))
    povm = ppt_discriminator(mes)
    assert check_ppt(povm).pass_ and validate_povm(povm)["pass"]
    assert np.abs(discrimination_matrix(mes, povm) - np.eye(3)).max() <= 1e-12
    assert len(calls) == 1


def test_check_ppt_requires_bipartite_dims():
    p = Povm(elements=basis_projectors(4), dims=(4,))
    with pytest.raises(DimensionMismatch):
        check_ppt(p)


# ------------------------------------------------- discrimination matrix


@pytest.mark.parametrize("d", [4, 5, 6, 8])
def test_discriminator_is_exact_on_builtins(d):
    for s in builtin_triples_at(d):
        dm = discrimination_matrix(s, ppt_discriminator(s))
        assert np.abs(dm - np.eye(s.k)).max() <= 1e-9, s.label
        assert np.allclose(dm.sum(axis=1), 1.0, atol=1e-10)


def test_maximally_mixed_povm_gives_uniform_rows():
    s = build_family(even_spec(4))
    k, n = s.k, s.d * s.d
    p = Povm(elements=tuple(identity(n) / k for _ in range(k)), dims=(s.d, s.d))
    dm = discrimination_matrix(s, p)
    assert np.allclose(dm, 1.0 / k, atol=1e-12)


def test_discrimination_matrix_size_mismatch():
    s = build_family(even_spec(4))
    p = Povm(elements=basis_projectors(16)[:2], dims=(4, 4))
    with pytest.raises(DimensionMismatch):
        discrimination_matrix(s, p)


# --------------------------------------------------- success_probability


def test_success_perfect_discriminator():
    s = build_family(mod3_spec(5))
    p = ppt_discriminator(s)
    for priors in ([1 / 3] * 3, [0.5, 0.3, 0.2]):
        assert abs(success_probability(s, p, priors) - 1.0) <= 1e-9


def test_success_maximally_mixed():
    s = build_family(even_spec(4))
    k, n = s.k, s.d * s.d
    p = Povm(elements=tuple(identity(n) / k for _ in range(k)), dims=(s.d, s.d))
    assert abs(success_probability(s, p, [1 / 3] * 3) - 1 / 3) <= 1e-12


def test_success_rejects_bad_priors():
    s = build_family(even_spec(4))
    p = ppt_discriminator(s)
    with pytest.raises(BadPriors):
        success_probability(s, p, [0.5, 0.5])
    with pytest.raises(BadPriors):
        success_probability(s, p, [0.7, 0.4, -0.1])
