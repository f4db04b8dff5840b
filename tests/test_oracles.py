"""Fast verdict paths against the dense oracles of tests/oracles.py.

The certificate, the PT and POVM eigenvalue checks, the canonical
discriminator and its discrimination matrix, the orthogonality report and
the randomized error must give the same verdicts and sizes as the dense
implementations, with values within 1e-12, on the built-in families, on all
lattice triples, and on sets whose block pattern is changed by local
monomial or dense rotations.
"""

import itertools

import numpy as np
import pytest

import oracles
from locc_lab.errors import TooManyStates
from locc_lab.measurements import Povm, check_ppt, discrimination_matrix, ppt_discriminator, validate_povm
from locc_lab.oneway import certify_impossible, randomized_error_exact
from locc_lab.protocols import all_lattice_triples
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
    assert fast.forced_scalar == dense["forced_scalar"]
    assert fast.nullspace_dim == dense["nullspace_dim"]
    assert fast.top_block_image_dim == dense["top_block_image_dim"]
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


def assert_discriminators_agree(mes, force=False):
    """Elements, discrimination matrix and check verdicts of the rank-k build
    against the dense outer-product build."""
    fast, dense = ppt_discriminator(mes, force), oracles.ppt_discriminator(mes, force)
    assert fast.k == dense.k and fast.dims == dense.dims
    assert max(np.abs(a - b).max() for a, b in zip(fast.elements, dense.elements)) <= EIG_TOL
    # the joint exact nonzero pattern sets the block split of both checks
    assert np.array_equal(np.any(np.array(fast.elements) != 0, axis=0), np.any(np.array(dense.elements) != 0, axis=0))
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
    assert all(np.count_nonzero(m) == 25 * 25 for m in povm.elements)
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
    # the projected norm is a worst case over the whole null space, so it
    # bounds the largest value over one orthonormal basis
    assert fast.residuals["max_scalar_deviation"] >= dense["max_scalar_deviation"] - EIG_TOL
    assert fast.residuals["max_constraint_residual"] <= 1e-12


def test_degenerate_control_dimensions():
    fast, _ = assert_certificates_agree(FAMILIES["even4_omega_minus_1"]())
    assert (fast.nullspace_dim, fast.top_block_image_dim) == (11, 2)
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


def test_dense_rotation_is_one_block_and_matches_oracle():
    rng = np.random.default_rng(5)
    mes = build_mod3_family(mod3_spec(5))
    rot = rotated(mes, random_unitary(rng, 5), random_unitary(rng, 5))
    assert_certificates_agree(rot)
    assert_povm_checks_agree(ppt_discriminator(rot))


def test_lattice_triples_match_dense_oracle():
    for triple in all_lattice_triples():
        mes = lattice_triple_set(triple)
        assert_povm_checks_agree(ppt_discriminator(mes))
        assert abs(randomized_error_exact(mes, UNIFORM3) - oracles.randomized_error_exact(mes, UNIFORM3)) <= EIG_TOL


def test_non_hermitian_elements_match_dense_oracle():
    # eigenvalues of the Hermitian part, residuals of the anti-Hermitian part
    rng = np.random.default_rng(11)
    elements = tuple(rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9)) for _ in range(2))
    assert_povm_checks_agree(Povm(elements=elements, dims=(3, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_elements_rejected(bad):
    m = np.eye(4, dtype=complex)
    m[1, 2] = bad
    povm = Povm(elements=(m, np.eye(4) - m), dims=(2, 2))
    with pytest.raises(ValueError, match="NaN/Inf"):
        validate_povm(povm)
    with pytest.raises(ValueError, match="NaN/Inf"):
        check_ppt(povm)


@pytest.mark.parametrize("d", range(4, 17))
def test_randomized_error_matches_dense_oracle(d):
    rng = np.random.default_rng(d)
    for mes in builtin_triples_at(d):
        for order in ((0, 1, 2), tuple(rng.permutation(3))):
            s = MaxEntSet(d=d, unitaries=tuple(mes.unitaries[i] for i in order))
            for priors in (UNIFORM3, (0.5, 0.3, 0.2)):
                assert abs(randomized_error_exact(s, priors) - oracles.randomized_error_exact(s, priors)) <= EIG_TOL


def test_randomized_error_matches_standardized_oracle():
    # every order of every lattice triple and built-in family, so that U_0 is
    # rarely the identity and U_1 U_0^dag is diagonal for some and not others
    sets = [lattice_triple_set(t) for t in all_lattice_triples()]
    sets += [mes for d in range(4, 17) for mes in builtin_triples_at(d)]
    for mes in sets:
        for order in itertools.permutations(range(3)):
            s = MaxEntSet(d=mes.d, unitaries=tuple(mes.unitaries[i] for i in order))
            for priors in (UNIFORM3, (0.5, 0.3, 0.2)):
                assert abs(randomized_error_exact(s, priors) - oracles.randomized_error_standardized(s, priors)) <= EIG_TOL
