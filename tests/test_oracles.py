"""Fast verdict paths against the dense oracles of tests/oracles.py.

The certificate, the PT and POVM eigenvalue checks and the randomized error
must give the same verdicts and sizes as the dense implementations, with
eigenvalues within 1e-12, on the built-in families, on all lattice triples,
and on sets whose block pattern is changed by local monomial or dense
rotations.
"""

import numpy as np
import pytest

import oracles
from locc_lab.measurements import Povm, check_ppt, ppt_discriminator, validate_povm
from locc_lab.oneway import certify_impossible, randomized_error_exact
from locc_lab.protocols import all_lattice_triples
from locc_lab.states import (
    MaxEntSet,
    build_even_family,
    build_k_family,
    build_mod3_family,
    builtin_triples_at,
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
