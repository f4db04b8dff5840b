import numpy as np
import pytest

from locc_lab import numerics
from locc_lab.errors import ClusterFailure, DimensionMismatch, NotUnitary
from locc_lab.numerics import (
    dag,
    diagonalize_monomial,
    diagonalize_unitary,
    frob,
    identity,
    kron,
    monomial_form,
)
from locc_lab.states import PAULI_X, PAULI_Y, PAULI_Z, cycle_permutation, phase0_diag
from oracles import NotHermitian, eig_hermitian, partial_transpose, std_mes


def kron_reference(a, b):
    """Index-formula oracle for the tensor product."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for p in range(rb):
                for q in range(cb):
                    out[i * rb + p, j * cb + q] = a[i, j] * b[p, q]
    return out


def rand_herm(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g + dag(g)


def rand_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------- kron


def test_kron_identity():
    assert np.array_equal(kron(identity(2), identity(2)), identity(4))


def test_kron_x_z_entries():
    got = kron(PAULI_X, PAULI_Z)
    assert np.array_equal(got, kron_reference(PAULI_X, PAULI_Z))
    # frozen from the index expansion: nonzeros +1,-1,+1,-1
    expected = {(0, 2): 1, (1, 3): -1, (2, 0): 1, (3, 1): -1}
    for (i, j), v in expected.items():
        assert got[i, j] == v
    assert np.count_nonzero(got) == 4


def test_kron_phase_tagged_block_has_zero_diagonal():
    t = phase0_diag(2, np.exp(2j * np.pi * 0.13))
    u = kron(t, PAULI_X)
    assert np.array_equal(u, kron_reference(t, PAULI_X))
    assert np.all(np.diag(u) == 0)


def test_kron_mixed_product_and_associativity():
    rng = np.random.default_rng(7)
    a, c = rng.standard_normal((2, 2)) + 0j, rng.standard_normal((2, 2)) + 0j
    b, d = rng.standard_normal((3, 3)) + 0j, rng.standard_normal((3, 3)) + 0j
    assert frob(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)) <= 1e-12
    e = rng.standard_normal((2, 2)) + 0j
    assert frob(kron(kron(a, b), e) - kron(a, kron(b, e))) <= 1e-12
    # exact associativity on the structured matrices used throughout
    assert np.array_equal(
        kron(kron(PAULI_X, PAULI_Z), PAULI_Y), kron(PAULI_X, kron(PAULI_Z, PAULI_Y))
    )


# ------------------------------------------------------- eig_hermitian


def test_eig_pauli_z():
    dec = eig_hermitian(PAULI_Z)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_eig_partial_transpose_of_mes_d4():
    d = 4
    phi = std_mes(d)
    rho = np.outer(phi, phi.conj())
    pt = partial_transpose(rho, d, d)
    vals = eig_hermitian(pt).eigenvalues
    assert np.all(np.isin(np.round(vals * d), [-1, 1]))
    assert np.allclose(np.abs(vals), 1 / d, atol=1e-12)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(42)
    for d in (3, 8, 17):
        h = rand_herm(rng, d)
        dec = eig_hermitian(h)
        assert frob(dec.reconstruct() - h) <= 1e-10 * max(1.0, frob(h))
        assert frob(dag(dec.eigenvectors) @ dec.eigenvectors - identity(d)) <= 1e-10
        assert np.all(np.diff(dec.eigenvalues) >= -1e-12)
        assert abs(dec.eigenvalues.sum() - np.trace(h).real) <= 1e-10 * max(
            1.0, abs(np.trace(h))
        )


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


# -------------------------------------------------- diagonalize_unitary


def test_diagonalize_diagonal_input():
    u = kron(phase0_diag(2, np.exp(2j * np.pi * 0.29)), PAULI_Z)
    v, d = diagonalize_unitary(u)
    assert frob(v @ d @ dag(v) - u) <= 1e-9
    assert sorted(np.round(np.diag(d), 10)) == sorted(np.round(np.diag(u), 10))


def test_diagonalize_pauli_x():
    v, d = diagonalize_unitary(PAULI_X)
    assert frob(v @ d @ dag(v) - PAULI_X) <= 1e-9
    assert np.allclose(sorted(np.diag(d).real), [-1.0, 1.0], atol=1e-12)
    # eigenvectors are the Hadamard pair (1, +-1)/sqrt(2) up to phase
    for col in v.T:
        assert np.allclose(np.abs(col), [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_diagonalize_cycle_blowup_eigenphases():
    for r in (1, 2):
        q = kron(cycle_permutation(3), identity(r))
        v, d = diagonalize_unitary(q)
        assert frob(v @ d @ dag(v) - q) <= 1e-9
        phases = np.sort(np.angle(np.diag(d)))
        expected = np.sort(np.angle(np.exp(2j * np.pi * np.arange(3) / 3)).repeat(r))
        assert np.allclose(phases, expected, atol=1e-9)
        assert np.allclose(np.abs(np.diag(d)), 1.0, atol=1e-9)


def test_diagonalize_random_unitaries():
    rng = np.random.default_rng(3)
    for d in (2, 5, 8):
        u = rand_unitary(rng, d)
        v, dd = diagonalize_unitary(u)
        assert frob(v @ dd @ dag(v) - u) <= 1e-9
        assert np.allclose(np.abs(np.diag(dd)), 1.0, atol=1e-9)
        assert frob(dag(v) @ v - identity(d)) <= 1e-9


def test_diagonalize_degenerate_hermitian_part():
    # +-i pair: Hermitian part vanishes, so everything is one cluster
    u = np.diag([1j, -1j, 1.0])
    v, d = diagonalize_unitary(u)
    assert frob(v @ d @ dag(v) - u) <= 1e-9


def test_diagonalize_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        diagonalize_unitary(np.array([[1, 1], [0, 1]], dtype=complex))


# ------------------------------------------------- diagonalize_monomial


def monomial(perm, phases):
    """u with u e_j = phases[j] e_perm[j]."""
    u = np.zeros((len(perm), len(perm)), dtype=complex)
    u[perm, np.arange(len(perm))] = phases
    return u


def monomial_cases():
    """Random monomial unitaries at d = 1 .. 64: random permutations, one
    d-cycle and the identity's fixed points, with random phases and with
    quarter turns, which make products around different cycles repeat."""
    rng = np.random.default_rng(29)
    for d in range(1, 65):
        for perm in (rng.permutation(d), np.roll(np.arange(d), 1), np.arange(d)):
            yield monomial(perm, np.exp(2j * np.pi * rng.random(d)))
            yield monomial(perm, 1j ** rng.integers(0, 4, d))


def test_diagonalize_monomial_cycle_eigenbasis():
    for u in monomial_cases():
        v, d = diagonalize_monomial(u)
        n = u.shape[0]
        assert np.abs(dag(v) @ v - identity(n)).max() <= 1e-12
        assert np.abs(dag(v) @ u @ v - d).max() <= 1e-12
        assert np.allclose(np.abs(np.diag(d)), 1.0, atol=1e-12)


def test_fourier_table_is_read_only():
    with pytest.raises(ValueError):
        numerics._fourier(3)[0, 0] = 0.0


def test_diagonalize_monomial_keeps_fixed_points_in_place():
    u = monomial([0, 2, 1, 3], [1j, 1.0, -1.0, np.exp(0.3j)])
    v, d = diagonalize_monomial(u)
    assert np.array_equal(v[:, [0, 3]], identity(4)[:, [0, 3]])
    assert np.allclose(np.diag(d)[[0, 3]], [1j, np.exp(0.3j)], atol=1e-15)
    assert np.allclose(sorted(np.angle(np.diag(d)[1:3])), [-np.pi / 2, np.pi / 2], atol=1e-15)


def test_monomial_form_reads_exact_pattern():
    u = monomial([2, 0, 1], [1j, -1.0, np.exp(0.7j)])
    perm, phases = monomial_form(u)
    assert perm.tolist() == [2, 0, 1]
    assert np.array_equal(phases, [1j, -1.0, np.exp(0.7j)])
    # any nonzero counts, however small: no tolerance
    u[0, 0] = 1e-300
    assert monomial_form(u) is None


@pytest.mark.parametrize(
    "u",
    [
        np.array([[1, 1], [1, -1]]) / np.sqrt(2),  # Hadamard: dense
        np.array([[0, 1, 0], [0, 1, 0], [1, 0, 0]]),  # a row and a column empty
        np.array([[0, 1, 1], [1, 0, 0], [0, 0, 0]]),  # two nonzeros in a row
        np.ones((2, 3)),  # not square
    ],
    ids=["hadamard", "repeated_column", "repeated_row", "rectangular"],
)
def test_diagonalize_monomial_non_monomial_gives_none(u):
    assert monomial_form(u) is None
    assert diagonalize_monomial(u) is None


def test_diagonalize_monomial_refusals(monkeypatch):
    # |c| != 1: the same residual sqrt(sum (|c|^2 - 1)^2) as diagonalize_unitary
    u = monomial([1, 0, 2], [1.0, 1.5, 1j])
    with pytest.raises(NotUnitary, match="1.250e\\+00"):
        diagonalize_monomial(u)
    with pytest.raises(NotUnitary, match="1.250e\\+00"):
        diagonalize_unitary(u)
    # a tolerance loose enough to let it through leaves u V - V D too large
    with monkeypatch.context() as m:
        m.setattr(numerics, "DEFAULT_TOL", 10.0)
        with pytest.raises(ClusterFailure):
            diagonalize_monomial(u)
    u[2, 2] = np.nan
    with pytest.raises(ValueError, match="NaN/Inf"):
        diagonalize_monomial(u)


# ---------------------------------------------------- partial_transpose


def test_partial_transpose_product_operator():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert frob(partial_transpose(kron(a, b), 3, 4) - kron(a, b.T)) <= 1e-12


def test_partial_transpose_mes_spectrum_d3():
    d = 3
    phi = std_mes(d)
    pt = partial_transpose(np.outer(phi, phi.conj()), d, d)
    vals = np.sort(eig_hermitian(pt).eigenvalues)
    expected = np.array([-1 / 3] * 3 + [1 / 3] * 6)
    assert np.allclose(vals, expected, atol=1e-12)


def test_partial_transpose_involution_and_invariants():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    pt = partial_transpose(m, 3, 4)
    assert np.array_equal(partial_transpose(pt, 3, 4), m)
    assert abs(np.trace(pt) - np.trace(m)) == 0.0
    assert abs(frob(pt) - frob(m)) <= 1e-12


def test_partial_transpose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        partial_transpose(identity(6), 2, 2)


def test_mes_pt_eigenvalue_range():
    # PT spectrum of any pure maximally entangled state lies in [-1/d, 1/d]
    rng = np.random.default_rng(9)
    for d in (2, 3, 5):
        u = rand_unitary(rng, d)
        psi = (std_mes(d).reshape(d, d) @ u.T).reshape(-1)
        pt = partial_transpose(np.outer(psi, psi.conj()), d, d)
        vals = eig_hermitian(pt).eigenvalues
        assert vals.min() >= -1 / d - 1e-10
        assert vals.max() <= 1 / d + 1e-10
