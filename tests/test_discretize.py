import numpy as np
import pytest

from ptbands import ConfigError, assemble, constant, from_parts, PotentialParts
from conftest import two_harmonic_potential


def test_free_operator_is_diagonal():
    M = assemble(constant(0.0), 0.0, 2)
    assert np.allclose(M.entries, np.diag([4.0, 1.0, 0.0, 1.0, 4.0]))


def test_free_operator_zone_edge():
    M = assemble(constant(0.0), 0.5, 1)
    assert np.allclose(M.entries, np.diag([0.25, 0.25, 2.25]))


def test_cosine_potential_tridiagonal():
    p = from_parts(PotentialParts(cosine_coeffs=(2.0,)))
    M = assemble(p, 0.0, 3).entries
    js = np.arange(-3, 4)
    expected = np.diag(js.astype(float) ** 2) + np.eye(7, k=1) + np.eye(7, k=-1)
    assert np.allclose(M, expected)


def test_entries_real_for_pt_potentials():
    for gamma in (0.0, 0.7, 1.5, 2.4):
        M = assemble(two_harmonic_potential(gamma), 0.31, 16)
        assert np.abs(M.entries.imag).max() <= 1e-14


class TestAdjoint:
    """The adjoint L*(k) = -(d/dx + ik)^2 + conj(V) is M(k)^H; these are the
    matrix properties the left eigenvectors of M(k) rely on."""

    def test_real_even_potential_self_adjoint(self):
        p = from_parts(PotentialParts(cosine_coeffs=(2.0, 0.5)))
        M = assemble(p, 0.2, 8).entries
        assert np.allclose(M, M.T)
        assert np.allclose(M, M.conj().T)     # symmetric coefficients: self-adjoint

    def test_pt_potential_adjoint_is_transpose(self):
        p = two_harmonic_potential(1.5)
        M = assemble(p, 0.1, 12).entries
        assert np.abs(M.imag).max() <= 1e-14
        assert np.array_equal(M.conj().T, M.T)

    def test_free_adjoint_identical(self):
        M = assemble(constant(0.0), 0.4, 6).entries
        assert np.array_equal(M, M.conj().T)

    def test_general_complex_conjugate_transpose(self):
        # M(k)^H is the Galerkin matrix of conj(V), coefficients conj(c_{-q})
        p = from_parts(PotentialParts((1.0,), (0.5,), gamma=0.9))
        # break PT on purpose
        from ptbands import PeriodicPotential
        q = PeriodicPotential({**p.coeffs, 1: p.coeffs[1] + 0.3j})
        q_conj = PeriodicPotential({-j: np.conj(c) for j, c in q.coeffs.items()})
        M = assemble(q, 0.0, 8).entries
        A = assemble(q_conj, 0.0, 8).entries
        assert np.allclose(A, M.conj().T)


class TestReflection:
    """M(-k) = R M(k)^T R with R the reversal j -> -j, for any potential."""

    @pytest.mark.parametrize("k", [0.0, 0.13, 0.37, 0.5])
    def test_identity_pt_and_non_pt(self, k):
        from ptbands import PeriodicPotential
        pt = two_harmonic_potential(1.5)
        general = PeriodicPotential({0: 0.2 - 0.1j, 1: 0.7 + 0.4j, -1: -0.3 + 0.2j,
                                     2: 0.1j, -3: 0.5})
        for p in (pt, general):
            M = assemble(p, k, 10).entries
            assert np.array_equal(assemble(p, -k, 10).entries, M.T[::-1, ::-1])


def test_spectral_convergence_under_truncation():
    # lowest 2J-6 eigenvalues stable to 1e-10 under J -> J+8
    p = two_harmonic_potential(1.0)
    J = 32
    for k in (0.0, 0.17, 0.5):
        w1 = np.sort_complex(np.linalg.eigvals(assemble(p, k, J).entries))
        w2 = np.sort_complex(np.linalg.eigvals(assemble(p, k, J + 8).entries))
        n = 2 * J - 6
        assert np.abs(w1[:n] - w2[:n]).max() < 1e-10


class TestValidation:
    def test_rejects_truncation_below_potential_harmonics(self):
        with pytest.raises(ConfigError):
            assemble(two_harmonic_potential(1.0), 0.0, 1)

    def test_rejects_k_outside_zone(self):
        with pytest.raises(ConfigError):
            assemble(constant(0.0), 0.7, 8)

    def test_minimal_truncation_accepted(self):
        assemble(two_harmonic_potential(1.0), 0.0, 2)
        assemble(constant(0.0), 0.5, 1)
