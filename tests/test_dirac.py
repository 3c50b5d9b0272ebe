import warnings

import numpy as np
import pytest
from dataclasses import replace

from ptbands import (ClassificationError, ConfigError, PotentialParts, assemble, compute_bands,
                     constant, eigen, find_dirac_points, from_parts, measure_splitting,
                     mw_matrix, predict_splitting, prop3_scan, solve, splitting_slope,
                     TruncationError)
from ptbands.dirac import Regime, _nearest
from ptbands.eigen import TWO_PI
from conftest import two_harmonic_potential

FREE = constant(0.0)
SIN2X = PotentialParts(sine_coeffs=(0.0, 1.0), gamma=0.2)


@pytest.fixture(scope="module")
def free_points():
    bs = compute_bands(FREE, 16, 32, 7)
    return find_dirac_points(bs)


def point_at(points, mu):
    return next(d for d in points if abs(d.mu - mu) < 1e-9)


class TestFindDiracPoints:
    def test_free_ladder(self, free_points):
        mus = [d.mu for d in free_points]
        k0s = [d.k0 for d in free_points]
        assert np.allclose(mus[:5], [n**2 / 4 for n in range(1, 6)])
        assert k0s[:5] == [0.5, 0.0, 0.5, 0.0, 0.5]

    def test_band_pairs_adjacent(self, free_points):
        for d in free_points:
            assert d.band_pair[1] == d.band_pair[0] + 1

    def test_second_point_eigenfunctions(self, free_points):
        # mu_2 = 1: phi_+ = cos(x)/sqrt(pi), phi_- = sin(x)/sqrt(pi), up to sign
        dp = point_at(free_points, 1.0)
        J = dp.J
        cosx = np.zeros(2 * J + 1, dtype=complex)
        cosx[J + 1] = cosx[J - 1] = 0.5 / np.sqrt(np.pi)
        sinx = np.zeros(2 * J + 1, dtype=complex)
        sinx[J + 1], sinx[J - 1] = -0.5j / np.sqrt(np.pi), 0.5j / np.sqrt(np.pi)
        assert min(np.abs(dp.phi_plus - s * cosx).max() for s in (1, -1)) < 1e-10
        assert min(np.abs(dp.phi_minus - s * sinx).max() for s in (1, -1)) < 1e-10

    def test_first_point_eigenfunctions_at_zone_edge(self, free_points):
        # mu_1 = 1/4 at k0 = 1/2, modes j = -1 and j = 0: phi_+ e^{ix/2} =
        # cos(x/2)/sqrt(pi) and phi_- e^{ix/2} = i sin(x/2)/sqrt(pi), up to sign
        dp = free_points[0]
        assert (dp.k0, dp.mu) == (0.5, pytest.approx(0.25, abs=1e-12))
        J = dp.J
        half = 0.5 / np.sqrt(np.pi)
        even, odd = np.zeros(2 * J + 1), np.zeros(2 * J + 1)
        even[J - 1], even[J] = half, half
        odd[J - 1], odd[J] = half, -half
        assert min(np.abs(dp.phi_plus - s * even).max() for s in (1, -1)) < 1e-10
        assert min(np.abs(dp.phi_minus - s * odd).max() for s in (1, -1)) < 1e-10

    def test_orthonormal_basis(self, free_points):
        for dp in free_points:
            assert abs(TWO_PI * np.vdot(dp.phi_minus, dp.phi_plus)) <= 1e-10
            assert abs(TWO_PI * np.vdot(dp.phi_plus, dp.phi_plus) - 1) <= 1e-12
            assert abs(TWO_PI * np.vdot(dp.phi_minus, dp.phi_minus) - 1) <= 1e-12

    def test_gapped_lattice_has_no_crossings(self):
        p = from_parts(PotentialParts(cosine_coeffs=(2.0,)))
        bs = compute_bands(p, 16, 32, 4)
        assert find_dirac_points(bs) == []

    def test_overwide_tolerance_reports_and_skips(self):
        bs = compute_bands(FREE, 16, 32, 6)
        with pytest.warns(UserWarning, match="dimension"):
            pts = find_dirac_points(bs, tol=2.0)
        assert all(len(p.band_pair) == 2 for p in pts)


class TestMwMatrix:
    def test_sin2x_coupling_half(self, free_points):
        dp = point_at(free_points, 1.0)
        M = mw_matrix(dp, SIN2X)
        assert abs(M[1, 0]) == pytest.approx(0.5, abs=1e-12)
        assert abs(M[0, 0]) <= 1e-10 and abs(M[1, 1]) <= 1e-10
        assert M[0, 1] == pytest.approx(np.conj(M[1, 0]))

    def test_frequency_mismatch_gives_zero(self, free_points):
        dp = point_at(free_points, 1.0)
        M = mw_matrix(dp, PotentialParts(sine_coeffs=(1.0,), gamma=0.2))
        assert abs(M[1, 0]) <= 1e-12

    def test_anti_diagonal_for_any_odd_w(self, free_points):
        W = PotentialParts(sine_coeffs=(0.3, 0.7, 0.1), gamma=1.0)
        for dp in free_points[:4]:
            M = mw_matrix(dp, W)
            assert max(abs(M[0, 0]), abs(M[1, 1])) <= 1e-10

    def test_pinned_entries(self, free_points):
        # W = 0.3 sin x + 0.7 sin 2x + 0.1 sin 3x on the first four free
        # points; values measured with the loop-based W action and parity matrix
        W = PotentialParts(sine_coeffs=(0.3, 0.7, 0.1), gamma=1.0)
        expected = {0.25: [[0, -0.15j], [0.15j, 0]], 1.0: [[0, 0.35], [0.35, 0]],
                    2.25: [[0, -0.05j], [0.05j, 0]], 4.0: [[0, 0], [0, 0]]}
        for mu, M in expected.items():
            got = mw_matrix(point_at(free_points, mu), W)
            assert np.abs(got - np.array(M)).max() <= 1e-14

    def test_eigenvalue_set_invariant_under_basis_rotation(self, free_points, rng):
        dp = point_at(free_points, 1.0)
        W = PotentialParts(sine_coeffs=(0.4, 1.0), gamma=1.0)
        # random unitary rotation of (phi_+, phi_-)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        Q, _ = np.linalg.qr(a)
        basis = np.column_stack([dp.phi_plus, dp.phi_minus]) @ Q
        rotated = replace(dp, phi_plus=basis[:, 0], phi_minus=basis[:, 1])
        e1 = np.sort_complex(np.linalg.eigvals(mw_matrix(dp, W)))
        e2 = np.sort_complex(np.linalg.eigvals(mw_matrix(rotated, W)))
        assert np.abs(e1 - e2).max() <= 1e-10

    def test_rejects_even_part(self, free_points):
        dp = point_at(free_points, 1.0)
        with pytest.raises(ConfigError):
            mw_matrix(dp, PotentialParts(cosine_coeffs=(1.0,), sine_coeffs=(1.0,)))


class TestPredictSplitting:
    def test_sin2x_at_mu_one(self, free_points):
        dp = point_at(free_points, 1.0)
        pred = predict_splitting(dp, SIN2X, 0.2)
        assert pred.regime is Regime.DEGENERATE_PAIR
        assert pred.leading_eigenvalues[0] == pytest.approx(1 + 0.1j)
        assert pred.leading_eigenvalues[1] == pytest.approx(1 - 0.1j)

    def test_zero_gamma_degenerate_real(self, free_points):
        dp = point_at(free_points, 1.0)
        pred = predict_splitting(dp, SIN2X, 0.0)
        assert pred.pred_im == 0.0
        assert pred.leading_eigenvalues[0].imag == 0.0

    def test_vanishing_coupling_inconclusive(self, free_points):
        dp = point_at(free_points, 1.0)
        pred = predict_splitting(dp, PotentialParts(sine_coeffs=(1.0,), gamma=0.2), 0.2)
        assert pred.regime is Regime.INCONCLUSIVE

    def test_gamma_range_validated(self, free_points):
        dp = point_at(free_points, 1.0)
        with pytest.raises(ConfigError):
            predict_splitting(dp, SIN2X, 0.8)


class TestMeasureSplitting:
    def test_sine_perturbation_measurement(self):
        V = from_parts(SIN2X)
        plus, minus = measure_splitting(V, 0.0, 1.0, 24)
        assert abs(abs(plus.imag) - 0.1) / 0.1 <= 0.1
        assert plus.imag == pytest.approx(-minus.imag, abs=1e-10)
        assert plus.real == pytest.approx(minus.real, abs=1e-10)

    def test_zero_gamma_degenerate(self):
        V = from_parts(replace(SIN2X, gamma=0.0))
        plus, minus = measure_splitting(V, 0.0, 1.0, 24)
        assert abs(plus - 1.0) <= 1e-10 and abs(minus - 1.0) <= 1e-10

    def test_broken_phase_pair_two_harmonic(self):
        V = two_harmonic_potential(1.5)
        spec_mu = -0.35   # near the collided lowest pair at k = 0
        plus, minus = measure_splitting(V, 0.0, spec_mu, 24)
        assert plus.imag > 1e-2
        assert plus == pytest.approx(np.conj(minus), abs=1e-10)

    def test_no_eigenvalues_near_mu(self):
        with pytest.raises(ClassificationError):
            measure_splitting(FREE, 0.0, 200.0, 8)

    @pytest.mark.parametrize("k0, mu, J, weight", [(0.5, 0.25, 3, "5.0e-02"),
                                                   (0.5, 0.25, 5, "4.2e-04"),
                                                   (0.0, 4.0, 7, "1.8e-05")])
    def test_unresolved_pair_refused(self, k0, mu, J, weight):
        # the certified columns are the pair near mu, and the certified slots
        # all that M_J couples out of the block: at J = 7 the lowest two weigh
        # 4.3e-7 at |j| = 6, 7, the pair near 4 (even j only) 1.8e-5 at |j| = 6
        # and nothing at |j| = 7
        V = from_parts(SIN2X)
        with pytest.raises(TruncationError, match=f"J = {J} .* pair near mu = {mu:g}: .* weigh {weight} "):
            measure_splitting(V, k0, mu, J)
        measure_splitting(V, k0, mu, 16)

    @pytest.mark.parametrize("k0, mu, J", [(0.5, 0.25, 64), (0.5, 0.25, 128),
                                           (0.0, 1.0, 64), (0.0, 1.0, 128),
                                           (0.0, 225.0, 32), (0.0, 225.0, 64)])
    def test_block_pair_matches_full_truncation_within_condition(self, k0, mu, J):
        # the certified block pair against the full-J eigenvalue-only solve:
        # rounding amplified by the condition kappa of the pair, the norm of
        # its spectral projector (the k0 = 1/2 pair is an exact double).  The
        # pair at 225 (modes j = +-15) leaves |j| = 16 empty but couples to
        # j = +-17; a J' = 16 block puts it 1.6e-4 off
        V = from_parts(SIN2X)
        M = assemble(V, k0, J)
        block = np.sort_complex(measure_splitting(V, k0, mu, J))
        w = eigen.eigenvalues(M)
        full = np.sort_complex(w[_nearest(w, mu)])
        spec = solve(M)
        idx = _nearest(spec.eigenvalues, mu)
        R, L = spec.right_vectors[:, idx], spec.left_vectors[:, idx]
        kappa = np.linalg.norm(R @ np.linalg.solve(L.conj().T @ R, L.conj().T), 2)
        assert np.abs(block - full).max() <= kappa * np.finfo(float).eps * M.norm()

    def test_block_size_independent_of_J(self, monkeypatch, free_points):
        # the largest matrix measure_splitting and splitting_slope decompose is
        # fixed by the lattice and mu, not by J
        sizes = []
        full_solve = eigen.solve
        monkeypatch.setattr(eigen, "solve", lambda M: sizes.append(M.J) or full_solve(M))
        monkeypatch.setattr(eigen, "eigenvalues", lambda M: pytest.fail("full solve"))
        V = from_parts(SIN2X)
        largest = []
        for J in (32, 128):
            sizes.clear()
            for dp in free_points[:4]:
                measure_splitting(V, dp.k0, dp.mu, J)
                splitting_slope(PotentialParts(sine_coeffs=(0.0, 1.0)), dp, J)
            largest.append(max(sizes))
        assert largest[0] == largest[1] == 16


def test_linear_response_slope(free_points):
    dp = point_at(free_points, 1.0)
    slope = splitting_slope(PotentialParts(sine_coeffs=(0.0, 1.0)), dp, 24)
    coupling = abs(mw_matrix(dp, PotentialParts(sine_coeffs=(0.0, 1.0)))[1, 0])
    assert abs(slope - coupling) / coupling <= 0.02


@pytest.mark.parametrize("gammas", [(0.0, 0.0, 0.0), (-0.01, -0.02, -0.04), (0.01, 0.03, 0.04)])
def test_slope_gammas_validated_without_warnings(free_points, gammas):
    dp = point_at(free_points, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError):
            splitting_slope(PotentialParts(sine_coeffs=(0.0, 1.0)), dp, 24, gammas)


class TestProp3Scan:
    @staticmethod
    def sequences(n):
        ms = np.arange(1, n + 1, dtype=float)
        return ms**-2.5, ms**-1.5

    def test_paper_example_m8(self):
        a, b = self.sequences(48)
        (rec,) = prop3_scan(a, b, 0.5, [8], J=64)
        q = rec.coupling_harmonic
        assert q == 16
        assert a[q - 1] ** 2 - 0.25 * b[q - 1] ** 2 < 0    # predicted complex
        assert rec.leading_eigenvalues[0].imag > 0
        assert rec.relative_gap <= 0.30

    def test_no_sine_part_predicts_real(self):
        a, _ = self.sequences(48)
        recs = prop3_scan(a, np.zeros(48), 0.5, range(6, 10), J=64)
        for r in recs:
            assert r.pred_im == 0.0
            assert r.leading_eigenvalues[0].imag == 0.0
            assert abs(r.measured[0].imag) <= 1e-9    # self-adjoint problem

    def test_equal_sequences_real_at_leading_order(self):
        a, _ = self.sequences(48)
        recs = prop3_scan(a, a, 0.5, range(6, 10), J=64)
        for r in recs:
            assert r.leading_eigenvalues[0].imag == 0.0   # a^2 - g^2 a^2 > 0

    def test_truncation_validated(self):
        a, b = self.sequences(48)
        with pytest.raises(ConfigError):
            prop3_scan(a, b, 0.5, [12], J=30)

    def test_gap_decays_as_inverse_square(self):
        # the asymptotic regime of the complex-band claim: with 200 harmonics the
        # relative gap falls 0.0207/0.0073/0.0032/0.0018/0.0008/0.00045, local
        # rates 2.045/2.021/2.012/2.007/2.002
        a, b = self.sequences(200)
        ms = [12, 20, 30, 40, 60, 80]
        gaps = [r.relative_gap for r in prop3_scan(a, b, 0.5, ms, J=216)]
        rates = -np.diff(np.log(gaps)) / np.diff(np.log(ms))
        assert rates == pytest.approx(2.0, abs=0.05)

    def test_harmonic_margin_required(self):
        # sequences stopping at the coupling harmonic 24 of m = 12 gave a gap
        # of 0.104 instead of 0.0207; 2 m_max + 4 = 28 harmonics give 0.0210
        for n in (24, 27):
            a, b = self.sequences(n)
            with pytest.raises(TruncationError, match=f"hold {n} harmonics"):
                prop3_scan(a, b, 0.5, [12], J=64)
        a, b = self.sequences(28)
        (rec,) = prop3_scan(a, b, 0.5, [12], J=64)
        assert rec.relative_gap == pytest.approx(0.0207, abs=5e-4)

    def test_sequence_length_validated(self):
        a, b = self.sequences(10)
        with pytest.raises(ConfigError):
            prop3_scan(a, b, 0.5, [8], J=64)


def test_measured_conjugate_symmetry():
    a = np.arange(1, 49, dtype=float) ** -2.5
    b = np.arange(1, 49, dtype=float) ** -1.5
    recs = prop3_scan(a, b, 0.5, range(6, 13), J=64)
    for r in recs:
        assert r.measured[0].imag == pytest.approx(-r.measured[1].imag, abs=1e-10)
