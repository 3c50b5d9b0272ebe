import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace

from ptbands import (ClassificationError, ConfigError, PotentialParts, bands, dirac,
                     compute_bands, constant, eigen, find_dirac_points, from_parts,
                     measure_splitting, mw_matrix, predict_splitting, prop3_scan,
                     richardson_slope, splitting_slope, TruncationError)
from ptbands.bands import MEMO_BLOCKS, _decomposed_block
from ptbands.dirac import Regime, _nearest
from ptbands.eigen import TWO_PI
from conftest import two_harmonic_potential
from oracles import assemble, solve

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

    def test_points_independent_of_J(self):
        # the pairs come from the edge blocks, whose J' the lattice sets: J is a cap
        U = from_parts(replace(SIN2X, gamma=0.0))
        small, big = (find_dirac_points(compute_bands(U, J, bands.MIN_N_K, 6))
                      for J in (32, 10**12))
        assert len(small) == len(big) > 0
        for a, b in zip(small, big):
            assert (a.k0, a.mu, a.band_pair) == (b.k0, b.mu, b.band_pair)
            assert np.array_equal(a.phi_plus, b.phi_plus)
            assert np.array_equal(a.phi_minus, b.phi_minus)

    def test_gapped_lattice_has_no_crossings(self):
        p = from_parts(PotentialParts(cosine_coeffs=(2.0,)))
        bs = compute_bands(p, 16, 32, 4)
        assert find_dirac_points(bs) == []

    def test_overwide_tolerance_reports_and_skips(self, monkeypatch):
        monkeypatch.setattr(dirac, "DEGENERACY_TOL", 2.0)
        bs = compute_bands(FREE, 16, 32, 6)
        with pytest.warns(UserWarning, match="dimension"):
            pts = find_dirac_points(bs)
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

    def test_even_part_changes_nothing(self, free_points):
        # W is the sine series: the even background U of the parts is left out
        W = PotentialParts(sine_coeffs=(0.3, 0.7, 0.1), gamma=0.2)
        for dp in free_points[:4]:
            with_u = mw_matrix(dp, replace(W, cosine_coeffs=(1.0, 0.0, 0.5)))
            assert np.array_equal(with_u, mw_matrix(dp, W))


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

    def test_relative_gap_falls_as_gamma_squared(self, free_points):
        # the asymptotic regime of the degenerate-pair prediction: at the free
        # point mu = 1 (k0 = 0) the relative gap falls 6.25e-4/1.56e-4/3.91e-5/
        # 9.77e-6/2.44e-6, local rates 2.0008/2.0002/2.0001/2.0000
        dp = point_at(free_points, 1.0)
        gammas = [0.4, 0.2, 0.1, 0.05, 0.025]
        gaps = [predict_splitting(dp, SIN2X, g).with_measurement(
                    measure_splitting(from_parts(replace(SIN2X, gamma=g)), dp.k0, dp.mu, 32)
                ).relative_gap for g in gammas]
        assert gaps[0] == pytest.approx(6.25e-4, rel=1e-3)
        rates = np.diff(np.log(gaps)) / np.diff(np.log(gammas))
        assert rates == pytest.approx(2.0, abs=0.01)

    def test_no_eigenvalues_near_mu(self):
        with pytest.raises(ClassificationError):
            measure_splitting(FREE, 0.0, 200.0, 8)

    @pytest.mark.parametrize("k0, mu, J, weight", [(0.5, 0.25, 3, "5.0e-02"),
                                                   (0.5, 0.25, 5, "4.2e-04"),
                                                   (0.0, 4.0, 7, "1.8e-05")])
    def test_unresolved_pair_refused(self, monkeypatch, k0, mu, J, weight):
        # the certified columns are the pair near mu, and the certified slots
        # all that M_J couples out of the block: at J = 7 the lowest two weigh
        # 4.3e-7 at |j| = 6, 7, the pair near 4 (even j only) 1.8e-5 at |j| = 6
        # and nothing at |j| = 7
        # The second call reads its blocks, and those of the larger J its
        # message climbs to, from the memo the first one filled
        V = from_parts(SIN2X)
        _decomposed_block.cache_clear()
        refused = f"J = {J} .* pair near mu = {mu:g}: .* weigh {weight} "
        with pytest.raises(TruncationError, match=refused):
            measure_splitting(V, k0, mu, J)
        with monkeypatch.context() as patch:
            patch.setattr(eigen, "decompose", lambda A, pick=None: pytest.fail("decomposed"))
            with pytest.raises(TruncationError, match=refused):
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
        w = eigen.eigenvalues(M.entries)
        full = np.sort_complex(w[_nearest(w, mu)])
        spec = solve(M, lambda w: _nearest(w, mu))
        idx = _nearest(spec.eigenvalues, mu)
        R, L = spec.right_vectors[:, idx], spec.left_vectors[:, idx]
        kappa = np.linalg.norm(R @ np.linalg.solve(L.conj().T @ R, L.conj().T), 2)
        assert np.abs(block - full).max() <= kappa * np.finfo(float).eps * M.norm()

    def test_pair_at_225_within_condition_of_exact_truncation(self):
        # a 40-digit solve of M_32's odd-j chain (W = sin 2x couples j to
        # j +- 2) is the exact truncated pair: the certified pair lies within
        # kappa r of it, r its padded residual against M_32 and kappa its
        # condition.  Measured: 1.08e-12 off, r = 1.14e-12, kappa = 1; the full
        # double solve is 1.08e-12 off as well
        import mpmath
        V, J, mu = from_parts(SIN2X), 32, 225.0
        odd = np.arange(-J, J + 1) % 2 == 1
        chain = assemble(V, 0.0, J).entries[np.ix_(odd, odd)].real
        with mpmath.workdps(40):
            w = np.array([complex(z) for z in mpmath.eig(mpmath.matrix(chain.tolist()),
                                                         left=False, right=False)])
        exact = np.sort_complex(w[_nearest(w, mu)])
        pair = np.sort_complex(np.array(measure_splitting(V, 0.0, mu, J)))
        blocks = bands._leading_block(V, 0.0, J, lambda w: _nearest(w, mu))
        E = bands._stacked_blocks(V, [0.0], J, blocks.J, lambda w: _nearest(w[0], mu)).E
        R, L = blocks.right[0][:, blocks.cols], blocks.left[0][:, blocks.cols]
        r = bands._padded_residuals(E[0], blocks.w[0, blocks.cols], R, L)
        kappa = np.linalg.norm(R @ np.linalg.solve(L.conj().T @ R, L.conj().T), 2)
        assert E.shape[-1] == 2 * J + 1          # the residual is against M_32
        assert np.abs(pair - exact).max() <= kappa * r

    def test_pair_decomposed_as_a_stack(self, monkeypatch):
        # the pair at 225 climbs the doubling ladder (J' = 16, then 32) through
        # stacks of one, not as single matrices
        _decomposed_block.cache_clear()
        full_decompose = eigen.decompose
        monkeypatch.setattr(eigen, "decompose", lambda A, pick=None: full_decompose(A, pick)
                            if A.ndim == 3 else pytest.fail("single matrix decomposed"))
        plus, minus = measure_splitting(from_parts(SIN2X), 0.0, 225.0, 64)
        assert abs(plus - 225.0) < 1 and abs(minus - 225.0) < 1

    def test_block_size_independent_of_J(self, monkeypatch, free_points):
        # the largest matrix measure_splitting and splitting_slope decompose is
        # fixed by the lattice and mu, not by J
        sizes = []
        full_decompose = eigen.decompose
        monkeypatch.setattr(eigen, "decompose", lambda A, pick=None: sizes.append(
            (A.shape[-1] - 1) // 2) or full_decompose(A, pick))
        monkeypatch.setattr(eigen, "eigenvalues", lambda M: pytest.fail("full solve"))
        V = from_parts(SIN2X)
        largest = []
        for J in (32, 128):
            # the J = 128 pass meets the J = 32 pass's blocks: from a warm memo it
            # would decompose none
            _decomposed_block.cache_clear()
            sizes.clear()
            for dp in free_points[:4]:
                measure_splitting(V, dp.k0, dp.mu, J)
                splitting_slope(PotentialParts(sine_coeffs=(0.0, 1.0)), dp, J)
            largest.append(max(sizes))
        assert largest[0] == largest[1] == 16

    def test_one_decomposition_per_distinct_block(self, monkeypatch, free_points):
        # the loop of cmd_dirac and the spectra benchmark's Dirac task: each
        # point measured at three gammas, then splitting_slope at the same
        # gammas.  The 36 ladder rungs of the 6 points (all J' = 16) meet 6
        # distinct blocks, 3 gammas at k0 = 0 and 1/2: 6 decompositions of
        # Sigma n^3 = 6 * 33^3, not one per rung
        sizes = []
        full_decompose = eigen.decompose
        monkeypatch.setattr(eigen, "decompose", lambda A, pick=None: sizes.append(
            A.shape[-1]) or full_decompose(A, pick))
        _decomposed_block.cache_clear()
        assert len(free_points) == 6
        for dp in free_points:
            for g in (0.01, 0.02, 0.04):
                measure_splitting(from_parts(replace(SIN2X, gamma=g)), dp.k0, dp.mu, 32)
            splitting_slope(SIN2X, dp, 32)
        assert (len(sizes), sum(n**3 for n in sizes)) == (6, 215622)

    @pytest.mark.parametrize("mu, J, rungs", [(1.0, 24, 1), (225.0, 64, 2)])
    def test_warm_memo_returns_the_cold_pair(self, monkeypatch, mu, J, rungs):
        # the pair at 225 climbs J' = 16 -> 32.  The warm call gets a potential
        # built afresh with the same coefficients, as every caller builds one
        _decomposed_block.cache_clear()
        cold = np.array(measure_splitting(from_parts(SIN2X), 0.0, mu, J))
        assert _decomposed_block.cache_info().currsize == rungs
        monkeypatch.setattr(eigen, "decompose", lambda A, pick=None: pytest.fail("decomposed"))
        warm = np.array(measure_splitting(from_parts(SIN2X), 0.0, mu, J))
        assert warm.tobytes() == cold.tobytes()

    def test_memo_capped(self, free_points):
        dp = point_at(free_points, 1.0)
        _decomposed_block.cache_clear()
        for g in np.linspace(0.01, 0.1, MEMO_BLOCKS + 3):
            measure_splitting(from_parts(replace(SIN2X, gamma=g)), dp.k0, dp.mu, 24)
            assert _decomposed_block.cache_info().currsize <= MEMO_BLOCKS
        assert _decomposed_block.cache_info().currsize == MEMO_BLOCKS

    def test_memo_arrays_read_only(self):
        V = from_parts(SIN2X)
        measure_splitting(V, 0.0, 1.0, 24)
        for a in _decomposed_block(tuple(sorted(V.coeffs.items())), 0.0, 16):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[..., 0] = 0.0


def test_linear_response_slope(free_points):
    dp = point_at(free_points, 1.0)
    slope = splitting_slope(PotentialParts(sine_coeffs=(0.0, 1.0)), dp, 24)
    coupling = abs(mw_matrix(dp, PotentialParts(sine_coeffs=(0.0, 1.0)))[1, 0])
    assert abs(slope - coupling) / coupling <= 0.02


def test_richardson_slope_reads_three_smallest_gammas(free_points):
    # splitting_slope is richardson_slope of its own measurements; a larger
    # fourth gamma is not read, and three smallest not in ratio 1:2:4 are refused
    dp = point_at(free_points, 1.0)
    W = PotentialParts(sine_coeffs=(0.0, 1.0))
    plus = {g: measure_splitting(from_parts(replace(W, gamma=g)), dp.k0, dp.mu, 24)[0]
            for g in (0.01, 0.02, 0.04, 0.08)}
    assert richardson_slope(plus) == splitting_slope(W, dp, 24)
    del plus[0.02]
    with pytest.raises(ConfigError, match="1:2:4"):
        richardson_slope(plus)


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

    def test_records_pinned_at_J64(self):
        # the measured pairs and relative gaps of m = 1..12 at J = 64, pinned to
        # 1e-12: a change of assembly or eigensolver path must not move them
        a, b = self.sequences(48)
        recs = prop3_scan(a, b, 0.5, range(1, 13), J=64)
        assert [r.mu for r in recs] == [float(m * m) for m in range(1, 13)]
        assert [r.measured[0] for r in recs] == pytest.approx([
            0.6875407369647246, 4.109307644761931 + 0.104365876566542j,
            9.042297371731788 + 0.04959843765103723j, 16.023304608817575 + 0.02717098766847321j,
            25.014827094832594 + 0.01796159856988661j, 36.01026981693291 + 0.013112889053357165j,
            49.0075347048238 + 0.010159294109158987j, 64.00576401363682 + 0.008189909828872735j,
            81.00455189998189 + 0.0067937157890398244j, 100.00368574762605 + 0.005758842053138587j,
            121.00304532896905 + 0.004965347427274498j,
            144.00255847262483 + 0.004340445789594642j], rel=1e-12)
        assert recs[0].measured[1] == pytest.approx(1.6335820589677934, rel=1e-12)
        assert [r.measured[1] for r in recs[1:]] == pytest.approx(
            [r.measured[0].conjugate() for r in recs[1:]], rel=1e-12)
        assert [r.relative_gap for r in recs] == pytest.approx([
            1.0, 0.6698540250646721, 0.45789037141144023, 0.22961853644246188,
            0.13599123796929474, 0.09018512357256164, 0.06435273974242392,
            0.04830845809571005, 0.03763862083898209, 0.030172984200187,
            0.024739928339029153, 0.020660234308976847], rel=1e-12)

    def test_sequence_length_validated(self):
        a, b = self.sequences(10)
        with pytest.raises(ConfigError):
            prop3_scan(a, b, 0.5, [8], J=64)

    def test_huge_range_refused_before_any_m_is_read(self):
        # the top m of a range is checked first: range(1, 10**11 + 1) was once
        # sorted and validated m by m, a list the size of the machine
        child = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
            import numpy as np
            from ptbands import ConfigError, prop3_scan
            a = np.arange(1, 49, dtype=float) ** -2.5
            try:
                prop3_scan(a, a, 0.5, range(1, 10**11 + 1), 64)
            except ConfigError as exc:
                print(exc)
        """)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"),
                                              os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                              env=env, timeout=10)
        assert (proc.returncode, proc.stdout) == (
            0, "J = 64 too small for m up to 100000000000; need J >= 200000000016\n"), proc.stderr

    @pytest.mark.parametrize("m_range", [[6.7, True], [6, 7.0], [True], [0, 6], [], range(0, 6),
                                         range(3, 1)])
    def test_m_range_must_hold_positive_integers(self, m_range):
        # [6.7, True] once ran as m = 1 and 6
        a, b = self.sequences(48)
        with pytest.raises(ConfigError, match="positive integers"):
            prop3_scan(a, b, 0.5, m_range, J=64)


def test_measured_conjugate_symmetry():
    a = np.arange(1, 49, dtype=float) ** -2.5
    b = np.arange(1, 49, dtype=float) ** -1.5
    recs = prop3_scan(a, b, 0.5, range(6, 13), J=64)
    for r in recs:
        assert r.measured[0].imag == pytest.approx(-r.measured[1].imag, abs=1e-10)
