import numpy as np
import pytest

from ptbands import (AssumptionError, ComplexBandError, ConfigError, TruncationError,
                     check_assumption, compute_bands, constant, eigen,
                     edge_curvature, extract_effective_model, from_parts, make_mode,
                     second_derivative, PotentialParts)
from ptbands import bands
from ptbands.bands import (TAIL_MAX, TAIL_TOL, _assignment, _best_match, _leading_block,
                           _padded_residuals, _track, k_grid, require_assumption)
from conftest import every_column, gentle_parts, two_harmonic_parts, two_harmonic_potential
from oracles import assemble, curvature_from_fit, solve

FREE = constant(0.0)


def test_k_grid_contains_high_symmetry_points():
    ks = k_grid(32)
    assert 0.0 in ks and 0.5 in ks
    assert ks[0] > -0.5 and ks[-1] == 0.5
    with pytest.raises(ConfigError):
        k_grid(15)


def test_k_grid_exactly_antisymmetric():
    for N in (16, 32, 48, 64, 128):
        ks = k_grid(N)
        interior = ks[:-1]                       # 1/2 is its own mirror mod 1
        assert np.array_equal(-interior[::-1], interior)
        if N & (N - 1) == 0:
            # same bits as the former -1/2 + i/N_k grid
            assert np.array_equal(ks, -0.5 + np.arange(1, N + 1) / N)


class TestComputeBands:
    def test_free_bands_are_shifted_parabolas(self):
        bs = compute_bands(FREE, 10, 16, 5)
        for i, k in enumerate(bs.k_grid):
            expected = np.sort((np.arange(-10, 11) + k) ** 2)[:5]
            assert np.allclose(np.sort(bs.omega[:, i].real), expected)
            assert np.abs(bs.omega[:, i].imag).max() < 1e-12

    def test_tracking_is_a_permutation(self):
        # sorted tracked values equal sorted raw eigenvalues at every k, exactly;
        # the sweep solves |k| and mirrors it to -k, so that is the raw spectrum
        p = two_harmonic_potential(1.5)
        bs = compute_bands(p, 16, 16, 6)
        for i, k in enumerate(bs.k_grid):
            raw = solve(assemble(p, abs(k), 16)).eigenvalues[:6]
            assert np.array_equal(np.sort_complex(bs.omega[:, i]), np.sort_complex(raw))

    @pytest.mark.parametrize("parts", [two_harmonic_parts(1.0), two_harmonic_parts(1.5),
                                       gentle_parts()], ids=["gamma1", "gamma15", "gentle"])
    def test_mirrored_sweep_matches_direct(self, parts):
        # every column, -k included, solved directly in the block the sweep
        # certified at |k| and tracked the same way; N_k = 48 is not a power
        # of two, so this also needs the exactly antisymmetric grid
        p = from_parts(parts)
        bs = compute_bands(p, 32, 48, 5)
        direct = [solve(assemble(p, k, Jb)) for k, Jb in zip(bs.k_grid, bs.block_J)]
        omega, quality = _track([s.eigenvalues[:5] for s in direct],
                                [s.right_vectors[:, :5] for s in direct])
        assert np.abs(omega - bs.omega).max() <= 2e-13 * np.abs(omega).max()
        assert np.abs(quality - bs.tracking_quality).max() <= 1e-12

    @pytest.mark.parametrize("J", [64, 128])
    def test_sweep_matches_full_truncation_within_condition(self, J):
        # against full-J solves the certified blocks differ by rounding amplified
        # by the eigenvalue condition kappa: |d omega| <= kappa u ||M_J||
        p = two_harmonic_potential(1.5)
        bs = compute_bands(p, J, 48, 5)
        assert bs.block_J.max() < J
        for i, k in enumerate(bs.k_grid):
            M = assemble(p, k, J)
            full = solve(M, lambda w: slice(5))
            w, r, l = full.eigenvalues, full.right_vectors, full.left_vectors
            for omega in bs.omega[:, i]:
                j = int(np.argmin(np.abs(w - omega)))
                kappa = np.linalg.norm(l[:, j]) * np.linalg.norm(r[:, j]) / abs(np.vdot(l[:, j], r[:, j]))
                assert abs(omega - w[j]) <= kappa * np.finfo(float).eps * M.norm()

    def test_block_size_independent_of_J(self, monkeypatch):
        # the largest matrix the sweep decomposes is fixed by the lattice, not by J
        p = two_harmonic_potential(1.5)
        sizes = []
        full_decompose = eigen.decompose
        monkeypatch.setattr(eigen, "decompose", lambda A, pick=None: sizes.append(
            (A.shape[-1] - 1) // 2) or full_decompose(A, pick))
        largest = []
        for J in (32, 128):
            sizes.clear()
            compute_bands(p, J, 64, 6)
            largest.append(max(sizes))
        assert largest[0] == largest[1] == 22

    @pytest.mark.parametrize("gamma", [1.0, 1.5])
    def test_padded_pairs_are_eigenpairs_of_full_matrix(self, gamma):
        # the residual of a zero-padded block pair against M_J is its backward
        # error; each column's block is solved here directly at its J'
        p = two_harmonic_potential(gamma)
        J = 96
        bs = compute_bands(p, J, 32, 6)
        assert (bs.block_J < J).all() and (bs.tail_weight <= TAIL_TOL).all()
        scale = np.maximum(1.0, np.abs(bs.omega).max(axis=0))
        assert (bs.residual <= 1e-12 * scale).all()
        for i, (k, Jb) in enumerate(zip(bs.k_grid, bs.block_J)):
            block = solve(assemble(p, k, Jb))
            v = np.zeros((2 * J + 1, 6), dtype=complex)
            v[J - Jb:J + Jb + 1] = block.right_vectors[:, :6]
            res = np.linalg.norm(assemble(p, k, J).entries @ v - v * block.eigenvalues[:6], axis=0)
            assert (res <= 1e-12 * scale[i]).all()

    def test_J_is_a_cap(self):
        # no array of a sweep grows with J: at J = 10^12 (a zero-padded vector
        # would take 32 TB) the sweep solves and keeps what it does at J = 64
        import tracemalloc
        p = two_harmonic_potential(1.5)
        small = compute_bands(p, 64, 64, 6)
        tracemalloc.start()
        try:
            big = compute_bands(p, 10**12, 64, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        for name in ("omega", "tracking_quality", "block_J", "tail_weight", "residual"):
            assert np.array_equal(getattr(big, name), getattr(small, name)), name

    @pytest.mark.parametrize("parts, J, n_bands, block_J", [
        # two blocks a column apart: 18 for k = 0 ... 5/32, then 22
        (two_harmonic_parts(1.5), 64, 3, [18] * 6 + [22] * 11),
        (gentle_parts(), 64, 1, [10] * 9 + [12] * 8),
    ])
    def test_block_climbs_mid_sweep_as_column_by_column(self, monkeypatch, parts, J, n_bands,
                                                        block_J):
        # a column whose tail exceeds TAIL_TOL in the stack climbs on its own and
        # the columns after it are stacked again, so every column is solved at
        # the J' and to the bits of a walk through the grid one column at a time
        p = from_parts(parts)
        stacks = []
        full_decompose = eigen.decompose
        monkeypatch.setattr(eigen, "decompose", lambda A, pick=None: stacks.append(
            A.shape) or full_decompose(A, pick))
        bs = compute_bands(p, J, 32, n_bands)
        ks = bs.k_grid[15:]                     # k = 0, 1/32, ..., 1/2
        assert bs.block_J[15:].tolist() == block_J
        # climbing columns are stacks of one
        assert len({shape[-1] for shape in stacks if shape[0] > 1}) == 2
        Jb, walk = min(J, max(bands.SWEEP_J0, n_bands, p.max_harmonic)), []
        for i, k in enumerate(ks):
            # each column climbs from the last one's J' until its tail is certified
            while True:
                blocks = bands._stacked_blocks(p, [k], J, Jb, lambda w: slice(n_bands))
                if blocks.tail[0] <= TAIL_TOL or Jb >= J:
                    break
                Jb = min(bands._sweep_rung(Jb), J)
            walk.append(Jb)
            assert np.array_equal(np.sort_complex(bs.omega[:, 15 + i]),
                                  np.sort_complex(blocks.w[0, :n_bands]))
        assert walk == block_J

    def test_sweep_decomposes_only_stacks(self, monkeypatch):
        # the k = 0 climb and the mid-sweep re-climb (two-harmonic gamma = 1.5,
        # 3 bands: 18 up to k = 5/32, then 22) are stacks of one, not single matrices
        full_decompose = eigen.decompose
        monkeypatch.setattr(eigen, "decompose", lambda A, pick=None: full_decompose(A, pick)
                            if A.ndim == 3 else pytest.fail("single matrix decomposed"))
        bs = compute_bands(two_harmonic_potential(1.5), 64, 32, 3)
        assert set(bs.block_J.tolist()) == {18, 22}

    def test_block_grows_for_every_requested_band(self):
        # gamma = 1, k = 0, J' = 17: band 1 weighs 2.5e-15 at |j| = 16, 17, band 6 3.4e-13
        p = two_harmonic_potential(1.0)
        assert _leading_block(p, 0.0, 68, lambda w: slice(1), 17).J == 17
        assert _leading_block(p, 0.0, 68, lambda w: slice(6), 17).J == 34

    @pytest.mark.parametrize("k", [0.0, 0.5])
    def test_banded_residual_matches_dense(self, k):
        # a J' = 16 block of the gamma = 1.5 lattice leaves weight 2.5e-12 at
        # |j| = 16; the residual of its padded pairs against M_32 (6e-12 and
        # 1.5e-11, against 1e-13 inside the block) comes from the rows past 16,
        # which _stacked_blocks assembles once with the block at its centre
        p = two_harmonic_potential(1.5)
        _, w, right, left, cols, _ = blocks = _leading_block(p, k, 32, lambda w: slice(5), 16, 1.0)
        E = bands._stacked_blocks(p, [k], 32, blocks.J, lambda w: slice(5)).E
        assert (blocks.J, E.shape[-1]) == (16, 2 * 18 + 1)
        assert np.array_equal(w[0], solve(assemble(p, k, 16)).eigenvalues)
        w, right, left = w[:, cols], right[:, :, cols], left[:, :, cols]
        r, l = (np.pad(v[0], ((16, 16), (0, 0))) for v in (right, left))
        M = assemble(p, k, 32).entries
        dense = max(np.linalg.norm(M @ r - r * w[0], axis=0).max(),
                    np.linalg.norm(M.conj().T @ l - l * w[0].conj(), axis=0).max())
        assert dense > 5e-12
        assert _padded_residuals(E, w, right, left)[0] == pytest.approx(dense, rel=1e-6)

    def test_unresolved_truncation_refused(self):
        # J = 4: the lowest bands weigh 0.25 at |j| = 3, 4 and the band-edge
        # eigenvalues are 2.8e-2 off
        with pytest.raises(TruncationError, match=r"weigh 2\.5e-01 at \|j\| > 2 .* at J = 16"):
            compute_bands(two_harmonic_potential(1.5), 4, 32, 5)
        # J = 12 resolves them: weight 3.6e-7, eigenvalues within roundoff
        bs = compute_bands(two_harmonic_potential(1.5), 12, 32, 5)
        assert bs.tail_weight.max() < TAIL_MAX

    @pytest.mark.parametrize("parts, n_bands", [(two_harmonic_parts(1.0), 3),
                                                 (PotentialParts((), (0.0, 1.0), 0.0), 6)])
    def test_stacked_edge_spectrum_matches_single_solve(self, parts, n_bands):
        # k = 1/2 comes out of a stack: its spectrum is the block's own, with
        # left vectors in the picked columns only, or in every column when the
        # block is Hermitian (sin 2x at gamma = 0, where left = right)
        p = from_parts(parts)
        bs = compute_bands(p, 32, 64, n_bands)
        edge = bs.edge_spectra[0.5]
        spec = solve(assemble(p, 0.5, edge.J), lambda w: slice(n_bands))
        assert np.array_equal(edge.eigenvalues, spec.eigenvalues)
        assert np.array_equal(edge.right_vectors, spec.right_vectors)
        assert np.array_equal(np.isnan(edge.left_vectors), np.isnan(spec.left_vectors))
        picked = slice(n_bands)
        assert np.abs(edge.left_vectors[:, picked] - spec.left_vectors[:, picked]).max() <= 1e-14
        if parts.gamma == 0.0:
            assert not np.isnan(edge.left_vectors).any()
            assert np.array_equal(edge.left_vectors, edge.right_vectors)
        else:
            assert np.isnan(edge.left_vectors[:, n_bands:]).all()

    def test_keeps_full_edge_spectra_only(self):
        p = two_harmonic_potential(1.0)
        bs = compute_bands(p, 12, 16, 3)
        assert set(bs.edge_spectra) == {0.0, 0.5}
        for k0, spec in bs.edge_spectra.items():
            assert spec.k == k0 and spec.eigenvalues.shape == (25,)
            col = bs.column(k0)
            assert np.array_equal(np.sort_complex(bs.omega[:, col]),
                                  np.sort_complex(spec.eigenvalues[:3]))

    def test_two_harmonic_reality_structure(self):
        bs1 = compute_bands(two_harmonic_potential(1.0), 20, 32, 3)
        assert np.abs(bs1.omega.imag).max() < 1e-7

        bs15 = compute_bands(two_harmonic_potential(1.5), 20, 32, 5)
        assert np.abs(bs15.band(1).imag).max() > 1e-2   # collided pair
        assert np.abs(bs15.band(2).imag).max() > 1e-2
        assert np.abs(bs15.band(3).imag).max() < 1e-8
        # bands 4-5 break on a proper subinterval around k = 0 only
        im4 = np.abs(bs15.band(4).imag)
        assert im4[bs15.column(0.0)] > 1e-2
        assert im4[bs15.column(0.5)] < 1e-8

    def test_reflection_symmetry_of_real_bands(self):
        bs = compute_bands(two_harmonic_potential(1.0), 20, 32, 5)
        ks = bs.k_grid
        for m in range(1, 6):
            vals = bs.band(m).real
            for i, k in enumerate(ks):
                j = np.argmin(np.abs(ks + k))
                if abs(ks[j] + k) < 1e-12:
                    assert abs(vals[i] - vals[j]) < 1e-9


def test_assignment_matches_linear_sum_assignment():
    # the tracker resolves equal-overlap optima as scipy's solver does
    from scipy.optimize import linear_sum_assignment
    rng = np.random.default_rng(7)
    for trial in range(3000):
        n = int(rng.integers(1, 9))
        cost = (rng.random((n, n)), rng.integers(0, 3, (n, n)).astype(float),
                -1.0 * (rng.random((n, n)) > 0.5))[trial % 3]
        assert _assignment(cost.tolist()) == linear_sum_assignment(cost)[1].tolist()


class TestBestMatch:
    @pytest.fixture
    def solver_calls(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bands, "_assignment", lambda cost: calls.append(cost) or _assignment(cost))
        return calls

    def test_argmax_path_is_the_assignment_optimum(self, solver_calls):
        # random overlaps, near-permutations and integer ones (ties and collisions)
        rng = np.random.default_rng(11)
        taken = 0
        for trial in range(3000):
            n = int(rng.integers(1, 9))
            overlap = (rng.random((n, n)),
                       np.eye(n)[rng.permutation(n)] + 0.4 * rng.random((n, n)),
                       rng.integers(0, 3, (n, n)).astype(float))[trial % 3]
            before = len(solver_calls)
            perm = _best_match(overlap).tolist()
            assert perm == _assignment((-overlap).tolist())
            taken += len(solver_calls) == before
        assert 1000 < taken < 2900

    @pytest.mark.parametrize("overlap", [
        [[0.9, 0.9], [0.1, 0.8]],                 # permutation, tie in row 0
        [[0.9, 0.2], [0.8, 0.1]],                 # both rows on column 0
        [[0.5, 0.5], [0.5, 0.5]],                 # every permutation optimal
    ])
    def test_tie_or_collision_falls_back(self, solver_calls, overlap):
        overlap = np.array(overlap)
        assert _best_match(overlap).tolist() == _assignment((-overlap).tolist())
        assert len(solver_calls) == 1

    def test_strict_permutation_skips_solver(self, solver_calls):
        overlap = np.array([[0.1, 0.9, 0.2], [0.3, 0.2, 0.8], [0.7, 0.6, 0.1]])
        assert _best_match(overlap).tolist() == [1, 2, 0]
        assert solver_calls == []


class TestCheckAssumption:
    def test_gamma15_band3_passes_with_edges(self):
        p = two_harmonic_potential(1.5)
        bs = compute_bands(p, 24, 32, 5)
        rep = check_assumption(bs, 3, p=p)
        assert rep.is_real and rep.assumption_ok
        by_which = {e.which: e for e in rep.edges}
        assert by_which["a"].k0 == 0.0 and by_which["b"].k0 == 0.5
        assert by_which["a"].omega_star == pytest.approx(1.7909, abs=2e-4)
        assert by_which["b"].omega_star == pytest.approx(2.4374, abs=2e-4)

    def test_gamma15_band1_fails_reality(self):
        p = two_harmonic_potential(1.5)
        bs = compute_bands(p, 24, 32, 5)
        rep = check_assumption(bs, 1, p)
        assert not rep.is_real
        assert rep.max_im > 1e-2
        with pytest.raises(AssumptionError):
            require_assumption(rep)

    def test_free_band_fails_isolation(self):
        bs = compute_bands(FREE, 10, 32, 4)
        rep = check_assumption(bs, 1, FREE)
        assert rep.isolation_gap < 1e-10
        assert not rep.assumption_ok

    @pytest.mark.parametrize("chunk", [1, 7, 2 ** 16])
    def test_isolation_gap_equals_dense_distance(self, monkeypatch, chunk):
        # the gap is taken over slices of k; its value is the dense minimum
        monkeypatch.setattr(bands, "ISOLATION_CHUNK", chunk)
        p = two_harmonic_potential(1.5)
        bs = compute_bands(p, 24, 32, 5)
        for m in range(1, 6):
            vals, others = bs.band(m), np.delete(bs.omega, m - 1, axis=0)
            dense = np.abs(vals[None, None, :] - others[:, :, None]).min()
            assert check_assumption(bs, m, p).isolation_gap == dense

    def test_isolation_gap_memory_does_not_grow_with_grid_squared(self):
        # N_k = 2048, 6 bands: the dense distance array would hold 5 * 2048^2
        # complex entries (336 MB)
        import tracemalloc
        from ptbands.bands import BandStructure
        rng = np.random.default_rng(3)
        omega = rng.standard_normal((6, 2048)) + 1j * rng.standard_normal((6, 2048))
        bs = BandStructure(k_grid=k_grid(2048), omega=omega, tracking_quality=None,
                           edge_spectra={}, block_J=None, tail_weight=None, residual=None)
        tracemalloc.start()
        try:
            rep = check_assumption(bs, 1, FREE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6
        assert 0 < rep.isolation_gap < 0.1


class TestEdgeCurvature:
    # (potential, J, k0, band m): edges of the gentle and two-harmonic lattices
    CASES = [
        (from_parts(gentle_parts()), 20, 0.0, 1),
        (from_parts(gentle_parts()), 20, 0.5, 1),
        (from_parts(gentle_parts()), 20, 0.5, 3),     # neighbour 0.038 away
        (two_harmonic_potential(1.0), 24, 0.0, 2),
        (two_harmonic_potential(1.5), 24, 0.0, 3),
        # a near-exceptional pair (|l^H r| ~ 1.5e-9) elsewhere in this spectrum
        # pulls the second-order spectral sum to -90.41; the bordered solve
        # does not see it
        (two_harmonic_potential(1.5), 32, 0.5, 3),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_bordered_matches_richardson(self, case):
        # Richardson converges to the bordered value until eigenvalue roundoff,
        # amplified by cond/h^2, takes over below h ~ 1e-3
        p, J, k0, m = self.CASES[case]
        bs = compute_bands(p, J, 32, m + 2)
        idx = bs.edge_index(m, k0)
        curv, cond = edge_curvature(p, bs.edge_spectra[k0], idx)
        assert 1.0 <= cond < 1e3
        roundoff = cond * np.finfo(float).eps * assemble(p, k0, J).norm()
        for h in (1e-2, 1e-3, 1e-4, 1e-5):
            ref, _ = second_derivative(p, idx + 1, k0, J, h=h)
            assert abs(curv - ref) <= 1e-7 * max(1.0, abs(ref)) + 64 * roundoff / h**2

    def test_interior_k_matches_central_difference(self):
        # off the edges omega' != 0, so the projection (I - r l^H / s) matters
        p = two_harmonic_potential(1.0)
        k, h, J = 0.23, 1e-3, 16
        w = [solve(assemble(p, k + d, J)).eigenvalues[1].real for d in (-h, 0.0, h)]
        curv, _ = edge_curvature(p, solve(assemble(p, k, J), every_column), 1)
        assert curv == pytest.approx((w[0] - 2 * w[1] + w[2]) / h**2, abs=1e-5)

    def test_two_harmonic_near_exceptional_edge_value(self):
        p = two_harmonic_potential(1.5)
        spec = solve(assemble(p, 0.5, 32), every_column)
        curv, _ = edge_curvature(p, spec, 2)
        assert curv == pytest.approx(-94.005, abs=1e-3)

    def test_two_harmonic_band3_edges_pinned(self):
        # band 3 of the gamma = 1.5 lattice at both edges of the sweep's J' = 22
        # edge blocks, pinned to 1e-12: a change of assembly path must not move them
        p = two_harmonic_potential(1.5)
        bs = compute_bands(p, 24, 32, 5)
        rep = check_assumption(bs, 3, p=p)
        by_k0 = {e.k0: (e.curvature, e.condition) for e in rep.edges}
        assert by_k0[0.0] == pytest.approx((6.568695499342126, 1.2688369757560725), rel=1e-12)
        assert by_k0[0.5] == pytest.approx((-94.00529400286739, 7.464838349049885), rel=1e-12)

    @pytest.mark.parametrize("gamma, J, checked", [(1.5, 24, (3,)), (1.0, 32, (1, 2, 3, 4, 5))])
    def test_check_assumption_uses_bordered_curvature(self, gamma, J, checked):
        # every real band has both edges' curvatures from edge_curvature on the
        # stored edge spectra, and extract_effective_model, which sweeps the
        # m + 3 lowest bands as here, reads its curvature from that report
        p = two_harmonic_potential(gamma)
        for m in checked:
            bs = compute_bands(p, J, 32, m + 3)
            rep = check_assumption(bs, m, p)
            assert rep.is_real and len(rep.edges) == 2
            for e in rep.edges:
                expect = edge_curvature(p, bs.edge_spectra[e.k0], bs.edge_index(m, e.k0))
                assert np.isfinite(e.curvature)
                assert (e.curvature, e.condition) == expect
                model, _ = extract_effective_model(p, constant(-1.0), m, e.which, J, 32)
                assert (model.k0, model.curvature) == (e.k0, e.curvature)

    def test_degeneracy_decision_independent_of_truncation(self):
        # the band 1/2 gap at k0 = 1/2 is 0.008; 1e-6 of max|omega|, about
        # (J + 1/2)^2, refused it at J = 128 and accepted it at J = 32
        p = from_parts(PotentialParts(cosine_coeffs=(0.008,)))
        for J in (32, 128):
            spec = solve(assemble(p, 0.5, J), every_column)
            assert spec.gap(0) == pytest.approx(0.008, rel=1e-3)
            assert np.isfinite(edge_curvature(p, spec, 0)[0])
            assert make_mode(spec, 0).omega == spec.eigenvalues[0]

    def test_degenerate_edge_gives_nan(self):
        # free band 1 at k0 = 1/2: e^{0} and e^{-ix} share omega = 1/4
        bs = compute_bands(FREE, 10, 32, 4)
        rep = check_assumption(bs, 1, p=FREE)
        by_k0 = {e.k0: e for e in rep.edges}
        assert by_k0[0.0].curvature == pytest.approx(2.0, abs=1e-12)
        assert np.isnan(by_k0[0.5].curvature)
        assert by_k0[0.5].condition == pytest.approx(1.0)


class TestSecondDerivative:
    def test_free_lowest_band_center(self):
        val, err = second_derivative(FREE, 1, 0.0, 16)
        assert val == pytest.approx(2.0, abs=1e-10)
        assert err < 1e-10

    def test_free_crossing_band_at_zone_edge(self):
        # the band through (k-1)^2 crosses at k=1/2; central differences with
        # periodic wrap still see a clean parabola
        val, err = second_derivative(FREE, 1, 0.5, 16)
        assert val == pytest.approx(2.0, abs=1e-9)

    def test_two_estimators_agree(self):
        p = from_parts(PotentialParts(cosine_coeffs=(2.0,)))
        val, err = second_derivative(p, 1, 0.0, 24)
        fit = curvature_from_fit(p, 1, 0.0, 24)
        assert abs(val - fit) <= 1e-5
        assert err <= 1e-6

    def test_invariant_under_truncation_increase(self):
        p = from_parts(PotentialParts(cosine_coeffs=(2.0,)))
        v24, _ = second_derivative(p, 1, 0.0, 24)
        v32, _ = second_derivative(p, 1, 0.0, 32)
        assert abs(v24 - v32) < 1e-8

    def test_known_bad_gentle_edge(self):
        # band 3 at k0 = 1/2, J = 20: h = 0.04/0.01 give +502.7/-428.84; the
        # bounded step loop goes on to 0.0025 and 0.000625
        val, err = second_derivative(from_parts(gentle_parts()), 3, 0.5, 20)
        assert val == pytest.approx(-446.194, abs=1e-3)
        assert err <= 1e-6 * abs(val)

    def test_known_bad_gentle_edge_pinned(self):
        # value and error estimate pinned to 1e-12 (the test above reads 1e-3)
        val, err = second_derivative(from_parts(gentle_parts()), 3, 0.5, 20)
        assert val == pytest.approx(-446.19425057529344, rel=1e-12)
        assert err == pytest.approx(7.317430572584271e-05, rel=1e-12)

    def test_refuses_complex_band(self):
        with pytest.raises(ComplexBandError):
            second_derivative(two_harmonic_potential(1.5), 1, 0.0, 20)

    def test_rejects_interior_k(self):
        with pytest.raises(ConfigError):
            second_derivative(FREE, 1, 0.25, 16)
