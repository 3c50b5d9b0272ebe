import numpy as np
import pytest

from ptbands import (BlochMode, ComplexBandError, DegenerateEigenvalueError,
                     PotentialParts, Spectrum, constant, edge_curvature,
                     fix_pt_phase, from_parts, make_mode)
from ptbands.discretize import assemble_stack
from ptbands.eigen import TWO_PI, decompose, inner
from conftest import every_column, two_harmonic_potential
from oracles import assemble, solve

FREE = constant(0.0)


def modes_of(p, k, J, indices):
    spec = solve(assemble(p, k, J), every_column)
    return spec, [make_mode(spec, i) for i in indices]


class TestSolve:
    def test_free_spectrum_at_zero(self):
        spec = solve(assemble(FREE, 0.0, 3))
        assert np.allclose(spec.eigenvalues, [0, 1, 1, 4, 4, 9, 9])

    def test_free_spectrum_off_center(self):
        spec = solve(assemble(FREE, 0.3, 3))
        expected = np.sort((np.arange(-3, 4) + 0.3) ** 2)
        assert np.allclose(spec.eigenvalues, expected)

    def test_symmetry_broken_pair(self):
        spec = solve(assemble(two_harmonic_potential(1.5), 0.0, 20))
        lo = spec.eigenvalues[:2]
        assert abs(lo[0].imag) > 1e-3
        assert lo[0] == pytest.approx(np.conj(lo[1]))

    def test_residuals(self):
        for p, k in ((FREE, 0.3), (two_harmonic_potential(1.0), 0.0),
                     (two_harmonic_potential(1.5), 0.5)):
            M = assemble(p, k, 16)
            spec = solve(M)
            R = M.entries @ spec.right_vectors - spec.right_vectors * spec.eigenvalues
            assert np.abs(R).max() <= 1e-9 * M.norm()


class TestLeftVectors:
    CASES = [(two_harmonic_potential(1.0), 0.0), (two_harmonic_potential(1.5), 0.5),
             (two_harmonic_potential(1.5), 0.21), (FREE, 0.3)]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_left_vectors_are_adjoint_eigenvectors(self, case):
        # l is an eigenvector of M^H at conj(omega): compare against an
        # independent solve of M^H, matched by eigenvalue, up to a phase
        p, k = self.CASES[case]
        M = assemble(p, k, 16)
        spec = solve(M, every_column)
        MH = M.entries.conj().T
        w_adj, v_adj = np.linalg.eig(MH)
        L = spec.left_vectors
        R = MH @ L - L * np.conj(spec.eigenvalues)
        assert np.abs(R).max() <= 1e-9 * M.norm()
        for i in range(6):
            j = int(np.argmin(np.abs(w_adj - np.conj(spec.eigenvalues[i]))))
            assert abs(abs(np.vdot(v_adj[:, j], L[:, i])) - 1) <= 1e-9

    def test_biorthogonal_to_right_vectors(self):
        spec = solve(assemble(two_harmonic_potential(1.5), 0.5, 16), every_column)
        G = spec.left_vectors.conj().T @ spec.right_vectors
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() <= 1e-9

    def test_near_doubles_and_near_exceptional_pair_stay_apart(self):
        # at J = 32 the top of this block holds near-doubles 1e-13 apart (about
        # u ||M||) and a pair with |l^H r| ~ 1e-9; one inverse-iteration step
        # from the right vectors mixes such neighbours by up to 0.1
        M = assemble(two_harmonic_potential(1.5), 0.5, 32)
        spec = solve(M, every_column)
        L, R = spec.left_vectors, spec.right_vectors
        G = L.conj().T @ R
        assert np.abs(G - np.diag(np.diag(G))).max() <= 1e-9
        res = M.entries.conj().T @ L - L * np.conj(spec.eigenvalues)
        assert np.abs(res).max() <= 1e-9 * M.norm()

    def test_eigenvalues_only_matches_solve(self):
        from ptbands import eigenvalues
        for p, k in self.CASES:
            M = assemble(p, k, 16)
            w = eigenvalues(M.entries)
            assert np.abs(w - solve(M).eigenvalues).max() <= 1e-11 * M.norm()


class TestPickedLeftVectors:
    """Left vectors of the columns a sweep picks, against scipy's dgeev pairs.

    Each lattice is solved in the block its band sweep settles on, for the
    bands the sweep certifies; scipy serves as the reference here only.
    """

    LATTICES = {"two_harmonic_g1": (PotentialParts((2.0, 1.0), (0.0, 1.0), 1.0), 18, 5),
                "two_harmonic_g15": (PotentialParts((2.0, 1.0), (0.0, 1.0), 1.5), 22, 5),
                "gentle": (PotentialParts((1.0,), (1.0,), 0.5), 12, 4),
                "sin2x": (PotentialParts((), (0.0, 1.0), 0.2), 16, 6)}

    @staticmethod
    def pairing(L, R):
        return np.abs(np.einsum("ji,ji->i", L.conj(), R))

    @pytest.mark.parametrize("name", LATTICES)
    def test_residual_and_pairing_match_scipy(self, name):
        import scipy.linalg
        parts, J, n_bands = self.LATTICES[name]
        p = from_parts(parts)
        for k in np.linspace(0.0, 0.5, 9):
            M = assemble(p, k, J)
            spec = solve(M, lambda w: slice(n_bands))
            w, L = spec.eigenvalues[:n_bands], spec.left_vectors[:, :n_bands]
            res = np.linalg.norm(M.entries.conj().T @ L - L * w.conj(), axis=0)
            assert res.max() <= 10 * len(w) * np.finfo(float).eps * M.norm()
            ws, ls, rs = scipy.linalg.eig(M.entries.real, left=True)
            order = np.lexsort((ws.imag, ws.real))[:n_bands]
            assert np.abs(ws[order] - w).max() <= 1e-12 * M.norm()
            ours = self.pairing(L, spec.right_vectors[:, :n_bands])
            ref = self.pairing(ls[:, order], rs[:, order])
            # members of an exact double may come in either order
            key = np.round(w.real, 9) + 1j * np.round(w.imag, 9)
            for value in np.unique(key):
                group = key == value
                assert np.sort(ours[group]) == pytest.approx(np.sort(ref[group]), rel=1e-10)

    def test_exact_doubles_biorthogonal_full_rank(self):
        # sin 2x has period pi, so at k = 1/2 the spectrum is exactly double:
        # even-j and odd-j chains carry one member each
        p = from_parts(self.LATTICES["sin2x"][0])
        spec = solve(assemble(p, 0.5, 16), lambda w: slice(6))
        w = spec.eigenvalues[:6]
        assert np.abs(w[0::2] - w[1::2]).max() <= 1e-13
        G = spec.left_vectors[:, :6].conj().T @ spec.right_vectors[:, :6]
        assert np.abs(G - np.diag(np.diag(G))).max() <= 1e-12
        assert np.abs(np.diag(G)).min() >= 0.99
        assert np.linalg.matrix_rank(G) == 6

    def test_non_hermitian_diagonal_block_sweeps(self):
        # V = i: a diagonal block with exact doubles at k = 0, where an unshifted
        # inverse-iteration step meets an exactly singular system
        from ptbands import PeriodicPotential, compute_bands
        bs = compute_bands(PeriodicPotential(coeffs={0: 1j}), 8, 32, 5)
        js = np.arange(-8, 9)
        for i, k in enumerate(bs.k_grid):
            expect = np.sort_complex((js + k) ** 2 + 1j)[:5]
            assert np.abs(np.sort_complex(bs.omega[:, i]) - expect).max() <= 1e-13

    def test_exact_eigenvalue_takes_a_nonsingular_step(self):
        # a right vector 1e-6 off spoils row 0 of R^{-1}; the inverse-iteration
        # step at the exact eigenvalue 1 meets A^H - I, singular without its shift
        from ptbands.eigen import _left_vectors
        A = np.diag([1.0, 2.0, 3.0])
        right = np.eye(3)
        right[0, 1] = 1e-6
        left = _left_vectors(A[None], np.array([[1.0, 2.0, 3.0]]), right[None], [0])[0]
        assert abs(abs(left[0, 0]) - 1) <= 1e-15
        assert np.abs(left[1:, 0]).max() <= 1e-15
        assert np.isnan(left[:, 1:]).all()

    def test_unpicked_columns_carry_no_left_vector(self):
        from ptbands import PTBandsError
        M = assemble(two_harmonic_potential(1.0), 0.25, 12)
        assert solve(M).left_vectors is None
        spec = solve(M, lambda w: [1])
        assert np.isnan(spec.left_vectors[:, [0, 2]]).all()
        make_mode(spec, 1)
        with pytest.raises(PTBandsError, match="did not pick"):
            make_mode(spec, 2)
        with pytest.raises(PTBandsError, match="did not pick"):
            make_mode(solve(M), 1)


class TestStackedDecomposition:
    """decompose() on the k > 0 blocks of a sweep, one stack, against one
    decomposition per block."""

    LATTICES = {"two_harmonic_g15": (PotentialParts((2.0, 1.0), (0.0, 1.0), 1.5), 22, 5),
                "gentle": (PotentialParts((1.0,), (1.0,), 0.5), 12, 4),
                "sin2x_hermitian": (PotentialParts((), (0.0, 1.0), 0.0), 8, 6)}
    KS = np.arange(1, 33) / 64

    def stack(self, name):
        parts, J, n_bands = self.LATTICES[name]
        p = from_parts(parts)
        A = assemble_stack(p, self.KS, J)
        return p, J, n_bands, A, decompose(A, lambda w: slice(n_bands))

    @pytest.mark.parametrize("name", LATTICES)
    def test_matches_one_decomposition_per_block(self, name):
        p, J, n_bands, A, (w, right, left) = self.stack(name)
        hermitian = name == "sin2x_hermitian"
        assert A.dtype == float
        if hermitian:
            assert left is right
        for i, k in enumerate(self.KS):
            M = assemble(p, k, J)
            assert np.array_equal(A[i], M.entries)
            if hermitian:
                wi, ri = np.linalg.eigh(M.entries.real)
            else:
                wi, ri = np.linalg.eig(M.entries.real)
                order = np.argsort(wi, kind="stable")
                wi, ri = wi[order], ri[:, order]
            assert np.array_equal(w[i], wi) and np.array_equal(right[i], ri)
            spec = solve(M, lambda w: slice(n_bands))
            assert np.abs(left[i][:, :n_bands] - spec.left_vectors[:, :n_bands]).max() <= 1e-14
            if not hermitian:
                assert np.isnan(left[i][:, n_bands:]).all()

    @pytest.mark.parametrize("name", ["two_harmonic_g15", "gentle"])
    def test_spoilt_rows_take_the_inverse_iteration_step(self, name):
        # on the gamma = 1.5 lattice the R^{-1} rows of the lowest five at k = 1/2
        # carry residuals past n d, d = u max(1, max|w|): that block alone is
        # refined, and every picked left vector ends with a residual of order d
        p, J, n_bands, A, (w, right, left) = self.stack(name)
        n, u = 2 * J + 1, np.finfo(float).eps
        spoilt = []
        for i in range(len(self.KS)):
            d = u * max(1.0, np.abs(w[i]).max())
            x = np.linalg.solve(right[i].conj().T, np.eye(n)[:, :n_bands])
            res = np.linalg.norm(A[i].T @ x - x * w[i, :n_bands].conj(), axis=0)
            if (res > n * d * np.linalg.norm(x, axis=0)).any():
                spoilt.append(i)
            L = left[i][:, :n_bands]
            res = np.linalg.norm(A[i].T @ L - L * w[i, :n_bands].conj(), axis=0)
            assert res.max() <= 10 * n_bands * u * np.linalg.norm(A[i], np.inf)
        assert spoilt == ([len(self.KS) - 1] if name == "two_harmonic_g15" else [])


class TestGaugeSimilarityOracle:
    """Independent oracle for the non-selfadjoint path.

    For V = c1 e^{ix} + c_{-1} e^{-ix} with c1*c_{-1} > 0, the diagonal
    gauge r^j with r = sqrt(c_{-1}/c1) is an exact similarity onto the
    real symmetric problem with both couplings sqrt(c1*c_{-1}).  The full
    spectrum of the PT lattice must therefore coincide with that of a
    plain cosine lattice to machine precision.
    """

    def test_spectrum_matches_real_cosine_lattice(self):
        from conftest import gentle_parts
        p_pt = from_parts(gentle_parts(0.5))          # c1 = 0.75, c-1 = 0.25
        amp = 2 * np.sqrt(0.75 * 0.25)
        p_re = from_parts(PotentialParts(cosine_coeffs=(amp,)))
        for k in (0.0, 0.3, 0.5):
            w1 = solve(assemble(p_pt, k, 20)).eigenvalues
            w2 = solve(assemble(p_re, k, 20)).eigenvalues
            assert np.abs(w1.imag).max() < 1e-11
            assert np.abs(np.sort(w1.real) - np.sort(w2.real)).max() < 1e-10

    def test_broken_phase_above_unit_gamma(self):
        # c1*c_{-1} < 0: the gauge becomes complex and the lowest crossing
        # splits into a conjugate pair
        from conftest import gentle_parts
        p = from_parts(gentle_parts(1.5))             # c-1 = -0.25
        w = solve(assemble(p, 0.5, 20)).eigenvalues
        assert np.abs(w.imag).max() > 1e-2


from hypothesis import given, settings
from hypothesis import strategies as st


@given(
    cos=st.lists(st.floats(-4, 4, allow_nan=False), min_size=1, max_size=4),
    sin=st.lists(st.floats(-4, 4, allow_nan=False), min_size=1, max_size=4),
    gamma=st.floats(-2, 2, allow_nan=False),
    k=st.floats(-0.5, 0.5, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_random_pt_spectra_conjugation_closed(cos, sin, gamma, k):
    p = from_parts(PotentialParts(tuple(cos), tuple(sin), gamma))
    w = solve(assemble(p, k, 8)).eigenvalues
    scale = np.maximum(1.0, np.abs(w))
    closure = max(np.abs(np.conj(val) - w).min() / s for val, s in zip(w, scale))
    assert closure <= 1e-9


class TestMakeMode:
    def test_free_ground_mode(self):
        spec, (mode,) = modes_of(FREE, 0.0, 6, [0])
        expected = np.zeros(13)
        expected[6] = 1 / np.sqrt(TWO_PI)
        assert np.allclose(mode.p_coeffs, expected)
        assert np.allclose(mode.pstar_coeffs, expected)

    def test_normalizations(self):
        spec, modes = modes_of(two_harmonic_potential(1.0), 0.0, 16, [0, 1, 2])
        for m in modes:
            assert abs(inner(m.p_coeffs, m.p_coeffs) - 1) < 1e-12
            assert abs(inner(m.p_coeffs, m.pstar_coeffs) - 1) < 1e-10

    def test_biorthogonality_across_modes(self):
        for k in (0.0, 0.5):
            spec, modes = modes_of(two_harmonic_potential(1.0), k, 16, range(5))
            for i, mi in enumerate(modes):
                for j, mj in enumerate(modes):
                    val = inner(mj.p_coeffs, mi.pstar_coeffs)
                    assert abs(val - (1.0 if i == j else 0.0)) < 1e-8

    def test_refuses_degenerate(self):
        spec = solve(assemble(FREE, 0.0, 6), every_column)
        with pytest.raises(DegenerateEigenvalueError):
            make_mode(spec, 1)

    def test_near_exceptional_bound_shared_with_edge_curvature(self):
        # omega = 0 has condition 1.5e8: edge_curvature gives NaN and make_mode
        # refuses, where the pairing test refused only above sqrt(2 pi) 1e8
        w, right, left = decompose(np.array([[[0.0, 1.5e5], [0.0, 1e-3]]]), every_column)
        spec = Spectrum(k=0.0, J=0, eigenvalues=w[0], right_vectors=right[0], left_vectors=left[0])
        curv, cond = edge_curvature(None, spec, 0)
        assert np.isnan(curv) and cond == pytest.approx(1.5e8, rel=1e-6)
        with pytest.raises(DegenerateEigenvalueError, match="exceptional point"):
            make_mode(spec, 0)

    def test_reflection_identity_cross_check(self):
        # p*(x, k) prop p(-x, -k): coefficient reflection j -> -j at k=0,
        # j -> -j-1 at k=1/2 (the e^{ix} frame twist of -1/2 = 1/2 - 1)
        cases = [(from_parts(PotentialParts(cosine_coeffs=(2.0,))), 0.5, 0),
                 (two_harmonic_potential(1.0), 0.0, 0),
                 (two_harmonic_potential(1.0), 0.5, 2)]
        for p, k, idx in cases:
            spec, (mode,) = modes_of(p, k, 16, [idx])
            mode = fix_pt_phase(mode)
            shift = int(round(2 * k))
            reflected = np.zeros_like(mode.p_coeffs)
            J = mode.J
            for j in range(-J, J + 1):
                t = -j - shift
                if -J <= t <= J:
                    reflected[t + J] = mode.p_coeffs[j + J]
            ratio = inner(reflected, mode.pstar_coeffs)  # real scaling between the two
            assert abs(ratio.imag) < 1e-8
            defect = np.abs(reflected / np.linalg.norm(reflected)
                            - np.sign(ratio.real) * mode.pstar_coeffs
                            / np.linalg.norm(mode.pstar_coeffs)).max()
            assert defect < 1e-8


class TestFixPtPhase:
    def test_already_real_unchanged_up_to_sign(self):
        spec, (mode,) = modes_of(two_harmonic_potential(1.0), 0.0, 16, [0])
        fixed = fix_pt_phase(mode)
        assert np.abs(np.abs(fixed.p_coeffs) - np.abs(mode.p_coeffs)).max() < 1e-14

    def test_recovers_artificial_rotation(self):
        from dataclasses import replace
        spec, (mode,) = modes_of(two_harmonic_potential(1.0), 0.0, 16, [1])
        rotated = replace(mode, p_coeffs=mode.p_coeffs * np.exp(1j * np.pi / 3),
                          pstar_coeffs=mode.pstar_coeffs * np.exp(1j * np.pi / 3))
        fixed = fix_pt_phase(rotated)
        assert np.abs(fixed.p_coeffs.imag).max() <= 1e-8

    def test_interior_k_point(self):
        spec, (mode,) = modes_of(two_harmonic_potential(1.0), 0.25, 16, [0])
        fixed = fix_pt_phase(mode)
        assert np.abs(fixed.p_coeffs.imag).max() <= 1e-8

    def test_refuses_complex_eigenvalue(self):
        spec, modes = modes_of(two_harmonic_potential(1.5), 0.0, 20, [0])
        with pytest.raises(ComplexBandError):
            fix_pt_phase(modes[0])

    def test_refuses_complex_coefficients(self):
        # a real omega whose mode keeps Im pi_j = 0.5 after the rotation
        mode = BlochMode(k=0.0, omega=1.0 + 0j, p_coeffs=np.array([0.2, 1.0, 0.5j]),
                         pstar_coeffs=np.array([0.2, 1.0, -0.5j]))
        with pytest.raises(ComplexBandError, match="Im pi_j"):
            fix_pt_phase(mode)

    def test_real_band_above_broken_pair(self):
        # third band of the gamma=1.5 lattice stays real at k=0 and fixes cleanly
        spec, (mode,) = modes_of(two_harmonic_potential(1.5), 0.0, 20, [2])
        fixed = fix_pt_phase(mode)
        assert abs(fixed.omega.imag) < 1e-10
        assert np.abs(fixed.p_coeffs.imag).max() <= 1e-8

    def test_lowest_five_bands_on_k_sweep(self):
        p = two_harmonic_potential(1.0)
        for k in np.linspace(-0.5, 0.5, 21):
            spec = solve(assemble(p, k, 20), every_column)
            for m in range(5):
                mode = fix_pt_phase(make_mode(spec, m))
                assert np.abs(mode.p_coeffs.imag).max() <= 1e-8
