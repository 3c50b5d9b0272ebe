import numpy as np
import pytest

from ptbands import (ClassificationError, ComplexBandError, DegenerateEigenvalueError,
                     PotentialParts, assemble, classify, constant,
                     fix_pt_phase, from_parts, make_mode, solve)
from ptbands.eigen import TWO_PI, inner
from conftest import two_harmonic_potential

FREE = constant(0.0)


def modes_of(p, k, J, indices):
    spec = solve(assemble(p, k, J))
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
        spec = solve(M)
        MH = M.entries.conj().T
        w_adj, v_adj = np.linalg.eig(MH)
        L = spec.left_vectors
        R = MH @ L - L * np.conj(spec.eigenvalues)
        assert np.abs(R).max() <= 1e-9 * M.norm()
        for i in range(6):
            j = int(np.argmin(np.abs(w_adj - np.conj(spec.eigenvalues[i]))))
            assert abs(abs(np.vdot(v_adj[:, j], L[:, i])) - 1) <= 1e-9

    def test_biorthogonal_to_right_vectors(self):
        spec = solve(assemble(two_harmonic_potential(1.5), 0.5, 16))
        G = spec.left_vectors.conj().T @ spec.right_vectors
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() <= 1e-9

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_mirrored_equals_direct_solve(self, case):
        p, k = self.CASES[case]
        if k in (0.0, 0.5):
            k = 0.37
        spec, direct = solve(assemble(p, k, 16)), solve(assemble(p, -k, 16))
        mirror = spec.mirrored()
        assert mirror.k == -k
        assert np.abs(mirror.eigenvalues - direct.eigenvalues).max() <= 1e-12 * 256
        M = assemble(p, -k, 16).entries
        for vecs, A, w in ((mirror.right_vectors, M, mirror.eigenvalues),
                           (mirror.left_vectors, M.conj().T, np.conj(mirror.eigenvalues))):
            assert np.abs(A @ vecs - vecs * w).max() <= 1e-9 * 256

    def test_eigenvalues_only_matches_solve(self):
        from ptbands import eigenvalues
        for p, k in self.CASES:
            M = assemble(p, k, 16)
            w = eigenvalues(M)
            assert np.abs(w - solve(M).eigenvalues).max() <= 1e-11 * M.norm()


class TestClassify:
    def test_all_real(self):
        spec = solve(assemble(two_harmonic_potential(1.0), 0.25, 12))
        cls = classify(spec, 1e-8)
        assert len(cls.pairs) == 0
        assert len(cls.real_values) == 25

    def test_constructed_pair(self):
        from ptbands.eigen import Spectrum
        w = np.array([1 - 0.1j, 1 + 0.1j, 2 + 0j])
        spec = Spectrum(k=0.0, J=1, eigenvalues=w, right_vectors=np.eye(3, dtype=complex))
        cls = classify(spec, 1e-8)
        assert len(cls.pairs) == 1 and len(cls.real_values) == 1
        assert cls.pairs[0][0].imag > 0

    def test_broken_pt_pair(self):
        p = from_parts(PotentialParts((), (0.0, 1.0), gamma=0.2))
        spec = solve(assemble(p, 0.0, 16))
        cls = classify(spec, 1e-8)
        near_one = [pair for pair in cls.pairs if abs(pair[0] - 1) < 0.5]
        assert len(near_one) == 1
        assert near_one[0][0] == pytest.approx(1 + 0.1j, abs=5e-3)

    def test_unpaired_complex_raises(self):
        from ptbands.eigen import Spectrum
        w = np.array([1 + 0.1j, 2 + 0j])
        spec = Spectrum(k=0.0, J=0, eigenvalues=w, right_vectors=np.eye(2, dtype=complex))
        with pytest.raises(ClassificationError):
            classify(spec, 1e-8)


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


@given(
    reals=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=8),
    pairs=st.lists(st.tuples(st.floats(-50, 50, allow_nan=False),
                             st.floats(1e-4, 10, allow_nan=False)), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_classify_partition_property(reals, pairs):
    # any conjugation-closed multiset splits with nothing lost or duplicated
    from ptbands.eigen import Spectrum
    w = [complex(r) for r in reals]
    for re, im in pairs:
        w += [complex(re, im), complex(re, -im)]
    w = np.array(w)
    order = np.lexsort((w.imag, w.real))
    spec = Spectrum(k=0.0, J=(len(w) - 1) // 2, eigenvalues=w[order],
                    right_vectors=np.eye(len(w), dtype=complex))
    cls = classify(spec, 1e-8)
    assert len(cls.real_values) + 2 * len(cls.pairs) == len(w)
    recovered = list(cls.real_values.astype(complex))
    for plus, minus in cls.pairs:
        recovered += [plus, minus]
    assert np.allclose(np.sort_complex(np.array(recovered)), np.sort_complex(w))


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
        spec = solve(assemble(FREE, 0.0, 6))
        with pytest.raises(DegenerateEigenvalueError):
            make_mode(spec, 1)

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

    def test_real_band_above_broken_pair(self):
        # third band of the gamma=1.5 lattice stays real at k=0 and fixes cleanly
        spec, (mode,) = modes_of(two_harmonic_potential(1.5), 0.0, 20, [2])
        fixed = fix_pt_phase(mode)
        assert abs(fixed.omega.imag) < 1e-10
        assert np.abs(fixed.p_coeffs.imag).max() <= 1e-8

    def test_lowest_five_bands_on_k_sweep(self):
        p = two_harmonic_potential(1.0)
        for k in np.linspace(-0.5, 0.5, 21):
            spec = solve(assemble(p, k, 20))
            for m in range(5):
                mode = fix_pt_phase(make_mode(spec, m))
                assert np.abs(mode.p_coeffs.imag).max() <= 1e-8
