import numpy as np
import pytest
import scipy.sparse.linalg

from ptbands import (ConfigError, GridError, NewtonError, PTSymmetryError, PeriodicPotential,
                     RealLineGrid, assemble, build_ansatz, constant,
                     convergence_study, extract_effective_model, fix_pt_phase,
                     from_parts, gp_residual, grid_for_envelope, hs_norm,
                     make_mode, newton_solve, sech_envelope, solve)
from ptbands import gpsolve
from ptbands.gpsolve import _bloch_inverse, _jacobian_action, _pt_project
from conftest import gentle_parts, two_harmonic_parts

FREE = constant(0.0)
TWO_PI = 2 * np.pi


def soliton_grid(M=8):
    return RealLineGrid(half_length=TWO_PI * M, n_points=64 * M)


@pytest.fixture
def matvecs(monkeypatch):
    """Matvec count of every GMRES call (one per Newton step), in call order."""
    counts = []
    gmres = scipy.sparse.linalg.gmres

    def counting_gmres(A, b, **kwargs):
        counts.append(0)

        def matvec(z):
            counts[-1] += 1
            return A.matvec(z)
        return gmres(scipy.sparse.linalg.LinearOperator(A.shape, matvec=matvec, dtype=A.dtype),
                     b, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "gmres", counting_gmres)
    return counts


class TestRealLineGrid:
    def test_rejects_incommensurate_length(self):
        with pytest.raises(GridError):
            RealLineGrid(half_length=10.0, n_points=256)

    def test_rejects_coarse_spacing(self):
        with pytest.raises(GridError):
            RealLineGrid(half_length=TWO_PI * 4, n_points=128)

    def test_geometry(self):
        g = soliton_grid(4)
        assert g.cells == 8
        assert g.x[g.n_points // 2] == 0.0
        assert g.spacing == pytest.approx(TWO_PI / 32)


class TestHsNorm:
    def test_s_zero_is_l2(self, rng):
        g = soliton_grid(4)
        u = rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points)
        assert hs_norm(u, 0.0, g) == pytest.approx(g.l2_norm(u), rel=1e-13)

    def test_single_mode_weight(self):
        g = soliton_grid(4)
        # one discrete Fourier mode: weight is exactly (1 + xi^2)^s
        j = 12
        xi = g.frequencies[j]
        u = np.exp(1j * xi * g.x)
        for s in (0.5, 1.0, 2.0):
            expected = (1 + xi**2) ** (s / 2) * hs_norm(u, 0.0, g)
            assert hs_norm(u, s, g) == pytest.approx(expected, rel=1e-12)

    def test_gaussian_h1_matches_analytic(self):
        g = RealLineGrid(TWO_PI * 4, 64 * 4)
        sig = 1.3
        u = np.exp(-g.x**2 / (2 * sig**2))
        # ||u||^2 = sig sqrt(pi), ||u'||^2 = sqrt(pi)/(2 sig)
        analytic = np.sqrt(sig * np.sqrt(np.pi) + np.sqrt(np.pi) / (2 * sig))
        assert hs_norm(u, 1.0, g) == pytest.approx(analytic, abs=1e-6)

    def test_s_range_validated(self):
        g = soliton_grid(2)
        with pytest.raises(ValueError):
            hs_norm(np.zeros(g.n_points), 3.0, g)


class TestGpResidual:
    def test_zero_field(self):
        g = soliton_grid(2)
        r = gp_residual(np.zeros(g.n_points, dtype=complex), 1.0, FREE, FREE, g)
        assert np.abs(r).max() == 0

    def test_plane_wave_eigenfunction(self):
        g = soliton_grid(2)
        xi = g.frequencies[5]
        u = np.exp(1j * xi * g.x)
        r = gp_residual(u, xi**2, FREE, constant(0.0), g)
        assert np.abs(r).max() <= 1e-12 * max(1.0, xi**2)

    def test_nls_soliton_identity(self):
        g = soliton_grid(8)    # L = 16 pi
        u = np.sqrt(2) / np.cosh(g.x) + 0j
        r = gp_residual(u, -1.0, FREE, constant(-1.0), g)
        assert np.abs(r).max() <= 1e-8


class TestNewtonKrylov:
    def test_projection_is_idempotent_and_exactly_pt(self, rng):
        g = soliton_grid(2)
        u = rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points)
        w = _pt_project(u, g)
        assert np.abs(np.conj(w[g.mirror]) - w).max() == 0.0
        assert np.array_equal(_pt_project(w, g), w)

    def test_projection_is_real_part_of_dft(self, rng):
        # fft(P w) = Re fft(w): the real DFT coefficients are exactly the PT subspace
        g = soliton_grid(4)
        w = rng.normal(size=g.n_points) + 1j * rng.normal(size=g.n_points)
        W = np.fft.fft(w)
        assert np.linalg.norm(np.fft.fft(_pt_project(w, g)) - W.real) <= 1e-14 * np.linalg.norm(W)

    def test_jacobian_action_matches_central_difference(self, rng):
        # complex PT lattice and complex PT nonlinearity: exercises the
        # sigma u^2 conj(delta) term with non-real sigma
        V = from_parts(gentle_parts())
        sigma = from_parts(gentle_parts(gamma=0.3))
        g = soliton_grid(4)
        u = _pt_project(np.exp(-g.x**2 / 8) * (rng.normal(size=g.n_points)
                                               + 1j * rng.normal(size=g.n_points)), g)
        act = _jacobian_action(u, -0.4, V.eval(g.x), sigma.eval(g.x), g)
        h = 1e-5
        for _ in range(3):
            d = _pt_project(np.exp(-g.x**2 / 8) * (rng.normal(size=g.n_points)
                                                   + 1j * rng.normal(size=g.n_points)), g)
            c = np.fft.fft(d).real
            fd = np.fft.fft(gp_residual(u + h * d, -0.4, V, sigma, g)
                            - gp_residual(u - h * d, -0.4, V, sigma, g)) / (2 * h)
            Jc = act(c)
            assert Jc.dtype == np.float64
            assert np.linalg.norm(Jc - fd) <= 1e-6 * np.linalg.norm(Jc)

    def test_krylov_failure_reported(self, monkeypatch):
        # a Krylov budget too small for the forcing tolerance is a solver failure
        monkeypatch.setattr(gpsolve, "GMRES_RESTART", 2)
        monkeypatch.setattr(gpsolve, "GMRES_MAX_CYCLES", 1)
        g = soliton_grid(8)
        exact = np.sqrt(2) / np.cosh(g.x) + 0j
        with pytest.raises(NewtonError, match="GMRES") as err:
            newton_solve(1.1 * exact, -1.0, FREE, constant(-1.0), g)
        assert err.value.last_residual is not None

    def test_bloch_inverse_inverts_linear_operator(self, rng):
        # the preconditioner is the exact inverse of -d^2 + V - omega on the
        # real DFT coefficients of PT fields; a real result from real input
        # shows that its blocks are float64
        V = from_parts(two_harmonic_parts(1.0))
        g = soliton_grid(4)
        Vx = V.eval(g.x)
        inverse = _bloch_inverse(Vx, -0.4, g)
        c = rng.normal(size=g.n_points)
        Ac = g.frequencies**2 * c + np.fft.fft((Vx + 0.4) * np.fft.ifft(c)).real
        assert inverse(Ac).dtype == np.float64
        assert np.linalg.norm(inverse(Ac) - c) <= 1e-11 * np.linalg.norm(c)

    def test_grid_without_whole_cells_rejected(self):
        g = RealLineGrid(half_length=TWO_PI * 4, n_points=258)
        u0 = np.sqrt(2) / np.cosh(g.x) + 0j
        with pytest.raises(GridError, match="258 points"):
            newton_solve(1.1 * u0, -1.0, FREE, constant(-1.0), g)

    @pytest.mark.parametrize("omega", [1.0, 1.0 + 1e-14])
    def test_singular_preconditioner_block_reported(self, omega):
        # omega = 1 = xi^2 at n = +-C is a free band value of the grid: the
        # Floquet-Bloch block r = 0 is singular, or condition ~1e16 next to it
        g = soliton_grid(8)
        exact = np.sqrt(2) / np.cosh(g.x) + 0j
        with pytest.raises(NewtonError, match="preconditioner block 0 of 16"):
            newton_solve(1.1 * exact, omega, FREE, constant(-1.0), g)

    def test_gentle_study_reproduces_dense_newton(self):
        # iteration counts and H^1 errors of the dense PT-reduced Newton
        # solver this one replaced, measured on the same study
        V = from_parts(gentle_parts())
        study = convergence_study(V, constant(-1.0), 1, "a", eps_list=(0.2, 0.1), J=24)
        assert [r.newton_iters for r in study.rows] == [7, 3]
        dense = [0.18812904806194292, 0.04418631725338731]
        for row, ref in zip(study.rows, dense):
            assert row.hs_error == pytest.approx(ref, rel=1e-6)

    def test_local_slopes(self):
        # consecutive log-ratio slopes; with two points the global fit agrees
        V = from_parts(gentle_parts())
        study = convergence_study(V, constant(-1.0), 1, "a", eps_list=(0.2, 0.1), J=24)
        (local,) = study.local_slopes
        assert local == pytest.approx(np.log(0.18812904806194292 / 0.04418631725338731)
                                      / np.log(2.0), rel=1e-5)
        assert local == pytest.approx(study.slope, rel=1e-12)
        assert local == pytest.approx(2.09, abs=5e-3)


class TestNewtonSolve:
    def test_exact_linear_eigenfunction_converges_immediately(self):
        p = from_parts(gentle_parts())
        J = 20
        spec = solve(assemble(p, 0.0, J))
        mode = fix_pt_phase(make_mode(spec, 0))
        g = soliton_grid(2)
        u0 = mode.g_values(g.x)
        state = newton_solve(u0, float(mode.omega.real), p, constant(0.0), g,
                             tol=1e-9)
        assert state.newton_iters <= 1
        assert np.abs(state.values - u0).max() <= 1e-10

    def test_nls_soliton_from_perturbed_guess(self):
        g = soliton_grid(8)
        exact = np.sqrt(2) / np.cosh(g.x) + 0j
        state = newton_solve(1.1 * exact, -1.0, FREE, constant(-1.0), g)
        assert np.abs(state.values - exact).max() <= 1e-8
        assert state.residual_norm <= 1e-10

    def test_pt_closure_and_residual_invariants(self):
        V = from_parts(gentle_parts())
        sigma = constant(-1.0)
        model, mode = extract_effective_model(V, sigma, 1, "a", J=16)
        env = sech_envelope(model)
        eps = 0.1
        grid = grid_for_envelope(eps, env.width)
        ansatz = build_ansatz(env, mode, eps, grid)
        state = newton_solve(ansatz.values, ansatz.omega, V, sigma, grid)
        assert state.pt_defect() == 0.0            # exact by construction
        assert state.residual_norm <= 1e-9
        # the refined state stays closer to the ansatz than the ansatz norm
        e = hs_norm(state.values - ansatz.values, 1.0, grid)
        assert e < hs_norm(ansatz.values, 1.0, grid)

    def test_quadratic_convergence_ratio(self):
        V = from_parts(gentle_parts())
        sigma = constant(-1.0)
        model, mode = extract_effective_model(V, sigma, 1, "a", J=16)
        env = sech_envelope(model)
        grid = grid_for_envelope(0.2, env.width)
        ansatz = build_ansatz(env, mode, 0.2, grid)
        state = newton_solve(ansatz.values, ansatz.omega, V, sigma, grid, tol=1e-12)
        hist = state.residual_history
        assert len(hist) >= 3
        # contraction is quadratic (r_{k+1} <= C r_k^2) for the last step whose
        # square sits above the roundoff floor
        pairs = [(hist[i], hist[i + 1]) for i in range(len(hist) - 1)
                 if hist[i] >= 1e-6]
        assert pairs
        r_prev, r_next = pairs[-1]
        assert r_next <= 1e5 * r_prev**2

    def test_deep_lattice_band_edge_state(self):
        # full two-harmonic PT lattice: refined state stays within the
        # ansatz's own size at eps = 0.1
        from conftest import two_harmonic_parts
        V = from_parts(two_harmonic_parts(1.0))
        sigma = constant(-1.0)
        model, mode = extract_effective_model(V, sigma, 1, "a", J=24)
        env = sech_envelope(model)
        grid = grid_for_envelope(0.1, env.width)
        ansatz = build_ansatz(env, mode, 0.1, grid)
        state = newton_solve(ansatz.values, ansatz.omega, V, sigma, grid)
        e = hs_norm(state.values - ansatz.values, 1.0, grid)
        assert state.residual_norm <= 1e-9
        assert e < hs_norm(ansatz.values, 1.0, grid)

    def test_rejects_non_pt_guess(self):
        g = soliton_grid(2)
        u0 = np.exp(1j * g.x)   # conj(u(-x)) = u(x) holds... use asymmetric real part
        u0 = 1.0 / np.cosh(g.x - 1.0) + 0j
        with pytest.raises(PTSymmetryError):
            newton_solve(u0, -1.0, FREE, constant(-1.0), g)

    @pytest.mark.parametrize("V, sigma", [
        (PeriodicPotential({1: 0.5 + 0.1j, -1: 0.5}), constant(-1.0)),
        (FREE, constant(-1.0 + 1e-3j)),
    ], ids=["V", "sigma"])
    def test_rejects_non_pt_coefficients(self, V, sigma):
        # the correction lives on real DFT coefficients, which cannot carry a
        # non-PT operator
        g = soliton_grid(8)
        exact = np.sqrt(2) / np.cosh(g.x) + 0j
        with pytest.raises(PTSymmetryError, match="V and sigma must be PT-symmetric"):
            newton_solve(1.1 * exact, -1.0, V, sigma, g)

    @pytest.mark.parametrize("omega", [-1.0 + 1e-3j, complex(-1.0), float("nan"), True])
    def test_rejects_non_real_omega(self, omega):
        g = soliton_grid(8)
        exact = np.sqrt(2) / np.cosh(g.x) + 0j
        with pytest.raises(ConfigError, match="omega must be a real number"):
            newton_solve(1.1 * exact, omega, FREE, constant(-1.0), g)

    def test_divergence_reported(self):
        g = soliton_grid(8)
        exact = np.sqrt(2) / np.cosh(g.x) + 0j
        with pytest.raises(NewtonError) as err:
            newton_solve(3.0 * exact, -1.0, FREE, constant(-1.0), g, max_iter=2)
        assert err.value.last_residual is not None


class TestConvergenceStudy:
    def test_gentle_lattice_scaling(self):
        V = from_parts(gentle_parts())
        study = convergence_study(V, constant(-1.0), 1, "a",
                                  eps_list=(0.2, 0.1, 0.05), J=16)
        errs = [r.hs_error for r in study.rows]
        assert errs == sorted(errs, reverse=True)
        assert study.slope >= 1.0
        assert study.rel_slope >= 0.5
        assert all(r.residual <= 1e-9 for r in study.rows)

    def test_upper_edge_study_through_zone_boundary(self):
        # k0 = 1/2 edge with focusing sigma: the quasiperiodic frame twist
        # must survive the whole ansatz -> Newton -> error pipeline
        V = from_parts(gentle_parts())
        study = convergence_study(V, constant(1.0), 1, "b",
                                  eps_list=(0.1, 0.05), J=16)
        assert study.model.k0 == 0.5 and study.model.Omega == 1
        errs = [r.hs_error for r in study.rows]
        assert errs == sorted(errs, reverse=True)
        assert study.slope >= 1.0
        assert all(r.residual <= 1e-9 for r in study.rows)

    def test_domain_truncation_insensitivity(self):
        V = from_parts(gentle_parts())
        sigma = constant(-1.0)
        model, mode = extract_effective_model(V, sigma, 1, "a", J=16)
        env = sech_envelope(model)
        eps = 0.1
        errs = []
        for factor in (1, 2):
            grid = grid_for_envelope(eps, env.width * factor)  # doubles L via width
            ansatz = build_ansatz(env, mode, eps, grid)
            state = newton_solve(ansatz.values, ansatz.omega, V, sigma, grid)
            errs.append(hs_norm(state.values - ansatz.values, 1.0, grid))
        assert abs(errs[1] - errs[0]) / errs[0] < 0.01

    def test_asymptotic_h1_slope(self):
        # the eps^{3/2} regime: N = 9728 at eps = 0.0125
        V = from_parts(gentle_parts())
        study = convergence_study(V, constant(-1.0), 1, "a", eps_list=(0.025, 0.0125), J=24)
        assert all(r.residual <= 1e-9 for r in study.rows)
        assert 1.4 <= study.slope <= 1.7

    def test_gentle_asymptotic_regime(self, matvecs):
        # the Floquet-Bloch preconditioner keeps the Krylov work per Newton
        # step bounded as eps -> 0 (the shifted Laplacian it replaced took
        # 1894 matvecs at eps = 0.0125); H^1 errors are those of that solver
        V = from_parts(gentle_parts())
        study = convergence_study(V, constant(-1.0), 1, "a", J=24,
                                  eps_list=(0.2, 0.1, 0.05, 0.025, 0.0125, 0.00625, 0.003125))
        assert len(matvecs) == sum(r.newton_iters for r in study.rows)
        assert max(matvecs) <= 20
        # no step restarts: a restart would change the iterates
        assert max(matvecs) < gpsolve.GMRES_RESTART
        # eps 0.2 and 0.1 are pinned in test_gentle_study_reproduces_dense_newton
        assert [r.newton_iters for r in study.rows[2:4]] == [3, 2]
        for row, ref in zip(study.rows[2:4], [0.015806304611934153, 0.004999149829614366]):
            assert row.hs_error == pytest.approx(ref, rel=1e-6)
        assert all(r.residual <= 1e-9 for r in study.rows)
        assert study.local_slopes[-1] == pytest.approx(1.5, abs=0.01)

    @pytest.mark.parametrize("m, edge, sigma", [(1, "a", -1.0), (2, "a", -1.0), (2, "b", 1.0)])
    def test_two_harmonic_asymptotic_regime(self, matvecs, m, edge, sigma):
        # complex gamma = 1 lattice, including both band-2 edges: 2700 matvecs
        # per solve at eps = 0.025 with the shifted-Laplacian preconditioner
        V = from_parts(two_harmonic_parts(1.0))
        study = convergence_study(V, constant(sigma), m, edge, eps_list=(0.0125, 0.00625), J=32)
        assert max(matvecs) <= 20
        assert all(r.residual <= 1e-9 for r in study.rows)
        (local,) = study.local_slopes
        assert local == pytest.approx(1.5, abs=0.015)

    def test_single_eps_gives_no_slope(self):
        V = from_parts(gentle_parts())
        study = convergence_study(V, constant(-1.0), 1, "a", eps_list=(0.1,), J=16)
        assert study.slope is None and study.rel_slope is None
        assert study.local_slopes == ()

    @pytest.mark.parametrize("s", [3.0, -0.5, float("nan"), "1"])
    def test_s_checked_before_any_solve(self, monkeypatch, s):
        monkeypatch.setattr(gpsolve.effective_mod, "extract_effective_model",
                            lambda *args: pytest.fail("solved"))
        with pytest.raises(ConfigError, match="s must be"):
            convergence_study(from_parts(gentle_parts()), constant(-1.0), 1, "a",
                              eps_list=(0.1,), s=s)

    def test_newton_failure_carries_eps(self):
        V = from_parts(gentle_parts())
        with pytest.raises(NewtonError) as err:
            convergence_study(V, constant(-1.0), 1, "a", eps_list=(0.2,),
                              J=16, max_iter=1)
        assert err.value.eps == 0.2
