import numpy as np
import pytest
from dataclasses import replace

from ptbands import (AssumptionError, ConfigError, EffectiveModel, ExistenceError,
                     GridError, PotentialParts, RealLineGrid, SechEnvelope,
                     bands, build_ansatz, constant, extract_effective_model,
                     fix_pt_phase, from_parts, gamma_coefficient, grid_for_envelope,
                     hs_norm, make_mode, sech_envelope)
from conftest import every_column, gentle_parts, two_harmonic_potential
from oracles import assemble, envelope_residual, g_values, l2_norm, solve

FREE = constant(0.0)
TWO_PI = 2 * np.pi


def free_ground_mode():
    spec = solve(assemble(FREE, 0.0, 8), every_column)
    return fix_pt_phase(make_mode(spec, 0))


class TestGammaCoefficient:
    def test_free_space_constant_sigma(self):
        mode = free_ground_mode()
        for s0 in (1.0, -2.5):
            g = gamma_coefficient(mode, constant(s0))
            assert g == pytest.approx(s0 / TWO_PI, abs=1e-12)

    def test_odd_imaginary_sigma_part_integrates_out(self):
        mode = free_ground_mode()
        sigma = from_parts(PotentialParts(cosine_coeffs=(), sine_coeffs=(1.0,), gamma=1.0))
        sigma = replace_constant(sigma, 1.0)
        g = gamma_coefficient(mode, sigma)
        assert g == pytest.approx(1.0 / TWO_PI, abs=1e-12)

    def test_cosine_lattice_reality_and_quadrature(self):
        # the FFT-sampled pairing against an independent dense quadrature of
        # int sigma g^2 |g|^2 / int g^2 on 2048 points; at J = 4 the mode has
        # weight ~3e-3 at the cutoff, so only an exact grid agrees
        sigma = replace_constant(from_parts(PotentialParts(cosine_coeffs=(0.5,))), 1.0)
        x = np.arange(2048) * TWO_PI / 2048
        for amplitude, J in ((2.0, 20), (6.0, 4)):
            p = from_parts(PotentialParts(cosine_coeffs=(amplitude,)))
            mode = fix_pt_phase(make_mode(solve(assemble(p, 0.0, J), every_column), 0))
            got = gamma_coefficient(mode, sigma)
            g = g_values(mode, x)
            dense = np.sum(sigma.eval(x) * g**2 * np.abs(g)**2) / np.sum(g**2)
            assert abs(got.imag) <= 1e-10
            assert abs(got - dense) <= 1e-12

    def test_self_adjoint_collapse_to_quartic_integral(self):
        # real even V: p is real after phase fixing and the adjoint pairing
        # collapses to the classical quartic overlap int sigma p^4
        p = from_parts(PotentialParts(cosine_coeffs=(2.0, 0.7)))
        sigma = from_parts(PotentialParts(cosine_coeffs=(0.5,)))
        sigma = replace_constant(sigma, -1.0)
        for k0, idx in ((0.0, 0), (0.5, 1)):
            spec = solve(assemble(p, k0, 20), every_column)
            mode = fix_pt_phase(make_mode(spec, idx))
            x = np.arange(2048) * TWO_PI / 2048
            g = g_values(mode, x)
            assert np.abs(g.imag).max() < 1e-9
            quartic = np.sum(sigma.eval(x).real * g.real**4) * TWO_PI / 2048
            got = gamma_coefficient(mode, sigma)
            assert got.real == pytest.approx(quartic, rel=1e-10)
            assert abs(got.imag) < 1e-12

    def test_zone_edge_frame_twist_identity(self):
        # at k0 = 1/2 the pairing equals int sigma g^2 |g|^2 / int g^2 with
        # g = e^{ix/2} p, the quasiperiodic continuation across the zone
        V = from_parts(gentle_parts())
        spec = solve(assemble(V, 0.5, 20), every_column)
        mode = fix_pt_phase(make_mode(spec, 0))
        x = np.arange(4096) * TWO_PI / 4096
        g = g_values(mode, x)
        weight = np.sum(g**2) * TWO_PI / 4096
        # a PT sigma with an odd imaginary part also fixes the orientation x -> -x
        for sigma in (constant(1.0), from_parts(PotentialParts((0.4,), (0.5,), gamma=1.0))):
            direct = np.sum(sigma.eval(x) * g**2 * np.abs(g)**2) * TWO_PI / 4096
            paired = gamma_coefficient(mode, sigma)
            assert paired == pytest.approx(direct / weight, abs=1e-12)

    def test_sign_flip_invariance(self):
        # Gamma is quartic in p: replacing p by -p leaves it unchanged
        mode = free_ground_mode()
        flipped = replace(mode, p_coeffs=-mode.p_coeffs, pstar_coeffs=-mode.pstar_coeffs)
        s = from_parts(PotentialParts((0.5,), (0.2,), gamma=0.4))
        assert gamma_coefficient(mode, s) == pytest.approx(
            gamma_coefficient(flipped, s))


    def test_rejects_interior_k(self):
        spec = solve(assemble(FREE, 0.25, 8), every_column)
        with pytest.raises(ConfigError):
            gamma_coefficient(make_mode(spec, 0), constant(1.0))


def replace_constant(p, value):
    from ptbands import PeriodicPotential
    coeffs = dict(p.coeffs)
    coeffs[0] = coeffs.get(0, 0.0) + value
    return PeriodicPotential(coeffs)


class TestSechEnvelope:
    def model(self, curvature, Omega, gamma_re):
        return EffectiveModel(k0=0.0, omega_star=0.0, curvature=curvature,
                              gamma_nl=complex(gamma_re), Omega=Omega,
                              exists=True)

    def test_upper_edge_standard(self):
        env = sech_envelope(self.model(-2.0, +1, 1.0))
        assert env.amplitude == pytest.approx(np.sqrt(2))
        assert env.width == pytest.approx(1.0)

    def test_lower_edge_mirror(self):
        env = sech_envelope(self.model(+2.0, -1, -1.0))
        assert env.amplitude == pytest.approx(np.sqrt(2))
        assert env.width == pytest.approx(1.0)

    def test_sign_violation_refused(self):
        with pytest.raises(ExistenceError):
            sech_envelope(self.model(+2.0, -1, +1.0))

    @pytest.mark.parametrize("curvature, gamma_re", [(np.nan, -1.0), (2.0, np.nan)])
    def test_nan_curvature_or_gamma_refused(self, curvature, gamma_re):
        with pytest.raises(ExistenceError, match="nan"):
            sech_envelope(self.model(curvature, -1, gamma_re))

    def test_residual_vanishes(self):
        X = np.linspace(-20, 20, 4001)
        for curvature, Omega, g in ((-2.0, 1, 1.0), (2.0, -1, -1.0),
                                    (-0.7, 1, 0.3), (5.0, -1, -2.0)):
            m = self.model(curvature, Omega, g)
            env = sech_envelope(m)
            assert np.abs(envelope_residual(env, m, X)).max() <= 1e-10


class TestBuildAnsatz:
    def test_free_mode_peak_value(self):
        mode = free_ground_mode()
        env = SechEnvelope(amplitude=np.sqrt(2), width=1.0, Omega=-1)
        eps = 0.1
        grid = grid_for_envelope(eps, env.width)
        state = build_ansatz(env, mode, eps, grid)
        i0 = grid.n_points // 2
        assert grid.x[i0] == 0.0
        assert state.values[i0] == pytest.approx(eps * np.sqrt(2) / np.sqrt(TWO_PI))

    def test_real_mode_gives_real_even_field(self):
        # k0 = 0 with real p and real A: PT reduces to real and even
        mode = free_ground_mode()
        env = SechEnvelope(amplitude=np.sqrt(2), width=1.0, Omega=-1)
        grid = grid_for_envelope(0.1, env.width)
        state = build_ansatz(env, mode, 0.1, grid)
        assert np.abs(state.values.imag).max() == 0.0
        assert np.abs(state.values[grid.mirror] - state.values).max() < 1e-15

    def test_pt_symmetric_on_grid(self):
        V = from_parts(gentle_parts())
        model, mode = extract_effective_model(V, constant(-1.0), 1, "a", J=16)
        env = sech_envelope(model)
        grid = grid_for_envelope(0.1, env.width)
        state = build_ansatz(env, mode, 0.1, grid)
        assert state.pt_defect() <= 1e-8

    def test_h1_norm_scaling(self):
        # ||u_form||_{H1} / sqrt(eps) approaches a constant
        mode = free_ground_mode()
        env = SechEnvelope(amplitude=np.sqrt(2), width=1.0, Omega=-1)
        ratios = []
        for eps in (0.1, 0.05, 0.025):
            grid = grid_for_envelope(eps, env.width)
            state = build_ansatz(env, mode, eps, grid)
            ratios.append(hs_norm(state.values, 1.0, grid) / np.sqrt(eps))
        assert abs(ratios[-1] - ratios[-2]) / ratios[-1] < 2e-2
        assert abs(ratios[-2] - ratios[-3]) / ratios[-2] < 4e-2

    def test_l2_mass_linear_in_eps(self):
        # order-1 envelope width: the spec'd 2% band across eps in {0.2, 0.1, 0.05}
        mode = free_ground_mode()
        env = SechEnvelope(amplitude=np.sqrt(2), width=1.0, Omega=-1)
        vals = []
        for eps in (0.2, 0.1, 0.05):
            grid = grid_for_envelope(eps, env.width)
            state = build_ansatz(env, mode, eps, grid)
            vals.append(l2_norm(grid, state.values) ** 2 / eps)
        assert max(vals) / min(vals) - 1 < 0.02
        # lattice mode: same law once the envelope is wide against the cell
        V = from_parts(gentle_parts())
        model, lmode = extract_effective_model(V, constant(-1.0), 1, "a", J=16)
        lenv = sech_envelope(model)
        lat = []
        for eps in (0.1, 0.05, 0.025):
            grid = grid_for_envelope(eps, lenv.width)
            state = build_ansatz(lenv, lmode, eps, grid)
            lat.append(l2_norm(grid, state.values) ** 2 / eps)
        assert max(lat) / min(lat) - 1 < 0.02

    @pytest.mark.parametrize("k0, J", [(0.0, 16), (0.5, 16), (0.5, 40)])
    def test_cell_sampled_ansatz_matches_dense_bloch_wave(self, k0, J):
        # build_ansatz tiles one FFT-sampled cell; with 32 points per cell and
        # 2J + 1 > 32 coefficients the cell samples fold aliased harmonics
        V = from_parts(gentle_parts())
        mode = fix_pt_phase(make_mode(solve(assemble(V, k0, J), every_column), 0))
        env = SechEnvelope(amplitude=1.0, width=2.0, Omega=-1)
        grid = grid_for_envelope(0.1, env.width)
        state = build_ansatz(env, mode, 0.1, grid)
        dense = 0.1 * env(0.1 * grid.x) * g_values(mode, grid.x)
        assert np.abs(state.values - dense).max() <= 1e-13 * np.abs(dense).max()

    def test_grid_without_whole_cells_rejected(self):
        env = SechEnvelope(amplitude=1.0, width=1.0, Omega=-1)
        with pytest.raises(GridError, match="equal cells"):
            build_ansatz(env, free_ground_mode(), 0.5, RealLineGrid(TWO_PI * 16, 1026))

    def test_under_resolved_grid_rejected(self):
        mode = free_ground_mode()
        env = SechEnvelope(amplitude=1.0, width=1.0, Omega=-1)
        small = grid_for_envelope(0.2, env.width)
        with pytest.raises(GridError):
            build_ansatz(env, mode, 0.05, small)   # envelope tail would not fit

    def test_eps_range_checked(self):
        mode = free_ground_mode()
        env = SechEnvelope(amplitude=1.0, width=1.0, Omega=-1)
        grid = grid_for_envelope(0.1, env.width)
        with pytest.raises(ConfigError):
            build_ansatz(env, mode, 0.7, grid)


class TestExtractEffectiveModel:
    def test_gentle_lower_edge(self):
        V = from_parts(gentle_parts())
        model, mode = extract_effective_model(V, constant(-1.0), 1, "a", J=16)
        assert model.k0 == 0.0 and model.Omega == -1
        assert abs(model.gamma_nl.imag) <= 1e-8
        assert model.curvature > 0 and model.gamma_nl.real < 0
        assert model.exists

    def test_gentle_upper_edge_focusing_sigma(self):
        V = from_parts(gentle_parts())
        model, mode = extract_effective_model(V, constant(1.0), 1, "b", J=16)
        assert model.k0 == 0.5 and model.Omega == 1
        assert model.curvature < 0 and model.gamma_nl.real > 0
        assert model.exists

    def test_sign_violating_edge_reports_not_exists(self):
        V = from_parts(gentle_parts())
        model, _ = extract_effective_model(V, constant(1.0), 1, "a", J=16)
        assert not model.exists
        with pytest.raises(ExistenceError):
            sech_envelope(model)

    def test_no_band_above_refused_before_solving(self, monkeypatch):
        # isolation is checked against band m + 1, which the sweep's
        # min(m + 3, 2J + 1) bands must include: at J = 1 there are 3
        monkeypatch.setattr(bands, "compute_bands", lambda *args: pytest.fail("solved"))
        with pytest.raises(ConfigError, match="no band above band 3"):
            extract_effective_model(FREE, constant(-1.0), 3, "a", J=1)

    def test_assumption_gate(self):
        with pytest.raises(AssumptionError):
            extract_effective_model(FREE, constant(-1.0), 1, "a", J=12)

    def test_json_dict_round(self):
        V = two_harmonic_potential(1.0)
        model, _ = extract_effective_model(V, constant(-1.0), 1, "a", J=20)
        d = model.to_json_dict()
        assert set(d) == {"k0", "omega_star", "curvature", "gamma_re", "gamma_im",
                          "Omega", "exists"}
        assert d["exists"] is True
