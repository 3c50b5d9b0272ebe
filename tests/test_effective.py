import numpy as np
import pytest
from dataclasses import replace

from ptbands import (AssumptionError, ConfigError, EffectiveModel, ExistenceError,
                     GridError, PotentialParts, SechEnvelope, assemble,
                     build_ansatz, constant, envelope_residual,
                     extract_effective_model, fix_pt_phase, from_parts,
                     gamma_coefficient, grid_for_envelope, hs_norm, make_mode,
                     sech_envelope, solve)
from conftest import two_harmonic_potential, gentle_parts

FREE = constant(0.0)
TWO_PI = 2 * np.pi


def free_ground_mode():
    spec = solve(assemble(FREE, 0.0, 8))
    return fix_pt_phase(make_mode(spec, 0))


class TestGammaCoefficient:
    def test_free_space_constant_sigma(self):
        mode = free_ground_mode()
        for s0 in (1.0, -2.5):
            g = gamma_coefficient(mode, mode, constant(s0))
            assert g == pytest.approx(s0 / TWO_PI, abs=1e-12)

    def test_odd_imaginary_sigma_part_integrates_out(self):
        mode = free_ground_mode()
        sigma = from_parts(PotentialParts(cosine_coeffs=(), sine_coeffs=(1.0,), gamma=1.0))
        sigma = replace_constant(sigma, 1.0)
        g = gamma_coefficient(mode, mode, sigma)
        assert g == pytest.approx(1.0 / TWO_PI, abs=1e-12)

    def test_cosine_lattice_reality_and_quadrature(self):
        p = from_parts(PotentialParts(cosine_coeffs=(2.0,)))
        spec = solve(assemble(p, 0.0, 20))
        mode = fix_pt_phase(make_mode(spec, 0))
        g1 = gamma_coefficient(mode, mode, constant(1.0))
        g2 = gamma_coefficient(mode, mode, constant(1.0), n_quad=2 * 8 * 21)
        assert abs(g1.imag) <= 1e-10
        assert abs(g1 - g2) <= 1e-12

    def test_self_adjoint_collapse_to_quartic_integral(self):
        # real even V: p is real after phase fixing and the adjoint pairing
        # collapses to the classical quartic overlap int sigma p^4
        p = from_parts(PotentialParts(cosine_coeffs=(2.0, 0.7)))
        sigma = from_parts(PotentialParts(cosine_coeffs=(0.5,)))
        sigma = replace_constant(sigma, -1.0)
        for k0, idx in ((0.0, 0), (0.5, 1)):
            spec = solve(assemble(p, k0, 20))
            mode = fix_pt_phase(make_mode(spec, idx))
            x = np.arange(2048) * TWO_PI / 2048
            g = mode.g_values(x)
            assert np.abs(g.imag).max() < 1e-9
            quartic = np.sum(sigma.eval(x).real * g.real**4) * TWO_PI / 2048
            got = gamma_coefficient(mode, mode, sigma)
            assert got.real == pytest.approx(quartic, rel=1e-10)
            assert abs(got.imag) < 1e-12

    def test_zone_edge_frame_twist_identity(self):
        # at k0 = 1/2 the pairing equals int sigma g^2 |g|^2 / int g^2 with
        # g = e^{ix/2} p, the quasiperiodic continuation across the zone
        V = from_parts(gentle_parts())
        spec = solve(assemble(V, 0.5, 20))
        mode = fix_pt_phase(make_mode(spec, 0))
        sigma = constant(1.0)
        x = np.arange(4096) * TWO_PI / 4096
        g = mode.g_values(x)
        direct = np.sum(g**2 * np.abs(g)**2) * TWO_PI / 4096
        weight = np.sum(g**2) * TWO_PI / 4096
        paired = gamma_coefficient(mode, mode, sigma)
        assert paired == pytest.approx(direct / weight, abs=1e-12)

    def test_sign_flip_invariance(self):
        # Gamma is quartic in p: replacing p by -p leaves it unchanged
        mode = free_ground_mode()
        flipped = replace(mode, p_coeffs=-mode.p_coeffs, pstar_coeffs=-mode.pstar_coeffs)
        s = from_parts(PotentialParts((0.5,), (0.2,), gamma=0.4))
        assert gamma_coefficient(mode, mode, s) == pytest.approx(
            gamma_coefficient(flipped, flipped, s))

    def test_rejects_mismatched_modes(self):
        mode = free_ground_mode()
        p = from_parts(gentle_parts())
        spec = solve(assemble(p, 0.5, 8))
        other = make_mode(spec, 0)
        with pytest.raises(ConfigError):
            gamma_coefficient(mode, other, constant(1.0))

    def test_rejects_low_quadrature(self):
        mode = free_ground_mode()
        with pytest.raises(ConfigError):
            gamma_coefficient(mode, mode, constant(1.0), n_quad=8)


def replace_constant(p, value):
    from ptbands import PeriodicPotential
    coeffs = dict(p.coeffs)
    coeffs[0] = coeffs.get(0, 0.0) + value
    return PeriodicPotential(coeffs)


class TestSechEnvelope:
    def model(self, curvature, Omega, gamma_re):
        return EffectiveModel(k0=0.0, omega_star=0.0, curvature=curvature,
                              gamma_nl=complex(gamma_re), Omega=Omega,
                              exists=True, band_index=1, edge="a" if Omega < 0 else "b")

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
            vals.append(grid.l2_norm(state.values) ** 2 / eps)
        assert max(vals) / min(vals) - 1 < 0.02
        # lattice mode: same law once the envelope is wide against the cell
        V = from_parts(gentle_parts())
        model, lmode = extract_effective_model(V, constant(-1.0), 1, "a", J=16)
        lenv = sech_envelope(model)
        lat = []
        for eps in (0.1, 0.05, 0.025):
            grid = grid_for_envelope(eps, lenv.width)
            state = build_ansatz(lenv, lmode, eps, grid)
            lat.append(grid.l2_norm(state.values) ** 2 / eps)
        assert max(lat) / min(lat) - 1 < 0.02

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
