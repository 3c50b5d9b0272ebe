import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptbands import (ConfigError, Convention, PeriodicPotential, PotentialParts,
                     constant, from_parts, potential_from_json, validate_pt)
from ptbands.potential import parts_from_json
from conftest import two_harmonic_parts, two_harmonic_potential


class TestFromParts:
    def test_two_harmonic_coefficients(self):
        # 2cos x + cos 2x + i sin 2x = e^{ix} + e^{-ix} + e^{2ix}
        p = from_parts(two_harmonic_parts(1.0))
        assert p.coeffs[1] == pytest.approx(1.0)
        assert p.coeffs[-1] == pytest.approx(1.0)
        assert p.coeffs[2] == pytest.approx(1.0)
        assert p.coeffs.get(-2, 0.0) == pytest.approx(0.0)

    def test_zero_gamma_gives_u_alone(self):
        parts = PotentialParts((0.7, 0.3), (1.0, 2.0, 3.0), gamma=0.0)
        u_only = PotentialParts((0.7, 0.3), (), gamma=0.0)
        assert from_parts(parts).coeffs == from_parts(u_only).coeffs

    def test_pure_sine_perturbation(self):
        # i*0.2*sin 2x = 0.1 e^{2ix} - 0.1 e^{-2ix}
        p = from_parts(PotentialParts((), (0.0, 1.0), gamma=0.2))
        assert p.coeffs == {2: pytest.approx(0.1), -2: pytest.approx(-0.1)}

    def test_doubled_convention_factor(self):
        single = from_parts(PotentialParts((1.0,), (1.0,), 0.5, Convention.PROP2_SINE))
        doubled = from_parts(PotentialParts((1.0,), (1.0,), 0.5, Convention.PROP3_DOUBLED))
        for j in (1, -1):
            assert doubled.coeffs[j] == pytest.approx(2 * single.coeffs[j])


class TestEval:
    def test_zero_potential(self):
        assert constant(0.0).eval(1.234) == 0

    def test_two_cosine(self):
        p = PeriodicPotential({1: 1.0, -1: 1.0})
        assert p.eval(0.0) == pytest.approx(2.0)

    def test_two_harmonic_at_half_pi(self):
        # 2cos(pi/2) + cos(pi) + i*gamma*sin(pi) = -1
        for gamma in (0.0, 1.0, 1.5):
            assert two_harmonic_potential(gamma).eval(np.pi / 2) == pytest.approx(-1.0, abs=1e-14)

    def test_periodicity(self):
        p = two_harmonic_potential(1.5)
        x = np.linspace(-3, 3, 13)
        assert np.abs(p.eval(x + 2 * np.pi) - p.eval(x)).max() < 1e-12


class TestValidatePT:
    def test_real_coefficients(self):
        assert validate_pt(PeriodicPotential({1: 1.0, -2: 0.3}))

    def test_imaginary_coefficient_fails(self):
        assert not validate_pt(PeriodicPotential({1: 1j}))

    def test_tolerance_is_pt_tol(self):
        assert validate_pt(PeriodicPotential({1: 1 + 1e-12j}))
        assert not validate_pt(PeriodicPotential({1: 1 + 2e-12j}))

    def test_two_harmonic_any_gamma(self):
        for gamma in (0.0, 0.5, 1.0, 1.5, 3.0):
            assert validate_pt(two_harmonic_potential(gamma))


@given(
    cos=st.lists(st.floats(-5, 5, allow_nan=False), max_size=5),
    sin=st.lists(st.floats(-5, 5, allow_nan=False), max_size=5),
    gamma=st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_from_parts_is_always_pt(cos, sin, gamma):
    assert validate_pt(from_parts(PotentialParts(tuple(cos), tuple(sin), gamma)))


def test_pt_symmetry_of_values(rng):
    p = two_harmonic_potential(1.5)
    x = rng.uniform(-10, 10, size=100)
    assert np.abs(p.eval(-x) - np.conj(p.eval(x))).max() < 1e-13


class TestJson:
    def test_parts_form(self):
        p = potential_from_json({"cosine": [2, 1], "sine": [0, 1], "gamma": 1.0,
                                 "convention": "prop2"})
        assert p.coeffs == two_harmonic_potential(1.0).coeffs

    def test_exp_form(self):
        p = potential_from_json({"exp_coeffs": [[1, 1.0, 0.0], [-1, 1.0, 0.0]]})
        assert p.coeffs == {1: 1.0 + 0j, -1: 1.0 + 0j}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            potential_from_json({"cosine": [1], "typo": 3})

    def test_unknown_convention_rejected(self):
        with pytest.raises(ConfigError):
            potential_from_json({"cosine": [1], "convention": "prop9"})

    @pytest.mark.parametrize("spec", [
        {"cosine": ["x"]}, {"cosine": 5}, {"sine": [True]}, {"cosine": [10**400]},
        {"gamma": "1"}, {"gamma": float("nan")}, {"convention": ["prop2"]},
        {"exp_coeffs": 5}, {"exp_coeffs": [["a", 1, 0]]}, {"exp_coeffs": [[0.5, 1, 0]]},
        {"exp_coeffs": [[0, 1]]}, {"exp_coeffs": [[0, 1, None]]}, [1.0], "cos"])
    def test_malformed_spec_rejected(self, spec):
        with pytest.raises(ConfigError):
            potential_from_json(spec)
        if not (isinstance(spec, dict) and "exp_coeffs" in spec):
            with pytest.raises(ConfigError):
                parts_from_json(spec)

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError):
            PotentialParts((float("inf"),), ())
