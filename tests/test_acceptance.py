"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with  pytest -s tests/test_acceptance.py  to see the per-criterion
report (timings included where a runtime budget applies).
"""

import time

import numpy as np
import pytest

from ptbands import (PotentialParts, assemble, build_ansatz,
                     compute_bands, constant, check_assumption, convergence_study,
                     envelope_residual, fix_pt_phase, from_parts, gamma_coefficient,
                     grid_for_envelope, make_mode, measure_splitting, mw_matrix,
                     newton_solve, prop3_scan, sech_envelope, solve, splitting_slope,
                     EffectiveModel, extract_effective_model, find_dirac_points)
from ptbands.effective import existence_condition
from conftest import two_harmonic_potential, gentle_parts

FREE = constant(0.0)


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion} PASS - {detail}")


def test_criterion_1_free_space_oracle():
    t0 = time.monotonic()
    J = 32
    worst = 0.0
    for k in np.linspace(-0.5, 0.5, 21):
        computed = solve(assemble(FREE, k, J)).eigenvalues
        analytic = np.sort((np.arange(-J, J + 1) + k) ** 2)
        sel_c = computed[np.abs(computed) <= 25]
        sel_a = analytic[np.abs(analytic) <= 25]
        assert len(sel_c) == len(sel_a)
        dev = np.abs(np.sort(sel_c.real) - sel_a).max()
        dev = max(dev, np.abs(sel_c.imag).max())
        worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    assert worst <= 1e-10
    assert elapsed < 5.0
    report(1, f"free-space spectrum matches (j+k)^2, max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_pt_structural_invariant():
    worst_im = 0.0
    worst_pair = 0.0
    for gamma in (0.0, 0.4, 1.0, 1.5, 2.7):
        p = two_harmonic_potential(gamma)
        for k in (0.0, 0.21, 0.5):
            M = assemble(p, k, 24)
            worst_im = max(worst_im, np.abs(M.entries.imag).max())
            w = solve(M).eigenvalues
            scale = np.maximum(1.0, np.abs(w))
            closure = max(np.abs(np.conj(val) - w).min() / s
                          for val, s in zip(w, scale))
            worst_pair = max(worst_pair, closure)
    assert worst_im <= 1e-14
    assert worst_pair <= 1e-9
    report(2, f"assembled matrices real ({worst_im:.1e}), spectra conjugation-closed "
              f"({worst_pair:.1e})")


def test_criterion_3_reference_lattice_bands():
    t0 = time.monotonic()
    bs1 = compute_bands(two_harmonic_potential(1.0), 28, 32, 3)
    max_im_g1 = np.abs(bs1.omega.imag).max()
    assert max_im_g1 <= 1e-7

    p15 = two_harmonic_potential(1.5)
    bs15 = compute_bands(p15, 28, 32, 5)
    assert np.abs(bs15.band(1).imag).max() > 1e-3   # complex on a subinterval
    assert np.abs(bs15.band(2).imag).max() > 1e-3
    rep = check_assumption(bs15, 3, p=p15)
    assert rep.is_real and rep.assumption_ok
    edges = {e.which: e for e in rep.edges}
    assert edges["a"].k0 == 0.0 and edges["b"].k0 == 0.5
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(3, f"gamma=1: lowest 3 bands real (max|Im| {max_im_g1:.1e}); gamma=1.5: "
              f"bands 1-2 complex, band 3 real with edges a@k=0 ({edges['a'].omega_star:.4f}), "
              f"b@k=1/2 ({edges['b'].omega_star:.4f}); {elapsed:.1f}s")


def test_criterion_4_sine_perturbation_splitting():
    W = PotentialParts(sine_coeffs=(0.0, 1.0), gamma=0.2)
    V = from_parts(W)
    plus, minus = measure_splitting(V, 0.0, 1.0, 32)
    dev = abs(abs(plus.imag) - 0.1) / 0.1
    assert dev <= 0.10

    bs0 = compute_bands(FREE, 16, 32, 6)
    dp = next(d for d in find_dirac_points(bs0) if abs(d.mu - 1.0) < 1e-9)
    slope = splitting_slope(PotentialParts(sine_coeffs=(0.0, 1.0)), dp, 32)
    slope_dev = abs(slope - 0.5) / 0.5
    assert slope_dev <= 0.02
    report(4, f"|Im omega| = {abs(plus.imag):.5f} vs 0.1 ({100 * dev:.2f}% off); "
              f"Richardson gamma-slope {slope:.6f} vs 1/2 ({100 * slope_dev:.3f}% off)")


def test_criterion_5_gamma_coefficient_checks():
    # reality across every PT-phase-fixed mode the suite uses
    suite = [(two_harmonic_potential(1.0), 0.0, (0, 1, 2)),
             (two_harmonic_potential(1.0), 0.5, (0, 1, 2)),
             (from_parts(gentle_parts()), 0.0, (0, 1)),
             (from_parts(gentle_parts()), 0.5, (0,))]
    sigma = constant(-1.0)
    worst = 0.0
    count = 0
    for p, k, idxs in suite:
        spec = solve(assemble(p, k, 20))
        for i in idxs:
            mode = fix_pt_phase(make_mode(spec, i))
            g = gamma_coefficient(mode, mode, sigma)
            worst = max(worst, abs(g.imag))
            count += 1
    assert worst <= 1e-8

    spec = solve(assemble(FREE, 0.0, 8))
    mode = fix_pt_phase(make_mode(spec, 0))
    for s0 in (1.0, -3.7):
        g = gamma_coefficient(mode, mode, constant(s0))
        assert abs(g - s0 / (2 * np.pi)) <= 1e-12
    report(5, f"Im Gamma <= {worst:.1e} over {count} PT-fixed modes; free-space "
              f"constant-sigma value sigma0/(2 pi) to 1e-12")


def test_criterion_6_envelope_oracle():
    X = np.linspace(-20, 20, 4001)
    cases = [(-2.0, +1, +1.0, True), (+2.0, -1, -1.0, True),
             (+2.0, -1, +1.0, False), (-2.0, +1, -1.0, False)]
    worst = 0.0
    for curvature, Omega, g, should_exist in cases:
        assert existence_condition(g, curvature, Omega) is should_exist
        model = EffectiveModel(k0=0.0, omega_star=0.0, curvature=curvature,
                               gamma_nl=complex(g), Omega=Omega, exists=should_exist)
        if should_exist:
            env = sech_envelope(model)
            worst = max(worst, np.abs(envelope_residual(env, model, X)).max())
        else:
            with pytest.raises(Exception):
                sech_envelope(model)
    assert worst <= 1e-10
    report(6, f"sech residual <= {worst:.1e} on 4001-point grid; all four sign "
              f"combinations exercised")


def test_criterion_7_ansatz_error_scaling():
    t0 = time.monotonic()
    V = from_parts(gentle_parts())
    sigma = constant(-1.0)
    study = convergence_study(V, sigma, m=1, edge="a",
                              eps_list=(0.2, 0.1, 0.05, 0.025), s=1.0, J=20)
    errs = [r.hs_error for r in study.rows]
    assert all(r.residual <= 1e-9 for r in study.rows)      # Newton converged
    assert all(e1 > e2 for e1, e2 in zip(errs, errs[1:]))   # strictly decreasing
    assert study.slope >= 1.0
    assert study.rel_slope >= 0.5
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(7, f"Newton converged at every eps; e(eps) strictly decreasing; "
              f"H1 slope {study.slope:.3f} >= 1.0; relative slope "
              f"{study.rel_slope:.3f} >= 0.5; {elapsed:.1f}s")


def test_criterion_8_prop3_scan():
    t0 = time.monotonic()
    ms = np.arange(1, 49, dtype=float)
    recs = prop3_scan(ms**-2.5, ms**-1.5, 0.5, range(6, 13), J=64)
    assert len(recs) == 7
    worst = 0.0
    for r in recs:
        assert abs(r.measured[0].imag) > 1e-6        # complex pair near m^2
        assert r.relative_gap <= 0.30                # within 30% of |gamma b|
        worst = max(worst, r.relative_gap)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(8, f"bands near m^2 complex for m = 6..12; |Im| within "
              f"{100 * worst:.1f}% <= 30% of the coupling |gamma b|; {elapsed:.1f}s")


def test_criterion_9_symmetry_suite():
    # omega(-k) = omega(k) for real simple bands
    bs = compute_bands(two_harmonic_potential(1.0), 20, 32, 5)
    ks = bs.k_grid
    worst_sym = 0.0
    for m in range(1, 6):
        vals = bs.band(m).real
        for i, k in enumerate(ks):
            j = int(np.argmin(np.abs(ks + k)))
            if abs(ks[j] + k) < 1e-12:
                worst_sym = max(worst_sym, abs(vals[i] - vals[j]))
    assert worst_sym <= 1e-9

    # M_W eigenvalue-set invariance under a random basis rotation
    rng = np.random.default_rng(7)
    bs0 = compute_bands(FREE, 16, 32, 6)
    dp = next(d for d in find_dirac_points(bs0) if abs(d.mu - 1.0) < 1e-9)
    W = PotentialParts(sine_coeffs=(0.3, 1.0, 0.2))
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    basis = np.column_stack([dp.phi_plus, dp.phi_minus]) @ Q
    from dataclasses import replace
    rotated = replace(dp, phi_plus=basis[:, 0], phi_minus=basis[:, 1])
    e1 = np.sort_complex(np.linalg.eigvals(mw_matrix(dp, W)))
    e2 = np.sort_complex(np.linalg.eigvals(mw_matrix(rotated, W)))
    rot_dev = np.abs(e1 - e2).max()
    assert rot_dev <= 1e-10

    # Newton PT closure, checked at every iterate
    V = from_parts(gentle_parts())
    sigma = constant(-1.0)
    model, mode = extract_effective_model(V, sigma, 1, "a", J=16)
    env = sech_envelope(model)
    grid = grid_for_envelope(0.1, env.width)
    ansatz = build_ansatz(env, mode, 0.1, grid)
    defects = []

    def watch(_k, u, _r):
        defects.append(np.abs(np.conj(u[grid.mirror]) - u).max())

    newton_solve(ansatz.values, ansatz.omega, V, sigma, grid, on_iterate=watch)
    assert len(defects) >= 2
    assert max(defects) <= 1e-12
    report(9, f"omega(-k) = omega(k) to {worst_sym:.1e}; M_W eigenvalue set invariant "
              f"under rotation to {rot_dev:.1e}; Newton PT closure "
              f"{max(defects):.1e} over {len(defects)} iterates")
