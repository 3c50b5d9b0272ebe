"""Test-side references the package itself does not need.

assemble and solve give one Galerkin matrix M_J(k) and its decomposition,
built on the package's one assembly (discretize.assemble_stack) and one
decomposition (eigen.decompose) as stacks of one.  g_values evaluates a
Bloch wave at points; curvature_from_fit is a second finite-difference
estimator of a band-edge curvature, beside bands.second_derivative.
envelope_residual checks a sech envelope against its amplitude equation
with the exact second derivative of the sech.  l2_norm, fourier_second_derivative
and gp_residual are the full-grid references of the half-grid Newton solve in
gpsolve.
"""

from dataclasses import dataclass

import numpy as np

from ptbands import ConfigError, Spectrum
from ptbands.bands import _band_value_near
from ptbands.discretize import assemble_stack
from ptbands.eigen import decompose


@dataclass(frozen=True, slots=True)
class Matrix:
    """Dense Galerkin matrix of L(k) at quasimomentum k."""

    k: float
    J: int
    entries: np.ndarray

    def norm(self):
        """Infinity norm, the scale of roundoff bounds."""
        return np.linalg.norm(self.entries, np.inf)


def assemble(p, k, J):
    """M_J(k): assemble_stack at the one quasimomentum k."""
    return Matrix(k=float(k), J=int(J), entries=assemble_stack(p, [k], J)[0])


def solve(M, pick=None):
    """eigen.decompose of one matrix, a stack of one, as a Spectrum: every
    right vector, and the left vectors in the columns pick(eigenvalues)
    selects (none without pick)."""
    row = None if pick is None else (lambda w: pick(w[0]))
    w, right, left = decompose(M.entries[None], row)
    return Spectrum(k=M.k, J=M.J, eigenvalues=w[0], right_vectors=right[0],
                    left_vectors=None if left is None else left[0])


def g_values(mode, x):
    """Bloch wave g(x) = e^{ikx} p(x) of an eigen.BlochMode at arbitrary
    points; PT-symmetric when the phase is fixed."""
    x = np.asarray(x, dtype=float)
    js = np.arange(-mode.J, mode.J + 1)
    return np.exp(1j * mode.k * x) * (np.exp(1j * np.outer(x, js)) @ mode.p_coeffs)


def curvature_from_fit(p, m, k0, J, half_width=0.05, n_samples=11):
    """Independent curvature estimate: even quartic fit of omega_m near k0.

    Fits omega = a0 + a2 d^2 + a4 d^4 on |d| <= half_width (d measured into
    the zone) and returns 2*a2.  Serves as the second estimator guarding
    the difference-based second_derivative against tracking errors.
    """
    if k0 not in (0.0, 0.5):
        raise ConfigError("band-edge curvature is defined at k0 in {0, 1/2}")
    spec0 = solve(assemble(p, k0, J))
    om0 = spec0.eigenvalues[m - 1]
    ref = spec0.right_vectors[:, m - 1]
    s = 1.0 if k0 == 0.0 else -1.0
    ds = np.linspace(half_width / n_samples, half_width, n_samples)
    oms = [_band_value_near(p, k0 + s * d, J, ref) for d in ds]
    A = np.vstack([np.ones_like(ds), ds**2, ds**4]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(oms) - om0.real, rcond=None)
    return float(2 * coef[1])


def l2_norm(grid, f):
    """Discrete L2(R) norm of a field on a RealLineGrid (trapezoid = Riemann
    sum on a periodic grid)."""
    return float(np.sqrt(grid.spacing * np.sum(np.abs(f) ** 2)))


def fourier_second_derivative(grid, f):
    """f'' of a field on a RealLineGrid by FFT differentiation."""
    return np.fft.ifft(-grid.frequencies**2 * np.fft.fft(f))


def gp_residual(u, omega, V, sigma, grid):
    """Pointwise residual -u'' + V u + sigma |u|^2 u - omega u of a full field."""
    Vx, sx = V.eval(grid.x), sigma.eval(grid.x)
    return -fourier_second_derivative(grid, u) + Vx * u + sx * np.abs(u) ** 2 * u - omega * u


def envelope_second_derivative(env, X):
    """A''(X) of a SechEnvelope A, exact: (sech)'' = sech - 2 sech^3 in the
    scaled variable."""
    s = 1.0 / np.cosh(np.asarray(X, dtype=float) / env.width)
    return env.amplitude * (s - 2 * s**3) / env.width**2


def envelope_residual(env, model, X):
    """Pointwise residual of A in the envelope equation of an EffectiveModel
    (analytic derivatives)."""
    A = env(X)
    return (-0.5 * model.curvature * envelope_second_derivative(env, X)
            + model.gamma_nl.real * A**3 - model.Omega * A)
