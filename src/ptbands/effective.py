"""Effective envelope model at a real band edge.

At an edge omega_* = omega_m(k0), k0 in {0, 1/2}, slow modulations of the
edge Bloch wave g(x) = e^{i k0 x} p(x, k0) obey the stationary cubic
Schroedinger equation

    -(1/2) omega_m''(k0) A'' + Gamma |A|^2 A = Omega A,     X = eps*x,

with Omega = -1 at the lower edge a and +1 at the upper edge b.  Gamma is
the quartic overlap of the edge mode with sigma, paired against the
biorthonormalized adjoint mode: Gamma = <sigma p |p|^2, p*>.  With
<p, p*> = 1 this equals int sigma g^2 |g|^2 dx / int g^2 dx and is real
for PT-symmetric sigma and PT-phase-fixed modes.  The self-pairing
int g^2 dx equals 1 only for real potentials; for genuinely complex PT
potentials the biorthogonal weight is what makes the envelope equation
match the bound states of the full problem (the convergence study in
gpsolve is a sharp end-to-end test of this).  Gamma is an exact
trapezoid sum over FFT samples of p and p*.
"""

from dataclasses import asdict, dataclass

import numpy as np

from . import bands, eigen
from .eigen import TWO_PI, BlochMode
from .errors import ConfigError, ExistenceError, GridError, PTSymmetryError
from .grid import BoundState, RealLineGrid
from .potential import PeriodicPotential

EPS_MAX = 0.5      # largest eps of an envelope ansatz


@dataclass(frozen=True, slots=True)
class EffectiveModel:
    """(k0, omega_*, omega'', Gamma, Omega) of one band edge."""

    k0: float
    omega_star: float
    curvature: float
    gamma_nl: complex       # imaginary part kept as a PT diagnostic
    Omega: int              # -1 at edge a, +1 at edge b
    exists: bool

    def to_json_dict(self):
        """The fields, with Gamma split into gamma_re and gamma_im."""
        d = asdict(self)
        gamma_nl = d.pop("gamma_nl")
        return {**d, "gamma_re": gamma_nl.real, "gamma_im": gamma_nl.imag}


@dataclass(frozen=True, slots=True)
class SechEnvelope:
    """A(X) = amplitude * sech(X / width), the explicit envelope bound state.

    Omega records which edge the envelope bifurcates from (-1: down from
    the lower edge a, +1: up from the upper edge b); the detuning of the
    ansatz is omega = omega_* + eps^2 * Omega.
    """

    amplitude: float
    width: float
    Omega: int

    def __call__(self, X):
        return self.amplitude / np.cosh(np.asarray(X, dtype=float) / self.width)


def existence_condition(gamma_re: float, curvature: float, Omega: int) -> bool:
    """Sign test for sech bound states: sign(Gamma) = -sign(omega'') = sign(Omega)."""
    if gamma_re == 0 or curvature == 0:
        return False
    return bool(np.sign(gamma_re) == np.sign(Omega) == -np.sign(curvature))


def _cell_samples(coeffs, n):
    """sum_j c_j e^{ijx} at x = 2 pi m / n, m = 0..n-1, by one inverse FFT.

    Exact for every n: at these points e^{ijx} = e^{i(j mod n)x}, so
    coefficients with the same j mod n are summed.
    """
    J = (len(coeffs) - 1) // 2
    spectrum = np.zeros(n, dtype=complex)
    np.add.at(spectrum, np.arange(-J, J + 1) % n, coeffs)
    return n * np.fft.ifft(spectrum)


def gamma_coefficient(mode: BlochMode, sigma: PeriodicPotential) -> complex:
    """Nonlinearity coefficient Gamma = <sigma p |p|^2, p*> at a band edge.

    The mode must be biorthonormalized and PT-phase-fixed, at k0 in
    {0, 1/2}: there -k0 = k0 mod 1, so the -k0 mode is the mode itself,
    with the e^{2 i k0 x} frame twist absorbed by the adjoint pairing.

    The integrand is a trigonometric polynomial of degree 4J + J_sigma,
    so the trapezoid rule on n = 4J + J_sigma + 1 points of one cell is
    exact; p and p* are sampled there by one inverse FFT each.
    """
    if mode.k not in (0.0, 0.5):
        raise ConfigError("Gamma is defined at band edges k0 in {0, 1/2}")
    n = 4 * mode.J + sigma.max_harmonic + 1
    x = np.arange(n) * TWO_PI / n
    p = _cell_samples(mode.p_coeffs, n)
    pstar = _cell_samples(mode.pstar_coeffs, n)
    integrand = sigma.eval(x) * p * np.abs(p) ** 2 * np.conj(pstar)
    return complex(np.sum(integrand) * TWO_PI / n)


def sech_envelope(model: EffectiveModel) -> SechEnvelope:
    """Explicit sech solution of the envelope equation, when it exists.

    amplitude = sqrt(2 Omega / Gamma), width = sqrt(-omega'' / (2 Omega)).
    """
    g = model.gamma_nl.real
    if not existence_condition(g, model.curvature, model.Omega):
        raise ExistenceError(
            "no sech bound state: need sign(Gamma) = sign(Omega) = -sign(omega''), "
            f"got sign(Gamma) = {np.sign(g):g}, sign(Omega) = {model.Omega}, "
            f"sign(omega'') = {np.sign(model.curvature):g}"
        )
    return SechEnvelope(
        amplitude=float(np.sqrt(2 * model.Omega / g)),
        width=float(np.sqrt(-model.curvature / (2 * model.Omega))),
        Omega=model.Omega,
    )


def build_ansatz(env: SechEnvelope, mode: BlochMode, eps: float, grid: RealLineGrid):
    """Slowly-varying-envelope ansatz u_form(x) = eps A(eps x) g(x) on a grid.

    Returns a BoundState carrying the sampled field; eps must lie in
    (0, EPS_MAX].  The grid must contain the envelope: eps*L >= 15*width
    keeps the sech tail below 1e-6 at the periodic seam.  RealLineGrid
    resolves the cell (>= 32 points per cell) in whole cells: with P points
    per cell, x_n = -L + 2 pi n / P and L a multiple of 2 pi, so p(x_n) is
    the cell sample n mod P: p is sampled once on one cell and tiled.
    """
    if not 0.0 < eps <= EPS_MAX:
        raise ConfigError(f"eps = {eps} outside (0, {EPS_MAX}]")
    # sech tail at the seam: ~2 e^{-eps L / width} < 1e-6  <=>  eps L >= 15 width
    need = 15.0 * env.width
    if eps * grid.half_length < need:
        raise GridError(
            f"envelope under-resolved: eps*L = {eps * grid.half_length:.2f} < {need:.2f}; "
            f"need half_length >= {need / eps:.1f}"
        )
    p = np.tile(_cell_samples(mode.p_coeffs, grid.n_points // grid.cells), grid.cells)
    u = eps * env(eps * grid.x) * np.exp(1j * mode.k * grid.x) * p
    pt_defect = grid.pt_defect(u)
    if pt_defect > 1e-8 * np.abs(u).max():      # relative: amplitude ~ 1/sqrt|Gamma|
        raise PTSymmetryError(
            f"ansatz not PT-symmetric on the grid (defect {pt_defect:.3e}); "
            "was the mode PT-phase-fixed?"
        )
    return BoundState(values=u, eps=eps,
                      omega=float(mode.omega.real) + eps**2 * env.Omega,
                      grid=grid)


def extract_effective_model(V: PeriodicPotential, sigma: PeriodicPotential,
                            m: int, edge: str, J: int, N_k: int = 32):
    """Band-edge pipeline: assumption check, PT-fixed mode, curvature, Gamma.

    Everything at the edge comes from the band sweep's stored edge
    spectrum: the mode with p* from its left vector, and omega'' from the
    edge report of bands.check_assumption.  The sweep computes the
    min(m + 3, 2J + 1) lowest bands.  Returns (EffectiveModel, BlochMode).
    Raises ConfigError when that holds no band above m (2J + 1 <= m), and
    AssumptionError when the reality/isolation/simplicity check fails.
    """
    if edge not in ("a", "b"):
        raise ConfigError("edge must be 'a' or 'b'")
    n_bands = min(m + 3, 2 * J + 1)
    if n_bands <= m:
        raise ConfigError(f"J = {J} holds no band above band {m} to check isolation")
    bs = bands.compute_bands(V, J, N_k, n_bands)
    report = bands.check_assumption(bs, m, V)
    bands.require_assumption(report)
    be = next(e for e in report.edges if e.which == edge)

    spec = bs.edge_spectra[be.k0]
    idx = bs.edge_index(m, be.k0)
    mode = eigen.fix_pt_phase(eigen.make_mode(spec, idx))
    gamma_nl = gamma_coefficient(mode, sigma)
    Omega = -1 if edge == "a" else +1
    model = EffectiveModel(
        k0=be.k0,
        omega_star=float(mode.omega.real),
        curvature=be.curvature,
        gamma_nl=gamma_nl,
        Omega=Omega,
        exists=bool(existence_condition(gamma_nl.real, be.curvature, Omega)),
    )
    return model, mode
