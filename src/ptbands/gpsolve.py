"""Newton-Krylov solver for stationary Gross-Pitaevskii bound states in the PT subspace.

The stationary equation  -u'' + V u + sigma |u|^2 u = omega u  is solved on
a periodic truncation of the line with Fourier differentiation.  Iterates
stay PT-symmetric through the projection P u = (u + conj(u(-x)))/2, exact
in floating point; the phase/translation kernel directions (i*u and u')
are anti-PT, so the projected Jacobian is invertible near a band-edge
bound state.  Each step is an inexact GMRES solve with the R-linear action
delta -> P(-delta'' + (V + 2 sigma |u|^2 - omega) delta + sigma u^2 conj(delta))
on [Re delta; Im delta], preconditioned by (xi^2 + PRECOND_SHIFT + |omega|)^{-1}
(which commutes with P): O(N log N) per matvec and O(N) memory.
"""

import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from . import effective as effective_mod
from .errors import ConfigError, NewtonError, PTSymmetryError
from .grid import RealLineGrid, grid_for_envelope
from .potential import PeriodicPotential
from .util import parallel_map

# Forcing eta_k = min(FORCING_MAX, ||F_k||) keeps convergence quadratic (a 0.1 cap
# sends the eps = 0.2 solve to another solution); GMRES(50) stalls at eps = 0.0125.
GMRES_RESTART = 100
GMRES_MAX_CYCLES = 30
FORCING_MAX = 1e-4
PRECOND_SHIFT = 1.0


@dataclass(frozen=True)
class BoundState:
    """A complex field on a RealLineGrid with solve diagnostics.

    residual_norm is the L2 norm of the GP residual (None for a bare
    ansatz that has not been solved); residual_history holds the Newton
    residuals including the final one.
    """

    values: np.ndarray
    eps: float
    omega: float
    grid: RealLineGrid
    residual_norm: float = None
    newton_iters: int = None
    residual_history: tuple = ()

    def pt_defect(self):
        """max |conj(u(-x)) - u(x)| over the grid."""
        u = self.values
        return float(np.abs(np.conj(u[self.grid.mirror]) - u).max())


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    half_length: float
    n_points: int
    newton_iters: int
    residual: float
    hs_error: float
    hs_error_rel: float


@dataclass(frozen=True)
class ConvergenceStudy:
    """Error-vs-eps table with fitted log-log slopes.

    slope / rel_slope are least-squares slopes of log(error) against
    log(eps); the stderr fields are the 1-sigma uncertainties of the fit
    (None when fewer than two or three points).  local_slopes holds
    log(e_i / e_{i+1}) / log(eps_i / eps_{i+1}) for consecutive rows: a
    pre-asymptotic large-eps point biases the global fit, not the
    small-eps local slopes."""

    rows: tuple
    s: float
    slope: float
    slope_stderr: float
    rel_slope: float
    rel_slope_stderr: float
    model: "effective_mod.EffectiveModel"
    local_slopes: tuple


def hs_norm(u, s: float, grid: RealLineGrid) -> float:
    """Discrete H^s(R) norm: (sum (1+xi^2)^s |u_hat(xi)|^2 dxi)^(1/2).

    Exactly the grid L2 norm at s = 0.
    """
    if not 0.0 <= s <= 2.0:
        raise ValueError(f"s = {s} outside [0, 2]")
    c = np.fft.fft(u) / grid.n_points
    weight = (1.0 + grid.frequencies**2) ** s
    return float(np.sqrt(np.sum(weight * np.abs(c) ** 2) * 2 * grid.half_length))


def gp_residual(u, omega: float, V: PeriodicPotential, sigma: PeriodicPotential,
                grid: RealLineGrid):
    """Pointwise residual -u'' + V u + sigma |u|^2 u - omega u."""
    upp = grid.second_derivative(u)
    return (-upp + V.eval(grid.x) * u + sigma.eval(grid.x) * np.abs(u) ** 2 * u
            - omega * u)


def _pt_project(u, grid: RealLineGrid):
    """P u = (u + conj(u(-x)))/2: idempotent, output PT-symmetric to the last bit."""
    return 0.5 * (u + np.conj(u[grid.mirror]))


def _jacobian_action(u, omega: float, Vx, sx, grid: RealLineGrid):
    """delta -> P J(u) delta, J the R-linear derivative of gp_residual at u."""
    diag = Vx + 2 * sx * np.abs(u) ** 2 - omega
    off = sx * u**2
    return lambda d: _pt_project(-grid.second_derivative(d) + diag * d + off * np.conj(d),
                                 grid)


def _real_operator(fn, n: int):
    """A map on complex fields of length n as an operator on [Re; Im] in R^2n."""
    return scipy.sparse.linalg.LinearOperator(
        (2 * n, 2 * n), dtype=float,
        matvec=lambda z: _as_real(fn(z[:n] + 1j * z[n:])))


def _as_real(f):
    return np.concatenate([f.real, f.imag])


def newton_solve(u0, omega: float, V: PeriodicPotential, sigma: PeriodicPotential,
                 grid: RealLineGrid, max_iter: int = 25, tol: float = 1e-10,
                 on_iterate=None) -> BoundState:
    """Inexact Newton-Krylov solve of the stationary GP equation in the PT subspace.

    u0 must be PT-symmetric to 1e-6.  Converges when the L2 residual falls
    below tol (an already-converged u0 returns in zero iterations).
    on_iterate(k, u, residual), when given, observes every iterate.
    Raises NewtonError on divergence, a GMRES breakdown or miss of the forcing
    tolerance, or a non-finite step (typically eps too large or a violated band
    assumption).
    """
    u0 = np.asarray(u0, dtype=complex)
    N = grid.n_points
    if len(u0) != N:
        raise ValueError("u0 does not match the grid")
    defect = np.abs(np.conj(u0[grid.mirror]) - u0).max()
    if defect > 1e-6:
        raise PTSymmetryError(f"initial guess not PT-symmetric (defect {defect:.3e})")

    Vx, sx = V.eval(grid.x), sigma.eval(grid.x)
    symbol = 1.0 / (grid.frequencies**2 + PRECOND_SHIFT + abs(omega))
    precond = _real_operator(lambda d: np.fft.ifft(symbol * np.fft.fft(d)), N)
    u = _pt_project(u0, grid)
    history = []
    iters = 0
    for _ in range(max_iter + 1):
        G = gp_residual(u, omega, V, sigma, grid)
        rnorm = grid.l2_norm(G)
        history.append(rnorm)
        if on_iterate is not None:
            on_iterate(iters, u, rnorm)
        if rnorm <= tol:
            return BoundState(values=u, eps=np.nan, omega=omega, grid=grid,
                              residual_norm=rnorm, newton_iters=iters,
                              residual_history=tuple(history))
        if iters >= max_iter:
            break
        jac = _real_operator(_jacobian_action(u, omega, Vx, sx, grid), N)
        z, info = scipy.sparse.linalg.gmres(
            jac, _as_real(_pt_project(G, grid)), rtol=min(FORCING_MAX, rnorm),
            restart=GMRES_RESTART, maxiter=GMRES_MAX_CYCLES, M=precond)
        if info != 0 or not np.all(np.isfinite(z)):
            raise NewtonError(f"GMRES failed at iteration {iters} (info {info})",
                              last_residual=rnorm)
        u = _pt_project(u - (z[:N] + 1j * z[N:]), grid)
        iters += 1
    raise NewtonError(
        f"no convergence in {max_iter} iterations (last residual {history[-1]:.3e})",
        last_residual=history[-1],
    )


def convergence_study(V: PeriodicPotential, sigma: PeriodicPotential, m: int,
                      edge: str, eps_list, s: float = 1.0, J: int = 24,
                      N_k: int = 32, max_iter: int = 25, tol: float = 1e-10,
                      tail_decay: float = 20.0) -> ConvergenceStudy:
    """Error scaling of the envelope ansatz against Newton-refined states.

    For each eps: build u_form from the band-edge model, solve the GP
    equation from it, and record e(eps) = ||u - u_form||_{H^s}.  The grid
    half length grows like tail_decay*width/eps so the envelope tail at
    the seam stays below ~2e-9 for every eps.  Any Newton failure aborts
    the study with the failing eps attached to the error.  eps_list must
    hold distinct real numbers in (0, 0.5] (ConfigError otherwise).
    """
    eps_list = list(eps_list)
    if not (eps_list and all(isinstance(e, numbers.Real) and not isinstance(e, bool)
                             and 0 < e <= 0.5 for e in eps_list)
            and len(set(eps_list)) == len(eps_list)):
        raise ConfigError(f"eps_list must be distinct numbers in (0, 0.5], got {eps_list!r}")
    model, mode = effective_mod.extract_effective_model(V, sigma, m, edge, J, N_k)
    env = effective_mod.sech_envelope(model)     # raises ExistenceError if signs fail

    def run_one(eps):
        grid = grid_for_envelope(eps, env.width, tail_decay=tail_decay)
        ansatz = effective_mod.build_ansatz(env, mode, eps, grid)
        try:
            state = newton_solve(ansatz.values, ansatz.omega, V, sigma, grid,
                                 max_iter=max_iter, tol=tol)
        except NewtonError as exc:
            exc.eps = eps
            raise
        err = hs_norm(state.values - ansatz.values, s, grid)
        rel = err / hs_norm(ansatz.values, s, grid)
        return ConvergenceRow(
            eps=float(eps), half_length=grid.half_length, n_points=grid.n_points,
            newton_iters=state.newton_iters, residual=state.residual_norm,
            hs_error=err, hs_error_rel=rel,
        )

    rows = parallel_map(run_one, eps_list)

    def fit(errors):
        if len(rows) < 2:
            return None, None
        x = np.log([r.eps for r in rows])
        y = np.log(errors)
        (slope, _), res, *_ = np.polyfit(x, y, 1, full=True)
        if len(rows) > 2:
            sigma2 = res[0] / (len(rows) - 2) if res.size else 0.0
            stderr = float(np.sqrt(sigma2 / np.sum((x - x.mean()) ** 2)))
        else:
            stderr = None
        return float(slope), stderr

    slope, slope_err = fit([r.hs_error for r in rows])
    rel_slope, rel_err = fit([r.hs_error_rel for r in rows])
    local = tuple(float(np.log(a.hs_error / b.hs_error) / np.log(a.eps / b.eps))
                  for a, b in zip(rows, rows[1:]))
    return ConvergenceStudy(rows=tuple(rows), s=s, slope=slope, slope_stderr=slope_err,
                            rel_slope=rel_slope, rel_slope_stderr=rel_err, model=model,
                            local_slopes=local)
