"""Newton-Krylov solver for stationary Gross-Pitaevskii bound states in the PT subspace.

The stationary equation  -u'' + V u + sigma |u|^2 u = omega u  is solved on
a periodic truncation of the line with Fourier differentiation.  Iterates
stay PT-symmetric through the projection P u = (u + conj(u(-x)))/2, exact
in floating point; the phase/translation kernel directions (i*u and u')
are anti-PT, so the projected Jacobian is invertible near a band-edge
bound state.  A grid field is PT exactly when its DFT is real, and
fft(P w) = Re fft(w), so with PT V and sigma and real omega each step is an
inexact GMRES solve for the real DFT coefficients c of the correction, with
c -> xi^2 c + Re fft((V + 2 sigma |u|^2 - omega) d + sigma u^2 conj(d)),
d = ifft(c), O(N log N) per matvec.

The preconditioner is the exact inverse of the linear operator
-d^2 + V - omega.  On a grid of C cells with P points each, the 2pi-periodic
V couples only the Fourier indices n with the same residue n mod C, so the
operator splits into C independent P x P Floquet-Bloch blocks (Kuchment,
Floquet Theory for PDEs, 1993).  Unlike a shifted-Laplacian symbol, their
inverse sees the band edge that omega = omega_0 + eps^2 Omega sits next to,
so the Krylov count per Newton step stays bounded as eps -> 0 (the
preconditioned Newton iteration of J. Yang, J. Comput. Phys. 228, 2009).
Set-up inverts the C real dense blocks once per solve (8 P N bytes); each
application is a batched P x P product on c, O(P N), with no FFT.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetri

from . import effective as effective_mod
from .errors import ConfigError, GridError, NewtonError, PTSymmetryError
from .grid import RealLineGrid, grid_for_envelope
from .potential import PeriodicPotential, validate_pt
from .util import is_real

# Forcing eta_k = min(FORCING_MAX, ||F_k||) keeps convergence quadratic (a 0.1 cap
# sends the eps = 0.2 solve to another solution).  gmres allocates its
# (GMRES_RESTART + 1) x N Krylov basis on every step; with the Floquet-Bloch
# preconditioner a step takes at most 15 matvecs on the tested lattices, so 30
# never restarts there
GMRES_RESTART = 30
GMRES_MAX_CYCLES = 30
FORCING_MAX = 1e-4
# a preconditioner block with 1-norm condition above this (omega on or next to a
# band value of the grid) loses more than FORCING_MAX to roundoff when applied
BLOCK_COND_MAX = 1e12


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
    """c -> fft(P J(u) ifft(c)) on the real DFT coefficients c of PT fields, J
    the R-linear derivative of gp_residual at u; taking Re is the projection P."""
    xi2 = grid.frequencies**2
    diag = Vx + 2 * sx * np.abs(u) ** 2 - omega
    off = sx * u**2

    def act(c):
        d = np.fft.ifft(c)
        return xi2 * c + np.fft.fft(diag * d + off * np.conj(d)).real
    return act


def _bloch_inverse(Vx, omega: float, grid: RealLineGrid):
    """c -> fft((-d^2 + V - omega)^{-1} ifft(c)) by exact real Floquet-Bloch blocks.

    With c reshaped to (P, C), column r holds the indices n = qC + r;
    block r has entries vhat[(q - q') mod P] + (xi_{qC+r}^2 - omega) delta_{qq'}
    with vhat the DFT of V on one cell, real as V is PT.  Each block is inverted in place.
    Raises NewtonError when a block is singular or its 1-norm condition
    exceeds BLOCK_COND_MAX.
    """
    C = grid.cells
    N = grid.n_points
    if N % C:
        raise GridError(f"{N} points do not split into {C} equal cells")
    P = N // C
    q = np.arange(P)
    vhat = np.fft.fft(Vx[:P]).real / P
    blocks = np.empty((C, P, P))
    blocks[:] = vhat[(q[:, None] - q) % P]
    blocks[:, q, q] += (grid.frequencies**2 - omega).reshape(P, C).T
    for r, block in enumerate(blocks):
        norm = np.abs(block).sum(axis=0).max()
        # the transpose is Fortran-ordered, so LAPACK inverts it in the block's
        # memory; inv is the transposed inverse
        lu, piv, info = dgetrf(block.T, overwrite_a=True)
        if info == 0:
            inv, info = dgetri(lu, piv, overwrite_lu=True)
        if info or not norm * np.abs(inv).sum(axis=1).max() <= BLOCK_COND_MAX:
            raise NewtonError(f"preconditioner block {r} of {C} is singular or "
                              f"ill-conditioned at omega = {omega:.6g} "
                              "(omega on a band of the grid)")
        blocks[r] = inv.T
    return lambda c: np.matmul(blocks, c.reshape(P, C).T[:, :, None])[:, :, 0].T.reshape(N)


def newton_solve(u0, omega: float, V: PeriodicPotential, sigma: PeriodicPotential,
                 grid: RealLineGrid, max_iter: int = 25, tol: float = 1e-10,
                 on_iterate=None) -> BoundState:
    """Inexact Newton-Krylov solve of the stationary GP equation in the PT subspace.

    u0 must be PT-symmetric to 1e-6, V and sigma to 1e-12 (PTSymmetryError
    otherwise) and omega real (ConfigError).  Converges when the L2 residual
    falls below tol (an already-converged u0 returns in zero iterations).
    on_iterate(k, u, residual), when given, observes every iterate.
    Raises NewtonError on divergence, a GMRES breakdown or miss of the forcing
    tolerance, a non-finite step (typically eps too large or a violated band
    assumption), or a singular preconditioner block (omega on a band of the
    grid).  The grid must hold a whole number of points per cell (GridError).
    """
    import scipy.sparse.linalg     # imported here: only Newton solves need it

    u0 = np.asarray(u0, dtype=complex)
    N = grid.n_points
    if len(u0) != N:
        raise ValueError("u0 does not match the grid")
    defect = np.abs(np.conj(u0[grid.mirror]) - u0).max()
    if defect > 1e-6:
        raise PTSymmetryError(f"initial guess not PT-symmetric (defect {defect:.3e})")
    if not (validate_pt(V, 1e-12) and validate_pt(sigma, 1e-12)):
        raise PTSymmetryError("V and sigma must be PT-symmetric (real Fourier coefficients)")
    if not is_real(omega):
        raise ConfigError(f"omega must be a real number, got {omega!r}")

    Vx, sx = V.eval(grid.x), sigma.eval(grid.x)
    precond = None
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
        if precond is None:     # a converged u0 needs none, even with omega on a band
            precond = scipy.sparse.linalg.LinearOperator(
                (N, N), matvec=_bloch_inverse(Vx, omega, grid), dtype=float)
        jac = scipy.sparse.linalg.LinearOperator(
            (N, N), matvec=_jacobian_action(u, omega, Vx, sx, grid), dtype=float)
        # z holds the real DFT coefficients of the PT correction
        z, info = scipy.sparse.linalg.gmres(
            jac, np.fft.fft(G).real, rtol=min(FORCING_MAX, rnorm),
            restart=GMRES_RESTART, maxiter=GMRES_MAX_CYCLES, M=precond)
        if info != 0 or not np.all(np.isfinite(z)):
            raise NewtonError(f"GMRES failed at iteration {iters} (info {info})",
                              last_residual=rnorm)
        u = _pt_project(u - np.fft.ifft(z), grid)
        iters += 1
    raise NewtonError(
        f"no convergence in {max_iter} iterations (last residual {history[-1]:.3e})",
        last_residual=history[-1],
    )


def convergence_study(V: PeriodicPotential, sigma: PeriodicPotential, m: int,
                      edge: str, eps_list, s: float = 1.0, J: int = 24,
                      N_k: int = 32, max_iter: int = 25,
                      tol: float = 1e-10) -> ConvergenceStudy:
    """Error scaling of the envelope ansatz against Newton-refined states.

    For each eps: build u_form from the band-edge model, solve the GP
    equation from it, and record e(eps) = ||u - u_form||_{H^s}.  The grid
    half length grows like grid.TAIL_DECAY*width/eps so the envelope tail
    at the seam stays below ~2e-9 for every eps.  Any Newton failure aborts
    the study with the failing eps attached to the error.  eps_list must
    hold distinct real numbers in (0, 0.5] and s must lie in [0, 2]
    (ConfigError otherwise).
    """
    eps_list = list(eps_list)
    if not (eps_list and all(is_real(e) and 0 < e <= 0.5 for e in eps_list)
            and len(set(eps_list)) == len(eps_list)):
        raise ConfigError(f"eps_list must be distinct numbers in (0, 0.5], got {eps_list!r}")
    if not (is_real(s) and 0 <= s <= 2):
        raise ConfigError(f"s must be a number in [0, 2], got {s!r}")
    model, mode = effective_mod.extract_effective_model(V, sigma, m, edge, J, N_k)
    env = effective_mod.sech_envelope(model)     # raises ExistenceError if signs fail

    rows = []
    for eps in eps_list:
        grid = grid_for_envelope(eps, env.width)
        ansatz = effective_mod.build_ansatz(env, mode, eps, grid)
        try:
            state = newton_solve(ansatz.values, ansatz.omega, V, sigma, grid,
                                 max_iter=max_iter, tol=tol)
        except NewtonError as exc:
            exc.eps = eps
            raise
        err = hs_norm(state.values - ansatz.values, s, grid)
        rel = err / hs_norm(ansatz.values, s, grid)
        rows.append(ConvergenceRow(
            eps=float(eps), half_length=grid.half_length, n_points=grid.n_points,
            newton_iters=state.newton_iters, residual=state.residual_norm,
            hs_error=err, hs_error_rel=rel,
        ))

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
