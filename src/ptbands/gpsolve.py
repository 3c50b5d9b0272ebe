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
d = ifft(c), O(N log N) per matvec.  A PT field is fixed by its half
u[:N/2 + 1] (u[N - n] = conj u[n]), so Newton keeps iterate, residual and
update as halves, a matvec is two real FFTs of length N on half-length
arrays, and the full field is built only for on_iterate and the result.

The preconditioner is the exact inverse of the linear operator
-d^2 + V - omega.  On a grid of C cells with P points each, the 2pi-periodic
V couples only the Fourier indices n with the same residue n mod C, so the
operator splits into C independent P x P Floquet-Bloch blocks (Kuchment,
Floquet Theory for PDEs, 1993).  Unlike a shifted-Laplacian symbol, their
inverse sees the band edge that omega = omega_0 + eps^2 Omega sits next to,
so the Krylov count per Newton step stays bounded as eps -> 0 (the
preconditioned Newton iteration of J. Yang, J. Comput. Phys. 228, 2009).
Block C - r is R B_r^T R, R the reversal of q, so set-up inverts the C/2 + 1
real dense blocks r = 0 ... C/2 once per solve and mirrors the rest (8 P N
bytes in all); each application is a batched P x P product on c, O(P N), with
no FFT.

The Krylov solver is an in-package GMRES (Saad & Schultz, SIAM J. Sci. Stat.
Comput. 7, 1986) on numpy alone, left-preconditioned by the Floquet-Bloch
inverse: one Arnoldi run per Newton step that stops on the preconditioned
residual, without restarts.  Newton tests the true residual after every
step, so this is inexact Newton on the preconditioned system (Eisenstat &
Walker, SIAM J. Sci. Comput. 17, 1996).
"""

from dataclasses import dataclass

import numpy as np

from . import effective as effective_mod
from .errors import ConfigError, NewtonError, PTSymmetryError
from .grid import BoundState, RealLineGrid, grid_for_envelope
from .potential import PeriodicPotential, validate_pt
from .util import is_real

# Forcing eta_k = min(FORCING_MAX, ||F_k||) keeps convergence quadratic (a 0.1 cap
# sends the eps = 0.2 solve to another solution).  Each step's _gmres run
# allocates a (GMRES_MAX_STEPS + 1) x N Krylov basis; with the Floquet-Bloch
# preconditioner a step takes at most 9 matvecs on the tested lattices down to
# eps = 0.00078125, so no run there comes near its budget
GMRES_MAX_STEPS = 30
FORCING_MAX = 1e-4
# a preconditioner block with 1-norm condition above this (omega on or next to a
# band value of the grid) loses more than FORCING_MAX to roundoff when applied
BLOCK_COND_MAX = 1e12
# a Newton solve converges once its L2 residual is at most NEWTON_TOL, and
# fails after NEWTON_MAX_ITER steps
NEWTON_MAX_ITER = 25
NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    half_length: float
    n_points: int
    newton_iters: int
    residual: float
    hs_error: float
    hs_error_rel: float
    matvecs: tuple


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


def _residual(u, omega: float, Vx, sx, grid: RealLineGrid):
    """Residual -u'' + V u + sigma |u|^2 u - omega u on the half u = u[:N/2 + 1]
    of a PT field, with V and sigma sampled there (Vx, sx); hfft(u, N) is the
    real DFT of the full field."""
    N = grid.n_points
    return (np.fft.ihfft(grid.frequencies**2 * np.fft.hfft(u, N))
            + Vx * u + sx * np.abs(u) ** 2 * u - omega * u)


def _pt_project(u, grid: RealLineGrid):
    """P u = (u + conj(u(-x)))/2: idempotent, output PT-symmetric to the last bit."""
    return 0.5 * (u + np.conj(u[grid.mirror]))


def _jacobian_action(u, omega: float, Vx, sx, grid: RealLineGrid):
    """c -> fft(P J(u) ifft(c)) on the real DFT coefficients c of PT fields, J
    the R-linear derivative of the residual at u; taking Re is the projection P.
    Reads the halves [:N/2 + 1] of u, Vx and sx, where ifft(c) = conj(rfft(c))/N."""
    N = grid.n_points
    u, Vx, sx = u[:N // 2 + 1], Vx[:N // 2 + 1], sx[:N // 2 + 1]
    xi2 = grid.frequencies**2
    diag = np.conj(Vx + 2 * sx * np.abs(u) ** 2 - omega)
    off = np.conj(sx * u**2)

    def act(c):
        f = np.fft.rfft(c)
        return xi2 * c + np.fft.irfft(diag * f + off * np.conj(f), N)
    return act


def _bloch_inverse(Vx, omega: float, grid: RealLineGrid):
    """c -> fft((-d^2 + V - omega)^{-1} ifft(c)) by exact real Floquet-Bloch blocks.

    With c reshaped to (P, C), column r holds the indices n = qC + r;
    block r has entries vhat[(q - q') mod P] + (xi_{qC+r}^2 - omega) delta_{qq'}
    with vhat the DFT of V on one cell, real as V is PT.  As xi_{N-n} = -xi_n,
    block C - r is R B_r^T R (R reverses q): blocks 0 ... C/2 are inverted in one
    batched call and mirrored.  Raises NewtonError when a block is singular or
    its 1-norm condition exceeds BLOCK_COND_MAX.
    """
    C = grid.cells
    N = grid.n_points
    P = N // C
    q = np.arange(P)
    vhat = np.fft.fft(Vx[:P]).real / P
    blocks = np.empty((C // 2 + 1, P, P))
    blocks[:] = vhat[(q[:, None] - q) % P]
    blocks[:, q, q] += (grid.frequencies**2 - omega).reshape(P, C).T[:C // 2 + 1]
    try:
        inv = np.linalg.inv(blocks)
        cond = [np.abs(blocks).sum(axis=a).max(axis=1) * np.abs(inv).sum(axis=a).max(axis=1)
                for a in (1, 2)]
    except np.linalg.LinAlgError:     # an exactly singular block: its condition is inf
        cond = [np.linalg.cond(blocks, p) for p in (1, np.inf)]
    # the 1-norm condition of R B^T R is the inf-norm condition of B
    cond = np.concatenate((cond[0], cond[1][C // 2 - 1:0:-1]))
    bad = np.flatnonzero(~(cond <= BLOCK_COND_MAX))
    if bad.size:
        raise NewtonError(f"preconditioner block {bad[0]} of {C} is singular or "
                          f"ill-conditioned at omega = {omega:.6g} "
                          "(omega on a band of the grid)")
    inv = np.concatenate((inv, inv[C // 2 - 1:0:-1].transpose(0, 2, 1)[:, ::-1, ::-1]))
    return lambda c: np.matmul(inv, c.reshape(P, C).T[:, :, None])[:, :, 0].T.reshape(N)


def _gmres(matvec, b, rtol: float, max_steps: int, psolve):
    """Solve A x = b from x = 0 by one left-preconditioned GMRES run.

    matvec applies A and psolve the preconditioner M^{-1} ~ A^{-1}.  Each Arnoldi
    step (modified Gram-Schmidt) costs one matvec; x minimises the
    preconditioned residual ||M^{-1}(b - A x)|| over the Krylov space of
    M^{-1} A and M^{-1} b, and the run stops once that residual is at most
    rtol ||M^{-1} b|| or after max_steps steps.  Returns (x, info, number of
    matvec calls), info 0 on success and max_steps on a miss.
    """
    r = psolve(b)
    beta = np.linalg.norm(r)
    if beta == 0:
        return np.zeros(len(b)), 0, 0
    tol = rtol * beta
    v = np.empty((max_steps + 1, len(b)))
    v[0] = r / beta
    h = np.zeros((max_steps + 1, max_steps))
    rotations = np.zeros((max_steps, 2))
    g = np.zeros(max_steps + 1)     # Givens-rotated beta e_1: |g[j + 1]| is the residual
    g[0] = beta
    for j in range(max_steps):
        w = psolve(matvec(v[j]))
        for k in range(j + 1):
            h[k, j] = np.dot(v[k], w)
            w -= h[k, j] * v[k]
        h[j + 1, j] = np.linalg.norm(w)
        for k, (c, s) in enumerate(rotations[:j]):
            h[k, j], h[k + 1, j] = c * h[k, j] + s * h[k + 1, j], c * h[k + 1, j] - s * h[k, j]
        mag = np.hypot(h[j, j], h[j + 1, j])
        rotations[j] = c, s = h[j, j] / mag, h[j + 1, j] / mag
        h[j, j] = mag
        g[j], g[j + 1] = c * g[j], -s * g[j]
        if abs(g[j + 1]) <= tol:
            break
        v[j + 1] = w / h[j + 1, j]
    y = np.linalg.solve(np.triu(h[:j + 1, :j + 1]), g[:j + 1])
    return y @ v[:j + 1], 0 if abs(g[j + 1]) <= tol else max_steps, j + 1


def newton_solve(u0, omega: float, V: PeriodicPotential, sigma: PeriodicPotential,
                 grid: RealLineGrid, on_iterate=None) -> BoundState:
    """Inexact Newton-Krylov solve of the stationary GP equation in the PT subspace.

    u0 must be PT-symmetric to 1e-6 max|u0|, V and sigma to potential.PT_TOL
    (PTSymmetryError otherwise) and omega real (ConfigError).  Converges when
    the L2 residual falls to NEWTON_TOL within NEWTON_MAX_ITER steps (an
    already-converged u0 returns in zero iterations).
    on_iterate(k, u, residual), when given, observes every iterate.
    Each step solves for the correction by GMRES to the forcing tolerance
    min(FORCING_MAX, residual) on the preconditioned residual.
    Raises NewtonError on divergence, a GMRES run that misses the forcing
    tolerance within GMRES_MAX_STEPS Krylov steps, a non-finite step
    (typically eps too large or a violated band assumption), or a singular
    preconditioner block (omega on a band of the grid).
    """
    u0 = np.asarray(u0, dtype=complex)
    N = grid.n_points
    if len(u0) != N:
        raise ValueError("u0 does not match the grid")
    defect = grid.pt_defect(u0)
    if defect > 1e-6 * np.abs(u0).max():
        raise PTSymmetryError(f"initial guess not PT-symmetric (defect {defect:.3e})")
    if not (validate_pt(V) and validate_pt(sigma)):
        raise PTSymmetryError("V and sigma must be PT-symmetric (real Fourier coefficients)")
    if not is_real(omega):
        raise ConfigError(f"omega must be a real number, got {omega!r}")

    # u, the residual and the update are halves [:N/2 + 1] of PT fields
    half = grid.x[:N // 2 + 1]
    Vx, sx = V.eval(half), sigma.eval(half)
    weights = np.r_[1.0, np.full(N // 2 - 1, 2.0), 1.0]     # x = -L and 0 are their own mirrors
    precond = None
    u = _pt_project(u0, grid)[:N // 2 + 1]
    full = lambda h: np.concatenate((h, np.conj(h[-2:0:-1])))
    history = []
    matvecs = []
    iters = 0
    for _ in range(NEWTON_MAX_ITER + 1):
        G = _residual(u, omega, Vx, sx, grid)
        rnorm = float(np.sqrt(grid.spacing * np.dot(weights, np.abs(G) ** 2)))
        history.append(rnorm)
        if on_iterate is not None:
            on_iterate(iters, full(u), rnorm)
        if rnorm <= NEWTON_TOL:
            return BoundState(values=full(u), eps=np.nan, omega=omega, grid=grid,
                              residual_norm=rnorm, newton_iters=iters,
                              residual_history=tuple(history), matvecs=tuple(matvecs))
        if iters >= NEWTON_MAX_ITER:
            break
        if precond is None:     # a converged u0 needs none, even with omega on a band
            precond = _bloch_inverse(Vx, omega, grid)
        # z holds the real DFT coefficients of the PT correction
        z, info, n_matvec = _gmres(_jacobian_action(u, omega, Vx, sx, grid),
                                   np.fft.hfft(G, N), min(FORCING_MAX, rnorm),
                                   GMRES_MAX_STEPS, precond)
        matvecs.append(n_matvec)
        if info != 0 or not np.all(np.isfinite(z)):
            raise NewtonError(f"GMRES found no finite step within its Krylov budget of "
                              f"{GMRES_MAX_STEPS} steps at Newton step {iters}",
                              last_residual=rnorm)
        u = u - np.fft.ihfft(z)
        iters += 1
    raise NewtonError(
        f"no convergence in {NEWTON_MAX_ITER} iterations (last residual {history[-1]:.3e})",
        last_residual=history[-1],
    )


def convergence_study(V: PeriodicPotential, sigma: PeriodicPotential, m: int,
                      edge: str, eps_list, s: float = 1.0, J: int = 24,
                      N_k: int = 32) -> ConvergenceStudy:
    """Error scaling of the envelope ansatz against Newton-refined states.

    For each eps: build u_form from the band-edge model, solve the GP
    equation from it, and record e(eps) = ||u - u_form||_{H^s}.  The grid
    half length grows like grid.TAIL_DECAY*width/eps so the envelope tail
    at the seam stays below ~2e-9 for every eps.  Any Newton failure aborts
    the study with the failing eps attached to the error.  eps_list must
    hold distinct real numbers in (0, effective.EPS_MAX] and s must lie in
    [0, 2] (ConfigError otherwise).
    """
    eps_list = list(eps_list)
    eps_max = effective_mod.EPS_MAX
    if not (eps_list and all(is_real(e) and 0 < e <= eps_max for e in eps_list)
            and len(set(eps_list)) == len(eps_list)):
        raise ConfigError(f"eps_list must be distinct numbers in (0, {eps_max}], got {eps_list!r}")
    if not (is_real(s) and 0 <= s <= 2):
        raise ConfigError(f"s must be a number in [0, 2], got {s!r}")
    model, mode = effective_mod.extract_effective_model(V, sigma, m, edge, J, N_k)
    env = effective_mod.sech_envelope(model)     # raises ExistenceError if signs fail

    rows = []
    for eps in eps_list:
        grid = grid_for_envelope(eps, env.width)
        ansatz = effective_mod.build_ansatz(env, mode, eps, grid)
        try:
            state = newton_solve(ansatz.values, ansatz.omega, V, sigma, grid)
        except NewtonError as exc:
            exc.eps = eps
            raise
        err = hs_norm(state.values - ansatz.values, s, grid)
        rel = err / hs_norm(ansatz.values, s, grid)
        rows.append(ConvergenceRow(
            eps=float(eps), half_length=grid.half_length, n_points=grid.n_points,
            newton_iters=state.newton_iters, residual=state.residual_norm,
            hs_error=err, hs_error_rel=rel, matvecs=state.matvecs,
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
