"""Band structures over the Brillouin zone and the reality/isolation checks.

The k grid is exactly antisymmetric, so the sweep solves only the
N_k/2 + 1 points k >= 0 (right and left vectors in one decomposition)
and fills each -k column from the mirror at |k| (eigen.Spectrum.mirrored).
At each k it solves only the leading block M_{J'}(k) of the J-truncated
matrix, J' on the ladder 8, 10, 12, 15, 18, 22, ... (each rung about 5/4
of the last, capped at J), and stops at the first J' where the lowest
n_bands right and left vectors weigh at most TAIL_TOL in the slots
J' - h < |j| <= J', h the highest harmonic of the potential: the slots
through which M_J couples a block vector to the harmonics past J'.  J'
carries from column to column, so only k = 0 climbs the ladder.  The
residual of the zero-padded pairs against M_J is their backward error as
eigenpairs of M_J (Kahan, Parlett & Jiang, SIAM J. Numer. Anal. 19, 1982)
and is recorded per column.  A tail above TAIL_MAX at J' = J means J
itself does not resolve the bands (TruncationError).  The ladder and that
refusal take the columns to certify, so dirac.measure_splitting certifies
its pair near mu the same way, on the doubling ladder from BLOCK_J0.  Bands
are tracked across the grid by maximal eigenvector overlap (value
proximity fails at avoided crossings); the tracking is a permutation of
the lowest-n eigenvalues at each k by construction, and its vectors are
zero-padded to J once, as they are tracked.  The block spectra at the
edges k = 0 and 1/2 are kept: they give the edge modes and, through one
bordered reduced-resolvent solve each, the edge curvatures.
second_derivative is the independent finite-difference estimator.  Band
indices m are 1-based in the public API.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import discretize, eigen
from .errors import AssumptionError, ComplexBandError, ConfigError, TruncationError
from .potential import PeriodicPotential

# reality tolerance: an omega counts as real when
# |Im omega| <= REALITY_TOL * max(1, |omega|)
REALITY_TOL = 1e-8

# a band is isolated when its complex-plane distance to every other
# computed eigenvalue over the k grid exceeds this
ISOLATION_THRESHOLD = 1e-3

# a block ladder stops once the certified columns (the lowest n_bands, or the
# pair near mu) carry at most TAIL_TOL at J' - max_harmonic < |j| <= J' in
# their right and left unit vectors.  dirac.measure_splitting's ladder starts
# at BLOCK_J0 and doubles: a finer one there made no Dirac run faster and put
# pairs up to 6.3e-13 from the full solve, past kappa u ||M_J|| = 2.3e-13.  The
# sweep's starts at SWEEP_J0 and grows by about 5/4 (_sweep_rung): its blocks
# are met at J' = 18, 22 and 12 on the gamma = 1, gamma = 1.5 two-harmonic
# and the gentle lattices, where doubling from 16 solved at 32, 32 and 16
BLOCK_J0 = 16
SWEEP_J0 = 8
TAIL_TOL = 1e-14
# a tail above this at J' = J fails the sweep.  On the two-harmonic
# gamma = 1.5 lattice (5 bands) the tail reaches 5.6e-4 at J = 8, with
# band-edge eigenvalues 2.7e-10 off, and 3.6e-7 at J = 12, where they are
# within roundoff
TAIL_MAX = 1e-6

# second_derivative divides its step by 4 at most this often
MAX_STEP_RETRIES = 3


@dataclass(frozen=True, slots=True)
class BandStructure:
    """Tracked eigenvalue curves omega_m(k) with their eigenvectors.

    omega has shape (n_bands, N_k); vectors (n_bands, N_k, 2J+1) holds the
    unit coefficient vectors; tracking_quality (n_bands, N_k) records the
    |<v(k_i), v(k_{i+1})>| overlap used to continue each band into column i
    (1.0 in the first column).  Values well below 1 mark ambiguous
    continuations near crossings; they are recorded, not fatal.
    edge_spectra maps k0 in {0.0, 0.5} to the eigen.Spectrum of the solved
    block there.  Per column, block_J is the block truncation J' solved,
    tail_weight the largest |coefficient| at J' - max_harmonic < |j| <= J'
    of the lowest n_bands right and left unit vectors, and residual the
    largest 2-norm residual of those pairs, zero-padded, against M_J.
    """

    k_grid: np.ndarray
    omega: np.ndarray
    vectors: np.ndarray
    tracking_quality: np.ndarray
    J: int
    edge_spectra: dict
    block_J: np.ndarray
    tail_weight: np.ndarray
    residual: np.ndarray

    @property
    def n_bands(self):
        return self.omega.shape[0]

    def column(self, k0):
        """Grid index of quasimomentum k0 (must be on the grid)."""
        i = int(np.argmin(np.abs(self.k_grid - k0)))
        if abs(self.k_grid[i] - k0) > 1e-12:
            raise ConfigError(f"k = {k0} is not a grid point")
        return i

    def edge_index(self, m, k0):
        """Position of band m (1-based) in the sorted edge spectrum at k0."""
        vals = self.omega[:, self.column(k0)]
        order = np.lexsort((vals.imag, vals.real))
        return int(np.nonzero(order == m - 1)[0][0])

    def band(self, m):
        """Values of band m (1-based) over the grid."""
        if not 1 <= m <= self.n_bands:
            raise ConfigError(f"band index {m} outside 1..{self.n_bands}")
        return self.omega[m - 1]


@dataclass(frozen=True, slots=True)
class BandEdge:
    k0: float
    omega_star: float
    which: str          # "a" (lower edge) or "b" (upper edge)
    curvature: float
    condition: float    # ||l|| ||r|| / |l^H r| of the edge eigenvalue


@dataclass(frozen=True, slots=True)
class BandEdgeReport:
    """Reality / isolation / simplicity diagnostics for one band."""

    m: int
    is_real: bool
    max_im: float
    max_im_k: float
    isolation_gap: float
    simplicity_margin: float
    edges: tuple
    extrema_at_high_symmetry: bool
    derivative_at_edges: tuple

    @property
    def assumption_ok(self):
        return (
            self.is_real
            and self.isolation_gap > ISOLATION_THRESHOLD
            and self.simplicity_margin > ISOLATION_THRESHOLD
            and self.extrema_at_high_symmetry
        )


def k_grid(N_k: int) -> np.ndarray:
    """Uniform grid on (-1/2, 1/2] containing both k = 0 and k = 1/2.

    Every point is an integer over N_k, so k and -k are exact negatives.
    """
    if N_k < 16 or N_k % 2:
        raise ConfigError("N_k must be even and >= 16 so the grid hits 0 and 1/2")
    return (np.arange(1, N_k + 1) - N_k // 2) / N_k


def compute_bands(p: PeriodicPotential, J: int, N_k: int, n_bands: int) -> BandStructure:
    """Solve the Bloch eigenproblem on a k grid and track the lowest bands.

    Only k >= 0 is solved, each point in the smallest certified leading
    block (module docstring); column -k is the mirror of column k.  Raises
    TruncationError when J does not resolve the lowest n_bands bands.
    """
    ks = k_grid(N_k)
    if not 1 <= n_bands <= 2 * J + 1:
        raise ConfigError(f"n_bands={n_bands} outside 1..{2 * J + 1}")
    zero = N_k // 2 - 1                     # ks[zero] = 0, ks[-1] = 1/2

    # the block holds n_bands pairs and every harmonic of p
    Jb = min(J, max(SWEEP_J0, n_bands, p.max_harmonic))

    def lowest_n(w):
        return slice(n_bands)

    edges, lowest, block_J, tails, residuals = {}, [], [], [], []
    for k in ks[zero:]:
        spec, _, tail, M = _leading_block(p, k, J, lowest_n, Jb, rung=_sweep_rung)
        _require_resolved(p, k, J, lowest_n, tail, f"the lowest {n_bands} bands")
        Jb = spec.J                         # the next column starts here
        if k in (0.0, 0.5):
            edges[float(k)] = spec
        low = spec.lowest(n_bands)
        lowest.append(low)
        block_J.append(Jb)
        tails.append(tail)
        residuals.append(_padded_residual(M, low))

    def mirror(seq):
        # ks[i] = -ks[2 zero - i]: column i < zero mirrors seq[zero - i]
        return seq[zero:0:-1] + seq

    omega, vectors, quality = _track(
        [s.mirrored() for s in mirror(lowest)[:zero]] + lowest, n_bands, J)
    return BandStructure(k_grid=ks, omega=omega, vectors=vectors,
                         tracking_quality=quality, J=J, edge_spectra=edges,
                         block_J=np.array(mirror(block_J)),
                         tail_weight=np.array(mirror(tails)),
                         residual=np.array(mirror(residuals)))


def _sweep_rung(J):
    """The sweep's rung after J': about 5/4 J', at least J' + 2."""
    return max(J + 2, 5 * J // 4)


def _leading_block(p, k, J_max, pick, J_start=None, tol=TAIL_TOL, rung=lambda J: 2 * J):
    """The first J' of J_start, rung(J_start), ... (capped at J_max) whose
    right and left unit vectors in the columns pick(eigenvalues) weigh at
    most tol in the slots J' - max_harmonic < |j| <= J', or J' = J_max.

    Those are the slots M_{J_max} couples out of the block, so a small tail
    means a small residual of the zero-padded pairs.  J_start defaults to
    max(BLOCK_J0, max_harmonic) and rung to doubling.  Returns the Spectrum
    of M_{J'}(k), the picked columns, their tail weight, and M_{J''}(k) for
    J'' = min(J_max, J' + max_harmonic), assembled once per J' with M_{J'} as
    its centre block: the rows of M_{J_max} that a zero-padded pair meets.
    """
    h = p.max_harmonic
    Jb = min(J_max, max(BLOCK_J0, h) if J_start is None else J_start)
    while True:
        M = discretize.assemble(p, k, min(J_max, Jb + h))
        spec = eigen.solve(M.block(Jb))
        cols = pick(spec.eigenvalues)
        edge = np.abs(np.arange(-Jb, Jb + 1)) > Jb - max(1, h)
        tail = max(np.abs(spec.right_vectors[edge][:, cols]).max(),
                   np.abs(spec.left_vectors[edge][:, cols]).max())
        if tail <= tol or Jb >= J_max:
            return spec, cols, tail, M
        Jb = min(rung(Jb), J_max)


def _require_resolved(p, k, J, pick, tail, what):
    """Raise TruncationError when the pairs pick selects from the J' = J block
    weigh more than TAIL_MAX at J - max_harmonic < |j| <= J; the message
    gives their weight at a larger J.  what names the pairs."""
    if tail > TAIL_MAX:
        more, _, more_tail, _ = _leading_block(p, k, 4 * J, pick, 2 * J, TAIL_MAX)
        raise TruncationError(
            f"J = {J} does not resolve {what}: their eigenvectors weigh {tail:.1e} at "
            f"|j| > {J - max(1, p.max_harmonic)} (k = {k:g}, limit {TAIL_MAX:.0e}); "
            f"at J = {more.J} they weigh {more_tail:.1e}")


def _padded_residual(M, spec):
    """Largest 2-norm residual of spec's right and left pairs, zero-padded from
    spec.J to M.J, against M.

    M_J is banded: a padded vector meets only rows and columns with
    |j| <= spec.J + max_harmonic, so M = M_{min(J, spec.J + max_harmonic)}
    gives the residual against M_J.
    """
    inner = slice(M.J - spec.J, M.J + spec.J + 1)
    w, r, l = spec.eigenvalues, spec.right_vectors, spec.left_vectors
    res_r = M.entries[:, inner] @ r
    res_r[inner] -= r * w
    res_l = M.entries[inner].conj().T @ l
    res_l[inner] -= l * w.conj()
    return max(np.linalg.norm(res_r, axis=0).max(), np.linalg.norm(res_l, axis=0).max())


def _track(spectra, n_bands, J):
    """Continue the lowest n_bands across consecutive spectra by overlap.

    The spectra may come from blocks of different J' <= J; each column's
    vectors are written zero-padded to |j| <= J as they are tracked, so no
    spectrum is padded on its own.
    """
    n_k = len(spectra)
    omega = np.zeros((n_bands, n_k), dtype=complex)
    vectors = np.zeros((n_bands, n_k, 2 * J + 1), dtype=complex)
    quality = np.ones((n_bands, n_k))

    perm = np.arange(n_bands)
    for i, spec in enumerate(spectra):
        inner = slice(J - spec.J, J + spec.J + 1)
        vr = spec.right_vectors[:, :n_bands]
        if i:
            # overlap[a, b] = |<v_a(k_{i-1}), v_b(k_i)>|; v_b is zero outside inner
            overlap = np.abs(vectors[:, i - 1, inner].conj() @ vr)
            perm = _best_match(overlap)
            quality[:, i] = overlap[np.arange(n_bands), perm]
        omega[:, i] = spec.eigenvalues[perm]
        vectors[:, i, inner] = vr[:, perm].T
    return omega, vectors, quality


def _best_match(overlap):
    """perm maximising sum overlap[a, perm[a]].

    When the row-wise argmax is a permutation and every row's maximum is
    strict, it is the unique optimum; otherwise (a tie or two rows on one
    column) _assignment decides, with scipy's tie rule.
    """
    perm = overlap.argmax(axis=1)
    n = len(perm)
    if n == 1:
        return perm
    runner_up = np.partition(overlap, n - 2, axis=1)[:, n - 2]
    if len(set(perm.tolist())) == n and (runner_up < overlap.max(axis=1)).all():
        return perm
    return np.array(_assignment((-overlap).tolist()))


def _assignment(cost):
    """col[i] assigned to row i minimising sum cost[i][col[i]] for a square cost.

    Shortest augmenting paths (D. F. Crouse, IEEE Trans. Aerosp. Electron.
    Syst. 52, 2016) with the scan order and tie-breaking of
    scipy.optimize.linear_sum_assignment, so equal-cost optima resolve alike.
    u and v are the dual variables, spc the shortest-path costs of one
    augmentation and SR, SC its scanned rows and columns.
    """
    n = len(cost)
    u, v = [0.0] * n, [0.0] * n
    col4row, row4col, path = [-1] * n, [-1] * n, [-1] * n
    for cur in range(n):
        spc = [math.inf] * n
        SR, SC = [False] * n, [False] * n
        remaining = list(range(n - 1, -1, -1))
        min_val, i, sink = 0.0, cur, -1
        while sink == -1:
            SR[i] = True
            index, lowest = -1, math.inf
            ci, ui = cost[i], u[i]
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                if spc[j] < lowest or (spc[j] == lowest and row4col[j] == -1):
                    lowest, index = spc[j], it
            min_val = lowest
            j = remaining[index]
            if row4col[j] == -1:
                sink = j
            else:
                i = row4col[j]
            SC[j] = True
            remaining[index] = remaining[-1]
            remaining.pop()
        u[cur] += min_val
        for i in range(n):
            if SR[i] and i != cur:
                u[i] += min_val - spc[col4row[i]]
        for j in range(n):
            if SC[j]:
                v[j] -= min_val - spc[j]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row


def _edge_derivative(bs: BandStructure, m: int, k0: float):
    """Central difference of Re omega_m at k0 using grid neighbours.

    At k0 = 1/2 the right neighbour comes from 1-periodicity in k
    (the first grid point -1/2 + dk represents 1/2 + dk).
    """
    i = bs.column(k0)
    vals = bs.band(m).real
    N = len(bs.k_grid)
    dk = 1.0 / N
    right = vals[(i + 1) % N]
    left = vals[i - 1]
    return (right - left) / (2 * dk)


def check_assumption(bs: BandStructure, m: int, tol_real: float = REALITY_TOL,
                     p: PeriodicPotential = None) -> BandEdgeReport:
    """Reality, isolation and simplicity report for band m (1-based).

    isolation_gap is the complex-plane distance from band m (as a set over
    the grid) to every other computed eigenvalue at every grid k — the
    computed window stands in for "the rest of the spectrum", so n_bands
    must cover the neighbours of m.  simplicity_margin is the same
    distance restricted to equal k.  When the potential p is given, the
    curvature at each detected edge comes from the stored edge spectrum by
    edge_curvature (one bordered solve, no eigensolve).
    """
    vals = bs.band(m)
    scale = np.maximum(1.0, np.abs(vals))
    ims = np.abs(vals.imag) / scale
    worst = int(np.argmax(ims))
    is_real = ims[worst] <= tol_real

    others = np.delete(bs.omega, m - 1, axis=0)
    if others.size:
        isolation = np.abs(vals[None, None, :] - others[:, :, None]).min()
        simplicity = np.abs(vals[None, :] - others[:, :]).min()
    else:
        isolation = simplicity = np.inf

    edges = ()
    derivs = ()
    extrema_ok = False
    if is_real:
        re = vals.real
        i_min, i_max = int(np.argmin(re)), int(np.argmax(re))
        hs_cols = {bs.column(0.0), bs.column(0.5)}
        # ties: an extremum counts as on a high-symmetry point when its value
        # is attained there to solver precision
        lo_ok = any(abs(re[c] - re[i_min]) <= 1e-9 * scale.max() for c in hs_cols)
        hi_ok = any(abs(re[c] - re[i_max]) <= 1e-9 * scale.max() for c in hs_cols)
        extrema_ok = lo_ok and hi_ok
        om0 = re[bs.column(0.0)]
        omh = re[bs.column(0.5)]
        (ka, oma), (kb, omb) = sorted([(0.0, om0), (0.5, omh)], key=lambda t: t[1])
        edge_list = []
        for k0, om_star, which in ((ka, oma, "a"), (kb, omb, "b")):
            if p is not None:
                curv, cond = edge_curvature(p, bs.edge_spectra[k0], bs.edge_index(m, k0))
            else:
                curv, cond = np.nan, np.nan
            edge_list.append(BandEdge(k0, om_star, which, curv, cond))
        edges = tuple(edge_list)
        derivs = tuple(_edge_derivative(bs, m, k0) for k0 in (0.0, 0.5))

    return BandEdgeReport(
        m=m,
        is_real=bool(is_real),
        max_im=float(np.abs(vals.imag)[worst]),
        max_im_k=float(bs.k_grid[worst]),
        isolation_gap=float(isolation),
        simplicity_margin=float(simplicity),
        edges=edges,
        extrema_at_high_symmetry=bool(extrema_ok),
        derivative_at_edges=derivs,
    )


def edge_curvature(p: PeriodicPotential, spec: eigen.Spectrum, index: int):
    """omega''(k) of spec.eigenvalues[index] by one bordered reduced-resolvent solve.

    With M' = dM/dk = diag(2(j + k)), M'' = 2I and s = l^H r, solve

        [[M - omega I, r], [l^H, 0]] [x; mu] = [M' r; 0],

    then omega'' = 2 - 2 l^H M' x / s: second-order perturbation theory,
    exact for the truncated matrix (Kato, Perturbation Theory for Linear
    Operators, ch. II).  The last row keeps x in the reduced space
    l^H x = 0; the multiplier comes out as mu = omega'(k) = l^H M' r / s
    (zero at the edges) and takes up the r-component of M' r, so x = -r'
    without projecting the right-hand side.  The bordering makes the
    system regular at a simple eigenvalue, however close other
    eigenvalues or exceptional pairs sit elsewhere in the spectrum.  Returns (curvature, condition)
    with condition = ||l|| ||r|| / |l^H r|; the curvature is NaN when the
    eigenvalue is degenerate (gap <= 1e-6 max(1, |omega|), as in
    eigen.make_mode) or near-exceptional (condition > 1e8).
    """
    omega = spec.eigenvalues[index]
    r = spec.right_vectors[:, index]
    l = spec.left_vectors[:, index]
    s = np.vdot(l, r)
    condition = float(np.linalg.norm(l) * np.linalg.norm(r) / abs(s))
    if spec.gap(index) <= 1e-6 * max(1.0, abs(omega)) or condition > 1e8:
        return np.nan, condition
    M = discretize.assemble(p, spec.k, spec.J).entries
    n = len(r)
    B = np.block([[M - omega * np.eye(n), r[:, None]],
                  [l.conj()[None, :], np.zeros((1, 1))]])
    dM = 2.0 * (np.arange(-spec.J, spec.J + 1) + spec.k)
    x = np.linalg.solve(B, np.append(dM * r, 0.0))[:n]
    return float((2.0 - 2.0 * np.vdot(l, dM * x) / s).real), condition


def _band_value_near(p, k, J, ref_vector, tol_real):
    """Eigenvalue at quasimomentum k whose eigenvector best overlaps ref_vector.

    k may fall just outside (-1/2, 1/2]: the problem is solved at k -+ 1
    and the reference frame is shifted by the e^{+-ix} quasiperiodicity
    (coefficients roll by one slot) before matching.
    """
    shift = 0
    if k > 0.5:
        k, shift = k - 1.0, 1
    elif k <= -0.5:
        k, shift = k + 1.0, -1
    spec = eigen.solve(discretize.assemble(p, k, J))
    ref = ref_vector
    if shift:
        # p(x, k - 1) = e^{ix} p(x, k): frequency j + k in the old frame is
        # slot j + 1 in the new one; the dropped end slot carries ~1e-16 weight
        ref = np.zeros_like(ref_vector)
        if shift == 1:
            ref[1:] = ref_vector[:-1]
        else:
            ref[:-1] = ref_vector[1:]
    ov = np.abs(ref.conj() @ spec.right_vectors)
    i = int(np.argmax(ov))
    om = spec.eigenvalues[i]
    if abs(om.imag) > tol_real * max(1.0, abs(om)):
        raise ComplexBandError(
            f"band value at k={k} is complex ({om}); curvature refused"
        )
    return om.real


def _richardson_d2(p, om0, ref, k0, J, h, tol_real):
    diffs = []
    for step in (h, h / 2, h / 4):
        plus = _band_value_near(p, k0 + step, J, ref, tol_real)
        minus = _band_value_near(p, k0 - step, J, ref, tol_real)
        diffs.append((plus - 2.0 * om0 + minus) / step**2)
    d1, d2, d3 = diffs
    r1 = (4 * d2 - d1) / 3
    r2 = (4 * d3 - d2) / 3
    return (16 * r2 - r1) / 15, abs(r2 - r1) / 15


def second_derivative(p: PeriodicPotential, m: int, k0: float, J: int,
                      h: float = 0.04, tol_real: float = REALITY_TOL):
    """omega_m''(k0) at k0 in {0, 1/2} by Richardson-extrapolated differences.

    The independent finite-difference estimator; the pipelines use
    edge_curvature.  m is the 1-based position in the (Re, Im)-sorted
    spectrum at k0.  Central second differences D(h) = (omega(k0+h) -
    2 omega(k0) + omega(k0-h)) / h^2 at steps h, h/2, h/4 feed two
    Richardson levels; samples beyond the zone edge k0 = 1/2 use the
    1-periodicity of the band with the matching frame shifted
    accordingly.  Band continuation is by eigenvector overlap against the
    k0 eigenvector.  The step default balances the truncation of the
    extrapolant against eigensolver noise amplified by 1/h^2.  While the
    error estimate stays above 1e-6 relative (sharp edges near avoided
    crossings) and keeps improving, h is divided by 4, at most
    MAX_STEP_RETRIES times.  Returns (value, error_estimate).
    """
    if k0 not in (0.0, 0.5):
        raise ConfigError("band-edge curvature is defined at k0 in {0, 1/2}")
    spec0 = eigen.solve(discretize.assemble(p, k0, J))
    om0 = spec0.eigenvalues[m - 1]
    if abs(om0.imag) > tol_real * max(1.0, abs(om0)):
        raise ComplexBandError(f"omega_{m}({k0}) = {om0} is not real")
    ref = spec0.right_vectors[:, m - 1]

    value, err = _richardson_d2(p, om0.real, ref, k0, J, h, tol_real)
    for _ in range(MAX_STEP_RETRIES):
        if err <= 1e-6 * max(1.0, abs(value)):
            break
        h /= 4
        value2, err2 = _richardson_d2(p, om0.real, ref, k0, J, h, tol_real)
        if err2 >= err:
            break
        value, err = value2, err2
    return float(value), float(err)


def curvature_from_fit(p: PeriodicPotential, m: int, k0: float, J: int,
                       half_width: float = 0.05, n_samples: int = 11,
                       tol_real: float = REALITY_TOL):
    """Independent curvature estimate: even quartic fit of omega_m near k0.

    Fits omega = a0 + a2 d^2 + a4 d^4 on |d| <= half_width (d measured into
    the zone) and returns 2*a2.  Serves as the second estimator guarding
    the difference-based second_derivative against tracking errors.
    """
    if k0 not in (0.0, 0.5):
        raise ConfigError("band-edge curvature is defined at k0 in {0, 1/2}")
    spec0 = eigen.solve(discretize.assemble(p, k0, J))
    om0 = spec0.eigenvalues[m - 1]
    ref = spec0.right_vectors[:, m - 1]
    s = 1.0 if k0 == 0.0 else -1.0
    ds = np.linspace(half_width / n_samples, half_width, n_samples)
    oms = [_band_value_near(p, k0 + s * d, J, ref, tol_real) for d in ds]
    A = np.vstack([np.ones_like(ds), ds**2, ds**4]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(oms) - om0.real, rcond=None)
    return float(2 * coef[1])


def require_assumption(report: BandEdgeReport):
    """Raise AssumptionError with the failing clause when the check fails."""
    if report.assumption_ok:
        return
    reasons = []
    if not report.is_real:
        reasons.append(f"band not real (max|Im| = {report.max_im:.3e} at k = {report.max_im_k})")
    if report.isolation_gap <= ISOLATION_THRESHOLD:
        reasons.append(f"band not isolated (gap = {report.isolation_gap:.3e})")
    if report.simplicity_margin <= ISOLATION_THRESHOLD:
        reasons.append(f"eigenvalue not simple (margin = {report.simplicity_margin:.3e})")
    if report.is_real and not report.extrema_at_high_symmetry:
        reasons.append("band extrema not at k in {0, 1/2}")
    raise AssumptionError(f"band {report.m}: " + "; ".join(reasons))
