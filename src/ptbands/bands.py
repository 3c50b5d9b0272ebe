"""Band structures over the Brillouin zone and the reality/isolation checks.

The k grid is exactly antisymmetric, so the sweep solves only the
N_k/2 + 1 points k >= 0 (every right vector, and the left vectors of the
lowest n_bands) and fills each -k column from |k|: M(-k) = R M(k)^T R,
R the reversal j -> -j, so column -k has the eigenvalues of column k and
the right vectors R conj(l), l its left vectors.
Each k is solved only in the leading block M_{J'}(k) of the J-truncated
matrix, J' on the ladder 8, 10, 12, 15, 18, 22, ... (each rung about 5/4
of the last, capped at J): the first J' where the lowest n_bands right and
left vectors weigh at most TAIL_TOL in the slots J' - h < |j| <= J', h the
highest harmonic of the potential: the slots through which M_J couples a
block vector to the harmonics past J'.  Every block is assembled,
decomposed and certified by _stacked_blocks, a stack at one J' at a time,
with one batched eigensolve.  k = 0 climbs the ladder as a stack of one,
one decomposition per rung; the columns k > 0 then run at its J' in stacks
of up to STACK_COLUMNS.  J' carries from column to column: the first
column of a stack whose tail exceeds TAIL_TOL climbs on its own, again as
a stack of one, the columns before it are kept, and those after it are
stacked again at its J', so every column is solved at the J' of a walk
through the grid one column at a time.  A kept column keeps copies of its
lowest n_bands eigenvalues, right and left vectors, and the residual of
those pairs, zero-padded, against M_J, taken for the kept columns of a
stack at once: their backward error as eigenpairs of M_J (Kahan, Parlett &
Jiang, SIAM J. Numer. Anal. 19, 1982).  A tail above TAIL_MAX at J' = J
means J itself does not resolve the bands (TruncationError).
dirac.measure_splitting certifies its pair near mu by the same rule and
refusal, on the doubling ladder of _leading_block from BLOCK_J0.  Each rung
of that ladder, with every column's left vector, is memoised by its
content, (sorted exponential coefficients of the potential, float(k), J'):
the pairs of every point and gamma that share a matrix, a splitting_slope
after measurements of the same gammas and the climb of a refusal's message
(_require_resolved) decompose it once.  The memo keeps the eigenvalues,
right and left vectors (read-only, not the assembled matrix) of the
MEMO_BLOCKS blocks used last: at most MEMO_BLOCKS * 32 (2 J' + 1)^2 bytes,
0.28 MB at J' = 16 and 17 MB if every block reached J' = 128.  The sweep's
stacks do not pass through it.  Bands are tracked across the grid by maximal
eigenvector overlap (value proximity fails at avoided crossings), a
permutation of the lowest-n eigenvalues at each k by construction.  Past
the band values a sweep keeps only the whole block spectra at the edges
k = 0 and 1/2, the one home of the edge modes and, through one bordered
solve each, of the edge curvatures: J is a cap, and no array of a sweep
grows with it.
second_derivative is the independent finite-difference estimator; its
matrices, like edge_curvature's, are stacks of one.  Band indices m are
1-based in the public API.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import discretize, eigen
from .eigen import CONDITION_MAX, REALITY_TOL
from .errors import AssumptionError, ComplexBandError, ConfigError, PTBandsError, TruncationError
from .potential import PeriodicPotential
from .util import require_indexable

# a band is isolated when its complex-plane distance to every other
# computed eigenvalue over the k grid exceeds this
ISOLATION_THRESHOLD = 1e-3
# entries of the largest temporary check_assumption makes for that distance
ISOLATION_CHUNK = 2 ** 16

# a block ladder stops once the certified columns (the lowest n_bands, or the
# pair near mu) carry at most TAIL_TOL at J' - max_harmonic < |j| <= J' in
# their right and left unit vectors.  dirac.measure_splitting's ladder starts
# at BLOCK_J0 and doubles for cost: a spectra round climbs 270 rungs, all
# J' = 16, which the memo serves from 36 to 54 decompositions (seeds 1, 2,
# 3 and 7; its 9 Dirac tasks share 4 lattices); an earlier count, one
# decomposition per rung, put the sweep's ladder at 711 against 279 for
# doubling.  Either ladder puts the mu = 225 pair within kappa r of a 40-digit
# solve.  The sweep's starts at SWEEP_J0 and grows by about 5/4 (_sweep_rung):
# its blocks are met at J' = 18, 22 and 12 on the gamma = 1, gamma = 1.5 two-harmonic
# and the gentle lattices, where doubling from 16 solved at 32, 32 and 16
BLOCK_J0 = 16
SWEEP_J0 = 8
TAIL_TOL = 1e-14
# a tail above this at J' = J fails the sweep.  On the two-harmonic
# gamma = 1.5 lattice (5 bands) the tail reaches 5.6e-4 at J = 8, with
# band-edge eigenvalues 2.7e-10 off, and 3.6e-7 at J = 12, where they are
# within roundoff
TAIL_MAX = 1e-6

# the sweep decomposes the columns k > 0 at one J' in stacks of at most this
# many blocks, so its temporaries stay bounded on any grid.  Stacks of 16 run
# the N_k = 64 sweeps as fast as one stack of 32 and leave peak RSS as it was
# with one decomposition per column; stacks of 32 (about 3.5 MB of
# temporaries at J' = 22) raised it by 1.8 MB over a fixed benchmark round
STACK_COLUMNS = 16

# decomposed blocks the memo of _leading_block keeps.  A Dirac task of the
# spectra benchmark meets 6 (3 gammas at k0 = 0 and 1/2, all J' = 16), about 0.2 MB
MEMO_BLOCKS = 8

# the fewest k points k_grid accepts; an even N_k puts k = 0 and 1/2 on the grid
MIN_N_K = 16

# second_derivative divides its step by 4 at most this often
MAX_STEP_RETRIES = 3


@dataclass(frozen=True, slots=True)
class BandStructure:
    """Tracked eigenvalue curves omega_m(k) and the edge block spectra.

    omega has shape (n_bands, N_k); tracking_quality (n_bands, N_k) records
    the |<v(k_i), v(k_{i+1})>| overlap of the unit right vectors used to
    continue each band into column i (1.0 in the first column).  Values
    well below 1 mark ambiguous continuations near crossings; they are
    recorded, not fatal.  edge_spectra maps k0 in {0.0, 0.5} to the
    eigen.Spectrum of the solved block there, the only eigenvectors kept.
    Per column, block_J is the block truncation J' solved, tail_weight the
    largest |coefficient| at J' - max_harmonic < |j| <= J' of the lowest
    n_bands right and left unit vectors, and residual the largest 2-norm
    residual of those pairs, zero-padded, against M_J at the sweep's cap J.
    """

    k_grid: np.ndarray
    omega: np.ndarray
    tracking_quality: np.ndarray
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
    if N_k < MIN_N_K or N_k % 2:
        raise ConfigError(f"N_k must be even and >= {MIN_N_K} so the grid hits 0 and 1/2")
    require_indexable(N_k, 8, f"a grid of N_k = {N_k} points")
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
    what = f"the lowest {n_bands} bands"

    def lowest_n(w):
        return slice(n_bands)

    edges, values, rights, lefts, block_J, tails, residuals = {}, [], [], [], [], [], []
    # k = 0 climbs from a block that holds n_bands pairs and every harmonic of
    # p; a climbing column is a stack of one, solved one rung at a time
    i, Jb, width = zero, min(J, max(SWEEP_J0, n_bands, p.max_harmonic)), 1
    while i < N_k:
        stack = ks[i:i + width]
        E, w, right, left, cols, tail = _stacked_blocks(p, stack, J, Jb, lowest_n)
        # the walk one column at a time keeps J' up to the first column whose
        # tail exceeds TAIL_TOL; that column climbs on its own from the next rung
        over = np.nonzero(tail > TAIL_TOL)[0] if Jb < J else []
        n_kept = over[0] if len(over) else len(stack)
        for j, k in enumerate(stack[:n_kept]):
            _require_resolved(p, k, J, lowest_n, tail[j], what)
            if k in (0.0, 0.5):             # copied, so that no stack outlives its step
                edges[float(k)] = eigen.Spectrum(
                    k=float(k), J=Jb, eigenvalues=w[j].copy(order="K"),
                    right_vectors=right[j].copy(order="K"), left_vectors=left[j].copy(order="K"))
        if n_kept:
            # the lowest n_bands pairs of the kept columns, copied for the same reason
            w_k, r_k, l_k = w[:n_kept, cols], right[:n_kept, :, cols], left[:n_kept, :, cols]
            values += list(w_k.copy())
            rights += list(r_k.copy())
            lefts += list(l_k.copy())
            block_J += [Jb] * n_kept
            tails += list(tail[:n_kept])
            residuals += list(_padded_residuals(E[:n_kept], w_k, r_k, l_k))
        del E, w, right, left               # the stack, once its columns are kept
        i += n_kept
        Jb, width = (min(_sweep_rung(Jb), J), 1) if n_kept < len(stack) else (Jb, STACK_COLUMNS)

    def mirror(seq):
        # ks[i] = -ks[2 zero - i]: column i < zero mirrors seq[zero - i]
        return seq[zero:0:-1] + seq

    # M(-k) = R M(k)^T R (R: j -> -j): the right vectors at -k are R conj(l)
    omega, quality = _track(mirror(values), [l[::-1].conj() for l in lefts[zero:0:-1]] + rights)
    return BandStructure(k_grid=ks, omega=omega, tracking_quality=quality, edge_spectra=edges,
                         block_J=np.array(mirror(block_J)), tail_weight=np.array(mirror(tails)),
                         residual=np.array(mirror(residuals)))


def _sweep_rung(J):
    """The sweep's rung after J': about 5/4 J', at least J' + 2."""
    return max(J + 2, 5 * J // 4)


class _Blocks(NamedTuple):
    """A stack of blocks M_J(k), decomposed by _stacked_blocks."""

    E: np.ndarray           # M_{J''}(k) per block, with M_J(k) at its centre;
                            # None from the memo
    w: np.ndarray           # eigenvalues, right and left vectors of M_J(k)
    right: np.ndarray
    left: np.ndarray
    cols: object            # the columns picked in every block
    tail: np.ndarray        # their tail weight, per block

    @property
    def J(self):
        return self.w.shape[-1] // 2


def _stacked_blocks(p, ks, J_max, J, pick):
    """The blocks M_J(k), k in ks, decomposed as one stack, with the left
    vectors in the columns pick(eigenvalues of the stack) selects in every
    block.

    M_{J''}(k), J'' = min(J_max, J + max_harmonic), is assembled once per k
    with M_J(k) at its centre: the rows of M_{J_max} that a zero-padded pair
    meets (_padded_residuals).  Returns it with the decomposition, the picked
    columns and their tail weight per block (_tail).
    """
    E = discretize.assemble_stack(p, ks, min(J_max, J + p.max_harmonic))
    inner = slice(len(E[0]) // 2 - J, len(E[0]) // 2 + J + 1)
    try:
        w, right, left = eigen.decompose(E[:, inner, inner], pick)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise PTBandsError(f"eigensolver failed at k = {ks[0]:g} ... {ks[-1]:g}, J={J}: {exc}") from exc
    cols = pick(w)
    return _Blocks(E, w, right, left, cols, _tail(p, right, left, cols))


def _leading_block(p, k, J_max, pick, J_start=None, tol=TAIL_TOL):
    """The first J' of J_start, 2 J_start, ... (capped at J_max) whose right
    and left unit vectors in the columns pick(eigenvalues) weigh at most tol
    in the slots J' - max_harmonic < |j| <= J', or J' = J_max.

    Those are the slots M_{J_max} couples out of the block, so a small tail
    means a small residual of the zero-padded pairs.  J_start defaults to
    max(BLOCK_J0, max_harmonic).  Each rung is read from the memo of
    decomposed blocks (_decomposed_block), so its E is None; returns the
    rung at J'.
    """
    Jb = min(J_max, max(BLOCK_J0, p.max_harmonic) if J_start is None else J_start)
    coeffs = tuple(sorted(p.coeffs.items()))
    while True:
        w, right, left = _decomposed_block(coeffs, float(k), Jb)
        cols = pick(w[0])
        tail = _tail(p, right, left, cols)
        if tail[0] <= tol or Jb >= J_max:
            return _Blocks(None, w, right, left, cols, tail)
        Jb = min(2 * Jb, J_max)


@functools.lru_cache(maxsize=MEMO_BLOCKS)
def _decomposed_block(coeffs, k, J):
    """Eigenvalues, right and every left vector, read-only, of the stack of
    one M_J(k) of the potential with exponential coefficients coeffs (a
    sorted tuple of (j, c_j))."""
    blocks = _stacked_blocks(PeriodicPotential(dict(coeffs)), [k], J, J, lambda w: slice(None))
    for a in (blocks.w, blocks.right, blocks.left):
        a.flags.writeable = False
    return blocks.w, blocks.right, blocks.left


def _tail(p, right, left, cols):
    """Largest |entry| of the right and left vectors in columns cols at
    J - max_harmonic < |j| <= J, J the block size; one value per block of a
    stack."""
    J = right.shape[-2] // 2
    edge = np.abs(np.arange(-J, J + 1)) > J - max(1, p.max_harmonic)
    return np.maximum(np.abs(right[..., edge, :][..., cols]).max(axis=(-2, -1)),
                      np.abs(left[..., edge, :][..., cols]).max(axis=(-2, -1)))


def _require_resolved(p, k, J, pick, tail, what):
    """Raise TruncationError when the pairs pick selects from the J' = J block
    weigh more than TAIL_MAX at J - max_harmonic < |j| <= J; the message
    gives their weight at a larger J.  what names the pairs."""
    if tail > TAIL_MAX:
        more = _leading_block(p, k, 4 * J, pick, 2 * J, TAIL_MAX)
        raise TruncationError(
            f"J = {J} does not resolve {what}: their eigenvectors weigh {tail:.1e} at "
            f"|j| > {J - max(1, p.max_harmonic)} (k = {k:g}, limit {TAIL_MAX:.0e}); "
            f"at J = {more.J} they weigh {more.tail[0]:.1e}")


def _padded_residuals(M, w, r, l):
    """Largest 2-norm residual of the right and left pairs (w, r, l) of the
    centre block of M, zero-padded to M, against M; M is a matrix or a stack
    (..., n, n), with one value per block.

    M_J is banded: a padded vector meets only rows and columns with
    |j| <= J' + max_harmonic, so M = M_{min(J, J' + max_harmonic)} gives the
    residual against M_J.  The pairs are padded, so M is read in place, not
    copied in slices; the left residual M^H l - conj(w) l is taken as its
    conjugate M^T conj(l) - w conj(l), which has the same norm."""
    J, Jb = M.shape[-1] // 2, r.shape[-2] // 2
    inner = slice(J - Jb, J + Jb + 1)
    res = []
    for v, om, MT in ((r, w, M), (l.conj(), w, M.swapaxes(-1, -2))):
        pad = np.zeros(v.shape[:-2] + (M.shape[-1], v.shape[-1]), dtype=complex)
        pad[..., inner, :] = v
        Mv = eigen._matmul(MT, pad)
        Mv[..., inner, :] -= v * om[..., None, :]
        res.append(np.linalg.norm(Mv, axis=-2).max(axis=-1))
    return np.maximum(*res)


def _track(values, vectors):
    """(omega, quality) of bands continued across consecutive columns by overlap.

    Column i holds the eigenvalues values[i] and their right vectors
    vectors[i] (2J' + 1, n_bands); the blocks may differ in J'.  Only the
    previous column's tracked vectors are kept, zero-padded to the largest J'.
    """
    n_bands, n_k = len(values[0]), len(values)
    J = max(len(vr) for vr in vectors) // 2
    omega = np.zeros((n_bands, n_k), dtype=complex)
    quality = np.ones((n_bands, n_k))

    perm = np.arange(n_bands)
    for i, (w, vr) in enumerate(zip(values, vectors)):
        Jb = len(vr) // 2
        inner = slice(J - Jb, J + Jb + 1)
        if i:
            # overlap[a, b] = |<v_a(k_{i-1}), v_b(k_i)>|; v_b is zero outside inner
            overlap = np.abs(prev[:, inner].conj() @ vr)
            perm = _best_match(overlap)
            quality[:, i] = overlap[np.arange(n_bands), perm]
        omega[:, i] = w[perm]
        prev = np.zeros((n_bands, 2 * J + 1), dtype=complex)
        prev[:, inner] = vr[:, perm].T
    return omega, quality


def _best_match(overlap):
    """perm maximising sum overlap[a, perm[a]].

    When the row-wise argmax is a permutation and every row's maximum is
    strict, it is the unique optimum; otherwise (a tie or two rows on one
    column) _assignment decides, with Crouse's tie rule.
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
    Syst. 52, 2016) with the scan order and tie-breaking of Crouse's
    reference implementation, so equal-cost optima resolve as there.
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


def check_assumption(bs: BandStructure, m: int, p: PeriodicPotential) -> BandEdgeReport:
    """Reality (REALITY_TOL), isolation and simplicity report for band m (1-based).

    isolation_gap is the complex-plane distance from band m (as a set over
    the grid) to every other computed eigenvalue at every grid k — the
    computed window stands in for "the rest of the spectrum", so n_bands
    must cover the neighbours of m.  simplicity_margin is the same
    distance restricted to equal k.  At each edge of a real band, curvature
    and condition come from the stored edge spectrum by edge_curvature with
    p, the potential of bs (one bordered solve, no eigensolve); a NaN
    curvature marks a degenerate or near-exceptional edge.
    """
    vals = bs.band(m)
    scale = np.maximum(1.0, np.abs(vals))
    ims = np.abs(vals.imag) / scale
    worst = int(np.argmax(ims))
    is_real = ims[worst] <= REALITY_TOL

    others = np.delete(bs.omega, m - 1, axis=0)
    if others.size:
        # every pair (k, k') in slices of k, so the temporary stays near
        # ISOLATION_CHUNK entries however fine the grid
        step = max(1, ISOLATION_CHUNK // others.size)
        isolation = min(np.abs(vals[i:i + step, None, None] - others).min()
                        for i in range(0, len(vals), step))
        simplicity = np.abs(vals[None, :] - others[:, :]).min()
    else:
        isolation = simplicity = np.inf

    edges = ()
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
            curv, cond = edge_curvature(p, bs.edge_spectra[k0], bs.edge_index(m, k0))
            edge_list.append(BandEdge(k0, om_star, which, curv, cond))
        edges = tuple(edge_list)

    return BandEdgeReport(
        m=m,
        is_real=bool(is_real),
        max_im=float(np.abs(vals.imag)[worst]),
        max_im_k=float(bs.k_grid[worst]),
        isolation_gap=float(isolation),
        simplicity_margin=float(simplicity),
        edges=edges,
        extrema_at_high_symmetry=bool(extrema_ok),
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
    eigenvalue is degenerate (eigen.Spectrum.is_degenerate, which
    eigen.make_mode refuses) or near-exceptional (condition > CONDITION_MAX).
    """
    omega = spec.eigenvalues[index]
    r = spec.right_vectors[:, index]
    l = spec.left(index)
    s = np.vdot(l, r)
    condition = float(np.linalg.norm(l) * np.linalg.norm(r) / abs(s))
    if spec.is_degenerate(index) or condition > CONDITION_MAX:
        return np.nan, condition
    M = discretize.assemble_stack(p, [spec.k], spec.J)[0]
    n = len(r)
    B = np.block([[M - omega * np.eye(n), r[:, None]],
                  [l.conj()[None, :], np.zeros((1, 1))]])
    dM = 2.0 * (np.arange(-spec.J, spec.J + 1) + spec.k)
    x = np.linalg.solve(B, np.append(dM * r, 0.0))[:n]
    return float((2.0 - 2.0 * np.vdot(l, dM * x) / s).real), condition


def _band_value_near(p, k, J, ref_vector):
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
    w, right = _spectrum(p, k, J)
    ref = ref_vector
    if shift:
        # p(x, k - 1) = e^{ix} p(x, k): frequency j + k in the old frame is
        # slot j + 1 in the new one; the dropped end slot carries ~1e-16 weight
        ref = np.zeros_like(ref_vector)
        if shift == 1:
            ref[1:] = ref_vector[:-1]
        else:
            ref[:-1] = ref_vector[1:]
    ov = np.abs(ref.conj() @ right)
    i = int(np.argmax(ov))
    om = w[i]
    if abs(om.imag) > REALITY_TOL * max(1.0, abs(om)):
        raise ComplexBandError(
            f"band value at k={k} is complex ({om}); curvature refused"
        )
    return om.real


def _spectrum(p, k, J):
    """Eigenvalues and right vectors of M_J(k), decomposed as a stack of one."""
    try:
        w, right, _ = eigen.decompose(discretize.assemble_stack(p, [k], J))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise PTBandsError(f"eigensolver failed at k={k}, J={J}: {exc}") from exc
    return w[0], right[0]


def _richardson(coarse, mid, fine):
    """D(0) from D(4s), D(2s), D(s), error even in s: two Richardson levels and their spread."""
    r_coarse = (4 * mid - coarse) / 3
    r_fine = (4 * fine - mid) / 3
    return (16 * r_fine - r_coarse) / 15, abs(r_fine - r_coarse) / 15


def _richardson_d2(p, om0, ref, k0, J, h):
    return _richardson(*((_band_value_near(p, k0 + s, J, ref) - 2.0 * om0
                          + _band_value_near(p, k0 - s, J, ref)) / s**2 for s in (h, h / 2, h / 4)))


def second_derivative(p: PeriodicPotential, m: int, k0: float, J: int, h: float = 0.04):
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
    w, right = _spectrum(p, k0, J)
    om0 = w[m - 1]
    if abs(om0.imag) > REALITY_TOL * max(1.0, abs(om0)):
        raise ComplexBandError(f"omega_{m}({k0}) = {om0} is not real")
    ref = right[:, m - 1]

    value, err = _richardson_d2(p, om0.real, ref, k0, J, h)
    for _ in range(MAX_STEP_RETRIES):
        if err <= 1e-6 * max(1.0, abs(value)):
            break
        h /= 4
        value2, err2 = _richardson_d2(p, om0.real, ref, k0, J, h)
        if err2 >= err:
            break
        value, err = value2, err2
    return float(value), float(err)


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
