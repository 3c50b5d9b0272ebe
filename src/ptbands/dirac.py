"""Dirac points of real even potentials and their splitting under i*gamma*W.

A Dirac point is a double eigenvalue mu of L(k0), k0 in {0, 1/2}, where
two band functions intersect.  Its two-dimensional eigenspace carries a
parity structure: a basis (phi_+, phi_-) exists with phi_+ e^{i k0 x}
real even and phi_- e^{i k0 x} real odd.  In the e^{ijx} coefficient
basis, parity is the reflection j -> -j at k0 = 0 and the twisted
reflection j -> -j-1 at k0 = 1/2.  W acts through the diagonals of its
Toeplitz matrix and the basis phases come from eigen.gauge.

Under the PT perturbation i*gamma*W (W odd, real) the point splits at
leading order into mu +- i*gamma*|<W phi_+, phi_->|; with an even
background U present the two leading eigenvalues are
mu +- sqrt(A^2 - gamma^2 B^2), where (A, B) are the (cosine, sine)
Fourier coefficients of (U, W) at the coupling harmonic of the point
(the harmonic q with c_q connecting the two resonant basis modes).

measure_splitting takes the measured pair from the smallest leading block
M_{J'}(k0) that certifies it, by the band sweep's certificate on the
doubling ladder from BLOCK_J0 (bands._leading_block, whose memo serves
every rung), within kappa r of an exact solve at mu = 225: the lattice and
mu set its cost, and J caps it.
prop3_scan keeps one eigenvalue-only solve of the full matrix for all m.
"""

import warnings
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import bands, discretize, eigen
from .errors import ClassificationError, ConfigError, TruncationError
from .eigen import TWO_PI
from .potential import Convention, PeriodicPotential, PotentialParts, from_parts
from .util import is_int


# harmonics prop3_scan needs past the top coupling harmonic 2 m_max.  For
# a_m = m^-5/2, b_m = m^-3/2, gamma = 0.5, the relative gap at the top m = 12
# reads 0.104 from 24 harmonics, 0.0253/0.0223/0.0210 from 25/26/28 and
# 0.0207 from 48
PROP3_MARGIN = 4

COUPLING_TOL = 1e-10        # at most this coupling, predict_splitting is inconclusive
# two edge eigenvalues within DEGENERACY_TOL max(1, |omega|) form a Dirac point
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class DiracPoint:
    """Double eigenvalue mu at k0; its parity-split eigenbasis has the edge block's length 2J' + 1."""

    k0: float
    mu: float
    band_pair: tuple
    phi_plus: np.ndarray
    phi_minus: np.ndarray

    @property
    def J(self):
        return (len(self.phi_plus) - 1) // 2


class Regime(Enum):
    DEGENERATE_PAIR = "degenerate-pair"  # prediction mu +- i gamma |<W phi+, phi->|
    TWO_MODE = "two-mode"              # prediction mu +- sqrt(A^2 - gamma^2 B^2)
    INCONCLUSIVE = "inconclusive"  # coupling element vanishes


@dataclass(frozen=True, slots=True)
class SplittingPrediction:
    """Leading-order split eigenvalues with, optionally, the measured pair.

    pred_im is the predicted |Im| of the split pair (the magnitude the
    relative gap is measured against: gamma*|<W phi+, phi->| in the
    degenerate-pair regime, |gamma*B| at the coupling harmonic in the
    two-mode regime).  relative_gap = | |Im omega_meas| - pred_im | / pred_im.
    """

    k0: float
    mu: float
    gamma: float
    regime: Regime
    leading_eigenvalues: tuple
    pred_im: float
    coupling_harmonic: int = 0
    measured: tuple = None
    relative_gap: float = None

    def with_measurement(self, pair):
        plus = pair[0]
        gap = None
        if self.pred_im > 0:
            gap = abs(abs(plus.imag) - self.pred_im) / self.pred_im
        return replace(self, measured=tuple(pair), relative_gap=gap)


def find_dirac_points(bs_gamma0: bands.BandStructure):
    """All double eigenvalues, to DEGENERACY_TOL, among the lowest n_bands of
    bs_gamma0.edge_spectra.

    The band structure must come from the gamma = 0 potential (real and
    even); the two eigenvectors of each crossing are orthonormalized and
    the parity operator is diagonalized on the span to produce the
    even/odd parity basis, of the edge block's length 2 J' + 1.  Crossings
    whose eigenspace is not two-dimensional in the window are skipped.
    """
    points = []
    for k0 in (0.0, 0.5):
        shift = int(round(2 * k0))      # parity: j -> -j - shift
        spec = bs_gamma0.edge_spectra[k0]
        vals = spec.eigenvalues[:bs_gamma0.n_bands]
        used = set()
        for i in range(len(vals)):
            if i in used:
                continue
            close = [j for j in range(len(vals)) if j != i
                     and abs(vals[j] - vals[i]) <= DEGENERACY_TOL * max(1.0, abs(vals[i]))]
            if not close:
                continue
            if len(close) != 1:
                used.update({i, *close})
                warnings.warn(
                    f"eigenspace at (k0={k0}, omega~{vals[i].real:.6g}) has "
                    f"dimension {len(close) + 1}, not 2; crossing skipped",
                    stacklevel=2,
                )
                continue
            j = close[0]
            used.update({i, j})
            mu = float(np.mean([vals[i].real, vals[j].real]))
            S, _ = np.linalg.qr(spec.right_vectors[:, [i, j]])
            # parity reverses the basis vectors; at k0 = 1/2 the image of
            # j = J' leaves the range and that row stays zero
            PS = np.zeros_like(S)
            PS[:len(S) - shift] = S[::-1][shift:]
            Psub = S.conj().T @ PS
            pvals, pvecs = np.linalg.eigh(0.5 * (Psub + Psub.conj().T))
            if np.abs(np.abs(pvals) - 1.0).max() > 1e-6:
                warnings.warn(
                    f"parity not resolved on the eigenspace at (k0={k0}, "
                    f"omega~{mu:.6g}); crossing skipped", stacklevel=2,
                )
                continue
            phi_minus = S @ pvecs[:, 0]   # parity -1: odd Bloch function
            phi_plus = S @ pvecs[:, 1]    # parity +1: even
            # phi e^{i k0 x} real: real coefficients, except purely
            # imaginary ones for the odd member at k0 = 0
            phi_plus = phi_plus * eigen.gauge(phi_plus)
            phi_minus = phi_minus * eigen.gauge(phi_minus, 0.5 * np.pi if k0 == 0.0 else 0.0)
            norm = np.sqrt(TWO_PI)
            # band_pair follows the real-part ordering at this k (the two
            # crossing band functions are adjacent in that ordering)
            rank = int(np.sum(vals.real < mu - DEGENERACY_TOL * max(1.0, abs(mu))))
            points.append(DiracPoint(
                k0=k0, mu=mu, band_pair=(rank + 1, rank + 2),
                phi_plus=phi_plus / (norm * np.linalg.norm(phi_plus)),
                phi_minus=phi_minus / (norm * np.linalg.norm(phi_minus)),
            ))
    points.sort(key=lambda d: d.mu)
    return points


def mw_matrix(dp: DiracPoint, W_parts: PotentialParts) -> np.ndarray:
    """2x2 matrix of W-weighted inner products of the Dirac eigenbasis.

    Rows pair against (phi_+, phi_-):
        [[<W phi_+, phi_+>, <W phi_-, phi_+>],
         [<W phi_+, phi_->, <W phi_-, phi_->]]
    That is 2 pi B^H T_W B with B = [phi_+, phi_-] and T_W the Toeplitz
    matrix of W (built as in discretize.assemble_stack), applied one
    diagonal per harmonic of W, the sine series of W_parts (U is left out).
    Hermitian for real W; anti-diagonal in the parity basis because W is odd
    and |phi_+-|^2 are even.
    """
    B = np.column_stack([dp.phi_plus, dp.phi_minus])
    n = len(B)
    M = np.zeros((2, 2), dtype=complex)
    # from_parts of the sine series alone at gamma = 1 gives the coefficients of iW
    for q, c in from_parts(replace(W_parts, cosine_coeffs=(), gamma=1.0)).coeffs.items():
        if abs(q) < n:
            # T_W[j, l] = c_q on j - l = q pairs row j of B with row j - q
            rows, cols = (B[q:], B[:n - q]) if q >= 0 else (B[:n + q], B[-q:])
            M += c * (rows.conj().T @ cols)
    return -1j * TWO_PI * M


def predict_splitting(dp: DiracPoint, W_parts: PotentialParts, gamma: float) -> SplittingPrediction:
    """Leading-order split pair mu +- i gamma |<W phi_+, phi_->|.

    A coupling element at most COUPLING_TOL leaves the prediction inconclusive
    (the degenerate-perturbation hypothesis fails; higher orders decide).
    """
    if abs(gamma) > 0.5:
        raise ConfigError(f"perturbative prediction restricted to |gamma| <= 0.5, got {gamma}")
    coupling = abs(mw_matrix(dp, W_parts)[1, 0])
    if coupling <= COUPLING_TOL:
        return SplittingPrediction(
            k0=dp.k0, mu=dp.mu, gamma=gamma, regime=Regime.INCONCLUSIVE,
            leading_eigenvalues=(complex(dp.mu), complex(dp.mu)), pred_im=0.0,
        )
    lam = gamma * coupling
    return SplittingPrediction(
        k0=dp.k0, mu=dp.mu, gamma=gamma, regime=Regime.DEGENERATE_PAIR,
        leading_eigenvalues=(dp.mu + 1j * lam, dp.mu - 1j * lam),
        pred_im=abs(lam),
    )


def _nearest(w, mu):
    """Indices of the two eigenvalues in w nearest mu."""
    return np.argsort(np.abs(w - mu), kind="stable")[:2]


def _plus_first(pair):
    """The pair as a tuple, plus-Im first."""
    return tuple(sorted(pair, key=lambda z: -z.imag))


def measure_splitting(p: PeriodicPotential, k0: float, mu: float, J: int):
    """The two eigenvalues of L(k0) nearest mu, plus-Im first.

    They come from the first block M_{J'}(k0) on the ladder of
    bands._leading_block, J' = max(BLOCK_J0, max harmonic), 2 J', ...
    (capped at J), whose right and left unit vectors weigh at most TAIL_TOL
    in the slots J' - max harmonic < |j| <= J'.  Every rung is read from
    the memo of decomposed blocks (bands module docstring), so a call on a
    block an earlier call decomposed makes no eigensolve and returns the
    same pair.  Raises ClassificationError when fewer than two
    eigenvalues lie within 1 of mu, and then TruncationError when the pair
    still weighs more than TAIL_MAX there at J' = J.
    """
    def near_mu(w):
        return _nearest(w, mu)

    blocks = bands._leading_block(p, k0, J, near_mu)
    pair = _plus_first(blocks.w[0, blocks.cols])
    if max(abs(z - mu) for z in pair) >= 1.0:
        raise ClassificationError(
            f"fewer than two eigenvalues within distance 1 of mu = {mu} at k0 = {k0}"
        )
    bands._require_resolved(p, k0, J, near_mu, blocks.tail[0], f"the pair near mu = {mu:g}")
    return pair


def splitting_slope(U_parts: PotentialParts, dp: DiracPoint, J: int,
                    gammas=(0.01, 0.02, 0.04)):
    """richardson_slope of the pairs measured at gammas, which must be three
    positive numbers in ratio 1:2:4 (ConfigError before any measurement
    otherwise).  Comparable to |<W phi_+, phi_->|."""
    return richardson_slope({
        g: measure_splitting(from_parts(replace(U_parts, gamma=g)), dp.k0, dp.mu, J)[0]
        for g in _slope_gammas(gammas)})


def richardson_slope(plus_by_gamma):
    """d(Im omega_+)/d gamma at gamma -> 0 from a mapping gamma -> omega_+(gamma):
    |Im omega_+|/gamma at its three smallest gammas, which must be positive and
    in ratio 1:2:4 (ConfigError otherwise), Richardson-extrapolated free of the
    O(gamma^2) and O(gamma^4) terms (the splitting is even in gamma)."""
    s1, s2, s4 = (abs(plus_by_gamma[g].imag) / g
                  for g in _slope_gammas(sorted(plus_by_gamma)[:3]))
    return bands._richardson(s4, s2, s1)[0]


def _slope_gammas(gammas):
    """gammas sorted; ConfigError unless they are three positive numbers in ratio 1:2:4."""
    gammas = sorted(gammas)
    if len(gammas) != 3 or gammas[0] <= 0 or not np.allclose(np.diff(np.log(gammas)), np.log(2)):
        raise ConfigError("splitting_slope expects three positive gammas in ratio 1:2:4")
    return gammas


def require_prop3_size(a_seq, b_seq, J: int, mmax: int):
    """prop3_scan's sizes for m up to mmax: ConfigError when J < 2 mmax + 16,
    TruncationError when a_seq or b_seq holds under 2 mmax + PROP3_MARGIN harmonics."""
    if J < 2 * mmax + 16:
        raise ConfigError(f"J = {J} too small for m up to {mmax}; need J >= {2 * mmax + 16}")
    n_harm = min(len(a_seq), len(b_seq))
    if n_harm < 2 * mmax + PROP3_MARGIN:
        raise TruncationError(
            f"coefficient sequences hold {n_harm} harmonics; m up to {mmax} needs "
            f"{2 * mmax + PROP3_MARGIN} (coupling harmonic {2 * mmax} plus {PROP3_MARGIN})"
        )


def prop3_scan(a_seq, b_seq, gamma: float, m_range, J: int):
    """Splitting of the high Dirac ladder for U + i gamma W in the doubled
    Fourier convention (U = 2 sum a_j cos jx, W = 2 sum b_j sin jx).

    For each m in m_range the scan targets the double point mu = m^2 at
    k0 = 0 (free modes e^{+-imx}).  The two resonant modes couple through
    the potential coefficients at harmonic q = 2m, so the leading
    eigenvalues are mu +- sqrt(a_q^2 - gamma^2 b_q^2) and the splitting
    magnitude is |gamma b_q| once b dominates.  One eigenvalue-only solve
    at k0 = 0 serves every m.  J and the sequences must be large enough
    for max(m_range) (require_prop3_size), which a range of positive m is
    checked for before any m is read.
    """
    if isinstance(m_range, range) and m_range and min(m_range[0], m_range[-1]) >= 1:
        require_prop3_size(a_seq, b_seq, J, max(m_range[0], m_range[-1]))
    m_range = sorted(int(m) if is_int(m) and m >= 1 else 0 for m in m_range)
    if not m_range or m_range[0] < 1:
        raise ConfigError("m_range must contain positive integers")
    require_prop3_size(a_seq, b_seq, J, m_range[-1])
    a_seq = np.asarray(a_seq, dtype=float)
    b_seq = np.asarray(b_seq, dtype=float)
    parts = PotentialParts(tuple(a_seq), tuple(b_seq), gamma, Convention.PROP3_DOUBLED)
    V = from_parts(parts)
    w = eigen.eigenvalues(discretize.assemble_stack(V, [0.0], J)[0])

    records = []
    for m in m_range:
        mu = float(m * m)
        q = 2 * m
        A, B = a_seq[q - 1], b_seq[q - 1]
        disc = A**2 - gamma**2 * B**2
        root = np.sqrt(complex(disc))
        pred = (mu + root, mu - root)
        pred_im = abs(gamma * B)
        regime = Regime.TWO_MODE
        rec = SplittingPrediction(
            k0=0.0, mu=mu, gamma=gamma, regime=regime,
            leading_eigenvalues=pred, pred_im=pred_im, coupling_harmonic=q,
        )
        records.append(rec.with_measurement(_plus_first(w[_nearest(w, mu)])))
    return records
