"""Dense non-Hermitian eigensolves and biorthonormalized Bloch modes.

Conventions used throughout:

* a mode's Fourier coefficients pi_j represent p(x) = sum_j pi_j e^{ijx}
  with the cell normalization ||p||_{L2(0,2pi)} = 1, i.e.
  2*pi*sum|pi_j|^2 = 1;
* the cell inner product is <u, v> = int_0^{2pi} u conj(v) dx
  = 2*pi*sum_j u_j conj(v_j)  (linear in the first argument);
* the adjoint mode p* (eigenvector of the adjoint matrix M^H at
  conj(omega)) is the left eigenvector l of the same decomposition,
  l^H M = omega l^H, scaled so that <p, p*> = 1, which makes <., p*> p the
  spectral projection onto the mode.  Near an exceptional point this
  pairing degenerates and the construction refuses.
* every phase is fixed by gauge(v, angle), which turns the largest-|.|
  coefficient onto the angle.

solve() returns every right vector and, for the columns a caller picks, the
left vector too.  The right vectors come from numpy's LAPACK eigensolver
(eigh when the block is exactly Hermitian, which makes left = right).  Each
picked left vector is the matching row of the inverse of the right-vector
matrix, biorthogonal to every other right vector; a row whose residual the
conditioning of that matrix has spoilt is replaced by one shifted
inverse-iteration step on M^H from its right vector (_left_vectors).  Because
M(-k) = R M(k)^T R with R the reversal j -> -j, the decomposition at -k is
the reflected one at k (Spectrum.mirrored): the same eigenvalues, right
vectors R conj(l) and left vectors R conj(r).  This is the reflection
identity p*(x, k) = p(-x, -k) in coefficient form.  eigenvalues() serves
callers that read no vectors.  The module needs numpy only.
"""

from dataclasses import dataclass, replace

import numpy as np

from .discretize import BlochOperatorMatrix
from .errors import ClassificationError, ComplexBandError, DegenerateEigenvalueError, PTBandsError

TWO_PI = 2.0 * np.pi

# entries with |Im| below this are treated as exactly real so the real
# (dgeev) path is taken and conjugate pairs come out exact
_REAL_ENTRY_TOL = 1e-14


@dataclass(frozen=True, slots=True)
class Spectrum:
    """All eigenpairs of one Bloch operator matrix.

    eigenvalues are sorted ascending by real part (ties by imaginary
    part); right_vectors[:, i] is the unit-2-norm eigenvector of
    eigenvalues[i] in the e^{ijx} coefficient basis, j = -J..J, and
    left_vectors[:, i] the unit-2-norm left eigenvector
    (l^H M = omega l^H, i.e. M^H l = conj(omega) l) in the columns solve()
    was asked to pick, NaN in the others; left_vectors is None when solve()
    picked none.
    """

    k: float
    J: int
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray = None

    def mirrored(self):
        """The decomposition at -k, from M(-k) = R M(k)^T R (R: j -> -j)."""
        return Spectrum(k=-self.k, J=self.J, eigenvalues=self.eigenvalues,
                        right_vectors=self._left(slice(None), "every column")[::-1].conj(),
                        left_vectors=self.right_vectors[::-1].conj())

    def lowest(self, n):
        """The first n eigenpairs, copied so the full decomposition can be freed."""
        return Spectrum(k=self.k, J=self.J, eigenvalues=self.eigenvalues[:n].copy(),
                        right_vectors=self.right_vectors[:, :n].copy(),
                        left_vectors=self._left(slice(n), f"the first {n} columns").copy())

    def left(self, index):
        """left_vectors[:, index]; PTBandsError when solve() did not pick it."""
        return self._left(index, f"column {index}")

    def _left(self, cols, what):
        l = None if self.left_vectors is None else self.left_vectors[:, cols]
        if l is None or np.isnan(l[0]).any():
            raise PTBandsError(f"no left vector in {what} at k={self.k}: "
                               "solve() did not pick it")
        return l

    def gap(self, index):
        """Distance from eigenvalues[index] to the nearest other eigenvalue."""
        d = np.abs(self.eigenvalues - self.eigenvalues[index])
        d[index] = np.inf
        return d.min()


@dataclass(frozen=True, slots=True)
class SpectrumClasses:
    """classify() result: real values and conjugate pairs (plus-Im first)."""

    real_values: np.ndarray
    real_indices: np.ndarray
    pairs: tuple
    pair_indices: tuple


@dataclass(frozen=True, slots=True)
class BlochMode:
    """One biorthonormalized eigenpair (omega, p, p*) at fixed k."""

    k: float
    omega: complex
    p_coeffs: np.ndarray
    pstar_coeffs: np.ndarray

    @property
    def J(self):
        return (len(self.p_coeffs) - 1) // 2

    def g_values(self, x):
        """Bloch wave g(x) = e^{ikx} p(x) at arbitrary points; PT-symmetric
        when the phase is fixed."""
        x = np.asarray(x, dtype=float)
        js = np.arange(-self.J, self.J + 1)
        return np.exp(1j * self.k * x) * (np.exp(1j * np.outer(x, js)) @ self.p_coeffs)


def gauge(v, angle=0.0):
    """Unit factor that rotates the largest-|.| coefficient of v onto angle
    (deterministic, and well conditioned since that coefficient is large)."""
    jstar = int(np.argmax(np.abs(v)))
    return np.exp(1j * (angle - np.angle(v[jstar])))


def inner(u_coeffs, v_coeffs):
    """Cell inner product <u, v> = int_0^{2pi} u conj(v) dx in coefficients."""
    return TWO_PI * np.sum(u_coeffs * np.conj(v_coeffs))


def _lapack_entries(M: BlochOperatorMatrix):
    """Entries as LAPACK should see them: real-entried matrices (every
    PT-symmetric potential) take the real path, which returns exactly
    conjugate complex pairs."""
    A = M.entries
    if not A.imag.any() or (np.abs(A.imag).max()
                            <= _REAL_ENTRY_TOL * max(1.0, np.abs(A.real).max())):
        A = A.real
    return A


def solve(M: BlochOperatorMatrix, pick=None) -> Spectrum:
    """Eigendecomposition of a Bloch operator matrix: every right vector, and
    the left vectors in the columns pick(eigenvalues) selects (an index array
    or slice into the sorted eigenvalues).  Without pick no left vector is
    computed."""
    A = _lapack_entries(M)
    try:
        # exactly Hermitian: one pair of entries settles most non-Hermitian blocks
        if A[1, 0] == np.conj(A[0, 1]) and np.array_equal(A, A.conj().T):
            w, right = np.linalg.eigh(A)        # ascending, left = right
            left = None if pick is None else right
        else:
            w, right = np.linalg.eig(A)
            order = np.argsort(w, kind="stable")     # by real part, ties by imaginary
            w, right = w[order], right[:, order]
            left = None if pick is None else _left_vectors(A, w, right, pick(w))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise PTBandsError(f"eigensolver failed at k={M.k}, J={M.J}: {exc}") from exc
    return Spectrum(k=M.k, J=M.J, eigenvalues=w.astype(complex, copy=False),
                    right_vectors=right, left_vectors=left)


def _left_vectors(A, w, right, cols):
    """Unit left vectors in columns cols, NaN in the others.

    Column i is row i of R^{-1} (R the right vectors), conjugated: the left
    vector biorthogonal to every other right vector, however close its
    eigenvalue, so near-doubles stay apart.  Its residual grows with the
    conditioning of R, as every ill-conditioned eigenvalue of the block leaks
    into it.  Where the residual exceeds n d, d = u max(1, max_j |w_j|)
    (u ||A|| for these matrices whose diagonal (j + k)^2 dominates), the
    column is replaced by one inverse-iteration step
    (A^H - (conj(w_i) + d) I) x = r_i from its right vector (Ipsen, SIAM
    Rev. 39, 1997): r_i carries 1/|l_i^H r_i| >= 1 along l_i, so one step
    gives a residual of order d, and the shift d keeps the system of an exact
    eigenvalue (a diagonal block) nonsingular.  The step mixes in the left
    vector of another eigenvalue w_j by about d / |w_j - w_i|, so an
    eigenvalue within sqrt(u) max|w| of another keeps its R^{-1} row.  Real
    R solves in real arithmetic.  A singular R (an exactly defective
    eigenvalue) raises LinAlgError.
    """
    n = len(w)
    x = np.linalg.solve(right.conj().T, np.eye(n)[:, cols])
    size = np.sqrt(np.einsum("ij,ij->j", x.conj(), x).real)
    om = w[cols].conj()
    res = A.conj().T @ x - x * om
    d = np.finfo(float).eps * max(1.0, abs(w).max())
    x = x / size
    # a column's residual is at most sqrt(n) times its largest entry: most
    # blocks pass without a look at single columns
    if abs(res).max() > np.sqrt(n) * d * size.min():
        far = np.nonzero(np.linalg.norm(res, axis=0) > n * d * size)[0]
        gap = np.partition(np.abs(w[:, None] - w[cols][far]), 1, axis=0)[1]
        far = far[gap > d / np.sqrt(np.finfo(float).eps)]
        if far.size:
            S = np.empty((far.size, n, n), dtype=np.result_type(A, om))
            S[:] = A.conj().T
            S.reshape(far.size, n * n)[:, ::n + 1] -= (om[far] + d)[:, None]
            y = np.linalg.solve(S, right[:, cols][:, far].T[:, :, None])[:, :, 0].T
            x = x.astype(np.result_type(x, y))
            x[:, far] = y / np.linalg.norm(y, axis=0)
    left = np.full((n, n), np.nan, dtype=complex)
    left[:, cols] = x
    return left


def eigenvalues(M: BlochOperatorMatrix) -> np.ndarray:
    """Eigenvalues of a Bloch operator matrix in solve()'s order, no vectors."""
    try:
        w = np.linalg.eigvals(_lapack_entries(M)).astype(complex)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise PTBandsError(f"eigensolver failed at k={M.k}, J={M.J}: {exc}") from exc
    return w[np.lexsort((w.imag, w.real))]


def classify(spec: Spectrum, tol_real: float) -> SpectrumClasses:
    """Partition a spectrum into real eigenvalues and conjugate pairs.

    An eigenvalue counts as real when |Im omega| <= tol_real * max(1, |omega|).
    Complex ones are matched greedily by conjugate distance; an unpaired
    complex eigenvalue signals broken PT structure (or a tolerance that
    is too tight) and raises ClassificationError.
    """
    w = spec.eigenvalues
    scale = np.maximum(1.0, np.abs(w))
    is_real = np.abs(w.imag) <= tol_real * scale
    real_idx = np.nonzero(is_real)[0]
    cplx_idx = list(np.nonzero(~is_real)[0])

    pairs, pair_indices = [], []
    while cplx_idx:
        i = cplx_idx.pop(0)
        target = np.conj(w[i])
        if not cplx_idx:
            raise ClassificationError(f"unpaired complex eigenvalue {w[i]}")
        dists = [abs(w[j] - target) for j in cplx_idx]
        jbest = int(np.argmin(dists))
        if dists[jbest] > tol_real * max(1.0, abs(w[i])):
            raise ClassificationError(
                f"eigenvalue {w[i]} has no conjugate partner within "
                f"{tol_real * max(1.0, abs(w[i])):.3e} (closest at {dists[jbest]:.3e})"
            )
        j = cplx_idx.pop(jbest)
        plus, minus = (i, j) if w[i].imag >= w[j].imag else (j, i)
        pairs.append((w[plus], w[minus]))
        pair_indices.append((plus, minus))
    return SpectrumClasses(
        real_values=w[real_idx].real,
        real_indices=real_idx,
        pairs=tuple(pairs),
        pair_indices=tuple(pair_indices),
    )


def make_mode(spec: Spectrum, index: int) -> BlochMode:
    """Biorthonormalized Bloch mode for spec.eigenvalues[index].

    p is the right vector at cell norm 1; p* is the left vector of the
    same decomposition rescaled so <p, p*> = 1.  Refuses near-degenerate
    eigenvalues (gap at most 1e-6 max(1, |omega|), a scale that does not
    depend on the truncation): there the pairing <p, p*> tends to zero
    and the normalization is unstable.
    """
    omega = spec.eigenvalues[index]
    scale = max(1.0, abs(omega))
    if spec.gap(index) <= 1e-6 * scale:
        raise DegenerateEigenvalueError(
            f"eigenvalue {omega} within {1e-6 * scale:.3e} of another; "
            "mode construction refused"
        )
    v = spec.right_vectors[:, index].copy()
    v = v / (np.sqrt(TWO_PI) * np.linalg.norm(v))
    v = v * gauge(v)

    w = spec.left(index)
    s = inner(v, w)
    if abs(s) < 1e-8:
        raise DegenerateEigenvalueError(
            f"biorthogonal pairing <p, p*> = {s:.3e} at omega={omega}; "
            "too close to an exceptional point"
        )
    w = w / np.conj(s)
    return BlochMode(k=spec.k, omega=omega, p_coeffs=v, pstar_coeffs=w)


def fix_pt_phase(mode: BlochMode, tol_real: float = 1e-8, tol_im: float = 1e-8) -> BlochMode:
    """Rotate a real-eigenvalue mode onto its PT-symmetric phase.

    The rotation is gauge(p): the largest-|.| coefficient becomes real
    positive.  After the rotation all
    coefficients of a genuinely PT-symmetric mode are real; a residual
    imaginary part above tol_im means the eigenvalue is not simple-real
    and raises.  p* is rotated by the same phase, which preserves
    <p, p*> = 1.
    """
    if abs(mode.omega.imag) > tol_real * max(1.0, abs(mode.omega)):
        raise ComplexBandError(
            f"cannot PT-fix a mode with Im(omega) = {mode.omega.imag:.3e}"
        )
    phase = gauge(mode.p_coeffs)
    p = mode.p_coeffs * phase
    resid = np.abs(p.imag).max()
    if resid > tol_im:
        raise ComplexBandError(
            f"PT phase fix leaves max|Im pi_j| = {resid:.3e} > {tol_im:.1e}"
        )
    return replace(mode, p_coeffs=p, pstar_coeffs=mode.pstar_coeffs * phase)
