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

decompose() is the one decomposition: of a stack of matrices at once,
every right vector and, for the columns a caller picks, the left
vector too.  The right vectors come from one call of
numpy's LAPACK eigensolver for the whole stack (eigh when the stack is
exactly Hermitian, which makes left = right).  Each picked left vector is
the matching row of the inverse of the right-vector matrix, biorthogonal to
every other right vector, from one batched solve for the stack; a row whose
residual the conditioning of that matrix has spoilt is replaced by one
shifted inverse-iteration step on M^H from its right vector, block by block
and only in the blocks that need it (_left_vectors).  Because
M(-k) = R M(k)^T R with R the reversal j -> -j, the decomposition at -k is
the reflected one at k: the same eigenvalues, right vectors R conj(l) and
left vectors R conj(r), which is how bands.compute_bands fills -k.  This is
the reflection identity p*(x, k) = p(-x, -k) in coefficient form.
eigenvalues() serves callers that read no vectors.  The module needs numpy only.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import ComplexBandError, DegenerateEigenvalueError, PTBandsError

TWO_PI = 2.0 * np.pi

_EPS = np.finfo(float).eps

# omega counts as real when |Im omega| <= REALITY_TOL max(1, |omega|); so does
# each coefficient of a PT-phase-fixed mode, all of them below 1 in size
REALITY_TOL = 1e-8
# an eigenvalue of condition ||l|| ||r|| / |l^H r| above this is near-exceptional
CONDITION_MAX = 1e8


@dataclass(frozen=True, slots=True)
class Spectrum:
    """All eigenpairs of one Bloch operator matrix.

    eigenvalues are sorted ascending by real part (ties by imaginary
    part); right_vectors[:, i] is the unit-2-norm eigenvector of
    eigenvalues[i] in the e^{ijx} coefficient basis, j = -J..J, and
    left_vectors[:, i] the unit-2-norm left eigenvector
    (l^H M = omega l^H, i.e. M^H l = conj(omega) l) in the columns
    decompose() was asked to pick, NaN in the others; left_vectors is None
    when it picked none.
    """

    k: float
    J: int
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray = None

    def left(self, index):
        """left_vectors[:, index]; PTBandsError when decompose() did not pick it."""
        l = None if self.left_vectors is None else self.left_vectors[:, index]
        if l is None or np.isnan(l[0]):
            raise PTBandsError(f"no left vector in column {index} at k={self.k}: "
                               "decompose() did not pick it")
        return l

    def gap(self, index):
        """Distance from eigenvalues[index] to the nearest other eigenvalue."""
        d = np.abs(self.eigenvalues - self.eigenvalues[index])
        d[index] = np.inf
        return d.min()

    def is_degenerate(self, index):
        """gap(index) <= 1e-6 max(1, |omega|), a scale free of the truncation."""
        return self.gap(index) <= 1e-6 * max(1.0, abs(self.eigenvalues[index]))


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


def gauge(v, angle=0.0):
    """Unit factor that rotates the largest-|.| coefficient of v onto angle
    (deterministic, and well conditioned since that coefficient is large)."""
    jstar = int(np.argmax(np.abs(v)))
    return np.exp(1j * (angle - np.angle(v[jstar])))


def inner(u_coeffs, v_coeffs):
    """Cell inner product <u, v> = int_0^{2pi} u conj(v) dx in coefficients."""
    return TWO_PI * np.sum(u_coeffs * np.conj(v_coeffs))


def decompose(A, pick=None):
    """Eigendecompositions of every matrix of a stack A (m, n, n) at once
    (a stack of one for a single matrix).

    Returns the eigenvalues (m, n), each row sorted ascending by real part
    (ties by imaginary part), the unit right vectors (m, n, n), and the
    unit left vectors (m, n, n) in the columns pick(eigenvalues) selects in
    every row (an index array or slice), NaN in the others, or None without
    pick.  A real A (assemble_stack's for a PT potential) takes LAPACK's real
    path, with exact conjugate pairs.  An exactly Hermitian stack takes eigh,
    whose left vectors are the right ones.  A LAPACK failure raises LinAlgError.
    """
    first = A[0]
    # exactly Hermitian: the first row and column settle most non-Hermitian stacks
    if (first[:, 0] == first[0].conj()).all() and np.array_equal(A, A.conj().swapaxes(-1, -2)):
        w, right = np.linalg.eigh(A)        # ascending, left = right
        left = None if pick is None else right
    else:
        w, right = np.linalg.eig(A)
        order = np.argsort(w, axis=-1, kind="stable")     # by real part, ties by imaginary
        at = (np.arange(len(A))[:, None], order)
        # each block's right vectors come out column-major, as from one eig
        w, right = w[at], right.swapaxes(-1, -2)[at].swapaxes(-1, -2)
        left = None if pick is None else _left_vectors(A, w, right, pick(w))
    return w.astype(complex, copy=False), right, left


def _left_vectors(A, w, right, cols):
    """Unit left vectors in columns cols, NaN in the others, of every matrix
    of a stack A (m, n, n) at once.

    Column i is the conjugate of row i of R^{-1} (R the right vectors): the left
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
    eigenvalue) raises LinAlgError.  The inverses and residuals of a stack
    come from one batched solve and product; only a matrix whose residuals
    fail the test is looked at on its own.
    """
    n = w.shape[-1]
    # R^H x = e is R^T y = e with y = conj(x), and A^H x = conj(A^T y): no
    # conjugate copy of the stack is made
    y = np.linalg.solve(right.swapaxes(-1, -2), np.eye(n)[:, cols])
    x = y.conj()
    size = np.sqrt(np.einsum("...ij,...ij->...j", y, x).real)
    om = w[..., cols].conj()
    res = _matmul(A.swapaxes(-1, -2), y).conj() - x * om[..., None, :]
    d = _EPS * np.abs(w).max(axis=-1, initial=1.0)
    x = x / size[..., None, :]
    # a column's residual is at most sqrt(n) times its largest entry: most
    # matrices pass without a look at single columns
    err = np.abs(res)
    tol = np.sqrt(n) * d * size.min(axis=-1)
    if err.max() > tol.min():
        # the matrices one at a time
        for i in np.nonzero(err.max(axis=(1, 2)) > tol)[0]:
            far = np.nonzero(np.linalg.norm(res[i], axis=0) > n * d[i] * size[i])[0]
            gap = np.partition(np.abs(w[i][:, None] - w[i][cols][far]), 1, axis=0)[1]
            far = far[gap > d[i] / np.sqrt(_EPS)]
            if far.size:
                S = np.empty((far.size, n, n), dtype=np.result_type(A, om))
                S[:] = A[i].conj().T
                S.reshape(far.size, n * n)[:, ::n + 1] -= (om[i][far] + d[i])[:, None]
                y = np.linalg.solve(S, right[i][:, cols][:, far].T[:, :, None])[:, :, 0].T
                x = x.astype(np.result_type(x, y), copy=False)
                x[i][:, far] = y / np.linalg.norm(y, axis=0)
    left = np.full(x.shape[:-1] + (n,), np.nan, dtype=complex)
    left[..., cols] = x
    return left


def _matmul(A, x):
    """A @ x.  A real A meets a complex x as the real and imaginary parts of
    x side by side, in one real product and without a complex copy of A."""
    if A.dtype == float and x.dtype == complex:
        x = np.ascontiguousarray(x)
        return (A @ x.view(float)).view(complex)
    return A @ x


def eigenvalues(A) -> np.ndarray:
    """Eigenvalues of one matrix A (n, n) in decompose()'s order, no vectors."""
    try:
        w = np.linalg.eigvals(A).astype(complex)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise PTBandsError(f"eigensolver failed at J={len(A) // 2}: {exc}") from exc
    return w[np.lexsort((w.imag, w.real))]


def make_mode(spec: Spectrum, index: int) -> BlochMode:
    """Biorthonormalized Bloch mode for spec.eigenvalues[index].

    p is the right vector at cell norm 1; p* is the left vector of the
    same decomposition rescaled so <p, p*> = 1.  Refuses a degenerate
    (Spectrum.is_degenerate) or near-exceptional (condition > CONDITION_MAX)
    eigenvalue: there <p, p*> tends to zero and the normalization is unstable.
    """
    omega = spec.eigenvalues[index]
    if spec.is_degenerate(index):
        raise DegenerateEigenvalueError(
            f"eigenvalue {omega} within {spec.gap(index):.3e} of another; "
            "mode construction refused"
        )
    v = spec.right_vectors[:, index].copy()
    v = v / (np.sqrt(TWO_PI) * np.linalg.norm(v))
    v = v * gauge(v)

    w = spec.left(index)
    s = inner(v, w)
    # v has 2-norm 1/sqrt(2 pi) and w 2-norm 1: the condition is sqrt(2 pi)/|s|
    if abs(s) * CONDITION_MAX < np.sqrt(TWO_PI):
        raise DegenerateEigenvalueError(
            f"biorthogonal pairing <p, p*> = {s:.3e} at omega={omega}: condition "
            f"above {CONDITION_MAX:.0e}, too close to an exceptional point"
        )
    w = w / np.conj(s)
    return BlochMode(k=spec.k, omega=omega, p_coeffs=v, pstar_coeffs=w)


def fix_pt_phase(mode: BlochMode) -> BlochMode:
    """Rotate a real-eigenvalue mode (REALITY_TOL) onto its PT-symmetric phase.

    The rotation is gauge(p): the largest-|.| coefficient becomes real
    positive.  After the rotation all
    coefficients of a genuinely PT-symmetric mode are real; a residual
    imaginary part above REALITY_TOL means the eigenvalue is not simple-real
    and raises.  p* is rotated by the same phase, which preserves
    <p, p*> = 1.
    """
    if abs(mode.omega.imag) > REALITY_TOL * max(1.0, abs(mode.omega)):
        raise ComplexBandError(
            f"cannot PT-fix a mode with Im(omega) = {mode.omega.imag:.3e}"
        )
    phase = gauge(mode.p_coeffs)
    p = mode.p_coeffs * phase
    resid = np.abs(p.imag).max()
    if resid > REALITY_TOL:
        raise ComplexBandError(
            f"PT phase fix leaves max|Im pi_j| = {resid:.3e} > {REALITY_TOL:.1e}"
        )
    return replace(mode, p_coeffs=p, pstar_coeffs=mode.pstar_coeffs * phase)
