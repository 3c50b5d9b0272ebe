"""Fourier-Galerkin matrices of the Bloch operator L(k) = -(d/dx + ik)^2 + V.

In the basis e^{ijx}, j = -J..J (this ordering is fixed; all eigenvector
post-processing depends on it), the operator is the dense matrix

    M[j, l] = (j + k)^2 delta_{jl} + c_{j-l},

exact for trigonometric potentials and spectrally convergent otherwise.
For PT-symmetric potentials every entry is real, so the spectrum is
closed under complex conjugation.  For every potential
M(-k) = R M(k)^T R with R the reversal j -> -j, so one decomposition per
|k| serves both signs (see bands.compute_bands).  The adjoint
L*(k) = -(d/dx + ik)^2 + conj(V) is M(k)^H; its eigenvectors are the left
eigenvectors of M(k) and are never assembled separately.
Every matrix is built by assemble_stack, as a stack over k: one k is a
stack of one.
"""

import numpy as np

from .errors import ConfigError
from .potential import PeriodicPotential
from .util import require_indexable


def assemble_stack(p: PeriodicPotential, ks, J: int) -> np.ndarray:
    """Galerkin matrices of L(k) with basis e^{ijx}, |j| <= J, for every k in
    ks, as one (len(ks), 2J+1, 2J+1) array; one k is a stack of one.  The
    Toeplitz part T[j, l] = c_{j-l}, multiplication by p dropping products
    that leave |j| <= J, is built once.  The array is real when every
    coefficient of p is."""
    ks = np.asarray(ks, dtype=float)
    if np.abs(ks).max() > 0.5 + 1e-12:
        raise ConfigError(f"quasimomentum k={np.abs(ks).max()} outside [-1/2, 1/2]")
    # accuracy wants J comfortably above the potential bandwidth; truncating
    # potential harmonics outright is an error
    if J < max(1, p.max_harmonic):
        raise ConfigError(
            f"truncation J={J} drops potential harmonics (max harmonic "
            f"{p.max_harmonic})"
        )
    n = 2 * J + 1
    require_indexable(len(ks) * n * n, 16, f"the Galerkin matrices at J = {J}")
    T = np.zeros((n, n), dtype=complex)
    for q, c in p.coeffs.items():
        # entry (j, l) gets c_q whenever j - l = q
        lo, hi = max(-J, -J + q), min(J, J + q)
        rows = np.arange(lo, hi + 1) + J
        T[rows, rows - q] += c
    if not T.imag.any():
        T = T.real
    M = np.repeat(T[None], len(ks), axis=0)
    M.reshape(len(ks), n * n)[:, ::n + 1] += (np.arange(-J, J + 1) + ks[:, None]) ** 2
    return M
