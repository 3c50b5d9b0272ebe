"""Fourier-Galerkin matrices of the Bloch operator L(k) = -(d/dx + ik)^2 + V.

In the basis e^{ijx}, j = -J..J (this ordering is fixed; all eigenvector
post-processing depends on it), the operator is the dense matrix

    M[j, l] = (j + k)^2 delta_{jl} + c_{j-l},

exact for trigonometric potentials and spectrally convergent otherwise.
For PT-symmetric potentials every entry is real, so the spectrum is
closed under complex conjugation.  For every potential
M(-k) = R M(k)^T R with R the reversal j -> -j, so one decomposition per
|k| serves both signs (see eigen.Spectrum.mirrored).  The adjoint
L*(k) = -(d/dx + ik)^2 + conj(V) is M(k)^H; its eigenvectors are the left
eigenvectors of M(k) and are never assembled separately.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .potential import PeriodicPotential


@dataclass(frozen=True, slots=True)
class BlochOperatorMatrix:
    """Dense Galerkin matrix of L(k) at quasimomentum k."""

    k: float
    J: int
    entries: np.ndarray

    def norm(self):
        """Infinity norm, used as the scale in simplicity thresholds."""
        return np.linalg.norm(self.entries, np.inf)

    def block(self, J):
        """The leading block M_J: rows and columns |j| <= J, the same entries
        bit for bit as assemble(p, k, J)."""
        if J == self.J:
            return self
        inner = slice(self.J - J, self.J + J + 1)
        return BlochOperatorMatrix(k=self.k, J=J, entries=self.entries[inner, inner])


def _check_args(p: PeriodicPotential, k: float, J: int):
    if abs(k) > 0.5 + 1e-12:
        raise ConfigError(f"quasimomentum k={k} outside [-1/2, 1/2]")
    # accuracy wants J comfortably above the potential bandwidth; truncating
    # potential harmonics outright is an error
    if J < max(1, p.max_harmonic):
        raise ConfigError(
            f"truncation J={J} drops potential harmonics (max harmonic "
            f"{p.max_harmonic})"
        )


def potential_matrix(p: PeriodicPotential, J: int) -> np.ndarray:
    """Toeplitz matrix T[j, l] = c_{j-l}: multiplication by p on |j| <= J,
    dropping products that leave the truncated range."""
    n = 2 * J + 1
    T = np.zeros((n, n), dtype=complex)
    for q, c in p.coeffs.items():
        # entry (j, l) gets c_q whenever j - l = q
        lo, hi = max(-J, -J + q), min(J, J + q)
        if lo > hi:
            continue
        rows = np.arange(lo, hi + 1) + J
        T[rows, rows - q] += c
    return T


def assemble(p: PeriodicPotential, k: float, J: int) -> BlochOperatorMatrix:
    """Galerkin matrix of L(k) with basis e^{ijx}, |j| <= J."""
    _check_args(p, k, J)
    M = potential_matrix(p, J)
    M[np.diag_indices(2 * J + 1)] += (np.arange(-J, J + 1) + k) ** 2
    return BlochOperatorMatrix(k=float(k), J=int(J), entries=M)
