"""Periodic truncation of the real line, commensurate with the 2pi lattice."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError

TWO_PI = 2.0 * np.pi
POINTS_PER_CELL = 32     # RealLineGrid's coarsest resolution, and grid_for_envelope's
TAIL_DECAY = 20.0        # grid_for_envelope's eps*L/width


@dataclass(frozen=True)
class RealLineGrid:
    """Uniform periodic grid on [-L, L) with L an integer multiple of 2pi.

    Periodic identification keeps the lattice potential exactly periodic
    across the seam and makes Fourier differentiation and the discrete
    H^s norm exact for grid-resolved fields.  x = 0 sits at index
    n_points // 2.
    """

    half_length: float
    n_points: int

    def __post_init__(self):
        M = self.half_length / TWO_PI
        if abs(M - round(M)) > 1e-9 or round(M) < 1:
            raise GridError(f"half length {self.half_length} is not a positive multiple of 2pi")
        if self.n_points < 2 or self.n_points % 2:
            raise GridError("n_points must be even")
        if self.spacing > TWO_PI / POINTS_PER_CELL + 1e-12:
            raise GridError(
                f"grid spacing {self.spacing:.4f} exceeds 2pi/{POINTS_PER_CELL}; "
                f"need at least {self.min_points()} points"
            )

    @property
    def cells(self):
        """Number of 2pi cells in [-L, L)."""
        return 2 * int(round(self.half_length / TWO_PI))

    @property
    def spacing(self):
        return 2 * self.half_length / self.n_points

    def min_points(self):
        return POINTS_PER_CELL * self.cells

    @cached_property
    def x(self):
        return -self.half_length + self.spacing * np.arange(self.n_points)

    @cached_property
    def frequencies(self):
        """Fourier frequencies xi matching numpy's fft layout."""
        return TWO_PI * np.fft.fftfreq(self.n_points, d=self.spacing)

    @cached_property
    def mirror(self):
        """Index map n -> index of -x_n under periodic identification."""
        return (self.n_points - np.arange(self.n_points)) % self.n_points

    def l2_norm(self, f):
        """Discrete L2(R) norm (trapezoid = Riemann sum on a periodic grid)."""
        return float(np.sqrt(self.spacing * np.sum(np.abs(f) ** 2)))

    def second_derivative(self, f):
        return np.fft.ifft(-self.frequencies**2 * np.fft.fft(f))


def grid_for_envelope(eps: float, width: float) -> RealLineGrid:
    """Smallest commensurate grid resolving a sech(eps*x/width) envelope.

    The half length satisfies eps*L/width >= TAIL_DECAY, so the envelope
    tail at the boundary is below e^{-TAIL_DECAY} (~2e-9), comfortably
    under the 1e-6 budget for every eps.
    """
    if eps <= 0:
        raise GridError("eps must be positive")
    M = max(1, int(np.ceil(TAIL_DECAY * width / (TWO_PI * eps))))
    return RealLineGrid(half_length=TWO_PI * M, n_points=2 * M * POINTS_PER_CELL)
