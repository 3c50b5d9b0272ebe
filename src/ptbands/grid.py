"""Periodic truncation of the real line, commensurate with the 2pi lattice, and fields on it."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridError
from .util import require_indexable

TWO_PI = 2.0 * np.pi
POINTS_PER_CELL = 32     # RealLineGrid's coarsest resolution, and grid_for_envelope's
TAIL_DECAY = 20.0        # grid_for_envelope's eps*L/width


@dataclass(frozen=True)
class RealLineGrid:
    """Uniform periodic grid on [-L, L) with L an integer multiple of 2pi.

    Periodic identification keeps the lattice potential exactly periodic
    across the seam and makes Fourier differentiation and the discrete
    H^s norm exact for grid-resolved fields.  x = 0 sits at index
    n_points // 2.  The cells, an even number, hold equal numbers of points.
    """

    half_length: float
    n_points: int

    def __post_init__(self):
        M = self.half_length / TWO_PI
        if abs(M - round(M)) > 1e-9 or round(M) < 1:
            raise GridError(f"half length {self.half_length} is not a positive multiple of 2pi")
        if self.n_points < 2 or self.n_points % self.cells:
            raise GridError(f"{self.n_points} points do not split into {self.cells} equal cells")
        if self.spacing > TWO_PI / POINTS_PER_CELL + 1e-12:
            raise GridError(
                f"grid spacing {self.spacing:.4f} exceeds 2pi/{POINTS_PER_CELL}; "
                f"need at least {POINTS_PER_CELL * self.cells} points"
            )

    @property
    def cells(self):
        """Number of 2pi cells in [-L, L)."""
        return 2 * int(round(self.half_length / TWO_PI))

    @property
    def spacing(self):
        return 2 * self.half_length / self.n_points

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

    def pt_defect(self, u):
        """PT defect max |conj(u(-x)) - u(x)| of a grid field u."""
        return float(np.abs(np.conj(u[self.mirror]) - u).max())


@dataclass(frozen=True)
class BoundState:
    """A complex field on a RealLineGrid with solve diagnostics.

    residual_norm is the L2 norm of the GP residual (None for a bare
    ansatz that has not been solved); residual_history holds the Newton
    residuals including the final one, and matvecs the Jacobian actions of
    each Newton step's GMRES solve.
    """

    values: np.ndarray
    eps: float
    omega: float
    grid: RealLineGrid
    residual_norm: float = None
    newton_iters: int = None
    residual_history: tuple = ()
    matvecs: tuple = ()

    def pt_defect(self):
        """max |conj(u(-x)) - u(x)| over the grid (RealLineGrid.pt_defect)."""
        return self.grid.pt_defect(self.values)


def grid_for_envelope(eps: float, width: float) -> RealLineGrid:
    """Smallest commensurate grid resolving a sech(eps*x/width) envelope.

    The half length satisfies eps*L/width >= TAIL_DECAY, so the envelope
    tail at the boundary is below e^{-TAIL_DECAY} (~2e-9), comfortably
    under the 1e-6 budget for every eps.
    """
    if eps <= 0:
        raise GridError("eps must be positive")
    half_cells = TAIL_DECAY * width / (TWO_PI * eps)     # inf for the smallest eps
    require_indexable(2 * half_cells * POINTS_PER_CELL, 16, f"a field on the grid for eps = {eps}")
    M = max(1, int(np.ceil(half_cells)))
    return RealLineGrid(half_length=TWO_PI * M, n_points=2 * M * POINTS_PER_CELL)
