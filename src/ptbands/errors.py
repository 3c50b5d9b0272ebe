"""Exception types shared across the package."""


class PTBandsError(Exception):
    """Base class for all errors raised by ptbands."""


class ConfigError(PTBandsError):
    """Malformed or inconsistent run configuration."""


class TruncationError(ConfigError):
    """A truncation in the configuration (the Galerkin J, or a potential's
    list of harmonics) is too short to resolve the requested result."""


class PTSymmetryError(PTBandsError):
    """A PT-symmetry requirement is violated (non-real coefficients,
    residual imaginary part after phase fixing, non-PT initial guess)."""


class DegenerateEigenvalueError(PTBandsError):
    """Eigenvalue too close to another one for a stable mode construction."""


class ClassificationError(PTBandsError):
    """Fewer than two eigenvalues lie near a requested Dirac point."""


class ComplexBandError(PTBandsError):
    """A band value expected to be real has a significant imaginary part."""


class AssumptionError(PTBandsError):
    """The reality/isolation/simplicity check on a band failed."""


class ExistenceError(PTBandsError):
    """The sign condition for a sech bound state of the envelope
    equation is violated."""


class GridError(PTBandsError):
    """Real-line grid does not resolve the lattice cell in whole cells, or the envelope."""


class NewtonError(PTBandsError):
    """Newton iteration failed (divergence or singular Jacobian).

    Attributes
    ----------
    last_residual : float or None
        L2 residual of the last iterate, when available.
    eps : float or None
        Envelope parameter of the failing solve inside a study.
    """

    def __init__(self, message, last_residual=None, eps=None):
        super().__init__(message)
        self.last_residual = last_residual
        self.eps = eps
