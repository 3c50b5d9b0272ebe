"""2pi-periodic complex potentials as sparse complex-exponential Fourier series.

A potential is stored as a map j -> c_j with V(x) = sum_j c_j e^{ijx}.
PT-symmetry V(-x) = conj(V(x)) is equivalent to every c_j being real,
which is the invariant all downstream reality statements rest on.
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError
from .util import is_int, is_real


class Convention(Enum):
    """Normalization of the (U, W) Fourier series.

    PROP2_SINE:    U(x) = sum_j a_j cos(jx),   W(x) = sum_j b_j sin(jx)
    PROP3_DOUBLED: U(x) = 2 sum_j a_j cos(jx), W(x) = 2 sum_j b_j sin(jx)

    Two normalizations exist in the source material; keeping them as an
    explicit enum avoids silent factor-of-2 bugs.
    """

    PROP2_SINE = "prop2"
    PROP3_DOUBLED = "prop3"


@dataclass(frozen=True, slots=True)
class PotentialParts:
    """Real building blocks of V = U + i*gamma*W with U even, W odd.

    cosine_coeffs[j-1] is the coefficient of cos(jx) in U (up to the
    convention factor), sine_coeffs[j-1] that of sin(jx) in W.
    """

    cosine_coeffs: tuple = ()
    sine_coeffs: tuple = ()
    gamma: float = 0.0
    convention: Convention = Convention.PROP2_SINE

    def __post_init__(self):
        object.__setattr__(self, "cosine_coeffs", tuple(float(a) for a in self.cosine_coeffs))
        object.__setattr__(self, "sine_coeffs", tuple(float(b) for b in self.sine_coeffs))
        if not all(np.isfinite(self.cosine_coeffs)) or not all(np.isfinite(self.sine_coeffs)):
            raise ConfigError("potential coefficients must be finite")
        if not np.isfinite(self.gamma):
            raise ConfigError("gamma must be finite")


@dataclass(frozen=True, slots=True)
class PeriodicPotential:
    """Sparse exponential Fourier coefficients of a 2pi-periodic potential."""

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {int(j): complex(c) for j, c in self.coeffs.items() if c != 0}
        if any(not np.isfinite(c.real) or not np.isfinite(c.imag) for c in clean.values()):
            raise ConfigError("potential coefficients must be finite")
        object.__setattr__(self, "coeffs", clean)

    @property
    def max_harmonic(self):
        """Largest |j| with a nonzero coefficient (0 for the zero potential)."""
        return max((abs(j) for j in self.coeffs), default=0)

    def eval(self, x):
        """Evaluate sum_j c_j e^{ijx} at scalar or array x."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for j, c in self.coeffs.items():
            out += c * np.exp(1j * j * x)
        return out if out.shape else complex(out)

    def conjugated(self):
        """Potential with conjugated values, conj(V(x)); coefficients conj(c_{-j})."""
        return PeriodicPotential({-j: np.conj(c) for j, c in self.coeffs.items()})


def constant(value):
    """Constant potential V(x) = value."""
    return PeriodicPotential({0: complex(value)} if value != 0 else {})


def from_parts(parts: PotentialParts) -> PeriodicPotential:
    """Assemble V = U + i*gamma*W from its even/odd real parts.

    cos(jx) contributes (c/2) to c_{+-j}; i*gamma*sin(jx) contributes
    +-(gamma/2) to c_{+-j}.  Both are real, so the result is PT-symmetric
    by construction.  The convention factor (1 or 2) is applied exactly
    once here.
    """
    fac = 2.0 if parts.convention is Convention.PROP3_DOUBLED else 1.0
    coeffs = {}
    for j, a in enumerate(parts.cosine_coeffs, start=1):
        coeffs[j] = coeffs.get(j, 0.0) + fac * a / 2.0
        coeffs[-j] = coeffs.get(-j, 0.0) + fac * a / 2.0
    for j, b in enumerate(parts.sine_coeffs, start=1):
        coeffs[j] = coeffs.get(j, 0.0) + fac * parts.gamma * b / 2.0
        coeffs[-j] = coeffs.get(-j, 0.0) - fac * parts.gamma * b / 2.0
    return PeriodicPotential(coeffs)


def to_parts(p: PeriodicPotential, convention=Convention.PROP2_SINE, gamma=1.0) -> PotentialParts:
    """Inverse of from_parts for PT-symmetric potentials (real coefficients).

    gamma must be the perturbation strength the potential was built with;
    it cannot be recovered from the coefficients alone (only the product
    gamma*b_j is).
    """
    if not validate_pt(p, 1e-12):
        raise ConfigError("only PT-symmetric potentials decompose into real (U, W) parts")
    if gamma == 0:
        raise ConfigError("gamma = 0 leaves the sine part undetermined")
    fac = 2.0 if convention is Convention.PROP3_DOUBLED else 1.0
    if 0 in p.coeffs:
        raise ConfigError("constant offset does not fit the (U, W) decomposition")
    jmax = p.max_harmonic
    cos = np.zeros(jmax)
    sin = np.zeros(jmax)
    for j in range(1, jmax + 1):
        cp = complex(p.coeffs.get(j, 0.0)).real
        cm = complex(p.coeffs.get(-j, 0.0)).real
        cos[j - 1] = (cp + cm) / fac
        sin[j - 1] = (cp - cm) / (fac * gamma)
    return PotentialParts(tuple(cos), tuple(sin), gamma, convention)


def validate_pt(p: PeriodicPotential, tol: float) -> bool:
    """True iff max_j |Im c_j| <= tol, i.e. V(-x) = conj(V(x)) up to tol."""
    if not p.coeffs:
        return True
    return max(abs(c.imag) for c in p.coeffs.values()) <= tol


# ---------------------------------------------------------------------------
# JSON interchange:  {"cosine": [...], "sine": [...], "gamma": g,
#                     "convention": "prop2"|"prop3"}
# or                 {"exp_coeffs": [[j, re, im], ...]}

def parts_from_json(obj) -> PotentialParts:
    if not isinstance(obj, dict):
        raise ConfigError("potential spec must be an object")
    unknown = set(obj) - {"cosine", "sine", "gamma", "convention"}
    if unknown:
        raise ConfigError(f"unknown potential keys: {sorted(unknown)}")
    try:
        conv = Convention(obj.get("convention", "prop2"))
    except ValueError:
        raise ConfigError(f"unknown convention {obj.get('convention')!r}") from None
    cos, sin, gamma = obj.get("cosine", []), obj.get("sine", []), obj.get("gamma", 0.0)
    if not all(isinstance(v, list) and all(map(is_real, v)) for v in (cos, sin)):
        raise ConfigError("cosine and sine must be lists of finite numbers")
    if not is_real(gamma):
        raise ConfigError(f"gamma must be a finite number, got {gamma!r}")
    return PotentialParts(tuple(cos), tuple(sin), gamma, conv)


def potential_from_json(obj) -> PeriodicPotential:
    """Build a potential from either JSON form."""
    if not (isinstance(obj, dict) and "exp_coeffs" in obj):
        return from_parts(parts_from_json(obj))
    if set(obj) != {"exp_coeffs"}:
        raise ConfigError("exp_coeffs form takes no other keys")
    rows = obj["exp_coeffs"]
    if not (isinstance(rows, list) and all(
            isinstance(r, list) and len(r) == 3 and is_int(r[0]) and is_real(r[1])
            and is_real(r[2]) for r in rows)):
        raise ConfigError("exp_coeffs must be a list of [j, re, im]: integer j, finite re, im")
    coeffs = {}
    for j, re, im in rows:
        coeffs[j] = coeffs.get(j, 0.0) + complex(re, im)
    return PeriodicPotential(coeffs)
