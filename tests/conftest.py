import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from ptbands import PotentialParts, from_parts

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the environment of a child Python process that imports ptbands from this tree
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}

# the same examples on every run: property tests are part of tier-1
settings.register_profile("ptbands", derandomize=True, deadline=None)
settings.load_profile("ptbands")


def two_harmonic_parts(gamma):
    """V = 2cos x + cos 2x + i*gamma*sin 2x."""
    return PotentialParts(cosine_coeffs=(2.0, 1.0), sine_coeffs=(0.0, 1.0), gamma=gamma)


def two_harmonic_potential(gamma):
    return from_parts(two_harmonic_parts(gamma))


def every_column(w):
    """solve() pick that asks for the left vector of every eigenvalue."""
    return slice(None)


def gentle_parts(gamma=0.5):
    """V = cos x + i*gamma*sin x: a shallow PT lattice with a clean lowest band."""
    return PotentialParts(cosine_coeffs=(1.0,), sine_coeffs=(1.0,), gamma=gamma)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
