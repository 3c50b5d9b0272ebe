"""Bloch bands, band-edge envelopes, gap solitons and Dirac-point splitting
for one-dimensional PT-symmetric periodic Schroedinger operators.

`import ptbands` loads no submodule: each name below is read from its home
module at first use (PEP 562), so `ptbands.compute_bands` loads `bands` and
what it imports, and nothing else.
"""

import importlib

_EXPORTS = {
    "bands": ("BandEdge", "BandEdgeReport", "BandStructure", "check_assumption",
              "compute_bands", "edge_curvature", "second_derivative"),
    "dirac": ("DiracPoint", "SplittingPrediction", "find_dirac_points", "mw_matrix",
              "measure_splitting", "predict_splitting", "prop3_scan", "richardson_slope",
              "splitting_slope"),
    "effective": ("EffectiveModel", "SechEnvelope", "build_ansatz", "extract_effective_model",
                  "gamma_coefficient", "sech_envelope"),
    "eigen": ("BlochMode", "Spectrum", "eigenvalues", "fix_pt_phase", "make_mode"),
    "errors": ("AssumptionError", "ClassificationError", "ComplexBandError", "ConfigError",
               "DegenerateEigenvalueError", "ExistenceError", "GridError", "NewtonError",
               "PTBandsError", "PTSymmetryError", "TruncationError"),
    "gpsolve": ("ConvergenceStudy", "convergence_study", "hs_norm", "newton_solve"),
    "grid": ("BoundState", "RealLineGrid", "grid_for_envelope"),
    "potential": ("Convention", "PeriodicPotential", "PotentialParts", "constant",
                  "from_parts", "potential_from_json", "validate_pt"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"discretize", "util"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME) | _SUBMODULES)
