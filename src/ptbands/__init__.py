"""Bloch bands, band-edge envelopes, gap solitons and Dirac-point splitting
for one-dimensional PT-symmetric periodic Schroedinger operators."""

from .bands import (BandEdge, BandEdgeReport, BandStructure, check_assumption,
                    compute_bands, edge_curvature, second_derivative)
from .dirac import (DiracPoint, SplittingPrediction, find_dirac_points, mw_matrix,
                    measure_splitting, predict_splitting, prop3_scan, richardson_slope,
                    splitting_slope)
from .effective import (EffectiveModel, SechEnvelope, build_ansatz,
                        extract_effective_model, gamma_coefficient, sech_envelope)
from .eigen import BlochMode, Spectrum, eigenvalues, fix_pt_phase, make_mode
from .errors import (AssumptionError, ClassificationError, ComplexBandError,
                     ConfigError, DegenerateEigenvalueError, ExistenceError,
                     GridError, NewtonError, PTBandsError, PTSymmetryError,
                     TruncationError)
from .gpsolve import (ConvergenceStudy, convergence_study, gp_residual, hs_norm,
                      newton_solve)
from .grid import BoundState, RealLineGrid, grid_for_envelope
from .potential import (Convention, PeriodicPotential, PotentialParts, constant,
                        from_parts, potential_from_json, validate_pt)

__version__ = "0.1.0"
