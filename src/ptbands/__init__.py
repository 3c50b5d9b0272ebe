"""Bloch bands, band-edge envelopes, gap solitons and Dirac-point splitting
for one-dimensional PT-symmetric periodic Schroedinger operators."""

from .bands import (BandEdge, BandEdgeReport, BandStructure, check_assumption,
                    compute_bands, curvature_from_fit, edge_curvature, second_derivative)
from .dirac import (DiracPoint, SplittingPrediction, find_dirac_points, mw_matrix,
                    measure_splitting, predict_splitting, prop3_scan, splitting_slope)
from .discretize import BlochOperatorMatrix, assemble
from .effective import (EffectiveModel, SechEnvelope, build_ansatz,
                        envelope_residual, extract_effective_model,
                        gamma_coefficient, sech_envelope)
from .eigen import (BlochMode, Spectrum, classify, eigenvalues, fix_pt_phase,
                    make_mode, solve)
from .errors import (AssumptionError, ClassificationError, ComplexBandError,
                     ConfigError, DegenerateEigenvalueError, ExistenceError,
                     GridError, NewtonError, PTBandsError, PTSymmetryError)
from .gpsolve import (BoundState, ConvergenceStudy, convergence_study,
                      gp_residual, hs_norm, newton_solve)
from .grid import RealLineGrid, grid_for_envelope
from .potential import (Convention, PeriodicPotential, PotentialParts, constant,
                        from_parts, potential_from_json, to_parts, validate_pt)

__version__ = "0.1.0"
