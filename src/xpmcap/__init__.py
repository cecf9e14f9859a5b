"""Toolkit for the two-user cross-phase-impaired fiber interference link:
perturbation coefficients, channel simulation, rate upper/lower bounds,
rate-region geometry and Monte-Carlo inequality checks."""

__version__ = "0.1.0"

from .bounds import (BoundSet, EffectiveCoefficient, awgn_capacity,
                     evaluate_bounds, fit_cubic_interference,
                     fit_effective_coefficient, ian_rate,
                     interference_variance, interference_variance_mc,
                     outer_bound_sum, outer_bound_u1, outer_bound_u2, sweep)
from .channel import (SampleBatch, full_channel, real_imag_decompose,
                      sample_cscg, simulate_batch, spawn_seeds)
from .coefficients import CoeffTensor, coefficient_tensor
from .config import (LinkParams, NoiseParams, PowerPair, ase_noise_variance,
                     dbm_to_watts, effective_length, load_config)
from .errors import (BoundDomainError, ConfigError, GridError,
                     NoDominantFaceError, NumericalError, QuadratureError,
                     SampleBudgetError, ToolkitError)
from .pulses import PulseShape
from .regions import (Region2D, build_region, dominant_face_midpoint,
                      excess_area, intersect)
from .verify import (CheckReport, det_trace_check, joint_covariance_check,
                     moment_identity_check, run_suite,
                     single_user_covariance_check)

__all__ = [
    "__version__",
    "BoundSet", "EffectiveCoefficient", "awgn_capacity", "evaluate_bounds",
    "fit_cubic_interference", "fit_effective_coefficient", "ian_rate",
    "interference_variance", "interference_variance_mc", "outer_bound_sum",
    "outer_bound_u1", "outer_bound_u2", "sweep",
    "SampleBatch", "full_channel", "real_imag_decompose", "sample_cscg",
    "simulate_batch", "spawn_seeds",
    "CoeffTensor", "coefficient_tensor",
    "LinkParams", "NoiseParams", "PowerPair", "ase_noise_variance",
    "dbm_to_watts", "effective_length", "load_config",
    "BoundDomainError", "ConfigError", "GridError", "NoDominantFaceError",
    "NumericalError", "QuadratureError", "SampleBudgetError", "ToolkitError",
    "PulseShape",
    "Region2D", "build_region", "dominant_face_midpoint", "excess_area",
    "intersect",
    "CheckReport", "det_trace_check", "joint_covariance_check",
    "moment_identity_check", "run_suite", "single_user_covariance_check",
]
