"""Toolkit for the two-user cross-phase-impaired fiber interference link:
perturbation coefficients, channel simulation, rate upper/lower bounds,
rate-region geometry and Monte-Carlo inequality checks. A public name
imports its submodule at first use (PEP 562): the package loads no numpy."""

import importlib

__version__ = "0.1.0"

_EXPORTS = {name: module for module, names in (
    ("bounds", "BoundSet EffectiveCoefficient awgn_capacity evaluate_bounds "
               "fit_cubic_interference fit_effective_coefficient ian_rate "
               "interference_variance_mc outer_bound_sum outer_bound_u1 "
               "outer_bound_u2 sweep"),
    ("channel", "SampleBatch full_channel real_imag_decompose sample_cscg "
                "simulate_batch spawn_seeds"),
    ("coefficients", "CoeffTensor coefficient_tensor"),
    ("config", "LinkParams NoiseParams PowerPair ase_noise_variance "
               "dbm_to_watts effective_length load_config"),
    ("errors", "BoundDomainError ConfigError GridError NumericalError "
               "QuadratureError SampleBudgetError ToolkitError"),
    ("pulses", "PulseShape"),
    ("regions", "Region2D build_region dominant_face_midpoint excess_area"),
    ("verify", "CheckReport det_trace_check joint_covariance_check "
               "moment_identity_check run_suite single_user_covariance_check"),
) for name in names.split()}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    return getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
