"""Exception hierarchy shared across the toolkit.

The CLI maps these onto its exit-code contract: configuration problems
exit 2, numerical failures exit 3, failed verification verdicts exit 1.
"""


class ToolkitError(Exception):
    """Base class for all toolkit-specific errors."""


class ConfigError(ToolkitError):
    """Invalid, unknown or inconsistent configuration input."""


class NumericalError(ToolkitError):
    """A numerical procedure could not produce a trustworthy result."""


class GridError(NumericalError):
    """Coefficient window or its walk-off padding beyond the engine's caps."""


class QuadratureError(NumericalError):
    """Distance quadrature failed its convergence check."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class BoundDomainError(NumericalError):
    """Rate-bound bracket left the domain of the logarithm."""


class NoDominantFaceError(ToolkitError):
    """The region has no sum-rate edge of slope -1."""


class SampleBudgetError(ToolkitError):
    """Monte-Carlo sample count below the minimum for the requested check."""
