"""Exception types shared across the package."""

__all__ = ["InfectorError", "ConfigError", "DomainError", "NumericError", "NoDataError",
           "CapExceededError", "OutOfHorizonError"]


class InfectorError(Exception):
    """Common base for all package-specific errors."""


class ConfigError(InfectorError, ValueError):
    """A scenario configuration is structurally unusable."""


class DomainError(InfectorError, ValueError):
    """An operation was called outside its mathematical domain."""


class NumericError(InfectorError, RuntimeError):
    """An iterative numerical procedure failed to converge."""


class NoDataError(InfectorError, RuntimeError):
    """A Monte Carlo aggregation ended up with zero usable replicates."""


class CapExceededError(InfectorError, RuntimeError):
    """A branching run hit its population cap and cannot be used as-is."""


class OutOfHorizonError(InfectorError, ValueError):
    """A query beyond the explored time horizon of a snapshot."""
