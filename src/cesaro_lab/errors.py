"""Shared exception types for domain and horizon failures."""


class HorizonTooSmallError(RuntimeError):
    """A tail-threshold search exhausted its cap at the configured horizon."""


class PhiDomainError(ValueError):
    """An argument fell outside a piecewise-linear function's domain."""
