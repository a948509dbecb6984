"""The library's one error hierarchy.

Every error the package raises on purpose is a ParameterError (the input
lies outside the domain of a construction) or a ConvergenceError (a
computation did not settle, or its truncation cannot be trusted). The CLI
maps the first to exit code 2 and the second to exit code 1. ParameterError
is also a ValueError, so callers that catch ValueError keep working.
"""


class IntegrableError(Exception):
    """Root of every error the package raises on purpose."""


class ParameterError(IntegrableError, ValueError):
    """Input outside the domain of a construction."""


class ConvergenceError(IntegrableError):
    """A computation did not converge, or its truncation is unreliable."""


class RateOutOfRange(ParameterError):
    """A probability or rate lies outside [0, 1]."""

