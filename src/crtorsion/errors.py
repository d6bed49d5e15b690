"""Exception and warning types shared across the package."""

from __future__ import annotations


class CrTorsionError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CrTorsionError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularLeadError(CrTorsionError, ZeroDivisionError):
    """Inversion of a truncated series whose leading coefficient vanishes."""


class ArityError(CrTorsionError, ValueError):
    """Mismatched or insufficient number of inputs (samples, coefficients)."""


class ParseError(CrTorsionError, ValueError):
    """A spectrum file row failed validation.

    Carries the 1-based row number of the offending line.
    """

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class EmptyDegreeError(CrTorsionError, LookupError):
    """No nonzero eigenvalue exists in the requested form degree."""


class UnsupportedTailError(CrTorsionError, ValueError):
    """The spectrum's tail policy is not covered by the requested continuation."""


class QuadratureError(CrTorsionError, ArithmeticError):
    """Adaptive quadrature failed to converge within the configured budget.

    The partial estimate accumulated so far is kept in ``partial``.
    """

    def __init__(self, message: str, partial: float = float("nan")):
        super().__init__(message)
        self.partial = partial


class ConvergenceError(CrTorsionError, ArithmeticError):
    """A series continuation did not converge within its fixed term cap."""


class TwoPathMismatchError(CrTorsionError, AssertionError):
    """Heat-kernel and direct zeta evaluations disagree beyond the error budget."""


class IllConditionedWarning(UserWarning):
    """The least-squares design matrix is ill conditioned; results attached anyway."""
