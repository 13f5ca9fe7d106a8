"""Exception types shared across the package, and the one lambda check."""


class FraclsqError(Exception):
    """Base class for all package errors."""


class DomainError(FraclsqError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConvergenceError(FraclsqError, RuntimeError):
    """An iterative computation hit its budget without converging."""


class DegeneracyError(FraclsqError, RuntimeError):
    """A squared norm collapsed while building an orthogonal basis.

    ``index`` names the first basis index that broke down.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class RankDeficiencyError(DegeneracyError):
    """Too few data points for the requested basis size."""


class ConditioningError(FraclsqError, RuntimeError):
    """A linear system could not be solved reliably.

    ``cond`` carries the condition estimate of the offending matrix.
    """

    def __init__(self, message, cond=float("inf")):
        super().__init__(message)
        self.cond = cond


class UsageError(FraclsqError, ValueError):
    """Inconsistent combination of arguments (e.g. mode mismatch)."""


def check_lambda(lam):
    """Raise DomainError unless the ladder step ``lam`` lies in (0, 2]."""
    if not 0 < lam <= 2:
        raise DomainError(f"lambda must lie in (0, 2], got {lam}")
