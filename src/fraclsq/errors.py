"""Exception types shared across the package, and the boundary checks.

One check per argument kind, so every entry point rejects bad input with
the same `DomainError` and no copy can drift:

* :func:`check_lambda` -- the ladder step lam in (0, 2];
* :func:`check_integer` -- counts, seeds and sizes (numpy integers pass,
  floats do not, even integral ones);
* :func:`check_degree` -- a ladder degree n, an integer in [least, limit];
* :func:`check_abscissae` -- points where x^lam is taken: finite and >= 0;
* :func:`check_weights` -- data and inner-product weights: finite and > 0.

The array checks take the caller's noun for their messages and cost one
fused pass over valid input; which condition failed is worked out only
after a failure.
"""

import operator

import numpy as np


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


def check_integer(value, noun):
    """``value`` as a Python int; floats (even integral ones) are rejected."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{noun} must be an integer, got {value!r}") from None


def check_degree(n, limit=None, *, least=0, noun="degree index"):
    """``n`` as a Python int in [least, limit] (no upper limit when None).

    Anything else -- a float, even an integral one, a string, a value out
    of range -- raises one DomainError that states the whole rule.
    """
    try:
        k = operator.index(n)
    except TypeError:
        k = None
    if k is None or k < least or (limit is not None and k > limit):
        rule = f">= {least}" if limit is None else f"in [{least}, {limit}]"
        raise DomainError(f"{noun} must be an integer {rule}, got {n!r}")
    return k


def check_abscissae(x, noun):
    """Raise DomainError unless every entry of the float array ``x`` is
    finite and >= 0, naming ``noun`` and the condition that failed."""
    if not np.all(np.isfinite(x) & (x >= 0)):
        if not np.all(np.isfinite(x)):
            raise DomainError(f"{noun} must be finite")
        raise DomainError(f"{noun} must be finite and >= 0, got {np.min(x)}")


def check_weights(w, noun):
    """Raise DomainError unless every entry of the float array ``w`` is
    finite and > 0, naming ``noun``."""
    if not np.all(np.isfinite(w) & (w > 0)):
        raise DomainError(f"{noun} must be finite and strictly positive")
