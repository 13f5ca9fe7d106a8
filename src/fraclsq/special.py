"""Scalar special functions: the Gamma function and the Mittag-Leffler function.

Everything here is a pure function of its arguments and safe to call
concurrently.
"""

import math
import sys

from .errors import ConvergenceError, DomainError

__all__ = ["gamma", "mittag_leffler"]

#: series term threshold, relative to the running partial sum
_ML_RTOL = 1e-16
#: hard cap on the number of Mittag-Leffler series terms
_ML_MAX_TERMS = 500
#: largest rounding error eps * max|term| accepted, relative to the sum
_ML_CANCELLATION = 1e-8


def gamma(x):
    """Gamma function for positive real arguments.

    Delegates to the C library's Lanczos-style implementation, which is
    accurate to a couple of ulps on (0, 170].  Only the positive axis is
    supported; nothing in this package needs Gamma of a negative argument.
    """
    if not isinstance(x, (int, float)) or not math.isfinite(x):
        raise DomainError(f"gamma: argument must be a finite real, got {x!r}")
    if x <= 0:
        raise DomainError(f"gamma: argument must be positive, got {x}")
    return math.gamma(x)


def mittag_leffler(alpha, z):
    """One-parameter Mittag-Leffler function E_alpha(z) by power series.

    E_alpha(z) = sum_k z^k / Gamma(alpha*k + 1).  Terms are generated
    iteratively through the ratio

        t_{k+1} = t_k * z * Gamma(alpha*k + 1) / Gamma(alpha*(k+1) + 1)

    with the Gamma ratio evaluated in log space, so no intermediate
    overflows for the supported range |z| <= 50.  Summation stops once a
    term drops below 1e-16 of the partial sum; if 500 terms are not
    enough the series is declared non-convergent.  On the negative axis
    the alternating terms can dwarf the sum: when eps * max|term| exceeds
    1e-8 * |sum| the cancellation has eaten the answer and the call raises
    ConvergenceError instead (this never happens for z >= 0).
    """
    if not (alpha > 0) or not math.isfinite(alpha):
        raise DomainError(f"mittag_leffler: alpha must be positive, got {alpha}")
    if not math.isfinite(z):
        raise DomainError(f"mittag_leffler: z must be finite, got {z}")
    if z == 0.0:
        return 1.0

    total = 1.0  # k = 0 term
    term = 1.0
    largest = 1.0
    for k in range(1, _ML_MAX_TERMS + 1):
        ratio = math.exp(math.lgamma(alpha * (k - 1) + 1) - math.lgamma(alpha * k + 1))
        term = term * z * ratio
        total += term
        largest = max(largest, abs(term))
        if not math.isfinite(total):
            raise ConvergenceError(
                f"mittag_leffler: series overflowed at term {k} (alpha={alpha}, z={z})"
            )
        if abs(term) <= _ML_RTOL * abs(total):
            if sys.float_info.epsilon * largest > _ML_CANCELLATION * abs(total):
                raise ConvergenceError(
                    f"mittag_leffler: cancellation in the series (largest term "
                    f"{largest:.3e}, sum {total:.3e}; alpha={alpha}, z={z})"
                )
            return total
    raise ConvergenceError(
        f"mittag_leffler: no convergence within {_ML_MAX_TERMS} terms "
        f"(alpha={alpha}, z={z})"
    )
