"""Fractional polynomials on the monomial ladder {1, x^lam, ..., x^(n*lam)}.

A fractional polynomial is a coefficient vector over that ladder for a fixed
step ``lam`` in (0, 2].  Multiplication by x^lam is an index shift, which is
what makes the three-term recurrences of the orthogonal-basis builder exact
in coefficient space.

Also provides the two evaluation routes for Muntz-Legendre polynomials: the
direct coefficient formula (factorially unstable for large degree, hence
capped) and the Jacobi (0, 1/lam - 1) recurrence over arrays, which fills a
table of rungs 0..n at every point (stable, the default).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_abscissae, check_degree, check_lambda

__all__ = [
    "FractionalPolynomial",
    "frac_poly_eval",
    "muntz_legendre_coeffs",
    "muntz_legendre_eval",
    "muntz_legendre_rungs",
]

#: largest degree index for the direct eta-coefficient construction;
#: beyond this the factorial growth of the coefficients loses all accuracy
MAX_DIRECT_DEGREE = 30


@dataclass(frozen=True)
class FractionalPolynomial:
    """P(x) = sum_i coeffs[i] * x^(i*lam), defined for x >= 0."""

    lam: float
    coeffs: tuple

    def __post_init__(self):
        check_lambda(self.lam)
        if len(self.coeffs) == 0:
            raise DomainError("coefficient sequence must be non-empty")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree_index(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        return frac_poly_eval(self, x)


def _scalar_or_array(v):
    return float(v) if np.ndim(v) == 0 else v


def frac_poly_eval(p, x):
    """Evaluate P(x) = sum_i a_i x^(i*lam) at a scalar or an array of x >= 0."""
    x = np.asarray(x, dtype=float)
    check_abscissae(x, "fractional polynomial abscissae")
    # Horner in u = x^lam; 0^lam = 0 leaves a_0 at x = 0
    return _scalar_or_array(np.polyval(p.coeffs[::-1], x**p.lam))


def muntz_legendre_coeffs(n, lam):
    """Muntz-Legendre polynomial L_n(.; lam) as explicit ladder coefficients.

    coeff[i] = (-1)^(n-i) / (lam^n i! (n-i)!) * prod_{k<n} ((i+k) lam + 1).

    The products grow factorially, so this route is capped at degree 30
    (``MAX_DIRECT_DEGREE``); use :func:`muntz_legendre_eval` for stable
    evaluation at large n.
    """
    n = check_degree(n, MAX_DIRECT_DEGREE)
    check_lambda(lam)
    coeffs = []
    for i in range(n + 1):
        num = 1.0
        for k in range(n):
            num *= (i + k) * lam + 1.0
        den = lam**n
        for j in range(2, i + 1):
            den *= j
        for j in range(2, n - i + 1):
            den *= j
        sign = -1.0 if (n - i) % 2 else 1.0
        coeffs.append(sign * num / den)
    return FractionalPolynomial(lam, tuple(coeffs))


def muntz_legendre_rungs(n, lam, x):
    """Rung table of L_0(x; lam) .. L_n(x; lam) at finite x >= 0: row k holds
    L_k at every x.  L_k(x; lam) = P_k^(0, b)(t), the Jacobi polynomial with
    b = 1/lam - 1 at t = 2 x^lam - 1, so P_0 = 1, P_1 = (-b + (b+2) t) / 2 and
    for k >= 1

        c1_k P_{k+1} = c2_k(t) P_k - c3_k P_{k-1}

    with s = 2k + b, c1_k = 2(k+1)(k+b+1) s, c2_k(t) = (s+1)(s(s+2) t - b^2),
    c3_k = 2k(k+b)(s+2).  Stable where the direct coefficient sum cancels, and
    past x = 1 it extrapolates the polynomials.
    """
    check_lambda(lam)
    x = np.asarray(x, dtype=float)
    check_abscissae(x, "Muntz-Legendre abscissae")
    n = check_degree(n)
    b = 1.0 / lam - 1.0
    t = 2.0 * x**lam - 1.0
    rows = np.empty((n + 1,) + t.shape)
    rows[0] = 1.0
    if n >= 1:
        rows[1] = 0.5 * (-b + (b + 2) * t)
    for k in range(1, n):
        s = 2 * k + b
        c1 = 2 * (k + 1) * (k + b + 1) * s
        c2 = (s + 1) * (s * (s + 2) * t - b * b)
        c3 = 2 * k * (k + b) * (s + 2)
        rows[k + 1] = (c2 * rows[k] - c3 * rows[k - 1]) / c1
    return rows


def muntz_legendre_eval(n, lam, x):
    """Evaluate L_n(x; lam) on [0, 1] through the Jacobi representation."""
    if not np.all(np.asarray(x) <= 1.0):
        raise DomainError(f"Muntz-Legendre polynomials live on [0, 1], got x={x}")
    return _scalar_or_array(muntz_legendre_rungs(n, lam, x)[-1])
