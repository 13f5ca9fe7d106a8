"""Fractional polynomials on the monomial ladder {1, x^lam, ..., x^(n*lam)}.

A fractional polynomial is a coefficient vector over that ladder for a fixed
step ``lam`` in (0, 2].  Multiplication by x^lam is an index shift, which is
what makes the three-term recurrences of the orthogonal-basis builder exact
in coefficient space.

Also provides classical Jacobi polynomials and the two evaluation routes for
Muntz-Legendre polynomials: the direct coefficient formula (factorially
unstable for large degree, hence capped) and the Jacobi recurrence over arrays,
which fills a table of rungs 0..n at every point (stable, the default).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UsageError

__all__ = [
    "FractionalPolynomial",
    "JacobiParams",
    "frac_poly_eval",
    "frac_poly_shift_mul",
    "frac_poly_linear_combine",
    "jacobi_eval",
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
        if not 0.0 < self.lam <= 2.0:
            raise DomainError(f"lambda must lie in (0, 2], got {self.lam}")
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
    if not np.all(np.isfinite(x) & (x >= 0)):
        raise DomainError(f"fractional polynomials take finite x >= 0, got {x}")
    # Horner in u = x^lam; 0^lam = 0 leaves a_0 at x = 0
    return _scalar_or_array(np.polyval(p.coeffs[::-1], x**p.lam))


def frac_poly_shift_mul(p):
    """Multiply by x^lam: shift the coefficient sequence up one index."""
    return FractionalPolynomial(p.lam, (0.0,) + p.coeffs)


def frac_poly_linear_combine(ps, ws):
    """Coefficient-wise weighted sum of polynomials sharing one lambda."""
    if len(ps) != len(ws):
        raise UsageError(f"{len(ps)} polynomials but {len(ws)} weights")
    if not ps:
        raise UsageError("need at least one polynomial to combine")
    lam = ps[0].lam
    for p in ps:
        if p.lam != lam:
            raise UsageError(f"mixed lambda values {lam} and {p.lam}")
    size = max(len(p.coeffs) for p in ps)
    out = [0.0] * size
    for p, w in zip(ps, ws):
        for i, c in enumerate(p.coeffs):
            out[i] += w * c
    return FractionalPolynomial(lam, tuple(out))


@dataclass(frozen=True)
class JacobiParams:
    """Parameters (a, b) of a Jacobi polynomial family; both must exceed -1."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > -1 and self.b > -1):
            raise DomainError(f"Jacobi parameters must exceed -1, got {self}")


def _jacobi_rungs(a, b, n, t):
    """Rung table of P_0^(a,b) .. P_n^(a,b): row k holds P_k at every t.

    P_0 = 1, P_1 = ((a-b) + (a+b+2) t) / 2, and for k >= 1

        c1_k P_{k+1} = c2_k(t) P_k - c3_k P_{k-1}

    with c1_k = 2(k+1)(k+a+b+1)(2k+a+b),
         c2_k(t) = (2k+a+b+1)[(2k+a+b)(2k+a+b+2) t + a^2 - b^2],
         c3_k = 2(k+a)(k+b)(2k+a+b+2).
    """
    if n < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {n}")
    rows = np.empty((n + 1,) + t.shape)
    rows[0] = 1.0
    if n >= 1:
        rows[1] = 0.5 * ((a - b) + (a + b + 2) * t)
    for k in range(1, n):
        s = 2 * k + a + b
        c1 = 2 * (k + 1) * (k + a + b + 1) * s
        c2 = (s + 1) * (s * (s + 2) * t + a * a - b * b)
        c3 = 2 * (k + a) * (k + b) * (s + 2)
        rows[k + 1] = (c2 * rows[k] - c3 * rows[k - 1]) / c1
    return rows


def jacobi_eval(params, n, x):
    """Jacobi polynomial P_n^(a,b)(x) on [-1, 1] by three-term recurrence."""
    x = np.asarray(x, dtype=float)
    if not np.all((x >= -1.0) & (x <= 1.0)):
        raise DomainError(f"Jacobi polynomials are evaluated on [-1, 1], got {x}")
    return _scalar_or_array(_jacobi_rungs(params.a, params.b, n, x)[n])


def muntz_legendre_coeffs(n, lam):
    """Muntz-Legendre polynomial L_n(.; lam) as explicit ladder coefficients.

    coeff[i] = (-1)^(n-i) / (lam^n i! (n-i)!) * prod_{k<n} ((i+k) lam + 1).

    The products grow factorially, so this route is capped at degree 30;
    use :func:`muntz_legendre_eval` for stable evaluation at large n.
    """
    if n < 0:
        raise DomainError(f"degree must be >= 0, got {n}")
    if n > MAX_DIRECT_DEGREE:
        raise DomainError(
            f"direct coefficient construction is limited to n <= {MAX_DIRECT_DEGREE} "
            f"(factorial overflow), got {n}"
        )
    if not 0.0 < lam <= 2.0:
        raise DomainError(f"lambda must lie in (0, 2], got {lam}")
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
    """Rung table of L_0(x; lam) .. L_n(x; lam) at finite x >= 0, through
    L_n(x; lam) = P_n^(0, 1/lam - 1)(2 x^lam - 1): stable where the direct
    coefficient sum cancels, and past x = 1 it extrapolates the polynomials."""
    if not 0.0 < lam <= 2.0:
        raise DomainError(f"lambda must lie in (0, 2], got {lam}")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise DomainError(f"Muntz-Legendre polynomials take finite x >= 0, got x={x}")
    return _jacobi_rungs(0.0, 1.0 / lam - 1.0, n, 2.0 * x**lam - 1.0)


def muntz_legendre_eval(n, lam, x):
    """Evaluate L_n(x; lam) on [0, 1] through the Jacobi representation."""
    if not np.all(np.asarray(x) <= 1.0):
        raise DomainError(f"Muntz-Legendre polynomials live on [0, 1], got x={x}")
    return _scalar_or_array(muntz_legendre_rungs(n, lam, x)[n])
