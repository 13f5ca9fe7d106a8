"""Gaussian quadrature rules for the continuous inner products.

Two families cover everything the fitting and FDE machinery integrates:

* Gauss-Legendre for smooth integrands on [lo, hi];
* Gauss-Jacobi for weights with endpoint singularities (x-lo)^bl (hi-x)^br.

Fractional-monomial integrands x^(i*lam) on [0, hi] are handled exactly by
the substitution u = x^lam, which turns them into ordinary polynomials and
absorbs the Jacobian u^(1/lam - 1) as a Gauss-Jacobi left-endpoint factor.
:func:`substituted_rule` and :func:`weighted_rule` package that substitution
as ready-made rules, and :func:`ladder_rule` is the one place that picks a
rule for a given weight and exponent set.  :func:`sample` is the one
evaluator of user callables.

Node/weight computation is delegated to the Golub-Welsch implementations in
numpy/scipy rather than re-deriving the eigenvalue problem here.  A rule
depends on its parameters only, so :func:`ladder_rule` keeps the last
``LADDER_RULE_CACHE`` it built and hands each out again, read-only.  scipy is
imported by :func:`gauss_jacobi` when it first builds a Jacobi rule, so a
process that builds none (LSMC pricing, exact-moment FDE solves, discrete
fits) never loads it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, check_degree, check_lambda

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "gauss_jacobi",
    "sample",
    "integrate",
    "frac_moment",
    "substituted_rule",
    "weighted_rule",
    "common_step",
    "ladder_rule",
]

MAX_POINTS = 256

#: largest denominator common_step matches an exponent with
MAX_STEP_DENOMINATOR = 1000

#: how many ladder_rule results are kept for reuse
LADDER_RULE_CACHE = 256


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights approximating integral of weight(x) * f(x) on [lo, hi].

    Any weight factor, such as the Gauss-Jacobi (x-lo)^bl (hi-x)^br, is
    folded into the weights array; ``integrate`` never re-applies it.
    """

    nodes: np.ndarray
    weights: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise DomainError("nodes and weights must be 1-d arrays of equal length")
        if not (np.all(np.diff(nodes) > 0) and nodes[0] > self.lo and nodes[-1] < self.hi):
            raise DomainError("nodes must increase strictly inside (lo, hi)")
        if not np.all(weights > 0):
            raise DomainError("quadrature weights must all be positive")

    def __len__(self):
        return len(self.nodes)


def gauss_legendre(m, lo=-1.0, hi=1.0):
    """m-point Gauss-Legendre rule on [lo, hi], exact to polynomial degree 2m-1."""
    m = check_degree(m, MAX_POINTS, least=1, noun="point count")
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    t, w = np.polynomial.legendre.leggauss(m)
    half = 0.5 * (hi - lo)
    return QuadratureRule(lo + half * (t + 1.0), half * w, lo, hi)


def gauss_jacobi(m, beta_left, beta_right, lo=-1.0, hi=1.0):
    """m-point rule with built-in weight (x-lo)^beta_left (hi-x)^beta_right.

    Sum w_k f(x_k) equals the weighted integral exactly for polynomial f of
    degree <= 2m-1.  Both exponents must exceed -1 for integrability.
    """
    m = check_degree(m, MAX_POINTS, least=1, noun="point count")
    if not (beta_left > -1 and beta_right > -1):
        raise DomainError(
            f"endpoint exponents must exceed -1, got ({beta_left}, {beta_right})"
        )
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if beta_left == 0.0 and beta_right == 0.0:
        return gauss_legendre(m, lo, hi)
    from scipy.special import roots_jacobi

    # scipy's convention: weight (1-t)^alpha (1+t)^beta on [-1, 1], so the
    # right-endpoint factor maps to alpha and the left one to beta.
    t, w = roots_jacobi(m, beta_right, beta_left)
    half = 0.5 * (hi - lo)
    scale = half ** (beta_left + beta_right + 1)
    return QuadratureRule(lo + half * (t + 1.0), scale * w, lo, hi)


def sample(f, points):
    """Values of a user callable at 1-d ``points``.

    Tries one vectorized call, and falls back to one scalar call per point
    when that raises TypeError/ValueError or returns the wrong shape.
    Raises DomainError naming the first point where ``f`` is not finite.
    """
    points = np.asarray(points, dtype=float)
    try:
        vals = np.asarray(f(points), dtype=float)
        if vals.shape != points.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(f(x)) for x in points])
    bad = ~np.isfinite(vals)
    if bad.any():
        raise DomainError(f"function is not finite at x={points[bad][0]}")
    return vals


def integrate(rule, f):
    """Apply the rule: sum_k weights[k] * f(nodes[k]).

    ``f`` excludes any weight factor built into the rule; see :func:`sample`
    for how it is evaluated.
    """
    return float(sample(f, rule.nodes) @ rule.weights)


def frac_moment(lo, hi, s):
    """Closed form of integral of x^s over [lo, hi]: (hi^(s+1)-lo^(s+1))/(s+1)."""
    if s <= -1:
        raise DomainError(f"moment exponent must exceed -1, got {s}")
    if not 0 <= lo < hi:
        raise DomainError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
    return (hi ** (s + 1) - lo ** (s + 1)) / (s + 1)


def substituted_rule(m, step, hi=1.0):
    """Unit-weight rule on [0, hi] exact for integrands polynomial in x^step.

    Substituting u = (x/hi)^step maps x^(k*step) to a polynomial in u and
    absorbs the Jacobian into a Gauss-Jacobi left-endpoint factor, so the
    returned m-point rule integrates x^(k*step) exactly for k <= 2m-1, and
    any smooth function of x^step rapidly.
    """
    if not 0 < step <= 2:
        raise DomainError(f"substitution step must lie in (0, 2], got {step}")
    if step == 1.0:
        return gauss_legendre(m, 0.0, hi)
    base = gauss_jacobi(m, 1.0 / step - 1.0, 0.0, 0.0, 1.0)
    nodes = hi * base.nodes ** (1.0 / step)
    weights = (hi / step) * base.weights
    return QuadratureRule(nodes, weights, 0.0, hi)


def weighted_rule(m, lam, beta_left=0.0, beta_right=0.0, hi=1.0):
    """Rule on [0, hi] with built-in weight x^beta_left (hi-x)^beta_right,
    exact for integrands polynomial in x^lam.

    Combines the u = y^lam substitution, y = x/hi, with Gauss-Jacobi
    absorption of both endpoint factors; the leftover smooth factor
    ((1-y)/(1-u))^beta_right is folded into the weights (evaluated via
    expm1/log to survive u near 1).
    """
    check_lambda(lam)
    if not (beta_left > -1 and beta_right > -1):
        raise DomainError(
            f"endpoint exponents must exceed -1, got ({beta_left}, {beta_right})"
        )
    bl_u = (beta_left + 1.0) / lam - 1.0
    base = gauss_jacobi(m, bl_u, beta_right, 0.0, 1.0)
    u = base.nodes
    x = u ** (1.0 / lam)
    w = base.weights / lam
    if beta_right != 0.0 and lam != 1.0:
        one_minus_x = -np.expm1(np.log(u) / lam)
        w = w * (one_minus_x / (1.0 - u)) ** beta_right
    return QuadratureRule(hi * x, w * hi ** (beta_left + beta_right + 1.0), 0.0, hi)


def common_step(exponents):
    """Largest step s such that every exponent is an integer multiple of s.

    Exponents are matched to rationals with denominator <= MAX_STEP_DENOMINATOR;
    returns None when some exponent is not (numerically) commensurable.  Used
    to pick a substitution that makes mixed-exponent integrands exactly polynomial.
    """
    fracs = []
    for e in exponents:
        if e < 0:
            return None
        if e == 0:
            continue
        f = Fraction(e).limit_denominator(MAX_STEP_DENOMINATOR)
        if f == 0 or abs(float(f) - e) > 1e-9 * max(1.0, abs(e)):
            return None
        fracs.append(f)
    if not fracs:
        return None
    g = fracs[0]
    for f in fracs[1:]:
        g = Fraction(math.gcd(g.numerator, f.numerator),
                     (g.denominator * f.denominator) // math.gcd(g.denominator, f.denominator))
    return float(g)


def ladder_rule(m, exponents, lo, hi, fallback_step=None, beta_left=0.0, beta_right=0.0):
    """m-point rule on [lo, hi] with built-in weight (x-lo)^beta_left
    (hi-x)^beta_right, for integrands built from x^e; the one rule picker.

    On [0, hi] the x^step substitution with step = common_step(exponents)
    makes every such integrand exactly polynomial; when the exponents share
    no step in (0, 2], ``fallback_step`` (if given) is substituted instead.
    Otherwise, and whenever lo > 0, plain Gauss-Jacobi (Gauss-Legendre for
    the unit weight) is returned.

    Equal arguments return the same rule object, whose arrays are read-only:
    the picked rule is cached on the point count and the arguments as floats
    (so 0, -0.0 and np.float64(0) are one ``lo``, and ``rule.lo`` is 0.0).
    """
    m = check_degree(m, MAX_POINTS, least=1, noun="point count")
    step = None if fallback_step is None else _float(fallback_step)
    return _ladder_rule(m, tuple(map(float, exponents)), _float(lo), _float(hi), step,
                        _float(beta_left), _float(beta_right))


def _float(v):
    return float(v) + 0.0  # -0.0 + 0.0 is 0.0


@lru_cache(maxsize=LADDER_RULE_CACHE)
def _ladder_rule(m, exponents, lo, hi, fallback_step, beta_left, beta_right):
    step = None
    if lo == 0.0:
        step = common_step(exponents)
        if step is None or not 0 < step <= 2:
            step = fallback_step
    if step is None:
        rule = gauss_jacobi(m, beta_left, beta_right, lo, hi)
    elif beta_left == 0.0 and beta_right == 0.0:
        rule = substituted_rule(m, step, hi)
    else:
        rule = weighted_rule(m, step, beta_left, beta_right, hi)
    rule.nodes.flags.writeable = False
    rule.weights.flags.writeable = False
    return rule
