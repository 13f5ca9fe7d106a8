"""Weight-orthogonal bases of the fractional monomial space.

The builder runs the monic three-term recurrence

    L_0 = 1,  L_1 = x^lam - B_1,
    L_i = (x^lam - B_i) L_{i-1} - C_i L_{i-2},      i >= 2,

with B_i, C_i ratios of weighted inner products, so the resulting ladder is
orthogonal under the chosen inner product: a weighted integral over [lo, hi]
(continuous mode, discretized by a quadrature rule that is exact for the
products involved) or a weighted sum over data points (discrete mode).

Both modes share one representation: the inner product is carried as a pair
of point/weight arrays, and polynomial arithmetic happens exactly in ladder
coefficient space (multiplying by x^lam is an index shift).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DomainError, RankDeficiencyError, UsageError
from .fracpoly import (
    FractionalPolynomial,
    frac_poly_linear_combine,
    frac_poly_shift_mul,
)
from . import quadrature as quad

__all__ = ["WeightSpec", "OrthogonalBasis", "build_continuous", "build_discrete",
           "inner_product"]

#: squared norms at or below this are treated as numerical breakdown
DEGENERACY_THRESHOLD = 1e-14

DEFAULT_QUAD_POINTS = 96


@dataclass(frozen=True)
class WeightSpec:
    """Weight function W(x) > 0 for the orthogonality inner product.

    kind        one of "unit", "jacobi"
    beta_left   exponent of (x - lo) when kind == "jacobi"
    beta_right  exponent of (hi - x) when kind == "jacobi"
    """

    kind: str
    lo: float = 0.0
    hi: float = 1.0
    beta_left: float = 0.0
    beta_right: float = 0.0

    def __post_init__(self):
        if self.kind not in ("unit", "jacobi"):
            raise DomainError(f"unknown weight kind {self.kind!r}")
        if not all(math.isfinite(v) for v in
                   (self.lo, self.hi, self.beta_left, self.beta_right)):
            raise DomainError("weight interval and exponents must be finite")
        if not self.lo < self.hi:
            raise DomainError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if self.kind == "jacobi" and not (self.beta_left > -1 and self.beta_right > -1):
            raise DomainError("jacobi weight exponents must exceed -1")

    @classmethod
    def unit(cls, lo=0.0, hi=1.0):
        return cls("unit", lo, hi)

    @classmethod
    def jacobi(cls, beta_left, beta_right, lo=0.0, hi=1.0):
        return cls("jacobi", lo, hi, beta_left, beta_right)


@dataclass(frozen=True)
class OrthogonalBasis:
    """Monic W-orthogonal ladder L_0..L_n with its recurrence constants.

    ``B[i-1]`` holds B_i (i = 1..n) and ``C[i-2]`` holds C_i (i = 2..n).
    ``points``/``ip_weights`` carry the discretized inner product the basis
    was built against (quadrature nodes or data points, weight folded in),
    so callers can project onto the basis without re-deriving anything.
    ``lo``/``hi`` is the interval the basis lives on: the weight's interval
    in continuous mode, the span of the points in discrete mode.
    """

    lam: float
    polys: tuple
    B: tuple
    C: tuple
    sq_norms: tuple
    mode: str
    points: np.ndarray
    ip_weights: np.ndarray
    lo: float
    hi: float

    @property
    def degree_index(self):
        return len(self.polys) - 1

    def ladder_values(self, x):
        """Rung table of L_0..L_n at x (row i holds L_i at every point), filled
        in place by the three-term recurrence: stable at high degree, unlike
        expanding the (huge, alternating) ladder coefficients."""
        x = np.asarray(x, dtype=float)
        t = x**self.lam
        rows = np.empty((self.degree_index + 1,) + x.shape)
        rows[0] = 1.0
        if self.degree_index >= 1:
            rows[1] = t - self.B[0]
        for i in range(2, self.degree_index + 1):
            rows[i] = (t - self.B[i - 1]) * rows[i - 1] - self.C[i - 2] * rows[i - 2]
        return rows

    def inner(self, f, g=None):
        """Inner product <f, g>_W under this basis's discretization."""
        return inner_product(f, 1.0 if g is None else g, points=self.points,
                             weights=self.ip_weights)


def _eval_on(f, points):
    return quad.sample(f, points) if callable(f) else np.asarray(f, dtype=float)


def inner_product(f, g, *, rule=None, points=None, weights=None):
    """<f, g>_W: quadrature (continuous mode) or weighted sum (discrete mode).

    Exactly one of ``rule`` or ``points`` must be given; ``weights`` applies
    to the discrete mode (defaults to all ones).
    """
    if (rule is None) == (points is None):
        raise UsageError("pass exactly one of rule= (continuous) or points= (discrete)")
    if rule is not None:
        if weights is not None:
            raise UsageError("weights= applies to the discrete mode only")
        pts, w = rule.nodes, rule.weights
    else:
        pts = np.asarray(points, dtype=float)
        w = np.ones_like(pts) if weights is None else np.asarray(weights, dtype=float)
    return float(np.sum(w * _eval_on(f, pts) * _eval_on(g, pts)))


def default_rule(weight, lam, quad_points=DEFAULT_QUAD_POINTS):
    """Quadrature discretization of the weighted inner product for ``weight``.

    The returned rule has the weight folded into its weights array.  On
    [0, 1] the x^lam substitution makes ladder products exactly integrable;
    elsewhere (lo > 0, no endpoint singularity at 0) plain Gauss-Legendre
    converges geometrically.
    """
    lo, hi = weight.lo, weight.hi
    if weight.kind == "jacobi":
        if (lo, hi) == (0.0, 1.0):
            return quad.weighted_rule(quad_points, lam, weight.beta_left,
                                      weight.beta_right)
        return quad.gauss_jacobi(quad_points, weight.beta_left, weight.beta_right,
                                 lo, hi)
    return quad.ladder_rule(quad_points, (lam,), lo, hi, fallback_step=lam)


def _recurrence(points, w, lam, n, mode, lo, hi):
    t = points**lam
    polys = [FractionalPolynomial(lam, (1.0,))]
    vals = [np.ones_like(points)]
    sq = [float(np.sum(w))]
    if sq[0] <= DEGENERACY_THRESHOLD:
        raise DegeneracyError(f"degenerate norm at index 0: {sq[0]:.3e}", index=0)
    Bs, Cs = [], []
    for i in range(1, n + 1):
        v1 = vals[i - 1]
        Bi = float(np.sum(w * t * v1 * v1)) / sq[i - 1]
        Bs.append(Bi)
        shifted = frac_poly_shift_mul(polys[i - 1])
        if i == 1:
            poly = frac_poly_linear_combine([shifted, polys[0]], [1.0, -Bi])
            vnew = (t - Bi) * v1
        else:
            v2 = vals[i - 2]
            Ci = float(np.sum(w * t * v1 * v2)) / sq[i - 2]
            Cs.append(Ci)
            poly = frac_poly_linear_combine(
                [shifted, polys[i - 1], polys[i - 2]], [1.0, -Bi, -Ci]
            )
            vnew = (t - Bi) * v1 - Ci * v2
        polys.append(poly)
        vals.append(vnew)
        sq.append(float(np.sum(w * vnew * vnew)))
        if sq[i] <= DEGENERACY_THRESHOLD:
            raise DegeneracyError(
                f"degenerate norm at index {i}: {sq[i]:.3e}", index=i
            )
    return OrthogonalBasis(
        lam=lam, polys=tuple(polys), B=tuple(Bs), C=tuple(Cs),
        sq_norms=tuple(sq), mode=mode, points=points, ip_weights=w, lo=lo, hi=hi,
    )


def build_continuous(weight, lam, n, rule=None, quad_points=DEFAULT_QUAD_POINTS):
    """Monic basis of {1, x^lam, ..., x^(n*lam)} orthogonal under W on [lo, hi].

    ``rule`` overrides the weight-derived quadrature; it must have the weight
    folded in (its nodes/weights define the inner product the basis is
    orthogonal against).
    """
    if n < 0:
        raise DomainError(f"degree index must be >= 0, got {n}")
    if not 0 < lam <= 2:
        raise DomainError(f"lambda must lie in (0, 2], got {lam}")
    if rule is None:
        rule = default_rule(weight, lam, max(quad_points, 2 * n + 8))
    return _recurrence(rule.nodes, rule.weights, lam, n, "continuous",
                       float(weight.lo), float(weight.hi))


def build_discrete(weight_values, points, lam, n):
    """Monic basis orthogonal under the weighted sum over the given points.

    ``weight_values`` may be None for the unit weight, else finite and
    positive.  Needs at least n+1 distinct points, all finite and >= 0.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or len(pts) == 0:
        raise DomainError("points must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(pts)):
        raise DomainError("discrete points must be finite")
    if np.any(pts < 0):
        raise DomainError("discrete points must be >= 0")
    if len(np.unique(pts)) != len(pts):
        raise DomainError("discrete points must be distinct")
    if len(pts) <= n:
        raise RankDeficiencyError(
            f"{len(pts)} points cannot support degree index {n}", index=n
        )
    if not 0 < lam <= 2:
        raise DomainError(f"lambda must lie in (0, 2], got {lam}")
    if weight_values is None:
        w = np.ones_like(pts)
    else:
        w = np.asarray(weight_values, dtype=float)
        if w.shape != pts.shape:
            raise UsageError("weight_values and points must have equal length")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise DomainError("weight values must be finite and strictly positive")
    return _recurrence(pts, w, lam, n, "discrete", float(pts.min()), float(pts.max()))
