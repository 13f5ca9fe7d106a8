"""Weight-orthogonal bases of the fractional monomial space.

The builder runs the monic three-term recurrence (the Stieltjes procedure)

    L_0 = 1,  L_1 = x^lam - B_1,
    L_i = (x^lam - B_i) L_{i-1} - C_i L_{i-2},      i >= 2,

with B_i, C_i ratios of weighted inner products, so the resulting ladder is
orthogonal under the chosen inner product: a weighted integral over [lo, hi]
(continuous mode, discretized by a quadrature rule that is exact for the
products involved) or a weighted sum over data points (discrete mode).

Both modes share one representation: the inner product is carried as a pair
of point/weight arrays, and a basis is (lam, B, C, squared norms).  Its
values come from one recurrence step over a table of rungs; its ladder
coefficients are derived from (lam, B, C) by the same recurrence in
coefficient space, where multiplying by x^lam is an index shift.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegeneracyError, DomainError, RankDeficiencyError, UsageError,
                     check_abscissae, check_degree, check_lambda, check_weights)
from .fracpoly import FractionalPolynomial
from . import quadrature as quad

__all__ = ["WeightSpec", "OrthogonalBasis", "build_continuous", "build_discrete"]

#: squared norms at or below this are treated as numerical breakdown
DEGENERACY_THRESHOLD = 1e-14

DEFAULT_QUAD_POINTS = 96

#: points per block of every sweep over many points: the basis recurrence,
#: the fit errors and a large discrete fit's x^(k lam) powers
_BLOCK_ROWS = 2**14
#: numpy's pairwise sum adds up to this many values in one unrolled loop
#: (its PW_BLOCKSIZE) and splits only longer runs
_NUMPY_RUN = 128


@dataclass(frozen=True)
class WeightSpec:
    """Jacobi weight W(x) = (x - lo)^beta_left (hi - x)^beta_right on [lo, hi]
    for the orthogonality inner product; both exponents 0 is the unit weight."""

    lo: float = 0.0
    hi: float = 1.0
    beta_left: float = 0.0
    beta_right: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in
                   (self.lo, self.hi, self.beta_left, self.beta_right)):
            raise DomainError("weight interval and exponents must be finite")
        if not self.lo < self.hi:
            raise DomainError(f"need lo < hi, got [{self.lo}, {self.hi}]")
        if not (self.beta_left > -1 and self.beta_right > -1):
            raise DomainError("jacobi weight exponents must exceed -1")

    @classmethod
    def unit(cls, lo=0.0, hi=1.0):
        return cls(lo, hi)

    @classmethod
    def jacobi(cls, beta_left, beta_right, lo=0.0, hi=1.0):
        return cls(lo, hi, beta_left, beta_right)


@dataclass(frozen=True)
class OrthogonalBasis:
    """Monic W-orthogonal ladder L_0..L_n, held as its recurrence constants.

    ``B[i-1]`` holds B_i (i = 1..n), ``C[i-2]`` holds C_i (i = 2..n) and
    ``sq_norms[i]`` holds <L_i, L_i>_W.  Together with ``lam`` they determine
    the basis: ``ladder_values`` and ``polys`` are derived from them.
    ``points``/``ip_weights`` carry the discretized inner product the basis
    was built against (quadrature nodes or data points, weight folded in),
    so callers can project onto the basis without re-deriving anything.
    ``lo``/``hi`` is the interval the basis lives on: the weight's interval
    in continuous mode, the span of the points in discrete mode.
    ``point_rungs`` is the rung table at ``points``, kept read-only from the
    build so a projection does not evaluate it again.

    The basis owns ``points`` and ``ip_weights``: ``build_discrete`` keeps
    the caller's float64 arrays without copying them, so writing to them
    afterwards silently invalidates B, C, the norms and ``point_rungs``.
    Unit weights (``build_discrete(None, ...)``) are a read-only stride-0
    view of one 1.0, not an array of ones.
    """

    lam: float
    B: tuple
    C: tuple
    sq_norms: tuple
    mode: str
    points: np.ndarray
    ip_weights: np.ndarray
    lo: float
    hi: float

    def __post_init__(self):
        check_lambda(self.lam)

    @property
    def degree_index(self):
        return len(self.sq_norms) - 1

    @property
    def polys(self):
        """Ladder coefficients P_i of L_i: shift(P_{i-1}) - B_i P_{i-1} - C_i P_{i-2}."""
        n = self.degree_index
        P = np.zeros((n + 1, n + 1))
        P[0, 0] = 1.0
        for i in range(1, n + 1):
            P[i, 1:i + 1] = P[i - 1, :i]
            P[i, :i] -= self.B[i - 1] * P[i - 1, :i]
            if i >= 2:
                P[i, :i - 1] -= self.C[i - 2] * P[i - 2, :i - 1]
        return tuple(FractionalPolynomial(self.lam, tuple(P[i, :i + 1]))
                     for i in range(n + 1))

    def ladder_values(self, x):
        """Rung table of L_0..L_n at x (row i holds L_i at every point), filled
        in place by the three-term recurrence: stable at high degree, unlike
        expanding the (huge, alternating) ladder coefficients."""
        x = np.asarray(x, dtype=float)
        t = x**self.lam
        rows = np.empty((self.degree_index + 1,) + x.shape)
        rows[0] = 1.0
        for i in range(1, self.degree_index + 1):
            _rung(rows, t, self.B, self.C, i)
        return rows

    @cached_property
    def point_rungs(self):
        """Read-only ``ladder_values(points)``: (n+1) x len(points) floats,
        filled by the build's own recurrence (``dataclasses.replace`` does
        not copy it, so a replaced basis computes its own)."""
        rows = self.ladder_values(self.points)
        rows.flags.writeable = False
        return rows

    def inner(self, f, g=None):
        """Inner product <f, g>_W under this basis's discretization (g = 1
        when omitted); ``f`` and ``g`` are callables or values at ``points``."""
        wf = self.ip_weights * _eval_on(f, self.points)
        return float(np.sum(wf if g is None else wf * _eval_on(g, self.points)))


def _eval_on(f, points):
    return quad.sample(f, points) if callable(f) else np.asarray(f, dtype=float)


def _rung(rows, t, B, C, i):
    """Fill row i >= 1 of a rung table at t = x^lam from rows i-1 and i-2,
    as (t - B_i) * L_{i-1} - C_i * L_{i-2}, in place."""
    row = rows[i, ...]  # a view, also when the points are a 0-d x
    np.subtract(t, B[i - 1], out=row)
    if i >= 2:
        row *= rows[i - 1]
        row -= C[i - 2] * rows[i - 2]


def _distinct(pts):
    """No two points equal (-0.0 == 0.0): increasing points need no sort."""
    if (pts[1:] > pts[:-1]).all():
        return True
    s = np.sort(pts)
    return not (s[1:] == s[:-1]).any()


def _block_len(n):
    """Length of the longest block ``_pairwise_sum`` hands its kernel for n
    values: the size of a sweep's block buffers."""
    return min(n, max(_BLOCK_ROWS, _NUMPY_RUN))


def _pairwise_sum(n, kernel, a=0):
    """Sum of n values as ``np.sum`` adds their whole array, bit for bit,
    from ``kernel(a, b)``: the ``np.add.reduce`` (``np.sum``'s own reduction)
    of values a..b-1, or a tuple of such sums, added elementwise.  It takes
    numpy's own pairwise split, halves rounded down to a multiple of 8, down
    to blocks of at most ``_BLOCK_ROWS`` values, which the reduction adds as
    it would inside the whole array; runs of up to ``_NUMPY_RUN`` values,
    which numpy never splits, stay whole."""
    if n == _block_len(n):
        return kernel(a, a + n)
    half = n // 2 - n // 2 % 8
    # np.add, not +, so that tuples of sums add elementwise
    return np.add(_pairwise_sum(half, kernel, a), _pairwise_sum(n - half, kernel, a + half))


@np.errstate(over="ignore", invalid="ignore")
def _recurrence(points, w, lam, n, mode, lo, hi):
    """The basis of degree n at (points, w), by one sweep per rung.

    Sweep i runs over blocks of at most ``_BLOCK_ROWS`` points: ``_rung``
    fills the block of row i, and two block buffers hold the products the
    rung needs, each associated as the whole-array expression was:
    (w L_i) L_i for <L_i, L_i>, and ((w t) L_i) L_{i-1} and ((w t) L_i) L_i
    for C_{i+1} and B_{i+1}.  ``_pairwise_sum`` adds the block sums as
    ``np.sum`` adds whole arrays, so every constant keeps its bits and no
    array as long as the points is made besides t and the rung table.
    Rung i's constants are checked before B_{i+1} and C_{i+1} divide by
    its squared norm."""
    t = points**lam
    rows = np.empty((n + 1,) + points.shape)
    rows[0] = 1.0
    p, q = np.empty(_block_len(len(t))), np.empty(_block_len(len(t)))
    sq, Bs, Cs = [], [], []

    def block(a, b):  # (<L_i, L_i>, B_{i+1} <L_i, L_i>, C_{i+1} <L_{i-1}, L_{i-1}>)
        R, pb, qb = rows[:, a:b], p[:b - a], q[:b - a]
        if i >= 1:
            _rung(R, t[a:b], Bs, Cs, i)
        np.multiply(w[a:b], R[i], out=pb)
        sq_b = np.add.reduce(np.multiply(pb, R[i], out=pb))
        if i == n:
            return sq_b, 0.0, 0.0
        np.multiply(w[a:b], t[a:b], out=pb)
        pb *= R[i]
        c_b = np.add.reduce(np.multiply(pb, R[i - 1], out=qb)) if i >= 1 else 0.0
        return sq_b, np.add.reduce(np.multiply(pb, R[i], out=pb)), c_b

    for i in range(n + 1):
        sq_i, b_sum, c_sum = _pairwise_sum(len(t), block)
        sq.append(float(sq_i))
        if not all(map(math.isfinite, (sq[i], *Bs[-1:], *Cs[-1:]))):  # B_i, C_i, <L_i, L_i>
            raise DomainError(f"the basis recurrence overflows: max point = "
                              f"{float(np.max(points)):.6g} with lambda = {lam} and degree "
                              f"{n} puts rung {i}'s B, C or squared norm past the float range")
        if sq[i] <= DEGENERACY_THRESHOLD:
            raise DegeneracyError(
                f"degenerate norm at index {i}: {sq[i]:.3e}", index=i
            )
        if i < n:
            if i >= 1:
                Cs.append(float(c_sum) / sq[i - 1])
            Bs.append(float(b_sum) / sq[i])
    basis = OrthogonalBasis(
        lam=lam, B=tuple(Bs), C=tuple(Cs), sq_norms=tuple(sq), mode=mode,
        points=points, ip_weights=w, lo=lo, hi=hi,
    )
    # the rows are ladder_values(points) bit for bit: the same t and _rung
    rows.flags.writeable = False
    basis.__dict__["point_rungs"] = rows
    return basis


def build_continuous(weight, lam, n, quad_points=DEFAULT_QUAD_POINTS):
    """Monic basis of {1, x^lam, ..., x^(n*lam)} orthogonal under W on [lo, hi].

    The inner product is discretized by :func:`quadrature.ladder_rule` with
    the weight folded in, at no fewer than 2n + 8 points.
    """
    n = check_degree(n)
    check_lambda(lam)
    quad_points = check_degree(quad_points, quad.MAX_POINTS, least=1, noun="point count")
    rule = quad.ladder_rule(max(quad_points, 2 * n + 8), (lam,), weight.lo, weight.hi, lam,
                            weight.beta_left, weight.beta_right)
    return _recurrence(rule.nodes, rule.weights, lam, n, "continuous",
                       float(weight.lo), float(weight.hi))


def build_discrete(weight_values, points, lam, n):
    """Monic basis orthogonal under the weighted sum over the given points.

    ``weight_values`` may be None for the unit weight (kept as a read-only
    stride-0 view), else finite and positive.  Needs at least n+1 distinct
    points, all finite and >= 0.  The basis keeps float64 ``points`` and
    ``weight_values`` arrays as they are, without a copy (a copy would cost
    8 MB per array at 10^6 points): do not write to them while the basis
    is in use.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1 or len(pts) == 0:
        raise DomainError("points must be a non-empty 1-d sequence")
    check_abscissae(pts, "discrete points")
    if not _distinct(pts):
        raise DomainError("discrete points must be distinct")
    n = check_degree(n)
    if len(pts) <= n:
        raise RankDeficiencyError(
            f"{len(pts)} points cannot support degree index {n}", index=n
        )
    check_lambda(lam)
    if weight_values is None:
        w = np.broadcast_to(1.0, pts.shape)
    else:
        w = np.asarray(weight_values, dtype=float)
        if w.shape != pts.shape:
            raise UsageError("weight_values and points must have equal length")
        check_weights(w, "weight values")
    return _recurrence(pts, w, lam, n, "discrete", float(pts.min()), float(pts.max()))
