"""Classical and fractional least-squares fitting.

Three routes produce a fit over the ladder {1, x^lam, ..., x^(n*lam)}:

* continuous normal equations (moment matrix assembled in closed form,
  data vector by quadrature);
* discrete normal equations over a data set (sums); the classical
  polynomial fit is exactly this route at lam = 1;
* orthogonal projection against a pre-built W-orthogonal basis, which
  needs no linear solve at all.

Every result records which route produced it, the fitted coefficients, the
least-squares error functional and a condition estimate of the solved
system (1 for the projection route).

Every ladder fit, LSMC's too, is solved by :func:`_ladder_solve`: A is the
Hankel matrix of the 2n+1 moments <x^(i lam), x^(j lam)> (integrals or
sums), so ``solvers._ladder_system`` makes A and the exact [A | b] from
them and the n+1 entries of b, and an overflow is one DomainError.
:func:`_sse` scores every sampled route (``solve_fde``'s quadrature path
too), block by block.
:func:`_discrete_fit` is the discrete route on plain arrays, which LSMC calls
once per exercise date with no DataSet or FitResult and no condition estimate.

A discrete fit sums the moments sum(w * x^(k lam)), k <= 2n, but keeps only
V = x^(i lam), i <= n.  One sweep does it for every size and degree: past
``_BLOCK_ROWS`` points (``orthobasis``'s block size, one for every sweep
over many points) at n >= 3 it never holds the N x (2n+1) power table, and
every fit has the bits of one table.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (ConditioningError, DomainError, UsageError, check_abscissae,
                     check_degree, check_lambda, check_weights)
from .fracpoly import FractionalPolynomial, muntz_legendre_coeffs, muntz_legendre_rungs
from .orthobasis import _BLOCK_ROWS, OrthogonalBasis, _block_len, _pairwise_sum
from .solvers import _ladder_system, _refined, solve_normal_equations
from . import quadrature as quad

__all__ = [
    "DataSet",
    "FitResult",
    "fit_continuous_normal",
    "fit_discrete_normal",
    "fit_projection",
    "predict",
    "add_noise",
    "expand_to_monomial",
]

MAX_CONTINUOUS_SIZE = 20  # n+1 cap for the continuous normal equations
DEFAULT_QUAD_POINTS = 64


@dataclass(frozen=True)
class DataSet:
    """Points (x_k, y_k) with optional positive weights (default all one)."""

    xs: np.ndarray
    ys: np.ndarray
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        if xs.ndim != 1 or xs.shape != ys.shape or len(xs) == 0:
            raise DomainError("xs and ys must be equal-length non-empty 1-d arrays")
        check_abscissae(xs, "xs")
        if not np.all(np.isfinite(ys)):
            raise DomainError("ys must be finite")
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=float)
            object.__setattr__(self, "weights", w)
            if w.shape != xs.shape:
                raise DomainError("weights must match the data length")
            check_weights(w, "weights")

    def __len__(self):
        return len(self.xs)

    def weight_array(self):
        """The weights; unit weights are a read-only stride-0 view of one 1.0,
        so an unweighted fit holds no array of ones."""
        return np.broadcast_to(1.0, self.xs.shape) if self.weights is None else self.weights


@dataclass(frozen=True)
class FitResult:
    """A fitted expansion plus its diagnostics.

    ``basis`` is "monomial" (coeffs over x^(i*lam)), "muntz_legendre"
    (coeffs over L_i(.; lam)) or "orthogonal" (coeffs over basis_ref.polys).
    ``error`` is the value of the minimized least-squares functional;
    ``cond`` the condition estimate of the solved system (1 when nothing
    was solved).
    """

    basis: str
    lam: float
    coeffs: np.ndarray
    error: float
    cond: float
    lo: float = 0.0
    hi: float = 1.0
    basis_ref: Optional[OrthogonalBasis] = None

    def __post_init__(self):
        check_lambda(self.lam)
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.error < 0:
            raise DomainError(f"least-squares error cannot be negative: {self.error}")


def _monomial_values(lam, n, x, out=None):
    """Columns x^(i*lam), i = 0..n, of 1-d x, into ``out`` if given; IEEE pow
    gives 0^0 = 1 and 0^e = 0.

    One np.power call per column, so numpy's pow loop runs over the points.
    A scalar exponent of 0.5 or 2.0 would take numpy's sqrt or square fast
    path, which rounds differently from pow on about 5 % of points, so such
    an exponent is passed as an array as long as x: every column has the
    bits of the broadcast ``x[:, None] ** exps``."""
    if out is None:
        out = np.empty((len(x), n + 1))
    for k in range(n + 1):
        e = k * lam
        np.power(x, np.full(len(x), e) if e in (0.5, 2.0) else e, out=out[:, k])
    return out


def _ladder_solve(route, moments, V, xs, ys, w, lam, cond=True):
    """(coeffs, cond, V @ coeffs) of A c = V^T (w * ys), A the Hankel matrix of
    the ``moments``, V = x^(i lam) at ``xs`` (``w`` None: unit weights), for
    every ladder ``route``: A and the exact [A | b] from the moments
    (``solvers._ladder_system``), cond None when ``cond`` is False.  A moment
    past the float range is a DomainError naming max x, lam and the degree;
    a right-hand-side entry, one naming max |y| and max w; both name the
    route ("continuous" or "discrete")."""
    n = V.shape[1] - 1
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = V.T @ (ys if w is None else w * ys)
    try:
        A, exact = _ladder_system(moments, rhs)
    except (OverflowError, ValueError):  # a moment or a sum is not finite
        x_max, w_max = float(np.max(xs)), 1.0 if w is None else float(np.max(w))
        if not np.isfinite(moments).all():
            raise DomainError(
                f"the {route} normal equations overflow: max x = {x_max:.6g} with "
                f"lambda = {lam} and degree {n} puts a moment sum of w * x^(k*lambda), "
                f"k <= {2 * n}, past the float range (max w = {w_max:.6g})") from None
        raise DomainError(
            f"the {route} normal equations overflow: max |y| = "
            f"{float(np.max(np.abs(ys))):.6g} with max w = {w_max:.6g} puts a "
            f"right-hand-side sum of w * y * x^(i*lambda), i <= {n}, past the float "
            f"range (max x = {x_max:.6g}, lambda = {lam}, degree {n})") from None
    coeffs, cond = (solve_normal_equations(A, rhs, exact) if cond
                    else (_refined(A, rhs, exact), None))
    return coeffs, cond, V @ coeffs


def _sse(ys, fitted, w):
    """sum(w * (ys - fitted)^2), the error of every sampled route.

    The products (w r) r, r = ys - fitted, are formed in two block buffers
    of at most ``_BLOCK_ROWS`` points, and ``_pairwise_sum`` adds them as
    ``np.sum`` adds the whole array, bit for bit, with no temporary as long
    as ys.  An error past the float range is a DomainError naming max |y|
    and max w."""
    r, p = np.empty(_block_len(len(ys))), np.empty(_block_len(len(ys)))

    def block(a, b):
        rb, pb = r[:b - a], p[:b - a]
        np.subtract(ys[a:b], fitted[a:b], out=rb)
        np.multiply(w[a:b], rb, out=pb)
        return np.add.reduce(np.multiply(pb, rb, out=pb))

    with np.errstate(over="ignore", invalid="ignore"):
        error = float(_pairwise_sum(len(ys), block))
    if not math.isfinite(error):
        raise DomainError(
            f"the least-squares error overflows: max |y| = {float(np.max(np.abs(ys))):.6g} "
            f"with max w = {float(np.max(w)):.6g} puts the sum of w * (y - fit)^2 past "
            f"the float range")
    return error


def fit_continuous_normal(y, lo, hi, lam, n, rule=None):
    """Fit y on [lo, hi] by the fractional normal equations A a = d.

    A is assembled exactly from closed-form moments; d and the error
    functional use the supplied quadrature rule (default: 64 points from
    :func:`quadrature.ladder_rule` for the ladder exponents), which must be
    a unit-weight rule on [lo, hi].  Overflow in d is a DomainError.
    """
    if not 0 <= lo < hi:
        raise DomainError(f"need 0 <= lo < hi, got [{lo}, {hi}]")
    check_lambda(lam)
    n = check_degree(n, MAX_CONTINUOUS_SIZE - 1)
    if rule is None:
        rule = quad.ladder_rule(DEFAULT_QUAD_POINTS, lam * np.arange(n + 1), lo, hi,
                                fallback_step=lam)
    elif (rule.lo, rule.hi) != (lo, hi):
        raise UsageError(f"rule is on [{rule.lo}, {rule.hi}], the fit on [{lo}, {hi}]")
    moments = np.array([quad.frac_moment(lo, hi, lam * k) for k in range(2 * n + 1)])
    ys = quad.sample(y, rule.nodes)
    coeffs, cond, fitted = _ladder_solve("continuous", moments,
                                         _monomial_values(lam, n, rule.nodes),
                                         rule.nodes, ys, rule.weights, lam)
    return FitResult("monomial", lam, coeffs, _sse(ys, fitted, rule.weights), cond,
                     lo, hi)


def fit_discrete_normal(data, lam, n):
    """Fit a data set by the discrete fractional normal equations.

    At lam = 1 this is exactly the classical polynomial least-squares fit:
    the normal matrix entries coincide entrywise with the integer-power
    sums.  Raises ConditioningError on rank deficiency (fewer points than
    coefficients) or a numerically singular system, and DomainError when a
    moment or right-hand-side sum overflows.
    """
    check_lambda(lam)
    n = check_degree(n)
    if len(data) < n + 1:
        raise ConditioningError(
            f"{len(data)} points cannot determine {n + 1} coefficients",
            cond=float("inf"),
        )
    coeffs, cond, fitted = _discrete_fit(data.xs, data.ys, data.weights, lam, n)
    return FitResult("monomial", lam, coeffs, _sse(data.ys, fitted, data.weight_array()),
                     cond, float(np.min(data.xs)), float(np.max(data.xs)))


def _discrete_fit(xs, ys, w, lam, n, table=None, cond=True):
    """(coeffs, cond, fitted) of the discrete fit on checked arrays (xs >= 0,
    all finite, >= n + 1 points); fitted equals ``predict`` at xs bit for bit.

    One sweep sums the moments sum(w * x^(k lam)), k <= 2n, over blocks of
    ``rows`` points (all of them at n <= 2, else at most ``_BLOCK_ROWS``)
    filling rows 1.. of one (rows+1) x (2n+1) buffer whose row 0 holds the
    running sums.  einsum adds rows in order, so from the second block on
    row 0, weighted 1, carries the sum on; the first block leaves it out,
    which keeps one einsum's order at n = 0.  With one block, V = x^(i lam),
    i <= n, is a view of the buffer (a contiguous V would move V^T (w ys) at
    n <= 2); else V is copied out block by block and the buffer, unless it
    is the caller's ``table``, is freed before the solve.  ``w`` None is unit
    weights with the bits of ``np.ones``: plain column sums and V^T ys.  (At
    n = 0 einsum's one-column kernel adds in another order, but its column
    x^0 = 1 sums exactly.)  ``table``, a C-contiguous array of at least
    rows+1 rows and 2n+1 columns, is used as the buffer, so a caller that
    fits many point sets allocates it once.  ``_ladder_solve`` solves."""
    N = len(xs)
    rows = N if n < 3 else min(N, _BLOCK_ROWS)
    buf = np.empty((rows + 1, 2 * n + 1)) if table is None else table[:rows + 1]
    V = buf[1:, :n + 1] if rows == N else np.empty((N, n + 1))
    wb = np.ones(rows + 1) if w is not None and rows < N else None
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, N, rows):
            m = min(rows, N - a)
            _monomial_values(lam, 2 * n, xs[a:a + m], out=buf[1:m + 1])
            if w is not None and a:
                wb[1:m + 1] = w[a:a + m]
            r = 0 if a else 1  # the first block leaves the running-sum row out
            ws = () if w is None else (wb[:m + 1] if a else w[:m],)
            buf[0] = np.einsum("km->m" if w is None else "k,km->m", *ws, buf[r:m + 1])
            if rows < N:
                V[a:a + m] = buf[1:m + 1, :n + 1]
        moments = buf[0].copy()
    del buf, wb
    return _ladder_solve("discrete", moments, V, xs, ys, w, lam, cond)


def fit_projection(target, basis):
    """Expand a target over a W-orthogonal basis by direct inner products.

    a_i = <W y, L_i> / <W, L_i^2>: one ratio per coefficient, no linear
    solve, so the reported condition number is 1.  ``target`` is either a
    callable or a DataSet sampled exactly at the basis's points; a DataSet's
    weights, if any, must equal the basis's (the projection weighs by the
    basis alone), else UsageError.  The rung table is the basis's
    ``point_rungs``, evaluated once when the basis was built.
    """
    w = basis.ip_weights
    if isinstance(target, DataSet):
        if basis.mode != "discrete":
            raise UsageError("a DataSet target needs a discrete-mode basis")
        if len(target) != len(basis.points) or np.any(target.xs != basis.points):
            raise UsageError("data abscissae must match the basis points")
        if not (target.weights is None or target.weights is w
                or np.array_equal(target.weights, w)):
            raise UsageError("data weights must match the basis weights; build the "
                             "basis with the data's weights")
        yvals = target.ys
    else:
        yvals = quad.sample(target, basis.points)

    R = basis.point_rungs
    with np.errstate(over="ignore", invalid="ignore"):  # _sse raises on the inf or nan
        coeffs = R @ (w * yvals) / np.asarray(basis.sq_norms)
        fitted = R.T @ coeffs
    return FitResult("orthogonal", basis.lam, coeffs, _sse(yvals, fitted, w), 1.0,
                     basis.lo, basis.hi, basis_ref=basis)


def predict(fit, x):
    """Evaluate the fitted expansion at finite x >= 0 (extrapolation allowed).
    A value past the float range is a DomainError naming max x, lam and the
    degree."""
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    check_abscissae(xa, "fit abscissae")
    n = len(fit.coeffs) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        if fit.basis == "monomial":
            V = _monomial_values(fit.lam, n, xa)
        elif fit.basis == "muntz_legendre":
            V = muntz_legendre_rungs(n, fit.lam, xa).T
        elif fit.basis == "orthogonal":
            V = fit.basis_ref.ladder_values(xa).T
        else:
            raise UsageError(f"unknown basis descriptor {fit.basis!r}")
        out = V @ fit.coeffs
    if not np.isfinite(out).all():
        raise DomainError(
            f"the fitted value overflows: max x = {float(np.max(xa)):.6g} with lambda = "
            f"{fit.lam} and degree {n} puts it past the float range")
    return float(out[0]) if scalar else out


def expand_to_monomial(fit):
    """Rewrite any fit as ladder coefficients over {x^(i*lam)}."""
    if fit.basis == "monomial":
        return FractionalPolynomial(fit.lam, tuple(fit.coeffs))
    if fit.basis == "orthogonal":
        polys = list(fit.basis_ref.polys)
    elif fit.basis == "muntz_legendre":
        polys = [muntz_legendre_coeffs(i, fit.lam) for i in range(len(fit.coeffs))]
    else:
        raise UsageError(f"unknown basis descriptor {fit.basis!r}")
    out = np.zeros(len(polys[-1].coeffs))
    for a, p in zip(fit.coeffs, polys):
        out[:len(p.coeffs)] += a * np.array(p.coeffs)
    return FractionalPolynomial(fit.lam, tuple(out))


def add_noise(data, percent, seed):
    """Perturb ys with zero-mean Gaussian noise, sigma = percent/100 * |y_k|.

    Deterministic for a fixed seed, a non-negative integer; percent = 0
    returns the data unchanged.
    """
    check_degree(seed, noun="noise seed")
    if not np.isfinite(percent):
        raise DomainError(f"noise percent must be finite, got {percent}")
    if percent < 0:
        raise DomainError(f"noise percent must be >= 0, got {percent}")
    if percent == 0:
        return data
    rng = np.random.default_rng(seed)
    sigma = (percent / 100.0) * np.abs(data.ys)
    noisy = data.ys + sigma * rng.standard_normal(len(data))
    return replace(data, ys=noisy)
