"""Caputo derivatives of fractional power functions and a residual
least-squares solver for linear multi-term fractional differential equations
on [0, 1].

The solver expands the unknown over a ladder basis of the fractional
monomial space and minimizes the integral of the squared residual

    R(x; a) = sum_m c_m D^(alpha_m) P(x) + reaction * P(x) - f(x) + (P(0) - y0)

(the initial condition enters as a constant, which also pins the constant
basis direction the Caputo operator annihilates).  Power sums are held as
float coefficient matrices over sorted keyed exponents (``_merge``): the
basis is one, and the operator is a column map on it (``_image``) whose
blocks sum to the images Psi of all rungs at once; ``caputo_derivative`` and
``apply_operator`` are that map on one row.  With a power-sum right-hand
side F on [0, 1], the Gram matrix of [Psi; F] is an integer form over one
exponent lattice, which ``solvers`` builds and reads back
(``solvers._gram_system``); it stays exact through every refinement
residual, and the error is the exact integral of the squared residual row
(``solvers._sq_integral``).  What depends on structure only is built once
per process in bounded caches: the basis (``_basis``), each order's column
map with its Gamma ratios (``_image_plan``), the merge columns
(``_columns``) and the lattice (``solvers._lattice``).  An exact solve then
costs its big-int sums: the Gram (about 40 % of the route in process) and
the refinement residuals (about 30 %).  The coefficients are not the
last bits of the exact solution x* of the Gram system: for T8's in-ladder
solution at lam=0.5, n=8 (cond 3.3e11) a_0..a_6 come back as up to
1.1e-167 where x* is 0.  ``tests/test_answers.py`` checks the refinement's
bound, cond * eps * ||x*||_inf, on discrete fits only; this route misses
it on monomial ladders at n=10-11 whose cond passes 1/(64 eps), where the
semidefinite solve drops eigenvalues.  On monomial ladders at n=10 and
n=14 (cond 1e14-2e18), in-ladder solutions are missed by 1.7e-6 to 4.8e-5.
Otherwise a quadrature rule samples the rows of Psi for a float solve.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import (ConditioningError, DegeneracyError, DomainError, check_abscissae,
                     check_degree, check_lambda)
from .fracpoly import muntz_legendre_coeffs
from .lsq import FitResult, _sse, predict
from .solvers import (LATTICE_CACHE, _gram_system, _lattice, _sq_integral,
                      solve_normal_equations)
from . import quadrature as quad
from .special import gamma

__all__ = [
    "FracFunction",
    "FdeProblem",
    "caputo_derivative",
    "apply_operator",
    "solve_fde",
    "fde_abs_error",
]

MAX_FDE_SIZE = 15  # n+1 cap for the residual normal equations

#: how many ladder bases (and image plans, one per ladder and order) are kept
#: for reuse; merge column plans are kept one per exponent lattice
#: (``solvers.LATTICE_CACHE``); all depend on the problem's structure only,
#: not on its coefficients
BASIS_CACHE = 64

#: exponents are keyed by rounding to this many decimals so that one exponent
#: reached by different float arithmetic lands on one column: a keyed rung
#: shifted by an order, (i*lam) - alpha, and the same exponent written as
#: i*lam - alpha in a right-hand side differ in their last bits.  Below the
#: exponent cap of about 30 such differences are under 1e-14, far inside 5e-13.
_EXP_DECIMALS = 12


def _key(e):
    e = round(float(e), _EXP_DECIMALS)
    return 0.0 if e == 0 else e


@dataclass(frozen=True)
class FracFunction:
    """Finite sum of power functions sum_j c_j x^(nu_j), nu_j >= 0 distinct."""

    terms: tuple  # ((exponent, coefficient), ...) sorted by exponent

    @classmethod
    def from_terms(cls, pairs):
        """Collect (coefficient, exponent) pairs, merging equal exponents
        (summed by ``_merge``)."""
        pairs = list(pairs)
        for c, e in pairs:
            if not (math.isfinite(c) and math.isfinite(e)):
                raise DomainError(f"terms must be finite, got {c} * x^{e}")
            if _key(e) < 0:
                raise DomainError(f"exponents must be >= 0, got {_key(e)}")
        exps, M = _merge(1, [([e for _, e in pairs], [[float(c) for c, _ in pairs]])])
        return cls(tuple(zip(exps, M[0].tolist())))

    @property
    def coeff_pairs(self):
        """Terms as (coefficient, exponent) pairs."""
        return tuple((c, e) for e, c in self.terms)

    def __call__(self, x):
        """The sum at a scalar (a float) or an array of finite x >= 0; a
        value past the float range is a DomainError naming max x."""
        x = np.asarray(x, dtype=float)
        check_abscissae(x, "power sum abscissae")
        out = np.zeros_like(x)
        with np.errstate(over="ignore", invalid="ignore"):
            for e, c in self.terms:
                out = out + c * x**e
        if not np.isfinite(out).all():
            raise DomainError(f"the power sum overflows: max x = {float(np.max(x)):.6g} "
                              f"puts it past the float range")
        return float(out) if out.ndim == 0 else out

    def at_zero(self):
        for e, c in self.terms:
            if e == 0.0:
                return c
        return 0.0

    def scaled(self, s):
        return FracFunction(tuple((e, s * c) for e, c in self.terms)) if s != 0 \
            else FracFunction(())

    def __add__(self, other):
        return FracFunction.from_terms(self.coeff_pairs + other.coeff_pairs)


@lru_cache(maxsize=LATTICE_CACHE)
def _columns(keys):
    """(exps, idx): the sorted keyed exponents of the tuple of block exponent
    tuples ``keys`` and, per block, the read-only array of its columns in
    ``exps``; cached on ``keys``."""
    keyed = [[_key(e) for e in es] for es in keys]
    exps = sorted(set().union(*keyed))
    col = {e: a for a, e in enumerate(exps)}
    idx = [np.array([col[k] for k in ks], dtype=np.intp) for ks in keyed]
    for ix in idx:
        ix.flags.writeable = False
    return tuple(exps), tuple(idx)


@np.errstate(over="ignore", invalid="ignore")
def _merge(rows, blocks):
    """(exps, M): (exponents, matrix) blocks summed into the first rows of a
    ``rows``-row matrix, per keyed exponent from 0.0 in block order; all-zero
    columns drop, and ``exps`` is a tuple.  A sum past the float range is a
    DomainError naming the first such entry by row, then exponent."""
    exps, idx = _columns(tuple(tuple(es) for es, _ in blocks))
    M = np.zeros((rows, len(exps)))
    for ix, (_, V) in zip(idx, blocks):
        np.add.at(M[:len(V)], (slice(None), ix), V)  # in order
    if not np.isfinite(M).all():
        i, a = np.argwhere(~np.isfinite(M))[0]
        raise DomainError(f"terms must be finite, got {M[i, a]} * x^{exps[a]}")
    live = M.any(axis=0)
    return tuple(e for e, on in zip(exps, live) if on), M[:, live]


@lru_cache(maxsize=BASIS_CACHE)
def _image_plan(exps, alpha):
    """(src, up, down, shifted): the columns of ``exps`` that D^alpha does not
    annihilate (e > 0), as a read-only index array, Gamma(e+1) and
    Gamma(e+1-alpha) on them as read-only arrays, and their exponents e - alpha;
    cached on (exps, alpha)."""
    src = [a for a, e in enumerate(exps) if e != 0.0]  # constants map to zero
    low = [exps[a] for a in src if _key(exps[a] - alpha) < 0]  # keyed as _merge keys it
    if low:
        raise DomainError(f"term x^{low[0]} under D^{alpha} leaves the nonnegative-"
                          f"exponent representation (need exponent >= order)")
    plan = (np.array(src, dtype=np.intp), np.array([gamma(exps[a] + 1.0) for a in src]),
            np.array([gamma(exps[a] + 1.0 - alpha) for a in src]))
    for arr in plan:
        arr.flags.writeable = False
    return (*plan, tuple(exps[a] - alpha for a in src))


@np.errstate(over="ignore", invalid="ignore")  # _merge names a sum past the float range
def _image(prob, exps, C, ic=False):
    """The ``_merge`` blocks of the operator of ``prob`` on every row of C over
    the tuple ``exps``, plus each row's constant when ``ic``.  A Caputo term
    sends column e > 0 to e - alpha, scaled as (c * Gamma(e+1)) /
    Gamma(e+1-alpha) and then by its coeff (``_image_plan``); the blocks come
    in the order terms, reaction, IC."""
    blocks = []
    for alpha, coeff in prob.terms:
        if coeff == 0.0:
            continue
        src, up, down, shifted = _image_plan(exps, alpha)
        blocks.append((shifted, coeff * (C[:, src] * up / down)))
    if prob.reaction != 0.0:
        blocks.append((exps, prob.reaction * C))
    if ic:
        blocks.append((exps[:1], C[:, :1]))  # a ladder's first column is x^0
    return blocks


def caputo_derivative(p, alpha):
    """Termwise Caputo power rule of order alpha in (0, 1).

    x^nu maps to Gamma(nu+1)/Gamma(nu+1-alpha) x^(nu-alpha) for nu > 0 and
    constants map to zero.  Exponents in (0, alpha) would leave the
    nonnegative-exponent representation and are rejected, unless the
    12-decimal exponent keying puts nu - alpha at 0.
    """
    return apply_operator(FdeProblem(terms=((alpha, 1.0),)), p)


@dataclass(frozen=True)
class FdeProblem:
    """Multi-term linear Caputo problem on [0, hi]:

        sum_m coeff_m * D^(alpha_m) y + reaction * y = rhs,   y(0) = initial_value.

    ``terms`` is a sequence of (alpha, coeff) with every alpha in (0, 1);
    ``rhs`` is a FracFunction (enables the exact-moment solver path) or a
    plain callable (forces the quadrature path).
    """

    terms: tuple
    reaction: float = 0.0
    rhs: Union[FracFunction, Callable, None] = None
    initial_value: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "terms",
                           tuple((float(a), float(c)) for a, c in self.terms))
        for a, _ in self.terms:
            if not 0 < a < 1:
                raise DomainError(f"Caputo orders must lie in (0, 1), got {a}")
        if not all(math.isfinite(v) for v in
                   (*(c for _, c in self.terms), self.reaction, self.initial_value)):
            raise DomainError("term coefficients, reaction and initial value must be "
                              "finite")
        if not (self.hi > 0 and math.isfinite(self.hi)):
            raise DomainError("interval must be [0, hi] with finite hi > 0")


def apply_operator(prob, p):
    """sum_m coeff_m D^(alpha_m) p + reaction * p (rhs and IC not included)."""
    exps, M = _merge(1, _image(prob, tuple(e for e, _ in p.terms),
                               np.array([[c for _, c in p.terms]], dtype=float)))
    return FracFunction(tuple(zip(exps, M[0].tolist())))


@lru_cache(maxsize=BASIS_CACHE)
def _basis(lam, n, kind):
    """(exps, C): the ladder exponents and one coefficient row per rung, as a
    tuple and a read-only array; cached on (lam, n, kind), so callers pass
    lam as a float."""
    if kind not in ("monomial", "muntz_legendre"):
        raise DomainError(f"unknown basis kind {kind!r}")
    C = np.eye(n + 1)
    if kind == "muntz_legendre":
        for i in range(n + 1):
            C[i, :i + 1] = muntz_legendre_coeffs(i, lam).coeffs
    exps, C = _merge(n + 1, [([i * lam for i in range(n + 1)], C)])
    C.flags.writeable = False
    return exps, C


def _overflow(prob, route):
    """The DomainError of a ``route`` whose normal equations leave the float
    range, naming the problem's largest magnitudes."""
    big = max([abs(c) for _, c in prob.terms], default=0.0)
    return DomainError(
        f"the {route} residual normal equations overflow the float range (largest "
        f"|term coefficient| = {big:.6g}, |reaction| = {abs(prob.reaction):.6g}, "
        f"|y0| = {abs(prob.initial_value):.6g})")


def _quadrature_solve(prob, blocks, n):
    """(coeffs, cond, error) of ``solve_fde``'s quadrature route: the rows of
    Psi and F sampled at a rule's nodes, solved as a float system taken as
    exact and scored by ``lsq._sse``.  An overflow on the way is ``_overflow``."""
    try:
        exps, Psi = _merge(n + 1, blocks)
    except DomainError:  # a coefficient of Psi past the float range
        raise _overflow(prob, "quadrature") from None
    # the x^step substitution makes the residual integrands exactly
    # polynomial when the operator images share an exponent step
    rule = quad.ladder_rule(quad.MAX_POINTS // 2, exps, 0.0, prob.hi)
    x, w = rule.nodes, rule.weights
    fvals = quad.sample(prob.rhs, x)  # the caller's function keeps its warnings
    with np.errstate(over="ignore", invalid="ignore"):
        fvals = fvals + prob.initial_value
        # Psi's rows at the nodes, summed as FracFunction.__call__ sums
        M = np.zeros((len(x), n + 1))
        for e, psi in zip(exps, Psi.T):
            nz = psi != 0
            M[:, nz] += np.multiply.outer(x**e, psi[nz])
        A, rhs = (M * w[:, None]).T @ M, M.T @ (w * fvals)
        try:
            coeffs, cond = solve_normal_equations(A, rhs, allow_semidefinite=True)
        except ConditioningError:
            # a finite system with a positive diagonal fails only when its
            # solution lies past the float range
            finite = np.isfinite(A).all() and np.isfinite(rhs).all()
            if finite and (A.diagonal() <= 0).any():
                raise
            raise _overflow(prob, "quadrature") from None
        fitted = M @ coeffs
    try:
        return coeffs, cond, _sse(fvals, fitted, w)
    except DomainError:
        raise _overflow(prob, "quadrature") from None


def solve_fde(prob, lam, n, basis_kind="monomial"):
    """Minimize the integrated squared residual over the degree-n ladder.

    Returns a FitResult whose ``error`` is the residual functional at the
    minimizer and whose coefficients express the solution in the chosen basis.
    With a FracFunction right-hand side on [0, 1], all normal-equation
    entries are exact rational moments; otherwise a quadrature rule samples
    the residual and a float solve and ``lsq._sse`` score it.  Either
    route raises DegeneracyError when its normal equations are singular, and
    one DomainError naming the largest |term coefficient|, |reaction| and
    |y0| when they leave the float range; a zero operator (every term
    coefficient and the reaction 0) raises DomainError.
    """
    check_lambda(lam)
    n = check_degree(n, MAX_FDE_SIZE - 1)
    if prob.rhs is None:
        raise DomainError("problem has no right-hand side")
    if prob.reaction == 0.0 and not any(c for _, c in prob.terms):
        raise DomainError("the operator is zero: every term coefficient and the "
                          "reaction are 0")

    # blocks of Psi[i] = L[phi_i] + phi_i(0): each rung's image plus its IC constant
    blocks = _image(prob, *_basis(float(lam), n, basis_kind), ic=True)

    try:
        if isinstance(prob.rhs, FracFunction) and prob.hi == 1.0:
            # A = [Psi; F], F = rhs + y0, on one lattice that also scores the residual
            Fe, Fc = zip(*prob.rhs.terms, (0.0, prob.initial_value))
            try:
                exps, A = _merge(n + 2, [*blocks,
                                         (Fe, np.vstack([np.zeros((n + 1, len(Fc))), Fc]))])
            except DomainError:  # a coefficient of Psi or F past the float range
                raise _overflow(prob, "exact") from None
            lattice = _lattice(exps)
            try:
                G, d, exact = _gram_system(A, lattice)
            except OverflowError:
                raise _overflow(prob, "exact") from None
            # semidefinite systems (operator image parallel to the IC
            # constant, e.g. lam == alpha) take the minimum-norm solution
            coeffs, cond = solve_normal_equations(G, d, exact, allow_semidefinite=True)
            # r = sum_i a_i Psi_i - F in rung order; a matmul would round differently
            r = sum((a * psi for a, psi in zip(coeffs, A)), np.zeros(len(exps))) - A[-1]
            error = _sq_integral(r, lattice)
        else:
            coeffs, cond, error = _quadrature_solve(prob, blocks, n)
    except ConditioningError as exc:
        raise DegeneracyError(f"residual normal equations are singular: {exc}") from exc
    return FitResult(basis_kind, lam, coeffs, error, cond, 0.0, prob.hi)


def fde_abs_error(fit, exact, x):
    """|exact(x) - fitted(x)| at a point."""
    return abs(float(exact(x)) - predict(fit, x))
