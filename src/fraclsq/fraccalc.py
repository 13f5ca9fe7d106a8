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
exponent lattice, summed on sparse int rows (``_lattice``, ``_exact_gram``),
kept exact through every refinement residual, and the error is the exact
integral of the squared residual row.  A solution in the basis span is
recovered to the last bit only while the float refinement contracts
(cond * eps < 1): on monomial ladders at n=10 and n=14, where cond reaches
1e14-2e18, in-ladder solutions are missed by 1.7e-6 to 4.8e-5.
Otherwise a quadrature rule samples the rows of Psi for ``lsq``'s float core.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Callable, Union

import numpy as np

from .errors import (ConditioningError, DegeneracyError, DomainError, check_degree,
                     check_lambda)
from .fracpoly import muntz_legendre_coeffs
from .lsq import FitResult, _normal_solve, _sse, predict
from .solvers import _dyadic, solve_normal_equations
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

#: how many ladder bases and exponent lattices are kept for reuse; both
#: depend on the problem's structure only, not on its coefficients
BASIS_CACHE = 64
LATTICE_CACHE = 64

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
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for e, c in self.terms:
            out = out + c * x**e
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


@np.errstate(over="ignore", invalid="ignore")
def _merge(rows, blocks):
    """(exps, M): (exponents, matrix) blocks summed into the first rows of a
    ``rows``-row matrix, per keyed exponent from 0.0 in block order; all-zero
    columns drop, and ``exps`` is a tuple.  A sum past the float range is a
    DomainError naming the first such entry by row, then exponent."""
    keyed = [[_key(e) for e in es] for es, _ in blocks]
    exps = sorted(set().union(*keyed))
    col = {e: a for a, e in enumerate(exps)}
    M = np.zeros((rows, len(exps)))
    for ks, (_, V) in zip(keyed, blocks):
        np.add.at(M[:len(V)], (slice(None), [col[k] for k in ks]), V)  # in order
    if not np.isfinite(M).all():
        i, a = np.argwhere(~np.isfinite(M))[0]
        raise DomainError(f"terms must be finite, got {M[i, a]} * x^{exps[a]}")
    live = M.any(axis=0)
    return tuple(e for e, on in zip(exps, live) if on), M[:, live]


@np.errstate(over="ignore", invalid="ignore")  # _merge names a sum past the float range
def _image(prob, exps, C, ic=False):
    """The ``_merge`` blocks of the operator of ``prob`` on every row of C over
    ``exps``, plus each row's constant when ``ic``.  A Caputo term sends column
    e > 0 to e - alpha, scaled as (c * Gamma(e+1)) / Gamma(e+1-alpha) and then
    by its coeff; the blocks come in the order terms, reaction, IC."""
    blocks = []
    for alpha, coeff in prob.terms:
        if coeff == 0.0:
            continue
        src = [a for a, e in enumerate(exps) if e != 0.0]  # constants map to zero
        low = [exps[a] for a in src if _key(exps[a] - alpha) < 0]  # keyed as _merge keys it
        if low:
            raise DomainError(f"term x^{low[0]} under D^{alpha} leaves the nonnegative-"
                              f"exponent representation (need exponent >= order)")
        up = np.array([gamma(exps[a] + 1.0) for a in src])
        down = np.array([gamma(exps[a] + 1.0 - alpha) for a in src])
        blocks.append(([exps[a] - alpha for a in src], coeff * (C[:, src] * up / down)))
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
    exps, M = _merge(1, _image(prob, [e for e, _ in p.terms],
                               np.array([[c for _, c in p.terms]], dtype=float)))
    return FracFunction(tuple(zip(exps, M[0].tolist())))


@lru_cache(maxsize=LATTICE_CACHE)
def _lattice(exps):
    """(Q, W, L): the kernel 1/(e_a + e_b + 1) on the sorted tuple ``exps`` in
    ints.  With e_a = P_a / Q exactly (``_dyadic``'s split) it is Q / s_ab,
    s_ab = P_a + P_b + Q; L is the lcm of the distinct sums and
    W[a][b] = L // s_ab, in tuples of Python ints.  Cached on the exponents."""
    (P,), Q = _dyadic(np.array([exps], dtype=float))
    sums = [[a + b + Q for b in P] for a in P]
    distinct = set().union(*sums)
    L = math.lcm(*distinct)
    weight = {s: L // s for s in distinct}
    return Q, tuple(tuple(map(weight.__getitem__, row)) for row in sums), L


def _exact_gram(A, lattice):
    """(N, D) with <a_i, a_j> over [0, 1] exactly N[i][j] / D for the rows of
    A over a ``_lattice``: A = Z / K in dyadic ints, N = Q * (Z W Z^T) in int
    rows, D = L K^2.  Only the nonzeros of Z enter, and only j <= i is summed:
    M_i = Z_i W on the columns rows 0..i use, N_ij = Q * M_i Z_j^T.
    Extra exponents (zero columns) change N and D but not the rational N / D."""
    Q, W, L = lattice
    Z, K = _dyadic(A)
    rows = [([a for a, z in enumerate(row) if z], [z for z in row if z]) for row in Z]
    N = [[0] * len(rows) for _ in rows]
    cols = set()
    for i, (ai, zi) in enumerate(rows):
        cols.update(ai)
        M = {b: sum(map(mul, map(W[b].__getitem__, ai), zi)) for b in cols}  # W = W^T
        for j, (aj, zj) in enumerate(rows[:i + 1]):
            N[i][j] = N[j][i] = Q * sum(map(mul, map(M.__getitem__, aj), zj))
    return N, L * K * K


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
    Psi and F sampled at a rule's nodes, solved and scored by ``lsq``'s
    float core.  A value past the float range on the way is ``_overflow``."""
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
        A = (M * w[:, None]).T @ M
        try:
            coeffs, cond, fitted = _normal_solve(A, M, fvals, w, allow_semidefinite=True)
        except ConditioningError:
            # a finite system with a positive diagonal fails only when its
            # solution lies past the float range
            finite = np.isfinite(A).all() and np.isfinite(M.T @ (w * fvals)).all()
            if finite and (A.diagonal() <= 0).any():
                raise
            raise _overflow(prob, "quadrature") from None
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
    the residual and ``lsq``'s float core solves and scores it.  Either
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
            N, D = _exact_gram(A, lattice)
            if max(N[i][i] for i in range(len(N))) > int(np.finfo(float).max) * D:
                raise _overflow(prob, "exact")  # every |N[i][j]| <= the largest N[i][i]
            Gd = np.array([[v / D for v in row] for row in N[:-1]])
            # semidefinite systems (operator image parallel to the IC
            # constant, e.g. lam == alpha) take the minimum-norm solution
            coeffs, cond = solve_normal_equations(Gd[:, :-1], Gd[:, -1], (N[:-1], D),
                                                  allow_semidefinite=True)
            # r = sum_i a_i Psi_i - F in rung order; a matmul would round differently
            r = sum((a * psi for a, psi in zip(coeffs, A)), np.zeros(len(exps))) - A[-1]
            N, D = _exact_gram(r[None], lattice)
            error = N[0][0] / D
        else:
            coeffs, cond, error = _quadrature_solve(prob, blocks, n)
    except ConditioningError as exc:
        raise DegeneracyError(f"residual normal equations are singular: {exc}") from exc
    return FitResult(basis_kind, lam, coeffs, error, cond, 0.0, prob.hi)


def fde_abs_error(fit, exact, x):
    """|exact(x) - fitted(x)| at a point."""
    return abs(float(exact(x)) - predict(fit, x))
