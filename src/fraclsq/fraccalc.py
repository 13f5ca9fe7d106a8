"""Caputo derivatives of fractional power functions and a residual
least-squares solver for linear multi-term fractional differential equations
on [0, 1].

The solver expands the unknown over a ladder basis of the fractional
monomial space, forms the equation residual

    R(x; a) = sum_m c_m D^(alpha_m) P(x) + reaction * P(x) - f(x)
              + (P(0) - y0)

(the initial condition enters as a constant inside the residual, which also
pins the constant basis direction the Caputo operator annihilates), and
minimizes the integral of R^2.  Because every operator image is again a
finite sum of power functions, all inner products reduce to closed-form
moments; they are assembled in exact rational arithmetic and the normal
equations solved with exact-residual refinement, so a solution that lies in
the basis span is recovered to the last bit and the reported error
functional is the exact integral of the squared residual at the returned
coefficients.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Union

import numpy as np

from .errors import ConditioningError, DegeneracyError, DomainError
from .fracpoly import muntz_legendre_coeffs
from .lsq import FitResult, predict
from .solvers import solve_normal_equations
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

#: exponents are keyed after rounding to this many decimals, so terms built
#: through different arithmetic paths (i*lam - alpha vs (i*lam) - alpha)
#: collapse onto one ladder rung
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
        """Collect (coefficient, exponent) pairs, merging equal exponents."""
        acc = {}
        for c, e in pairs:
            if not (math.isfinite(c) and math.isfinite(e)):
                raise DomainError(f"terms must be finite, got {c} * x^{e}")
            e = _key(e)
            if e < 0:
                raise DomainError(f"exponents must be >= 0, got {e}")
            acc[e] = acc.get(e, 0.0) + float(c)
        return cls(tuple(sorted((e, c) for e, c in acc.items() if c != 0.0)))

    @classmethod
    def from_fracpoly(cls, p):
        return cls.from_terms((c, i * p.lam) for i, c in enumerate(p.coeffs))

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

    def integral01(self):
        """Exact integral over [0, 1]: sum c_j / (nu_j + 1)."""
        return float(sum(Fraction(c) / (Fraction(e) + 1) for e, c in self.terms))


def caputo_derivative(p, alpha):
    """Termwise Caputo power rule of order alpha in (0, 1).

    x^nu maps to Gamma(nu+1)/Gamma(nu+1-alpha) x^(nu-alpha) for nu > 0 and
    constants map to zero.  Exponents in (0, alpha) would leave the
    nonnegative-exponent representation and are rejected.
    """
    if not 0 < alpha < 1:
        raise DomainError(f"Caputo order must lie in (0, 1), got {alpha}")
    out = []
    for c, e in p.coeff_pairs:
        if e == 0.0:
            continue
        if e < alpha:
            raise DomainError(
                f"term x^{e} under D^{alpha} leaves the nonnegative-exponent "
                f"representation (need exponent >= order)"
            )
        out.append((c * gamma(e + 1.0) / gamma(e + 1.0 - alpha), e - alpha))
    return FracFunction.from_terms(out)


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
    parts = []
    for alpha, coeff in prob.terms:
        if coeff != 0.0:
            parts.extend(caputo_derivative(p, alpha).scaled(coeff).coeff_pairs)
    if prob.reaction != 0.0:
        parts.extend(p.scaled(prob.reaction).coeff_pairs)
    return FracFunction.from_terms(parts)


def _exact_pairing(f, g):
    """<f, g> over [0, 1] in exact rational arithmetic."""
    s = Fraction(0)
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            s += Fraction(c1) * Fraction(c2) / (Fraction(e1) + Fraction(e2) + 1)
    return s


def _basis(lam, n, kind):
    if kind == "monomial":
        return [FracFunction(((_key(i * lam), 1.0),)) for i in range(n + 1)]
    if kind == "muntz_legendre":
        return [FracFunction.from_fracpoly(muntz_legendre_coeffs(i, lam))
                for i in range(n + 1)]
    raise DomainError(f"unknown basis kind {kind!r}")


def solve_fde(prob, lam, n, basis_kind="monomial", rule=None):
    """Minimize the integrated squared residual over the degree-n ladder.

    Returns a FitResult whose ``error`` is the value of the residual
    functional at the minimizer and whose coefficients express the
    approximate solution in the chosen basis.

    With a FracFunction right-hand side and no explicit rule, all normal-
    equation entries are exact rational moments (interval [0, 1] only);
    otherwise the supplied quadrature rule evaluates them pointwise.
    """
    if not 0 < lam <= 2:
        raise DomainError(f"lambda must lie in (0, 2], got {lam}")
    if n < 0 or n + 1 > MAX_FDE_SIZE:
        raise DomainError(f"degree index must be in [0, {MAX_FDE_SIZE - 1}]")
    if prob.rhs is None:
        raise DomainError("problem has no right-hand side")

    phis = _basis(lam, n, basis_kind)
    # psi_i = L[phi_i] + phi_i(0): the operator image plus the IC constant
    psis = [apply_operator(prob, phi) + FracFunction.from_terms([(phi.at_zero(), 0.0)])
            for phi in phis]

    exact_ok = isinstance(prob.rhs, FracFunction) and rule is None and prob.hi == 1.0
    if exact_ok:
        F = prob.rhs + FracFunction.from_terms([(prob.initial_value, 0.0)])
        Gq = [[_exact_pairing(psis[i], psis[j]) for j in range(n + 1)]
              for i in range(n + 1)]
        dq = [_exact_pairing(psi, F) for psi in psis]
        G = np.array([[float(v) for v in row] for row in Gq])
        d = np.array([float(v) for v in dq])
        try:
            # semidefinite systems (operator image parallel to the IC
            # constant, e.g. lam == alpha) take the minimum-norm solution
            coeffs, cond = solve_normal_equations(G, d, exact_A=Gq, exact_b=dq,
                                                  allow_semidefinite=True)
        except ConditioningError as exc:
            raise DegeneracyError(
                f"residual normal equations are singular: {exc}") from exc
        resid = FracFunction.from_terms(
            [(a * c, e) for a, psi in zip(coeffs, psis) for c, e in psi.coeff_pairs]
            + [(-c, e) for c, e in F.coeff_pairs]
        )
        error = float(_exact_pairing(resid, resid))
    else:
        if rule is None:
            # the x^step substitution makes the residual integrands exactly
            # polynomial when the operator images share an exponent step
            exps = {e for psi in psis for e, _ in psi.terms}
            rule = quad.ladder_rule(quad.MAX_POINTS // 2, exps, 0.0, prob.hi)
        fvals = quad.sample(prob.rhs, rule.nodes) + prob.initial_value
        M = np.column_stack([psi(rule.nodes) for psi in psis])
        G = (M * rule.weights[:, None]).T @ M
        d = M.T @ (rule.weights * fvals)
        try:
            coeffs, cond = solve_normal_equations(G, d, allow_semidefinite=True)
        except ConditioningError as exc:
            raise DegeneracyError(
                f"residual normal equations are singular: {exc}") from exc
        r = M @ coeffs - fvals
        error = float(np.sum(rule.weights * r * r))

    return FitResult(basis_kind, lam, coeffs, max(error, 0.0), cond,
                     0.0, prob.hi)


def fde_abs_error(fit, exact, x):
    """|exact(x) - fitted(x)| at a point."""
    return abs(float(exact(x)) - predict(fit, x))
