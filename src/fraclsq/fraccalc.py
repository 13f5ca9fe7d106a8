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

The exact moments are one integer matrix product over one denominator: all
functions of one Gram matrix are written over one shared exponent set, and
the kernel 1/(e_a + e_b + 1) becomes integer weights over the lcm of the
distinct exponent sums (see ``_lattice`` and ``_exact_gram``).  One
solve builds that lattice once, from the operator images and the
right-hand side, and scores its residual on it too.  The augmented system
[G | d] stays in that form through every refinement residual; floats come
from one correctly rounded int/int division per entry.
"""

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import (ConditioningError, DegeneracyError, DomainError, check_degree,
                     check_lambda)
from .fracpoly import muntz_legendre_coeffs
from .lsq import FitResult, _normal_solve, _sse, predict
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


def _lattice(hs):
    """(col, Q, W, L): the shared exponent lattice of the functions ``hs``.

    The sorted exponents are e_a = P_a / Q exactly (Q the largest
    power-of-two denominator; ``col`` maps each exponent to its index a), so
    1/(e_a + e_b + 1) = Q / s_ab with s_ab = P_a + P_b + Q.  L is the lcm of
    the distinct sums and W_ab = L // s_ab, as Python ints.
    """
    exps = sorted({e for h in hs for e, _ in h.terms})
    col = {e: a for a, e in enumerate(exps)}
    ratios = [e.as_integer_ratio() for e in exps]
    Q = max((q for _, q in ratios), default=1)
    P = np.array([p * (Q // q) for p, q in ratios], dtype=object)
    sums = P[:, None] + P[None, :] + Q
    distinct = set(sums.flat)
    L = math.lcm(*distinct)
    weight = {s: L // s for s in distinct}
    W = np.array([weight[s] for s in sums.flat], dtype=object).reshape(sums.shape)
    return col, Q, W, L


def _exact_gram(fs, gs, lattice=None):
    """(N, D) with <f_i, g_j> over [0, 1] exactly N[i, j] / D: N an object
    array of Python ints, D one int, neither reduced.

    Every function is written over one ``_lattice`` (built from fs and gs
    unless a lattice covering all their exponents is passed).  With the
    coefficients scaled to integers over one power of two per side (Sf, Sg),
    the whole matrix is the integer product Q * (Mf W Mg^T) / (L Sf Sg).  A
    larger lattice changes N and D but not the rational N / D, so any
    correctly rounded division of them gives the same float.
    """
    col, Q, W, L = _lattice([*fs, *gs]) if lattice is None else lattice

    def integer_coeffs(hs):
        S = max((c.as_integer_ratio()[1] for h in hs for _, c in h.terms), default=1)
        M = np.zeros((len(hs), len(col)), dtype=object)
        for i, h in enumerate(hs):
            for e, c in h.terms:
                p, q = c.as_integer_ratio()
                M[i, col[e]] = p * (S // q)
        return M, S

    Mf, Sf = integer_coeffs(fs)
    Mg, Sg = integer_coeffs(gs)
    return Q * (Mf @ W @ Mg.T), L * Sf * Sg


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
    otherwise the quadrature rule samples the residual and ``lsq``'s float
    least-squares core solves and scores it.  Either route raises
    DegeneracyError when its normal equations are singular.
    """
    check_lambda(lam)
    n = check_degree(n, MAX_FDE_SIZE - 1)
    if prob.rhs is None:
        raise DomainError("problem has no right-hand side")

    phis = _basis(lam, n, basis_kind)
    # psi_i = L[phi_i] + phi_i(0): the operator image plus the IC constant
    psis = [apply_operator(prob, phi) + FracFunction.from_terms([(phi.at_zero(), 0.0)])
            for phi in phis]

    exact_ok = isinstance(prob.rhs, FracFunction) and rule is None and prob.hi == 1.0
    try:
        if exact_ok:
            F = prob.rhs + FracFunction.from_terms([(prob.initial_value, 0.0)])
            # one lattice serves [G | d] and the residual, whose exponents
            # are all psi or F exponents
            lattice = _lattice(psis + [F])
            # the augmented system [G | d] as integers over one denominator
            N, D = _exact_gram(psis, psis + [F], lattice)
            Gd = (N / D).astype(float)
            # semidefinite systems (operator image parallel to the IC
            # constant, e.g. lam == alpha) take the minimum-norm solution
            coeffs, cond = solve_normal_equations(Gd[:, :-1], Gd[:, -1], (N, D),
                                                  allow_semidefinite=True)
            resid = FracFunction.from_terms(
                [(a * c, e) for a, psi in zip(coeffs, psis) for c, e in psi.coeff_pairs]
                + [(-c, e) for c, e in F.coeff_pairs]
            )
            N, D = _exact_gram([resid], [resid], lattice)
            error = N[0, 0] / D
        else:
            if rule is None:
                # the x^step substitution makes the residual integrands exactly
                # polynomial when the operator images share an exponent step
                exps = {e for psi in psis for e, _ in psi.terms}
                rule = quad.ladder_rule(quad.MAX_POINTS // 2, exps, 0.0, prob.hi)
            w = rule.weights
            fvals = quad.sample(prob.rhs, rule.nodes) + prob.initial_value
            M = np.column_stack([psi(rule.nodes) for psi in psis])
            coeffs, cond, fitted = _normal_solve((M * w[:, None]).T @ M, M, fvals, w,
                                                 allow_semidefinite=True)
            error = _sse(fvals, fitted, w)
    except ConditioningError as exc:
        raise DegeneracyError(f"residual normal equations are singular: {exc}") from exc
    return FitResult(basis_kind, lam, coeffs, error, cond, 0.0, prob.hi)


def fde_abs_error(fit, exact, x):
    """|exact(x) - fitted(x)| at a point."""
    return abs(float(exact(x)) - predict(fit, x))
