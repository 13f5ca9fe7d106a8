"""Built-in analytic test functions addressable by name from the CLI.

Each entry is a callable; a finite sum of power terms is its FracFunction,
whose exponents let continuous-fit jobs pick a quadrature substitution
making every integral exact.
"""

import math
from dataclasses import dataclass
from typing import Callable

from .errors import UsageError
from .fraccalc import FdeProblem, FracFunction, apply_operator
from .special import mittag_leffler

__all__ = ["NamedFunction", "NAMED_FUNCTIONS", "lookup", "multi_term_problem",
           "single_term_problem"]

#: growth-rate and order of the world-population model curve
POPULATION_RATE = 1.3502e-2
POPULATION_ORDER = 1.39


@dataclass(frozen=True)
class NamedFunction:
    name: str
    fn: Callable
    description: str

    def __call__(self, x):
        return self.fn(x)

    @property
    def frac(self):
        """``fn`` when it is a finite power sum (a FracFunction), else None."""
        return self.fn if isinstance(self.fn, FracFunction) else None

    @property
    def exponents(self):
        return tuple(e for e, _ in self.frac.terms) if self.frac else ()


def single_term_problem(alpha=0.5):
    """D^alpha y = f with exact solution y = x, y(0) = 0 on [0, 1].

    The right-hand side is the operator applied to the exact solution, so
    its coefficients match the solver's power-rule arithmetic bit for bit.
    """
    prob = FdeProblem(terms=((alpha, 1.0),))
    y_exact = FracFunction.from_terms([(1.0, 1.0)])
    return FdeProblem(terms=prob.terms, rhs=apply_operator(prob, y_exact)), y_exact


def multi_term_problem(alpha1=0.5, alpha2=0.25):
    """D^alpha1 y + D^alpha2 y + y = f with exact solution x^3.5 + x^4, y(0)=0."""
    prob = FdeProblem(terms=((alpha1, 1.0), (alpha2, 1.0)), reaction=1.0)
    y_exact = FracFunction.from_terms([(1.0, 3.5), (1.0, 4.0)])
    return FdeProblem(terms=prob.terms, reaction=1.0,
                      rhs=apply_operator(prob, y_exact)), y_exact


def _population_curve(x):
    return mittag_leffler(POPULATION_ORDER, POPULATION_RATE * x**POPULATION_ORDER)


def _build_registry():
    powsum = FracFunction.from_terms
    single, _ = single_term_problem()
    multi, _ = multi_term_problem()
    return {f.name: f for f in (
        NamedFunction("x075+x15", powsum([(1.0, 0.75), (1.0, 1.5)]), "x^0.75 + x^1.5"),
        NamedFunction("x15", powsum([(1.0, 1.5)]), "x^1.5"),
        NamedFunction("sqrt-shift", powsum([(-math.pi / 4, 0.0), (1.0, 0.5)]),
                      "x^0.5 - pi/4"),
        NamedFunction("x35+x4", powsum([(1.0, 3.5), (1.0, 4.0)]), "x^3.5 + x^4"),
        NamedFunction("x075", powsum([(1.0, 0.75)]), "x^0.75"),
        NamedFunction("ml-population", _population_curve,
                      f"E_{POPULATION_ORDER}({POPULATION_RATE} * x^{POPULATION_ORDER})"),
        NamedFunction("fde-single-rhs", single.rhs,
                      "right-hand side of D^0.5 y = f with solution y = x"),
        NamedFunction("fde-multi-rhs", multi.rhs, "right-hand side of "
                      "D^0.5 y + D^0.25 y + y = f with solution x^3.5 + x^4"),
    )}


NAMED_FUNCTIONS = _build_registry()


def lookup(name):
    """The registered function ``name``; UsageError for an unknown name."""
    try:
        return NAMED_FUNCTIONS[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_FUNCTIONS))
        raise UsageError(f"unknown function {name!r}; known: {known}") from None
