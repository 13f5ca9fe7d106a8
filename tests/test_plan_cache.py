"""The plan caches: quadrature rules, solve_fde bases, exponent lattices,
operator images and merge columns.

Each cache holds a pure function of its key, so a cold call (right after
``cache_clear``) and a warm one must give the same bits, a repeat call the
same object, and every cached array must be read-only.
"""

import math

import numpy as np
import pytest

from fraclsq import (DomainError, FdeProblem, FracFunction, WeightSpec, apply_operator,
                     build_continuous, fit_continuous_normal, predict, solve_fde)
from fraclsq import fraccalc, quadrature, solvers
from fraclsq.functions import multi_term_problem
from fraclsq.quadrature import ladder_rule, sample

#: (m, exponents, lo, hi, fallback_step, beta_left, beta_right): unit and
#: Jacobi weights, lo = 0 and lo > 0, exponents with a common step, without
#: one, and with one above 2
RULE_KEYS = [
    (32, (0.5, 1.0), 0.0, 1.0, None, 0.0, 0.0),
    (32, (0.3, 0.7, 2.1), 0.0, 2.0, None, 0.0, 0.0),
    (24, (0.5, math.sqrt(2)), 0.0, 1.0, None, 0.0, 0.0),
    (24, (0.5, math.sqrt(2)), 0.0, 1.0, 0.5, 0.0, 0.0),
    (16, (3.0,), 0.0, 1.0, None, 0.0, 0.0),
    (40, (0.75,), 0.5, 2.0, 0.75, 0.0, 0.0),
    (32, (0.5,), 0.0, 1.0, 0.5, -0.5, 0.5),
    (32, (0.25, 0.75), 0.0, 2.0, None, 0.5, 0.0),
    (20, (0.5, math.sqrt(2)), 0.0, 1.0, None, 1.0, -0.5),
    (20, (0.5,), 1.0, 3.0, 0.5, -0.5, -0.5),
]


def _rule_hex(rule):
    return rule.nodes.tobytes().hex(), rule.weights.tobytes().hex(), rule.lo, rule.hi


@pytest.mark.parametrize("key", RULE_KEYS)
def test_cold_and_warm_rules_are_the_same_bits(cold_plans, key):
    cold = ladder_rule(*key)
    assert ladder_rule(*key) is cold
    cold_plans[0].cache_clear()
    again = ladder_rule(*key)
    assert again is not cold
    assert _rule_hex(again) == _rule_hex(cold)


def _fde_case(lam, orders, n, reaction, in_ladder):
    """A manufactured problem with the structure of one benchmark stratum:
    its solution lies in the ladder or off it, with y(0) = 0.25."""
    terms = tuple((a, 1.0 + 0.25 * k) for k, a in enumerate(orders))
    bare = FdeProblem(terms=terms, reaction=0.75 if reaction else 0.0)
    if in_ladder:
        y = FracFunction.from_terms([(0.25, 0.0), (1.5, lam), (-0.5, 2 * lam)])
    else:
        beta = next(b for b in (1.1, 1.6, 2.3, 3.1) if abs(b / lam - round(b / lam)) > 1e-9)
        y = FracFunction.from_terms([(0.25, 0.0), (1.25, beta)])
    return FdeProblem(terms=terms, reaction=bare.reaction, rhs=apply_operator(bare, y),
                      initial_value=0.25), lam, n


#: (lam, Caputo orders, n, reaction, solution in the ladder), one per shape
#: of the exact-path benchmark's strata; every order is <= lam
FDE_SHAPES = [
    (1.39, (0.3, 0.7, 0.9), 4, True, True),
    (0.75, (0.25, 0.5), 5, False, False),
    (0.75, (0.25, 0.5, 0.75), 6, True, False),
    (0.5, (0.25, 0.5), 8, True, True),
    (0.7, (0.3,), 8, True, False),
    (0.3, (0.3,), 10, True, False),
    (0.25, (0.25,), 12, False, True),
    (0.7, (0.3,), 14, False, False),
    (0.7, (0.3, 0.7), 5, True, True),
    (0.9, (0.3, 0.45, 0.7), 7, False, False),
    (1.39, (0.7,), 9, True, False),
    (0.5, (0.25, 0.5), 10, False, True),
    (0.75, (0.25, 0.5, 0.75), 14, False, True),
]


def _fde_cases():
    for shape in FDE_SHAPES:
        yield pytest.param(_fde_case(*shape), id="l{}_a{}_n{}_{}{}".format(
            shape[0], "+".join(map(str, shape[1])), shape[2], "r_" if shape[3] else "",
            "in" if shape[4] else "off"))
    for n in (10, 14):  # the multi-term anchor
        yield pytest.param((multi_term_problem()[0], 0.75, n), id=f"multi_term_n{n}")


def _fit_hex(fit):
    return [float(c).hex() for c in fit.coeffs], float(fit.error).hex()


def _misses(caches):
    return [cache.cache_info().misses for cache in caches]


@pytest.mark.parametrize("kind", ["monomial", "muntz_legendre"])
@pytest.mark.parametrize("case", _fde_cases())
def test_cold_and_warm_exact_solves_are_the_same_bits(cold_plans, case, kind):
    prob, lam, n = case
    cold = _fit_hex(solve_fde(prob, lam, n, kind))
    # one basis and lattice, one image plan per Caputo order, and the merge
    # plans of the basis and of the system
    built = [0, 1, 1, len(prob.terms), 2]
    assert _misses(cold_plans) == built
    assert _fit_hex(solve_fde(prob, lam, n, kind)) == cold
    assert _misses(cold_plans) == built
    # each plan rebuilt alone gives the same bits
    for cache in cold_plans[1:]:
        cache.cache_clear()
        assert _fit_hex(solve_fde(prob, lam, n, kind)) == cold


def test_repeat_calls_return_the_same_objects(cold_plans):
    rule = ladder_rule(16, (0.5,), 0.0, 1.0)
    assert ladder_rule(np.int64(16), [np.float64(0.5)], 0, 1) is rule
    assert fraccalc._basis(0.5, 4, "muntz_legendre") is fraccalc._basis(0.5, 4,
                                                                          "muntz_legendre")
    exps = (0.0, 0.25, 0.5)
    assert solvers._lattice(exps) is solvers._lattice(tuple(list(exps)))  # an equal key
    assert fraccalc._image_plan(exps, 0.25) is fraccalc._image_plan(tuple(list(exps)), 0.25)
    keys = ((0.5, 0.25), (0.0,))
    assert fraccalc._columns(keys) is fraccalc._columns(((0.5, 0.25), (0.0,)))


def test_cached_arrays_are_read_only(cold_plans):
    rule = ladder_rule(16, (0.5,), 0.0, 1.0, None, 0.5, 0.0)
    exps, C = fraccalc._basis(0.75, 4, "muntz_legendre")
    for arr in (rule.nodes, rule.weights, C):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert isinstance(exps, tuple)
    Q, W, L = solvers._lattice(exps)
    assert isinstance(W, tuple) and all(isinstance(row, tuple) for row in W)
    src, up, down, shifted = fraccalc._image_plan(exps, 0.5)
    merged, idx = fraccalc._columns(((0.25, 0.5, 0.75), (0.0, 0.5)))
    for arr in (src, up, down, *idx):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    assert isinstance(shifted, tuple) and isinstance(merged, tuple) and isinstance(idx, tuple)
    # a basis built on a cached rule holds its read-only nodes
    assert not build_continuous(WeightSpec(), 0.5, 3).points.flags.writeable


def test_caches_stay_within_their_bounds(cold_plans):
    rules, bases, lattices, images, columns = cold_plans
    assert rules.cache_info().maxsize == quadrature.LADDER_RULE_CACHE
    # the images are per basis and order, the merge columns per lattice
    assert bases.cache_info().maxsize == images.cache_info().maxsize == fraccalc.BASIS_CACHE
    assert lattices.cache_info().maxsize == columns.cache_info().maxsize == \
        solvers.LATTICE_CACHE
    for k in range(quadrature.LADDER_RULE_CACHE + 10):
        ladder_rule(4, (), 1.0, 2.0 + k)
    for k in range(fraccalc.BASIS_CACHE + 10):
        fraccalc._basis(0.25 + k / 64, 2, "monomial")
        fraccalc._image_plan((0.0, 1.0), (k + 1) / 128)
    for k in range(solvers.LATTICE_CACHE + 10):
        solvers._lattice((0.0, (k + 1) / 128))
        fraccalc._columns(((0.0, (k + 1) / 128),))
    for cache in cold_plans:
        info = cache.cache_info()
        assert info.currsize == info.maxsize


def test_an_image_past_the_exponent_range_is_refused_on_every_call(cold_plans):
    # the refusal is raised, not cached: each call raises it again
    for _ in range(2):
        with pytest.raises(DomainError, match="leaves the nonnegative-exponent"):
            fraccalc._image_plan((0.0, 0.25), 0.5)
    assert cold_plans[3].cache_info().currsize == 0


def test_a_float_point_count_is_refused_even_when_its_int_is_cached(cold_plans):
    assert len(ladder_rule(np.int64(3), (0.5,), 0.0, 1.0, 0.5)) == 3
    assert ladder_rule(3, (0.5,), 0.0, 1.0, 0.5) is ladder_rule(np.int64(3), (0.5,), 0.0,
                                                                 1.0, 0.5)
    with pytest.raises(DomainError, match="point count must be an integer"):
        ladder_rule(3.0, (0.5,), 0.0, 1.0, 0.5)


@pytest.mark.parametrize("exponents", [(0.5,), (math.sqrt(2),)])  # substituted, Gauss
def test_every_spelling_of_zero_is_one_rule_with_lo_plus_zero(cold_plans, exponents):
    first = ladder_rule(8, exponents, -0.0, 1.0, None, -0.0, 0)
    for lo in (0, 0.0, np.float64(0), np.float64(-0.0)):
        assert ladder_rule(8, exponents, lo, 1.0) is first
    assert type(first.lo) is float and math.copysign(1.0, first.lo) == 1.0
    assert cold_plans[0].cache_info().currsize == 1


def test_a_callable_that_writes_into_its_argument_gets_point_values(cold_plans):
    def doubled(x):
        x *= 2.0  # refused on the read-only nodes; rebinds a scalar
        return x

    rule = ladder_rule(24, (0.5, 1.0), 0.0, 1.0)
    before = rule.nodes.tobytes()
    assert sample(doubled, rule.nodes).tobytes() == (2.0 * rule.nodes).tobytes()
    fit = fit_continuous_normal(doubled, 0.0, 1.0, 0.5, 2)
    assert predict(fit, 0.25) == pytest.approx(0.5, abs=1e-12)
    basis = build_continuous(WeightSpec(), 0.5, 3)
    assert basis.inner(doubled) == pytest.approx(1.0, rel=1e-13)
    assert rule.nodes.tobytes() == before
    cold_plans[0].cache_clear()
    assert ladder_rule(24, (0.5, 1.0), 0.0, 1.0).nodes.tobytes() == before
