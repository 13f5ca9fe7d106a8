"""Property tests of the FDE operator and solver, and of the built bases and
discrete fits (hypothesis, derandomized).

The examples are drawn from a fixed seed (the suite's ``property`` profile,
``conftest.py``), so every run checks the same cases.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclsq import (DataSet, FdeProblem, FracFunction, WeightSpec, apply_operator,
                     build_continuous, build_discrete, caputo_derivative, fit_discrete_normal,
                     fit_projection, predict, solve_fde)

_ORDERS = st.floats(min_value=0.05, max_value=0.95)
_COEFFS = st.floats(min_value=-4.0, max_value=4.0).filter(lambda c: abs(c) > 1e-3)


@st.composite
def _problems(draw):
    """A bare operator: 1-3 Caputo terms (a zero coefficient now and then) and
    a reaction, possibly zero."""
    terms = draw(st.lists(st.tuples(_ORDERS, _COEFFS | st.just(0.0)),
                          min_size=1, max_size=3))
    reaction = draw(st.sampled_from([0.0, 1.0, -0.3]) | _COEFFS)
    return FdeProblem(terms=terms, reaction=reaction)


@st.composite
def _power_sums(draw, lowest):
    """A power sum whose nonzero exponents are all at least ``lowest``, so
    every order of the operator may act on it; a constant now and then."""
    exps = draw(st.lists(st.floats(min_value=lowest, max_value=6.0),
                         min_size=1, max_size=5))
    if draw(st.booleans()):
        exps.append(0.0)
    return FracFunction.from_terms((draw(_COEFFS), e) for e in exps)


@st.composite
def _operator_and_functions(draw, count):
    prob = draw(_problems())
    lowest = max(a for a, _ in prob.terms)
    return prob, [draw(_power_sums(lowest)) for _ in range(count)]


def _bits(f):
    return [(e.hex(), c.hex()) for e, c in f.terms]


@given(_operator_and_functions(1))
def test_apply_operator_is_the_sum_of_its_term_images(case):
    # the old term-by-term assembly: each order's caputo_derivative image
    # scaled by its coefficient, then the reaction, merged in that order
    prob, (p,) = case
    pairs = [pair for alpha, coeff in prob.terms if coeff != 0.0
             for pair in caputo_derivative(p, alpha).scaled(coeff).coeff_pairs]
    if prob.reaction != 0.0:
        pairs += p.scaled(prob.reaction).coeff_pairs
    assert _bits(apply_operator(prob, p)) == _bits(FracFunction.from_terms(pairs))


@given(_operator_and_functions(2), _COEFFS, _COEFFS)
def test_apply_operator_is_linear(case, s, t):
    prob, (p, q) = case
    got = dict(apply_operator(prob, p.scaled(s) + q.scaled(t)).terms)
    parts = [dict(apply_operator(prob, f).terms) for f in (p, q)]
    want = {e: s * parts[0].get(e, 0.0) + t * parts[1].get(e, 0.0)
            for e in {*parts[0], *parts[1]}}
    # rounding of the inputs' own merges scales with the largest term
    scale = max([abs(s * c) for c in parts[0].values()]
                + [abs(t * c) for c in parts[1].values()] + [1.0])
    for e in {*got, *want}:
        assert got.get(e, 0.0) == pytest.approx(want.get(e, 0.0), abs=1e-12 * scale)


@st.composite
def _in_ladder_problems(draw):
    """(problem, lam, n, solution): a manufactured problem whose solution lies
    in the degree-n ladder of step lam, with every order below lam (so the
    operator images of the rungs are independent)."""
    lam = draw(st.sampled_from([0.5, 0.6, 0.75, 0.8, 1.0, 1.25, 1.5]))
    orders = st.floats(min_value=0.05, max_value=min(lam, 1.0) - 0.02)
    terms = draw(st.lists(st.tuples(orders, _COEFFS), min_size=1, max_size=3))
    reaction = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    n = draw(st.integers(min_value=2, max_value=6))
    coeffs = [draw(st.sampled_from([0.0, 1.0, -0.5]))]  # the constant is y(0)
    coeffs += [draw(_COEFFS | st.just(0.0)) for _ in range(draw(st.integers(1, n)))]
    bare = FdeProblem(terms=terms, reaction=reaction)
    y = FracFunction.from_terms((c, k * lam) for k, c in enumerate(coeffs))
    prob = FdeProblem(terms=terms, reaction=reaction, rhs=apply_operator(bare, y),
                      initial_value=coeffs[0])
    return prob, lam, n, coeffs + [0.0] * (n + 1 - len(coeffs)), y


@settings(max_examples=50)
@given(_in_ladder_problems(), st.sampled_from(["monomial", "muntz_legendre"]))
def test_exact_solve_recovers_in_ladder_solutions(case, kind):
    prob, lam, n, coeffs, y = case
    fit = solve_fde(prob, lam, n, kind)
    scale = max(map(abs, coeffs))
    assert fit.error <= 1e-20 * max(scale, 1.0) ** 2
    if kind == "monomial":
        assert fit.coeffs == pytest.approx(coeffs, abs=1e-9 * scale)
    xs = np.linspace(0.0, 1.0, 17)
    assert np.max(np.abs(predict(fit, xs) - y(xs))) <= 1e-9 * max(scale, 1.0)
    assert math.isfinite(fit.cond)


EPS = np.finfo(float).eps
#: |<L_i, L_j>| <= ORTHO_C * eps * ||L_i|| ||L_j|| for i != j, under the
#: basis's own inner product; the largest ratio seen on 3,000 random discrete
#: draws of this kind was 123 and on 300 continuous bases 253
ORTHO_C = 1024
_LAMBDAS = st.floats(min_value=0.2, max_value=2.0)


def _max_cosine(basis):
    """Largest |<L_i, L_j>| / (||L_i|| ||L_j||), i != j, in units of eps."""
    R = basis.point_rungs
    G = (R * basis.ip_weights) @ R.T
    d = np.sqrt(np.diag(G))
    M = np.abs(G) / np.outer(d, d)
    np.fill_diagonal(M, 0.0)
    return float(M.max()) / EPS


@st.composite
def _discrete_data(draw, max_n):
    """(xs, ys, weights or None, lam, n): at least 4 (n + 1) distinct points
    on [0, hi], so no rung is close to breaking down."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    hi = draw(st.sampled_from([0.5, 1.0, 2.0, 5.0]))
    xs = np.unique(draw(st.lists(st.floats(min_value=0.0, max_value=hi),
                                 min_size=4 * (n + 1), max_size=120)))
    if len(xs) < 4 * (n + 1):
        xs = np.union1d(xs, np.linspace(0.0, hi, 4 * (n + 1)))
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(min_value=0.1, max_value=2.0),
                                         min_size=len(xs), max_size=len(xs))))
    return xs, np.sin(3.0 * xs) + xs, weights, draw(_LAMBDAS), n


@given(_discrete_data(max_n=5))
def test_discrete_bases_are_orthogonal_under_their_sum(case):
    xs, _, weights, lam, n = case
    assert _max_cosine(build_discrete(weights, xs, lam, n)) <= ORTHO_C


@given(st.sampled_from([0.25, 0.3, 0.5, 0.7, 0.75, 1.0, 1.25, 1.39, 1.5, 2.0]),
       st.integers(min_value=1, max_value=6),
       st.sampled_from([(0.0, 1.0), (0.0, 2.0), (0.5, 2.5), (1.0, 3.0)]),
       st.sampled_from([(0.0, 0.0), (-0.5, 0.5), (0.5, 0.0), (1.0, -0.5), (-0.5, -0.5)]))
def test_continuous_bases_are_orthogonal_under_their_rule(lam, n, interval, betas):
    basis = build_continuous(WeightSpec(*interval, *betas), lam, n)
    assert _max_cosine(basis) <= ORTHO_C


#: projection and the normal equations agree to PROJECTION_C * cond * eps
#: of max |y| on a grid, and their errors to as much of sum w y^2, cond the
#: normal equations' estimate; the largest ratio seen on 1,800 random draws
#: of this kind was 27
PROJECTION_C = 256


@given(_discrete_data(max_n=3))
def test_projection_and_normal_equations_agree(case):
    xs, ys, weights, lam, n = case
    data = DataSet(xs, ys, weights)
    proj = fit_projection(data, build_discrete(weights, xs, lam, n))
    normal = fit_discrete_normal(data, lam, n)
    grid = np.linspace(0.0, xs[-1], 41)
    gap = np.max(np.abs(predict(proj, grid) - predict(normal, grid)))
    bound = PROJECTION_C * normal.cond * EPS
    assert gap <= bound * np.max(np.abs(ys))
    assert abs(proj.error - normal.error) <= bound * np.sum(data.weight_array() * ys**2)
