import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclsq import (
    DegeneracyError,
    DomainError,
    FdeProblem,
    FracFunction,
    apply_operator,
    caputo_derivative,
    fde_abs_error,
    gamma,
    gauss_jacobi,
    predict,
    solve_fde,
    substituted_rule,
)
from fraclsq import fraccalc
from fraclsq.solvers import _exact_gram, _lattice
from fraclsq.functions import lookup, multi_term_problem, single_term_problem


def _caputo_oracle(nu, alpha, x):
    # quadrature of the integral definition
    #   (1/Gamma(1-alpha)) * int_0^x (x-t)^(-alpha) nu t^(nu-1) dt
    # with both endpoint powers absorbed into a Gauss-Jacobi weight
    rule = gauss_jacobi(64, nu - 1.0, -alpha, 0.0, x)
    return nu * float(np.sum(rule.weights)) / gamma(1.0 - alpha)


# ---------------------------------------------------------------------------
# Caputo power rule
# ---------------------------------------------------------------------------

def test_caputo_of_x_half_order():
    d = caputo_derivative(FracFunction.from_terms([(1.0, 1.0)]), 0.5)
    assert d.terms == ((0.5, pytest.approx(1.0 / gamma(1.5), rel=1e-14)),)


def test_caputo_annihilates_constants():
    d = caputo_derivative(FracFunction.from_terms([(3.0, 0.0)]), 0.3)
    assert d.terms == ()


def test_caputo_power_rule_example():
    d = caputo_derivative(FracFunction.from_terms([(1.0, 3.5)]), 0.25)
    (e, c), = d.terms
    assert e == pytest.approx(3.25)
    assert c == pytest.approx(gamma(4.5) / gamma(4.25), rel=1e-14)


@pytest.mark.parametrize("nu,alpha", [(1.0, 0.5), (3.5, 0.25), (0.75, 0.5)])
@pytest.mark.parametrize("x", [0.25, 0.5, 0.75, 1.0])
def test_caputo_power_rule_vs_integral_definition(nu, alpha, x):
    d = caputo_derivative(FracFunction.from_terms([(1.0, nu)]), alpha)
    got = d(x)
    want = _caputo_oracle(nu, alpha, x)
    assert got == pytest.approx(want, rel=1e-6)


def test_caputo_domain_errors():
    p = FracFunction.from_terms([(1.0, 1.0)])
    with pytest.raises(DomainError):
        caputo_derivative(p, 0.0)
    with pytest.raises(DomainError):
        caputo_derivative(p, 1.0)
    with pytest.raises(DomainError):
        caputo_derivative(FracFunction.from_terms([(1.0, 0.3)]), 0.5)


def test_caputo_of_an_exponent_keyed_just_below_the_order():
    # the 12-decimal keying rounds the exponent a to 0.558262118682, 4e-13
    # below the order; the image exponent keys to 0, so D^a x^a = Gamma(a+1)
    a = 0.5582621186824
    (e, c), = caputo_derivative(FracFunction.from_terms([(1.0, a)]), a).terms
    assert e == 0.0
    assert c == pytest.approx(gamma(a + 1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def test_apply_operator_single_term():
    prob = FdeProblem(terms=((0.5, 1.0),))
    out = apply_operator(prob, FracFunction.from_terms([(1.0, 1.0)]))
    assert out(0.49) == pytest.approx(0.49**0.5 / gamma(1.5), rel=1e-13)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x, match", [
    (-1.0, r"^power sum abscissae must be finite and >= 0, got -1.0$"),
    (math.nan, r"^power sum abscissae must be finite$"),
    (math.inf, r"^power sum abscissae must be finite$"),
    ([0.5, -math.inf], r"^power sum abscissae must be finite$"),
    (1e300, r"^the power sum overflows: max x = 1e\+300 puts it past the float range$"),
    ([1.0, 1e300], r"^the power sum overflows: max x = 1e\+300 puts it past"),
])
def test_power_sum_outside_its_domain_is_one_domain_error(x, match):
    with pytest.raises(DomainError, match=match):
        lookup("x075+x15")(x)


def test_power_sum_values_keep_their_bits():
    f = FracFunction.from_terms([(1.0, 0.75), (-2.5, 1.5), (0.25, 0.0)])
    xs = np.array([0.0, 0.3, 1.0, 7.5, 1e100])
    want = np.zeros_like(xs)
    for e, c in f.terms:
        want = want + c * xs**e
    assert f(xs).tobytes() == want.tobytes()
    assert [f(float(x)) for x in xs] == want.tolist()


def test_apply_operator_zero_function():
    prob = FdeProblem(terms=((0.5, 1.0), (0.25, 2.0)), reaction=1.0)
    assert apply_operator(prob, FracFunction(())).terms == ()


def test_apply_operator_linearity():
    rng = np.random.default_rng(6)
    prob = FdeProblem(terms=((0.5, 1.0), (0.25, 1.0)), reaction=0.7)
    p1 = FracFunction.from_terms([(rng.standard_normal(), 1.0),
                                  (rng.standard_normal(), 2.5)])
    p2 = FracFunction.from_terms([(rng.standard_normal(), 0.5),
                                  (rng.standard_normal(), 2.5)])
    c1, c2 = 1.3, -0.4
    combo = p1.scaled(c1) + p2.scaled(c2)
    lhs = apply_operator(prob, combo)
    for x in rng.uniform(0.05, 1.0, 8):
        want = c1 * apply_operator(prob, p1)(x) + c2 * apply_operator(prob, p2)(x)
        assert lhs(x) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# FDE solve
# ---------------------------------------------------------------------------

def test_single_term_exact_recovery():
    prob, y_exact = single_term_problem(0.5)
    fit = solve_fde(prob, 0.5, 2, basis_kind="monomial")
    assert fit.error <= 1e-20
    assert fit.coeffs == pytest.approx([0.0, 0.0, 1.0], abs=1e-8)
    xs = np.linspace(0, 1, 33)
    assert predict(fit, xs) == pytest.approx(xs, abs=1e-8)


def test_single_term_other_lambdas_positive_error():
    prob, _ = single_term_problem(0.5)
    for lam in (0.75, 1.25, 1.5):
        assert solve_fde(prob, lam, 2).error > 1e-6


def test_multi_term_exact_recovery():
    prob, y_exact = multi_term_problem()
    fit = solve_fde(prob, 0.5, 8, basis_kind="monomial")
    assert fit.error <= 1e-30
    assert fde_abs_error(fit, y_exact, 1.0) <= 1e-12
    want = np.zeros(9)
    want[7] = want[8] = 1.0  # x^3.5 + x^4 = x^(7*lam) + x^(8*lam)
    assert fit.coeffs == pytest.approx(want, abs=1e-8)


def test_multi_term_reference_column():
    prob, y_exact = multi_term_problem()
    refs = {2: 3.19e-1, 4: 2.33e-4, 6: 2.57e-11}
    for n, ref in refs.items():
        fit = solve_fde(prob, 0.75, n, basis_kind="muntz_legendre")
        assert fit.error == pytest.approx(ref, rel=0.02)
    fit6 = solve_fde(prob, 0.75, 6, basis_kind="muntz_legendre")
    assert fde_abs_error(fit6, y_exact, 1.0) == pytest.approx(8.81e-6, rel=0.02)
    fit4 = solve_fde(prob, 1.0, 4, basis_kind="muntz_legendre")
    assert fit4.error == pytest.approx(5.10e-7, rel=0.02)
    assert fde_abs_error(fit4, y_exact, 1.0) == pytest.approx(4.27e-4, rel=0.02)


def test_monomial_and_muntz_bases_agree():
    # same span, same functional: the minimized error must match
    prob, _ = multi_term_problem()
    for lam, n in ((0.75, 4), (1.0, 4), (1.25, 2)):
        e1 = solve_fde(prob, lam, n, basis_kind="monomial").error
        e2 = solve_fde(prob, lam, n, basis_kind="muntz_legendre").error
        assert e1 == pytest.approx(e2, rel=1e-6, abs=1e-18)


def test_quadrature_path_matches_exact_path():
    prob, _ = multi_term_problem()
    lam, n = 0.75, 4
    exact = solve_fde(prob, lam, n, basis_kind="muntz_legendre")
    # the same right-hand side as a plain callable takes the quadrature path
    quadr = solve_fde(replace(prob, rhs=lambda x: prob.rhs(x)), lam, n,
                      basis_kind="muntz_legendre")
    assert quadr.error == pytest.approx(exact.error, rel=1e-8)
    assert quadr.coeffs == pytest.approx(exact.coeffs, rel=1e-6, abs=1e-10)


def test_callable_rhs_uses_quadrature_path():
    prob, y_exact = single_term_problem(0.5)
    frac_rhs = prob.rhs
    prob_callable = FdeProblem(terms=prob.terms, rhs=lambda x: frac_rhs(x))
    fit = solve_fde(prob_callable, 0.5, 2)
    xs = np.linspace(0, 1, 9)
    assert predict(fit, xs) == pytest.approx(xs, abs=1e-7)


def test_residual_quadraticity():
    # the solver's minimizer beats random coefficient perturbations
    prob, _ = multi_term_problem()
    lam, n = 1.0, 4
    fit = solve_fde(prob, lam, n, basis_kind="muntz_legendre")
    rule = substituted_rule(96, 0.25)

    # direct evaluation of E at perturbed coefficients: the rows of the
    # operator-image matrix at the nodes, minus the right-hand side
    exps, Psi = fraccalc._merge(n + 1, fraccalc._image(
        prob, *fraccalc._basis(lam, n, "muntz_legendre"), ic=True))
    V = rule.nodes[:, None] ** np.array(exps) @ Psi.T
    F = prob.rhs(rule.nodes)

    def eval_E(a):
        return float(rule.weights @ (V @ a - F) ** 2)

    e_star = eval_E(fit.coeffs)
    rng = np.random.default_rng(42)
    for _ in range(100):
        perturbed = fit.coeffs + 1e-3 * rng.standard_normal(n + 1)
        assert e_star <= eval_E(perturbed) + 1e-15


def test_fde_abs_error_trivial():
    prob, y_exact = multi_term_problem()
    fit = solve_fde(prob, 0.5, 8)
    assert fde_abs_error(fit, y_exact, 1.0) <= 1e-12
    assert fde_abs_error(fit, lambda x: predict(fit, x), 0.7) == 0.0


def test_solver_guards():
    prob, _ = single_term_problem(0.5)
    with pytest.raises(DomainError):
        solve_fde(prob, 0.5, 15)
    with pytest.raises(DomainError):
        solve_fde(prob, 2.5, 2)
    with pytest.raises(DomainError):
        solve_fde(FdeProblem(terms=((0.5, 1.0),)), 0.5, 2)
    with pytest.raises(DomainError):
        FdeProblem(terms=((1.5, 1.0),))


@pytest.mark.parametrize("basis_kind", ["monomial", "muntz_legendre"])
@pytest.mark.parametrize("rhs", [FracFunction.from_terms([(1.0, 0.5)]), lambda x: x**0.5],
                         ids=["exact", "quadrature"])
def test_vanishing_constant_image_is_degenerate(basis_kind, rhs):
    # with reaction -1 the constant rung's image D^a 1 - 1 plus its initial
    # value 1 vanishes, so the residual normal matrix has a zero diagonal
    prob = FdeProblem(terms=((0.5, 1.0),), reaction=-1.0, rhs=rhs)
    with pytest.raises(DegeneracyError, match="residual normal equations are singular"):
        solve_fde(prob, 0.5, 3, basis_kind=basis_kind)


def test_fracfunction_construction():
    f = FracFunction.from_terms([(1.0, 1.0), (2.0, 1.0), (0.0, 3.0)])
    assert f.terms == ((1.0, 3.0),)
    with pytest.raises(DomainError):
        FracFunction.from_terms([(1.0, -0.5)])
    g = FracFunction.from_terms([(2.0, 0.0), (1.0, 2.0)])
    assert g(0.0) == 2.0
    assert g(2.0) == 6.0


def test_quadrature_path_on_wider_interval_recovers_ladder_solution():
    # y = 2x - x^1.5 on [0, 2] lies in the lam = 0.5 ladder; a FracFunction
    # rhs off [0, 1] takes the quadrature path with the x^0.5 substitution
    bare = FdeProblem(terms=((0.5, 1.0),), reaction=1.0, hi=2.0)
    y = FracFunction.from_terms([(2.0, 1.0), (-1.0, 1.5)])
    prob = FdeProblem(terms=bare.terms, reaction=1.0, rhs=apply_operator(bare, y),
                      hi=2.0)
    fit = solve_fde(prob, 0.5, 4)
    xs = np.linspace(0.0, 2.0, 17)
    assert np.max(np.abs(predict(fit, xs) - y(xs))) <= 1e-8


def test_muntz_legendre_fit_predicts_past_one():
    # the same problem in the Muntz-Legendre basis: hi = 2 fits must
    # evaluate on all of [0, 2], not only where x^lam <= 1
    bare = FdeProblem(terms=((0.5, 1.0),), reaction=1.0, hi=2.0)
    y = FracFunction.from_terms([(2.0, 1.0), (-1.0, 1.5)])
    prob = FdeProblem(terms=bare.terms, reaction=1.0, rhs=apply_operator(bare, y),
                      hi=2.0)
    ml = solve_fde(prob, 0.5, 4, basis_kind="muntz_legendre")
    mono = solve_fde(prob, 0.5, 4)
    assert ml.hi == 2.0
    assert predict(ml, 1.5) == pytest.approx(predict(mono, 1.5), abs=1e-8)
    assert predict(ml, 1.5) == pytest.approx(y(1.5), abs=1e-8)
    xs = np.linspace(0.0, 2.0, 17)
    assert np.max(np.abs(predict(ml, xs) - y(xs))) <= 1e-8


@pytest.mark.parametrize("kw", [
    {"initial_value": np.nan}, {"reaction": np.inf}, {"reaction": np.nan},
    {"terms": ((0.5, np.nan),)}, {"terms": ((0.5, 1.0), (0.25, -np.inf))},
    {"hi": np.inf},
])
def test_problem_rejects_nonfinite_numbers(kw):
    base = {"terms": ((0.5, 1.0),), "rhs": FracFunction.from_terms([(1.0, 0.0)])}
    with pytest.raises(DomainError, match="finite"):
        FdeProblem(**{**base, **kw})


@pytest.mark.parametrize("pair", [(np.nan, 1.0), (np.inf, 0.5), (1.0, np.inf),
                                  (1.0, np.nan)])
def test_frac_function_rejects_nonfinite_terms(pair):
    with pytest.raises(DomainError, match="finite"):
        FracFunction.from_terms([(1.0, 0.0), pair])


@pytest.mark.filterwarnings("error")
def test_frac_function_rejects_merged_terms_that_overflow():
    with pytest.raises(DomainError, match=r"terms must be finite, got inf \* x\^0.5"):
        FracFunction.from_terms([(1e308, 0.5), (1e308, 0.5)])
    # every pair is checked before any is summed: the bad pair is named
    with pytest.raises(DomainError, match=r"got nan \* x\^1"):
        FracFunction.from_terms([(1e308, 0.5), (1e308, 0.5), (math.nan, 1.0)])
    assert FracFunction.from_terms([(1e308, 0.5), (-1e308, 0.5)]).terms == ()


def _dict_sum_terms(pairs):
    """The terms of ``from_terms`` summed the way it did before it called
    ``_merge``: one dict entry per keyed exponent, in pair order, each pair
    checked and each running sum checked as it is added."""
    acc = {}
    for c, e in pairs:
        if not (math.isfinite(c) and math.isfinite(e)):
            raise DomainError(f"terms must be finite, got {c} * x^{e}")
        e = fraccalc._key(e)
        if e < 0:
            raise DomainError(f"exponents must be >= 0, got {e}")
        acc[e] = acc.get(e, 0.0) + float(c)
        if not math.isfinite(acc[e]):
            raise DomainError(f"terms must be finite, got {acc[e]} * x^{e}")
    return tuple(sorted((e, c) for e, c in acc.items() if c != 0.0))


def _from_terms_error(pairs):
    """The message ``from_terms`` raises: the first bad pair, else the sum
    past the float range at the smallest exponent (the dict sum named the
    first bad pair or running sum it reached, which differs only when a
    sum overflows before a bad pair, or at two exponents)."""
    for c, e in pairs:
        if not (math.isfinite(c) and math.isfinite(e)):
            return f"terms must be finite, got {c} * x^{e}"
        if fraccalc._key(e) < 0:
            return f"exponents must be >= 0, got {fraccalc._key(e)}"
    sums = {}
    for c, e in pairs:
        sums[fraccalc._key(e)] = sums.get(fraccalc._key(e), 0.0) + float(c)
    e = min(k for k, v in sums.items() if not math.isfinite(v))
    return f"terms must be finite, got {sums[e]} * x^{e}"


_TERM_COEFFS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308, math.nan,
                     math.inf]),
    st.floats(min_value=-4.0, max_value=4.0), st.floats(allow_nan=False))
_TERM_EXPONENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-13, -1e-13, 0.5, 0.5 + 1e-14, 1.5, -0.5, math.nan]),
    st.integers(min_value=0, max_value=12).map(lambda k: k / 4),
    st.floats(min_value=0.0, max_value=30.0))
#: pairs with repeated keys, and now and then each pair again with -c (cancellation)
_TERM_PAIRS = st.tuples(st.lists(st.tuples(_TERM_COEFFS, _TERM_EXPONENTS), max_size=10),
                        st.booleans()).map(
    lambda t: t[0] + [(-c, e) for c, e in t[0]] if t[1] else t[0])


@pytest.mark.filterwarnings("error::RuntimeWarning")  # "error" would also catch
@settings(max_examples=400)                            # hypothesis's own reporting
@given(_TERM_PAIRS)
def test_from_terms_sums_as_the_dict_sum_did(pairs):
    try:
        want = _dict_sum_terms(pairs)
    except DomainError:
        with pytest.raises(DomainError) as info:
            FracFunction.from_terms(pairs)
        assert str(info.value) == _from_terms_error(pairs)
        return
    got = FracFunction.from_terms(iter(pairs)).terms
    assert all(type(e) is float and type(c) is float for e, c in got)
    assert [(e.hex(), c.hex()) for e, c in got] == [(e.hex(), c.hex()) for e, c in want]


@pytest.mark.parametrize("basis_kind", ["monomial", "muntz_legendre"])
@pytest.mark.parametrize("terms,reaction", [(((0.5, 0.0),), 0.0), ((), 0.0),
                                            (((0.5, 0.0), (0.25, 0.0)), -0.0)])
def test_zero_operator_is_a_domain_error(basis_kind, terms, reaction):
    prob = FdeProblem(terms=terms, reaction=reaction,
                      rhs=FracFunction.from_terms([(1.0, 1.5)]))
    with pytest.raises(DomainError, match="the operator is zero"):
        solve_fde(prob, 0.5, 3, basis_kind=basis_kind)
    # the check is the solver's: the operator itself still maps to zero
    assert apply_operator(prob, FracFunction.from_terms([(1.0, 1.0)])).terms == ()


_GRAM_OVERFLOW = "the exact residual normal equations overflow the float range"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("basis_kind", ["monomial", "muntz_legendre"])
@pytest.mark.parametrize("kw,named", [
    ({"terms": ((0.5, 1e300),)},
     "largest |term coefficient| = 1e+300, |reaction| = 0, |y0| = 0"),
    ({"terms": ((0.5, 1.0),), "initial_value": -1e308},
     "largest |term coefficient| = 1, |reaction| = 0, |y0| = 1e+308"),
    ({"terms": (), "reaction": 1e200},
     "largest |term coefficient| = 0, |reaction| = 1e+200, |y0| = 0"),
])
def test_exact_gram_past_the_float_range_is_a_domain_error(kw, named, basis_kind):
    prob = FdeProblem(rhs=FracFunction.from_terms([(1.0, 1.5)]), **kw)
    with pytest.raises(DomainError) as info:
        solve_fde(prob, 0.5, 3, basis_kind=basis_kind)
    assert str(info.value) == f"{_GRAM_OVERFLOW} ({named})"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("basis_kind", ["monomial", "muntz_legendre"])
@pytest.mark.parametrize("kw,named", [
    ({"terms": ((0.5, 1e308),)},
     "largest |term coefficient| = 1e+308, |reaction| = 0, |y0| = 0"),
    ({"terms": ((0.5, 1.0),), "initial_value": 1e308},
     "largest |term coefficient| = 1, |reaction| = 0, |y0| = 1e+308"),
    ({"terms": ((0.5, 1.0),), "reaction": -1e308},
     "largest |term coefficient| = 1, |reaction| = 1e+308, |y0| = 0"),
    ({"terms": ((0.5, 1e300),)},
     "largest |term coefficient| = 1e+300, |reaction| = 0, |y0| = 0"),
], ids=["term", "y0", "reaction", "term_1e300"])
@pytest.mark.parametrize("route", ["exact", "quadrature"])
def test_either_route_past_the_float_range_is_one_domain_error(route, kw, named,
                                                               basis_kind):
    # on the way: Psi or F past the float range when merged, the sampled
    # normal equations, their solution or the sampled error
    rhs = FracFunction.from_terms([(1.0, 1.0)]) if route == "exact" else (lambda x: x)
    with pytest.raises(DomainError) as info:
        solve_fde(FdeProblem(rhs=rhs, **kw), 0.5, 3, basis_kind=basis_kind)
    assert str(info.value) == (f"the {route} residual normal equations overflow the "
                               f"float range ({named})")


@pytest.mark.filterwarnings("error")
def test_exact_gram_inside_the_float_range_still_solves():
    # y = 1e150 + x: D^0.25 y = x^0.75 / Gamma(1.75), and |F|^2 is about 1e300
    y = FracFunction.from_terms([(1e150, 0.0), (1.0, 1.0)])
    bare = FdeProblem(terms=((0.25, 1.0),))
    prob = replace(bare, rhs=apply_operator(bare, y), initial_value=1e150)
    fit = solve_fde(prob, 0.5, 3)
    assert fit.coeffs[0] == pytest.approx(1e150, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_operator_image_past_the_float_range_is_one_domain_error():
    # Gamma(2.5) / Gamma(2) * 1e308 is finite; times the coefficient 10 it is not
    with pytest.raises(DomainError, match=r"^terms must be finite, got inf \* x\^1.0$"):
        apply_operator(FdeProblem(terms=((0.5, 10.0),)),
                       FracFunction.from_terms([(1e308, 1.5)]))


def test_quadrature_path_rejects_nonfinite_rhs():
    prob = FdeProblem(terms=((0.5, 1.0),), rhs=lambda x: np.log(x - 0.5))
    with pytest.raises(DomainError, match="not finite"), np.errstate(invalid="ignore"):
        solve_fde(prob, 0.5, 2)


# ---------------------------------------------------------------------------
# exact Gram assembly
# ---------------------------------------------------------------------------

def _pairwise_gram(fs, gs):
    """<f, g> over [0, 1] summed term pair by term pair in Fractions."""
    return [[sum((Fraction(c1) * Fraction(c2) / (Fraction(e1) + Fraction(e2) + 1)
                  for e1, c1 in f.terms for e2, c2 in g.terms), Fraction(0))
             for g in gs] for f in fs]


def _random_functions(rng, count, exponents):
    out = []
    for _ in range(count):
        k = int(rng.integers(1, len(exponents) + 1))
        picked = rng.choice(exponents, size=k, replace=False)
        coeffs = rng.standard_normal(k) * 10.0 ** rng.integers(-8, 8, size=k)
        out.append(FracFunction.from_terms(zip(coeffs.tolist(), picked.tolist())))
    return out


def _matrix(fs, exps=None):
    """(exps, A): the functions as coefficient rows over the sorted union of
    their exponents, or over the given ``exps``."""
    exps = sorted({e for f in fs for e, _ in f.terms}) if exps is None else exps
    A = np.zeros((len(fs), len(exps)))
    for i, f in enumerate(fs):
        for e, c in f.terms:
            A[i, exps.index(e)] = c
    return exps, A


def _gram(fs, gs):
    """(N, D) of <f_i, g_j>: the block of the exact Gram matrix of fs and gs."""
    exps, A = _matrix([*fs, *gs])
    N, D = _exact_gram(A, _lattice(tuple(exps)))
    return [row[len(fs):] for row in N[:len(fs)]], D


def _as_fractions(gram):
    """(N, D) as the matrix of Fractions N[i][j] / D; checks the form."""
    N, D = gram
    assert type(D) is int and D > 0
    assert all(type(v) is int for row in N for v in row)
    return [[Fraction(v, D) for v in row] for row in N]


@pytest.mark.parametrize("exponents", [
    [0.0, 0.25, 0.5, 1.5, 3.0],                 # dyadic
    [0.0, 0.3, 0.7, 1.1, 2.45, 3.65],           # not dyadic
    [0.0, 0.125, 0.4, 0.75, 1.9, 2.0],          # mixed
])
def test_exact_gram_equals_pairwise_fractions(exponents):
    rng = np.random.default_rng(int(1000 * sum(exponents)))
    fs = _random_functions(rng, 5, exponents)
    gs = _random_functions(rng, 3, exponents) + [FracFunction(())]
    got = _as_fractions(_gram(fs, gs))
    assert got == _pairwise_gram(fs, gs)
    assert [row[-1] for row in got] == [0] * 5


def test_exact_gram_of_empty_functions_is_zero():
    empty = FracFunction(())
    assert _as_fractions(_gram([empty], [empty])) == [[0]]
    assert _as_fractions(_gram([empty, empty],
                               [FracFunction.from_terms([(2.0, 0.3)])])) == [[0], [0]]
    # no rows at all, and rows over no exponents
    assert _exact_gram(np.zeros((0, 2)), _lattice((0.0, 0.5)))[0] == []
    assert _as_fractions(_exact_gram(np.zeros((2, 0)), _lattice(()))) == [[0, 0], [0, 0]]


def test_exact_gram_of_constant_and_power():
    # the rows 1 and x over the exponents 0 and 1
    assert _as_fractions(_exact_gram(np.eye(2), _lattice((0.0, 1.0)))) == [
        [1, Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 3)]]


def test_exact_gram_on_a_larger_lattice_is_the_same_rational():
    rng = np.random.default_rng(5)
    fs = _random_functions(rng, 4, [0.0, 0.3, 0.7, 1.1])
    gs = _random_functions(rng, 2, [0.25, 0.7, 2.45])
    exps, A = _matrix([*fs, *gs])
    wide, B = _matrix([*fs, *gs], sorted([*exps, 0.125, 3.65]))  # two zero columns
    got = _as_fractions(_exact_gram(B, _lattice(tuple(wide))))
    assert got == _as_fractions(_exact_gram(A, _lattice(tuple(exps))))
    assert got == _pairwise_gram([*fs, *gs], [*fs, *gs])


_DYADIC_EXPONENTS = st.integers(min_value=0, max_value=6 * 64).map(lambda k: k / 64)
_ANY_EXPONENTS = st.floats(min_value=0.0, max_value=6.0)
_ENTRIES = st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0),
                     st.integers(min_value=-60, max_value=60))


@st.composite
def _lattice_rows(draw):
    """(exps, A): up to five rows over a sorted exponent lattice, dyadic or
    not; each row all-zero, sparse or dense, and now and then a zero column."""
    exps = sorted(set(draw(st.lists(draw(st.sampled_from([_DYADIC_EXPONENTS, _ANY_EXPONENTS])),
                                    min_size=1, max_size=8))))
    A = np.zeros((draw(st.integers(min_value=1, max_value=5)), len(exps)))
    for row in A:
        kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
        for a in range(len(exps)):
            if kind == "dense" or kind == "sparse" and draw(st.booleans()):
                row[a] = draw(_ENTRIES)
    A[:, draw(st.lists(st.integers(min_value=0, max_value=len(exps) - 1), max_size=2))] = 0.0
    return exps, A


def _fraction_gram(exps, A):
    """<a_i, a_j> over [0, 1] summed entry pair by entry pair in Fractions."""
    E = [Fraction(e) for e in exps]
    R = [[(E[a], Fraction(v)) for a, v in enumerate(row) if v] for row in A.tolist()]
    return [[sum((u * v / (e + f + 1) for e, u in r for f, v in t), Fraction(0)) for t in R]
            for r in R]


@given(_lattice_rows())
def test_exact_gram_equals_the_fraction_gram_on_random_lattices(case):
    exps, A = case
    assert _as_fractions(_exact_gram(A, _lattice(tuple(exps)))) == _fraction_gram(exps, A)


def _rung_images(prob, lam, n, kind):
    """(psis, F): each rung's operator image plus its IC constant, and rhs +
    y0, built one FracFunction at a time with ``from_terms`` merges."""
    exps, C = fraccalc._basis(lam, n, kind)
    phis = [FracFunction(tuple((e, c) for e, c in zip(exps, row) if c != 0.0))
            for row in C.tolist()]
    psis = [apply_operator(prob, phi) + FracFunction.from_terms([(phi.at_zero(), 0.0)])
            for phi in phis]
    return psis, prob.rhs + FracFunction.from_terms([(prob.initial_value, 0.0)])


def _exact_residual(prob, fit, n):
    """The residual solve_fde scores, rebuilt from the fit's coefficients."""
    psis, F = _rung_images(prob, fit.lam, n, fit.basis)
    return FracFunction.from_terms(
        [(a * c, e) for a, psi in zip(fit.coeffs, psis) for c, e in psi.coeff_pairs]
        + [(-c, e) for c, e in F.coeff_pairs])


@pytest.mark.parametrize("problem,lam,n,kind", [
    (multi_term_problem()[0], 0.75, 6, "monomial"),
    (multi_term_problem()[0], 0.75, 6, "muntz_legendre"),
    (single_term_problem(0.5)[0], 0.5, 3, "monomial"),  # lam == alpha: semidefinite
    (single_term_problem(0.5)[0], 0.5, 3, "muntz_legendre"),
])
def test_exact_error_is_the_pairwise_fraction_residual_norm(problem, lam, n, kind):
    fit = solve_fde(problem, lam, n, kind)
    resid = _exact_residual(problem, fit, n)
    assert fit.error == float(_pairwise_gram([resid], [resid])[0][0])
    N, D = _gram([resid], [resid])
    assert fit.error == N[0][0] / D


def test_exact_solve_builds_one_lattice(monkeypatch):
    calls = []
    lattice = fraccalc._lattice

    def spy(exps):
        calls.append(list(exps))
        return lattice(exps)

    monkeypatch.setattr(fraccalc, "_lattice", spy)
    prob, _ = multi_term_problem()
    for kind in ("monomial", "muntz_legendre"):
        calls.clear()
        solve_fde(prob, 0.75, 6, kind)
        # one lattice: the exponents of the seven operator images and the rhs
        psis, F = _rung_images(prob, 0.75, 6, kind)
        assert calls == [sorted({e for h in [*psis, F] for e, _ in h.terms})]


@pytest.mark.parametrize("kind", ["monomial", "muntz_legendre"])
@pytest.mark.parametrize("case", ["multi_term", "offpool", "reaction_ic"])
def test_images_match_rung_by_rung_fracfunction_arithmetic(case, kind):
    # the column map gives every rung's image in one matrix, with the floats
    # of one apply_operator call and one from_terms merge per rung
    prob, lam = {"multi_term": (multi_term_problem()[0], 0.75),
                 "offpool": (_offpool_problem(), 0.7),
                 "reaction_ic": (_manufactured(((0.3, 2.0), (0.6, -0.5)), -0.4,
                                               [(1.5, 0.0), (1.0, 1.6)]), 0.8)}[case]
    exps, Psi = fraccalc._merge(15, fraccalc._image(prob, *fraccalc._basis(lam, 14, kind),
                                                    ic=True))
    psis, _ = _rung_images(prob, lam, 14, kind)
    got = [[(e.hex(), c.hex()) for e, c in zip(exps, row) if c != 0.0]
           for row in Psi.tolist()]
    assert got == [[(e.hex(), c.hex()) for e, c in psi.terms] for psi in psis]


@pytest.mark.parametrize("kind", ["monomial", "muntz_legendre"])
def test_exact_solve_merges_no_fracfunction(monkeypatch, kind):
    prob = _offpool_problem()
    calls = []
    from_terms = FracFunction.from_terms.__func__

    def spy(cls, pairs):
        calls.append(cls)
        return from_terms(cls, pairs)

    monkeypatch.setattr(FracFunction, "from_terms", classmethod(spy))
    fit = solve_fde(prob, 0.7, 14, kind)
    assert calls == [] and fit.error < 1e-12


def _offpool_problem():
    # three non-dyadic orders with a reaction term, solution x^3.5 + x^4
    prob = FdeProblem(terms=((0.3, 1.0), (0.45, 1.0), (0.65, 1.0)), reaction=0.9)
    y = FracFunction.from_terms([(1.0, 3.5), (1.0, 4.0)])
    return FdeProblem(terms=prob.terms, reaction=0.9, rhs=apply_operator(prob, y))


# coefficients and error functional, as float hex strings, recorded with the
# term-pair Fraction assembly the integer products replaced
_PINNED = {
    "multi_term_ml": (
        multi_term_problem()[0], 0.75, "muntz_legendre",
        ['0x1.b05b0896ef811p-2', '0x1.6fb7716f0ea64p-1', '0x1.1988031d65731p-1',
         '0x1.f0d1ebdf4b49dp-3', '0x1.ed303e054617ap-5', '0x1.bf45a1ceba446p-8',
         '0x1.a929381b909eap-14', '-0x1.26a751c797d49p-19', '-0x1.f5b89a6f1e79ep-24',
         '0x1.970ea408ead61p-24', '-0x1.5a01be04fac15p-25', '0x1.1e0f8c8b9a3c0p-26',
         '-0x1.e3d95a82e79c2p-28', '0x1.e1eb10657191ap-29', '-0x1.ee06563e019e8p-30'],
        '0x1.e0f47719a3c72p-58'),
    "offpool_ml": (
        _offpool_problem(), 0.7, "muntz_legendre",
        ['0x1.b05afefce7523p-2', '0x1.64420f4ee97c4p-1', '0x1.16e7df130360ap-1',
         '0x1.0560a14f1b794p-2', '0x1.239bdbeedb1eep-4', '0x1.524266b631190p-7',
         '0x1.e8326fad99d7cp-12', '-0x1.6a9a0f9c6bc98p-17', '0x1.1632f2f885bbep-20',
         '-0x1.5f30800b7a159p-23', '0x1.289af5ee45322p-25', '-0x1.3213265f88dbcp-27',
         '0x1.69978216bedacp-29', '-0x1.089d3ccf88129p-30', '0x1.b908133290e3bp-32'],
        '0x1.279b08a62896ap-60'),
    "offpool_monomial": (
        _offpool_problem(), 0.7, "monomial",
        ['-0x1.7973b77d09321p-17', '0x1.c6ed927ba1318p-16', '-0x1.5e504ba2347f4p-12',
         '0x1.18da398b41137p-8', '-0x1.2ab0af6265e05p-5', '0x1.41293d49d8c3ap+0',
         '0x1.b4e33ae5490a2p-1', '0x1.1258227d92715p-7', '-0x1.4ed627e79b8e8p-3',
         '0x1.6068837641823p-5', '0x1.97d29f4523f42p-4', '-0x1.376e3926feb1ep-5',
         '-0x1.5595b3c0461c2p-4', '0x1.45f8cd8bc8e80p-4', '-0x1.57b018df70b5cp-6'],
        '0x1.1e9f44e8d1113p-46'),
}


@pytest.mark.parametrize("case", sorted(_PINNED))
def test_exact_path_is_pinned_bit_for_bit(case):
    prob, lam, kind, coeffs, error = _PINNED[case]
    fit = solve_fde(prob, lam, 14, kind)
    assert [float(c).hex() for c in fit.coeffs] == coeffs
    assert float(fit.error).hex() == error


def _manufactured(terms, reaction, solution):
    bare = FdeProblem(terms=terms, reaction=reaction)
    y = FracFunction.from_terms(solution)
    return FdeProblem(terms=terms, reaction=reaction, rhs=apply_operator(bare, y),
                      initial_value=y.at_zero())


def _quadrature_only(prob):
    """The same problem with its rhs hidden behind a plain callable."""
    return FdeProblem(terms=prob.terms, reaction=prob.reaction,
                      rhs=lambda x: prob.rhs(x), initial_value=prob.initial_value)


# coefficients, error functional and condition estimate of the quadrature
# path, as float hex strings: a substituted rule on both bases, and the
# Gauss-Legendre fallback (1/sqrt(2) shares no step with the order 0.5)
_QUADRATURE_PINNED = {
    "multi_term_ml_n10": (
        multi_term_problem()[0], 0.75, 10, "muntz_legendre",
        ['0x1.b05b29141d2e0p-2', '0x1.6fb768f765296p-1', '0x1.198805fdfdb87p-1',
         '0x1.f0d1e6abd74b8p-3', '0x1.ed30496e4cebdp-5', '0x1.bf456d5df089dp-8',
         '0x1.a9327ef0ab0d6p-14', '-0x1.273f5ce32207bp-19', '-0x1.e1f3a89148c91p-24',
         '0x1.a5b062314538bp-24', '-0x1.724d177a64381p-25'],
        '0x1.4826c7cf78c1dp-49', '0x1.517f6f809c264p+14'),
    "reaction_monomial_n4": (
        _manufactured(((0.3, 1.0),), 1.0, [(1.3, 1.6)]), 0.7, 4, "monomial",
        ['0x1.cfacabfb751f5p-9', '-0x1.a8c2872141d6bp-5', '0x1.cf38753a7aef6p-1',
         '0x1.21af8d91373f1p-1', '-0x1.f6948b867eb4fp-4'],
        '0x1.3ce0ceae5659cp-23', '0x1.c4daa35981eb2p+18'),
    "gauss_legendre_monomial_n4": (
        _manufactured(((0.5, 1.0),), 1.0, [(0.8, 2.3)]), 2 ** -0.5, 4, "monomial",
        ['-0x1.baf777a169379p-9', '0x1.524cb2fca6b4fp-6', '-0x1.b1afbcb27e0dap-4',
         '0x1.84c8d804bba70p-1', '0x1.09ddcf51295aep-3'],
        '0x1.a88dd0ab80404p-25', '0x1.556307c9ce49ep+18'),
}


@pytest.mark.parametrize("case", sorted(_QUADRATURE_PINNED))
def test_quadrature_path_is_pinned_bit_for_bit(case):
    prob, lam, n, kind, coeffs, error, cond = _QUADRATURE_PINNED[case]
    fit = solve_fde(_quadrature_only(prob), lam, n, kind)
    assert [float(c).hex() for c in fit.coeffs] == coeffs
    assert float(fit.error).hex() == error
    assert float(fit.cond).hex() == cond


@pytest.mark.parametrize("kind", ["bogus", "Monomial"])
def test_solve_fde_rejects_an_unknown_basis_kind(kind):
    prob, _ = multi_term_problem()
    with pytest.raises(DomainError) as info:
        solve_fde(prob, 0.5, 3, basis_kind=kind)
    assert str(info.value) == f"unknown basis kind {kind!r}"
