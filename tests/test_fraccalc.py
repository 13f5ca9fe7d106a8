import numpy as np
import pytest

from fraclsq import (
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
from fraclsq.functions import multi_term_problem, single_term_problem


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


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def test_apply_operator_single_term():
    prob = FdeProblem(terms=((0.5, 1.0),))
    out = apply_operator(prob, FracFunction.from_terms([(1.0, 1.0)]))
    assert out(0.49) == pytest.approx(0.49**0.5 / gamma(1.5), rel=1e-13)


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
    rule = substituted_rule(96, 0.25)
    quadr = solve_fde(prob, lam, n, basis_kind="muntz_legendre", rule=rule)
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
    prob_q = FdeProblem(terms=prob.terms, reaction=prob.reaction,
                        rhs=lambda x: prob.rhs(x))

    def functional(coeffs):
        f = solve_fde(prob_q, lam, n, basis_kind="muntz_legendre", rule=rule)
        return f  # only used to reuse machinery shape

    # direct evaluation of E at perturbed coefficients via the residual
    from fraclsq.fraccalc import _basis, apply_operator as apply_op
    from fraclsq import FracFunction as FF, integrate

    phis = _basis(lam, n, "muntz_legendre")
    psis = [apply_op(prob, phi) + FF.from_terms([(phi.at_zero(), 0.0)])
            for phi in phis]
    F = prob.rhs

    def eval_E(a):
        r = lambda x: sum(ai * psi(x) for ai, psi in zip(a, psis)) - F(x)
        return integrate(rule, lambda x: np.array(
            [r(t) ** 2 for t in np.atleast_1d(x)]))

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


def test_fracfunction_construction():
    f = FracFunction.from_terms([(1.0, 1.0), (2.0, 1.0), (0.0, 3.0)])
    assert f.terms == ((1.0, 3.0),)
    with pytest.raises(DomainError):
        FracFunction.from_terms([(1.0, -0.5)])
    g = FracFunction.from_terms([(2.0, 0.0), (1.0, 2.0)])
    assert g(0.0) == 2.0
    assert g(2.0) == 6.0
    assert g.integral01() == pytest.approx(2.0 + 1.0 / 3.0, rel=1e-15)


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


def test_quadrature_path_rejects_nonfinite_rhs():
    prob = FdeProblem(terms=((0.5, 1.0),), rhs=lambda x: np.log(x - 0.5))
    with pytest.raises(DomainError, match="not finite"), np.errstate(invalid="ignore"):
        solve_fde(prob, 0.5, 2)
