import math
import tracemalloc

import numpy as np
import pytest

from fraclsq import (
    ConditioningError,
    DataSet,
    DomainError,
    UsageError,
    WeightSpec,
    add_noise,
    build_continuous,
    build_discrete,
    common_step,
    expand_to_monomial,
    fit_continuous_normal,
    fit_discrete_normal,
    fit_projection,
    FitResult,
    muntz_legendre_eval,
    predict,
    solve_fde,
    substituted_rule,
)
from fraclsq import lsq, orthobasis
from fraclsq.functions import lookup, multi_term_problem
from fraclsq.solvers import solve_normal_equations


# ---------------------------------------------------------------------------
# continuous normal equations
# ---------------------------------------------------------------------------

def _t1_rule(lam, m=64):
    fn = lookup("x075+x15")
    return substituted_rule(m, common_step(fn.exponents + (lam, 2 * lam)))


def test_continuous_exact_representation():
    fn = lookup("x075+x15")
    fit = fit_continuous_normal(fn, 0.0, 1.0, 0.75, 2, rule=_t1_rule(0.75))
    assert fit.coeffs == pytest.approx([0.0, 1.0, 1.0], abs=1e-10)
    assert fit.error <= 1e-20


def test_continuous_reference_rows():
    fn = lookup("x075+x15")
    fit = fit_continuous_normal(fn, 0.0, 1.0, 1.0, 2, rule=_t1_rule(1.0))
    assert fit.coeffs == pytest.approx([0.0329, 1.7039, 0.2597], abs=5e-5)
    assert fit.error == pytest.approx(1.40e-5, rel=0.05)
    fit = fit_continuous_normal(fn, 0.0, 1.0, 1.5, 2, rule=_t1_rule(1.5))
    assert fit.coeffs == pytest.approx([0.1388, 2.5269, -0.7126], abs=5e-5)
    assert fit.error == pytest.approx(8.78e-4, rel=0.05)


def test_continuous_rule_must_match_the_interval():
    # a [0, 1] rule on a [0, 2] fit would sample y at the wrong nodes
    with pytest.raises(UsageError, match=r"rule is on \[0.0, 1.0\], the fit on \[0, 2\]"):
        fit_continuous_normal(lookup("x15"), 0, 2, 0.5, 3, rule=substituted_rule(64, 0.5))
    fit = fit_continuous_normal(lookup("x15"), 0, 2, 0.5, 3,
                                rule=substituted_rule(64, 0.5, hi=2.0))
    assert fit.coeffs == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-10)


def test_continuous_default_rule_close_enough():
    # without the common-step hint the default substitution still converges
    fn = lookup("x075+x15")
    fit = fit_continuous_normal(fn, 0.0, 1.0, 1.0, 2)
    assert fit.error == pytest.approx(1.40e-5, rel=0.05)


def test_continuous_domain_checks():
    fn = lookup("x15")
    with pytest.raises(DomainError):
        fit_continuous_normal(fn, 0.0, 1.0, 1.0, 20)
    with pytest.raises(DomainError):
        fit_continuous_normal(fn, 1.0, 0.0, 1.0, 2)
    with pytest.raises(DomainError):
        fit_continuous_normal(fn, 0.0, 1.0, 2.5, 2)


# ---------------------------------------------------------------------------
# discrete normal equations
# ---------------------------------------------------------------------------

def test_discrete_exact_representation_large_interval():
    xs = np.sort(np.random.default_rng(89).uniform(10.0, 20.0, 20))
    data = DataSet(xs, xs**1.5)
    fit = fit_discrete_normal(data, 1.5, 1)
    assert fit.coeffs == pytest.approx([0.0, 1.0], abs=1e-8)
    assert fit.error <= 1e-18


def test_discrete_any_data_point_hits_exact_fit():
    xs = np.array([1.0, 2.0, 3.0])
    data = DataSet(xs, 2.0 + 3.0 * xs)
    fit = fit_discrete_normal(data, 1.0, 1)
    assert fit.error <= 1e-20
    for x, y in zip(xs, data.ys):
        assert predict(fit, x) == pytest.approx(y, rel=1e-13)


def test_sales_prediction_line():
    data = DataSet([1.0, 2.0, 3.0, 4.0], [10000.0, 21000.0, 50000.0, 70000.0])
    fit = fit_discrete_normal(data, 1.0, 1)
    assert predict(fit, 5.0) == pytest.approx(90000.0, abs=1e-6)


def test_discrete_rank_deficiency():
    with pytest.raises(ConditioningError):
        fit_discrete_normal(DataSet([1.0, 2.0], [1.0, 2.0]), 1.0, 2)


def test_weighted_discrete_fit_prefers_weighted_region():
    rng = np.random.default_rng(5)
    xs = np.linspace(0.0, 1.0, 30)
    ys = xs**0.75
    noisy = ys.copy()
    tail = xs > 0.8
    noisy[tail] += 0.3 * rng.standard_normal(tail.sum())
    flat = fit_discrete_normal(DataSet(xs, noisy), 0.75, 1)
    down = fit_discrete_normal(DataSet(xs, noisy, weights=np.where(tail, 1e-3, 1.0)),
                               0.75, 1)
    clean_sse = lambda f: float(np.sum((predict(f, xs[~tail]) - ys[~tail]) ** 2))
    assert clean_sse(down) < clean_sse(flat)


@pytest.mark.parametrize("lam", [0.08, 0.75, 2.0])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("points", [7, 1001])
def test_discrete_fitted_values_equal_predict(lam, n, points):
    # the LSMC continuation comes from these values instead of predict()
    rng = np.random.default_rng(points + 10 * n)
    xs = rng.uniform(20.0, 60.0, points)
    data = DataSet(xs, np.maximum(50.0 - xs, 0.0) + rng.standard_normal(points))
    coeffs, cond, fitted = lsq._discrete_fit(data.xs, data.ys, np.ones(points), lam, n)
    fit = fit_discrete_normal(data, lam, n)
    assert coeffs.tobytes() == fit.coeffs.tobytes()
    assert cond == fit.cond
    assert fitted.tobytes() == predict(fit, xs).tobytes()


# ---------------------------------------------------------------------------
# projection route
# ---------------------------------------------------------------------------

def test_projection_singular_weight_exact():
    basis = build_continuous(WeightSpec.jacobi(0.0, -0.5), 0.5, 1)
    fit = fit_projection(lookup("sqrt-shift"), basis)
    assert fit.coeffs == pytest.approx([0.0, 1.0], abs=1e-9)
    assert fit.cond == 1.0
    assert fit.error <= 1e-18


def test_projection_reports_the_weight_interval():
    basis = build_continuous(WeightSpec.unit(0.5, 2.0), 0.5, 2)
    fit = fit_projection(lookup("x15"), basis)
    assert (fit.lo, fit.hi) == (0.5, 2.0)


def test_projection_of_basis_member_is_unit_vector():
    from fraclsq import muntz_legendre_coeffs

    lam = 0.75
    basis = build_continuous(WeightSpec.unit(), lam, 2)
    target = muntz_legendre_coeffs(2, lam)
    fit = fit_projection(lambda x: np.array(
        [target(t) for t in np.atleast_1d(x)]), basis)
    monomial = expand_to_monomial(fit)
    assert monomial.coeffs == pytest.approx(target.coeffs, abs=1e-9)


@pytest.mark.parametrize("lam", [0.5, 0.75, 1.39])
@pytest.mark.parametrize("n", [2, 6, 10])
def test_expand_muntz_legendre_fit_matches_predict(lam, n):
    prob, _ = multi_term_problem()
    fit = solve_fde(prob, lam, n, basis_kind="muntz_legendre")
    poly = expand_to_monomial(fit)
    assert (poly.lam, poly.degree_index) == (lam, n)
    xs = np.linspace(0.0, 1.0, 41)
    want = predict(fit, xs)
    np.testing.assert_allclose(poly(xs), want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_projection_equals_normal_equations_on_data():
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(0.0, 1.0, 12))
    data = DataSet(xs, rng.standard_normal(12))
    for lam in (0.5, 1.0, 1.3):
        n = 3
        nfit = fit_discrete_normal(data, lam, n)
        pfit = fit_projection(data, build_discrete(None, xs, lam, n))
        a = expand_to_monomial(nfit).coeffs
        b = expand_to_monomial(pfit).coeffs
        assert np.array(a) == pytest.approx(np.array(b), abs=1e-8)
        assert predict(nfit, xs) == pytest.approx(predict(pfit, xs), abs=1e-8)


def test_projection_residual_orthogonality():
    rng = np.random.default_rng(12)
    xs = np.sort(rng.uniform(0.0, 1.0, 15))
    data = DataSet(xs, np.exp(xs))
    basis = build_discrete(None, xs, 0.75, 4)
    fit = fit_projection(data, basis)
    resid = data.ys - predict(fit, xs)
    norm = math.sqrt(float(np.sum(data.ys**2)))
    for lvals in basis.ladder_values(xs):
        assert abs(float(np.sum(resid * lvals))) <= 1e-9 * norm


def test_projection_requires_matching_points():
    basis = build_discrete(None, [0.0, 0.5, 1.0], 1.0, 1)
    with pytest.raises(UsageError):
        fit_projection(DataSet([0.0, 0.4, 1.0], [1.0, 2.0, 3.0]), basis)


def test_projection_rejects_mismatched_data_weights():
    xs = np.linspace(0.0, 1.0, 100)
    weighted = DataSet(xs, np.exp(xs), np.arange(1.0, 101.0))
    with pytest.raises(UsageError, match="weights"):
        fit_projection(weighted, build_discrete(None, xs, 0.5, 3))
    basis = build_discrete(weighted.weights, xs, 0.5, 3)
    want = fit_projection(weighted, basis)
    equal_copy = DataSet(xs, weighted.ys, weighted.weights.copy())
    unweighted = DataSet(xs, weighted.ys)  # weighed by the basis alone
    for data in (equal_copy, unweighted):
        got = fit_projection(data, basis)
        assert (got.coeffs.tobytes(), got.error) == (want.coeffs.tobytes(), want.error)


def _projection_case(case):
    y = lookup("x075+x15").fn
    xs = np.linspace(0.02, 1.0, 300)
    if case == "discrete":
        return build_discrete(None, xs, 0.75, 6), DataSet(xs, y(xs))
    if case == "discrete_weighted":
        w = np.linspace(0.5, 2.0, 300)
        return build_discrete(w, xs, 0.75, 6), DataSet(xs, y(xs), w)
    if case == "unit":
        return build_continuous(WeightSpec.unit(), 0.5, 6), y
    return build_continuous(WeightSpec.jacobi(0.0, -0.5), 0.5, 6), y


@pytest.mark.parametrize("case", ["discrete", "discrete_weighted", "unit", "jacobi"])
def test_projection_equals_fresh_rung_table_reference(case):
    basis, target = _projection_case(case)
    fit = fit_projection(target, basis)
    ys = target.ys if isinstance(target, DataSet) else target(basis.points)
    w = basis.ip_weights
    R = basis.ladder_values(basis.points)
    coeffs = R @ (w * ys) / np.asarray(basis.sq_norms)
    fitted = R.T @ coeffs
    assert fit.coeffs.tobytes() == coeffs.tobytes()
    assert fit.error == float(np.sum(w * (ys - fitted) * (ys - fitted)))
    assert predict(fit, basis.points).tobytes() == fitted.tobytes()


def test_discrete_projection_runs_each_rung_once(monkeypatch):
    steps = []
    rung = orthobasis._rung

    def spy(rows, t, B, C, i):
        steps.append(i)
        return rung(rows, t, B, C, i)

    monkeypatch.setattr(orthobasis, "_rung", spy)
    xs = np.linspace(0.0, 1.0, 50)
    basis = build_discrete(None, xs, 0.75, 5)
    fit_projection(DataSet(xs, np.exp(xs)), basis)
    assert steps == [1, 2, 3, 4, 5]  # the build's; the projection reuses its table


# ---------------------------------------------------------------------------
# reduction, monotonicity, conditioning
# ---------------------------------------------------------------------------

def test_lambda_one_reduction_exact_entrywise():
    # the fractional normal matrix at lam = 1 must equal the classical
    # integer-power one entry for entry, bit for bit
    xs = np.sort(np.random.default_rng(2).uniform(0.0, 2.0, 9))
    n = 3
    idx = np.arange(n + 1)
    exps = 1.0 * (idx[:, None] + idx[None, :])
    A_frac = np.array([[np.sum(xs ** exps[i, j]) for j in idx] for i in idx])
    A_classical = np.array([[np.sum(xs ** int(i + j)) for j in idx] for i in idx])
    assert np.array_equal(A_frac, A_classical)

    data = DataSet(xs, np.cos(xs))
    frac_fit = fit_discrete_normal(data, 1.0, n)
    V = np.vander(xs, n + 1, increasing=True)
    classical = np.linalg.lstsq(V, data.ys, rcond=None)[0]
    assert frac_fit.coeffs == pytest.approx(classical, abs=1e-10)


def test_error_monotone_in_degree():
    xs = np.linspace(0.0, 1.0, 20)
    data = DataSet(xs, np.sin(3 * xs))
    errs = [fit_discrete_normal(data, 0.75, n).error for n in range(6)]
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= hi + 1e-12


def test_conditioning_growth_vs_projection_stability():
    # equispaced data, lam = 0.5: the normal-matrix condition number grows
    # at least tenfold per added degree while the projection route stays at
    # the optimal residual
    xs = np.linspace(0.0, 1.0, 25)
    data = DataSet(xs, np.sin(xs))
    conds = {n: fit_discrete_normal(data, 0.5, n).cond for n in range(4, 10)}
    for n in range(4, 9):
        assert conds[n + 1] >= 10.0 * conds[n]
    for n in (6, 8, 9):
        V = xs[:, None] ** (0.5 * np.arange(n + 1))
        c = np.linalg.lstsq(V, data.ys, rcond=None)[0]
        optimal = float(np.sum((data.ys - V @ c) ** 2))
        proj = fit_projection(data, build_discrete(None, xs, 0.5, n)).error
        assert abs(proj - optimal) <= 1e-8


# ---------------------------------------------------------------------------
# prediction and noise
# ---------------------------------------------------------------------------

def test_predict_extrapolates_and_guards_domain():
    data = DataSet([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])
    fit = fit_discrete_normal(data, 1.0, 2)
    assert predict(fit, 10.0) == pytest.approx(100.0, rel=1e-9)
    with pytest.raises(DomainError):
        predict(fit, -1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, [0.5, math.nan], [-math.inf]])
def test_predict_rejects_nonfinite_x(bad):
    fit = fit_discrete_normal(DataSet([0.0, 1.0, 2.0], [0.0, 1.0, 4.0]), 1.0, 2)
    ml = FitResult("muntz_legendre", 0.5, [1.0, 2.0], 0.0, 1.0)
    for f in (fit, ml):
        with pytest.raises(DomainError, match="finite"):
            predict(f, bad)


@pytest.mark.parametrize("error", [-1e-13, -5e-324, -1.0])
def test_fit_result_refuses_any_negative_error(error):
    # every route's error is a sum of non-negative terms or an exact integral
    # of a square, so no roundoff can make it negative
    with pytest.raises(DomainError, match="cannot be negative"):
        FitResult("monomial", 0.5, [1.0], error, 1.0)


def test_predict_muntz_legendre_is_the_coefficient_sum():
    rng = np.random.default_rng(11)
    xs = np.linspace(0.0, 1.0, 101)
    for lam, n in ((0.3, 10), (0.75, 6), (1.39, 12)):
        fit = FitResult("muntz_legendre", lam, rng.standard_normal(n + 1), 0.0, 1.0)
        want = sum(a * np.array([muntz_legendre_eval(i, lam, float(x)) for x in xs])
                   for i, a in enumerate(fit.coeffs))
        got = predict(fit, xs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert predict(fit, 0.5) == pytest.approx(got[50], rel=1e-15)


@pytest.mark.parametrize("mode", ["discrete", "continuous"])
def test_projection_coefficients_are_inner_product_ratios(mode):
    y = lookup("x075+x15").fn
    if mode == "discrete":
        xs = np.linspace(0.02, 1.0, 200)
        basis = build_discrete(np.linspace(0.5, 2.0, 200), xs, 0.5, 5)
        fit = fit_projection(DataSet(xs, y(xs)), basis)
    else:
        basis = build_continuous(WeightSpec.jacobi(0.0, -0.5), 0.5, 5)
        fit = fit_projection(y, basis)
    rows = basis.ladder_values(basis.points)
    want = np.array([basis.inner(y, rows[i]) / basis.sq_norms[i] for i in range(len(rows))])
    # both sides sum N products, in different orders: compare on the
    # coefficients' scale, since a small coefficient comes out of cancellation
    assert np.max(np.abs(fit.coeffs - want)) <= 1e-13 * np.max(np.abs(want))


def test_add_noise_identity_and_determinism():
    data = DataSet([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    assert add_noise(data, 0.0, 42) is data
    a = add_noise(data, 5.0, 42)
    b = add_noise(data, 5.0, 42)
    assert np.array_equal(a.ys, b.ys)
    assert not np.array_equal(a.ys, add_noise(data, 5.0, 43).ys)


@pytest.mark.parametrize("seed,match", [
    (-1, "must be an integer >= 0"), (1.5, "must be an integer"),
    (2.0, "must be an integer"), (None, "must be an integer"),
])
def test_add_noise_rejects_bad_seeds(seed, match):
    data = DataSet([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(DomainError, match=match):
        add_noise(data, 5.0, seed)
    with pytest.raises(DomainError, match=match):
        add_noise(data, 0.0, seed)


@pytest.mark.parametrize("percent,match", [
    (math.nan, "percent must be finite"), (math.inf, "percent must be finite"),
    (-1.0, "percent must be >= 0"),
])
def test_add_noise_rejects_bad_percent(percent, match):
    data = DataSet([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(DomainError, match=match):
        add_noise(data, percent, 0)


def test_add_noise_scales_with_percent():
    rng_data = DataSet(np.linspace(10, 20, 200), np.linspace(10, 20, 200) ** 1.5)
    d5 = add_noise(rng_data, 5.0, 7)
    d10 = add_noise(rng_data, 10.0, 7)
    r5 = float(np.sum((d5.ys - rng_data.ys) ** 2))
    r10 = float(np.sum((d10.ys - rng_data.ys) ** 2))
    assert r10 == pytest.approx(4.0 * r5, rel=1e-12)
    fit5 = fit_discrete_normal(d5, 1.5, 1)
    fit10 = fit_discrete_normal(d10, 1.5, 1)
    assert fit5.error < fit10.error


def test_dataset_validation():
    with pytest.raises(DomainError):
        DataSet([-1.0, 1.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        DataSet([1.0], [1.0, 2.0])
    with pytest.raises(DomainError):
        DataSet([1.0, 2.0], [0.0, 1.0], weights=[1.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["xs", "ys", "weights"])
def test_dataset_rejects_nonfinite(field, bad):
    cols = {"xs": [0.5, 1.0, 2.0], "ys": [1.0, 2.0, 3.0], "weights": [1.0, 1.0, 1.0]}
    cols[field][1] = bad
    with pytest.raises(DomainError, match="finite"):
        DataSet(**cols)


# ---------------------------------------------------------------------------
# moment (Hankel) assembly and non-finite targets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam,n", [(0.5, 3), (1.39, 4), (0.75, 6)])
def test_discrete_normal_matches_power_sum_reference(lam, n, monkeypatch):
    # reference: A_ij = sum_k w_k x_k^((i+j) lam), d_i = sum_k w_k x_k^(i lam) y_k
    rng = np.random.default_rng(11)
    xs = np.sort(rng.uniform(0.0, 2.0, 40))
    xs[0] = 0.0
    ys = np.exp(-xs) + 0.1 * rng.standard_normal(40)
    w = rng.uniform(0.5, 2.0, 40)

    def power(x, e):
        return x**e if x else float(e == 0)

    A_ref = np.array([[sum(wk * power(xk, (i + j) * lam) for xk, wk in zip(xs, w))
                       for j in range(n + 1)] for i in range(n + 1)])
    d_ref = np.array([sum(wk * power(xk, i * lam) * yk for xk, wk, yk in zip(xs, w, ys))
                      for i in range(n + 1)])
    seen = []
    real_solve = lsq.solve_normal_equations
    monkeypatch.setattr(lsq, "solve_normal_equations",
                        lambda A, b: seen.append((A, b)) or real_solve(A, b))
    fit = fit_discrete_normal(DataSet(xs, ys, w), lam, n)
    (A, d), = seen
    assert np.allclose(A, A_ref, rtol=1e-12, atol=0)
    assert np.allclose(d, d_ref, rtol=1e-12, atol=0)
    V = np.array([[power(xk, i * lam) for i in range(n + 1)] for xk in xs])
    resid = ys - V @ fit.coeffs
    assert fit.error == pytest.approx(float(np.sum(w * resid**2)), rel=1e-12)


def test_continuous_and_projection_reject_nonfinite_targets():
    def bad(x):
        return np.where(np.asarray(x) > 0.5, np.nan, 1.0)

    with pytest.raises(DomainError, match="not finite"):
        fit_continuous_normal(bad, 0.0, 1.0, 0.5, 2)
    basis = build_continuous(WeightSpec.unit(), 0.5, 2)
    with pytest.raises(DomainError, match="not finite"):
        fit_projection(lambda x: np.inf * x, basis)


# ---------------------------------------------------------------------------
# sampled routes, pinned bit for bit
# ---------------------------------------------------------------------------

def _pinned_data():
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(0.0, 2.0, 300))
    ys = np.exp(-xs) + 0.05 * rng.standard_normal(300)
    return DataSet(xs, ys, rng.uniform(0.5, 2.0, 300))


def _fit_pinned(case):
    data = _pinned_data()
    if case == "continuous_normal":
        return fit_continuous_normal(lookup("sqrt-shift").fn, 0.0, 1.0, 0.7, 5)
    if case == "discrete_normal":
        return fit_discrete_normal(data, 0.75, 4)
    if case == "discrete_projection":
        return fit_projection(data, build_discrete(data.weights, data.xs, 0.75, 4))
    if case == "discrete_normal_blocked":
        rng = np.random.default_rng(11)
        xs = rng.uniform(0.0, 1.5, 150_000)
        ys = np.cos(3.0 * xs) + 0.05 * rng.standard_normal(len(xs))
        assert len(xs) > lsq._BLOCK_ROWS  # the powers are summed block by block
        return fit_discrete_normal(DataSet(xs, ys, rng.uniform(0.5, 2.0, len(xs))), 0.6, 5)
    basis = build_continuous(WeightSpec.jacobi(0.5, -0.5), 1.39, 5)
    return fit_projection(lookup("x075+x15").fn, basis)


# coefficients, error and condition estimate as float hex strings
_SAMPLED_PINNED = {
    "continuous_normal": (
        ['-0x1.8364c7ab20bb3p-1', '0x1.deba12e43bea5p+0', '-0x1.71367a2f9a203p+1',
         '0x1.1d8ffc5d9f8bep+2', '-0x1.d3cb0aee26475p+1', '0x1.2e0377bb2b5eap+0'],
        '0x1.e2f4193f2fcc5p-21', '0x1.7fa6dc1eed9acp+24'),
    "discrete_normal": (
        ['0x1.03691de223048p+0', '-0x1.6e0091e709727p-1', '0x1.e8e165ff31f4ep-8',
         '0x1.29e4528768630p-4', '-0x1.aa4ec671137c4p-8'],
        '0x1.c5d427a879942p-1', '0x1.7a1bc1600f70fp+18'),
    # recorded with the one-table route, before fits were blocked
    "discrete_normal_blocked": (
        ['0x1.20f45d99d8ceep+0', '-0x1.4d93548afbf9fp+1', '0x1.dbb8aeb83b551p+3',
         '-0x1.207694a9316e3p+5', '0x1.c3668a9247205p+4', '-0x1.a1357d391eb33p+2'],
        '0x1.f77227241ce49p+8', '0x1.1ab0de1be229ap+24'),
    "discrete_projection": (
        ['0x1.b8c2f2e842d54p-2', '-0x1.0b352fb4bec95p-1', '0x1.50f4caeadb0e1p-3',
         '0x1.9b38b44b27359p-5', '-0x1.aa4ec670c2a4cp-8'],
        '0x1.c5d427a879943p-1', '0x1.0000000000000p+0'),
    "jacobi_projection": (
        ['0x1.795461b3be707p+0', '0x1.c751469416e98p+0', '-0x1.6380c55492f78p-2',
         '0x1.148ef39b36627p-1', '-0x1.11847cae54da4p+0', '0x1.39933d6a72648p+1'],
        '0x1.57e12dbb8ac32p-17', '0x1.0000000000000p+0'),
}


@pytest.mark.parametrize("case", sorted(_SAMPLED_PINNED))
def test_sampled_route_is_pinned_bit_for_bit(case):
    coeffs, error, cond = _SAMPLED_PINNED[case]
    fit = _fit_pinned(case)
    assert [float(c).hex() for c in fit.coeffs] == coeffs
    assert float(fit.error).hex() == error
    assert float(fit.cond).hex() == cond


# ---------------------------------------------------------------------------
# large discrete fits: powers block by block, the bits of one table
# ---------------------------------------------------------------------------

def _one_table_fit(xs, ys, w, lam, n, solve=solve_normal_equations):
    """The discrete fit from one N x (2n+1) broadcast power table with V as
    its view: the reference the sweep must match bit for bit."""
    P = xs[:, None] ** (lam * np.arange(2 * n + 1))
    V = P[:, :n + 1]
    moments = np.einsum("k,km->m", w, P)
    idx = np.arange(n + 1)
    coeffs, cond = solve(moments[idx[:, None] + idx], V.T @ (w * ys))
    return coeffs, cond, V @ coeffs


_SMALL_BLOCK = 16


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("lam", [0.08, 0.5, 0.75, 2.0])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 6])
@pytest.mark.parametrize("points", [_SMALL_BLOCK - 1, _SMALL_BLOCK, _SMALL_BLOCK + 1,
                                    2 * _SMALL_BLOCK + 1])
def test_blocked_discrete_fit_equals_one_table(points, n, lam, weighted, monkeypatch):
    monkeypatch.setattr(lsq, "_BLOCK_ROWS", _SMALL_BLOCK)
    rng = np.random.default_rng(points * 100 + n)
    xs = rng.uniform(0.0, 2.0, points)
    xs[0] = 0.0
    ys = np.exp(-xs) + 0.05 * rng.standard_normal(points)
    w = rng.uniform(0.5, 2.0, points) if weighted else np.ones(points)
    coeffs, cond, fitted = lsq._discrete_fit(xs, ys, w, lam, n)
    ref_coeffs, ref_cond, ref_fitted = _one_table_fit(xs, ys, w, lam, n)
    assert coeffs.tobytes() == ref_coeffs.tobytes()
    assert float(cond).hex() == float(ref_cond).hex()
    assert fitted.tobytes() == ref_fitted.tobytes()


def test_large_discrete_fit_holds_v_plus_one_block():
    N, n = 10**6, 6
    rng = np.random.default_rng(6)
    data = DataSet(np.sort(rng.uniform(0.0, 1.0, N)), rng.standard_normal(N))
    fit_discrete_normal(DataSet(data.xs[:100], data.ys[:100]), 0.5, n)  # warm up
    tracemalloc.start()
    try:
        fit_discrete_normal(data, 0.5, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # V and the fitted values (and the error's temporaries after V is gone),
    # plus one block of 2n + 1 powers: one more array of points would not fit
    B = lsq._BLOCK_ROWS
    assert peak <= 8 * N * (n + 2) + 8 * (B + 1) * (2 * n + 1) + 2 * 2**20


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("xs, ys, match", [
    # x^(4 lam) of 1e200 puts the moments past the float range
    (np.linspace(1e200, 2e200, 50), np.sin(np.arange(50.0)),
     r"max x = 2e\+200 with lambda = 1.0 and degree 2 puts a moment sum"),
    # bounded x, but 10^4 values of y near 1e305 sum past it in w * y
    (np.linspace(0.0, 1.0, 10**4), np.full(10**4, 1e305),
     r"max \|y\| = 1e\+305 with max w = 1 puts a right-hand-side sum"),
], ids=["moments", "rhs"])
def test_overflowing_discrete_fit_is_one_domain_error(xs, ys, match, capfd):
    # no numpy warning and no LAPACK message (printed at the C level) before
    # the error
    with pytest.raises(DomainError, match=match):
        fit_discrete_normal(DataSet(xs, ys), 1.0, 2)
    assert capfd.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# power tables one column per call, unit weights as None: the same bits
# ---------------------------------------------------------------------------

#: each of numpy's scalar-exponent fast paths (0.5 -> sqrt, 2.0 -> square)
#: is a rung of some of these ladders
_TABLE_LAMBDAS = [0.1, 0.25, 0.4, 0.5, 0.75, 1.0, 1.39, 2.0]
#: zero, the smallest subnormal, (0, 1e-3], [20, 100] and 1e300, whose
#: higher powers are inf
_TABLE_XS = np.concatenate([
    [0.0, 5e-324, 1e-3, 20.0, 100.0, 1e300],
    np.random.default_rng(14).uniform(0.0, 1e-3, 500),
    np.random.default_rng(15).uniform(20.0, 100.0, 500),
])


def _broadcast_table(lam, n, x):
    """x^(i lam), i <= n, as one broadcast: the reference of the column fill."""
    return np.asarray(x, dtype=float)[..., None] ** (lam * np.arange(n + 1))


def _hexes(a):
    return [float(v).hex() for v in np.ravel(a)]


@pytest.mark.parametrize("lam", _TABLE_LAMBDAS)
@pytest.mark.parametrize("n", [0, 1, 2, 4, 6, 12])
def test_power_table_has_the_bits_of_one_broadcast(lam, n):
    with np.errstate(over="ignore"):
        got = lsq._monomial_values(lam, n, _TABLE_XS)
        assert got.shape == (len(_TABLE_XS), n + 1)
        assert _hexes(got) == _hexes(_broadcast_table(lam, n, _TABLE_XS))
        for x in _TABLE_XS[:6]:
            # predict's inputs: a scalar becomes a 1-d array of one point
            xa = np.atleast_1d(x)
            got = lsq._monomial_values(lam, n, xa)
            assert got.shape == (1, n + 1)
            assert _hexes(got) == _hexes(_broadcast_table(lam, n, xa))


@pytest.mark.parametrize("lam", _TABLE_LAMBDAS)
@pytest.mark.parametrize("n", [1, 3, 6])
def test_predict_has_the_bits_of_one_broadcast_table(lam, n):
    # positive coefficients, so 1e300's inf powers sum to inf, not nan
    fit = FitResult("monomial", lam, np.linspace(0.5, 2.0, n + 1), 0.0, 1.0)
    with np.errstate(over="ignore"):
        ref = _broadcast_table(lam, n, _TABLE_XS) @ fit.coeffs
        assert _hexes(predict(fit, _TABLE_XS)) == _hexes(ref)
        for x in _TABLE_XS[:6]:
            one = _broadcast_table(lam, n, np.atleast_1d(x)) @ fit.coeffs
            assert predict(fit, float(x)).hex() == float(one[0]).hex()


@pytest.mark.parametrize("lam", _TABLE_LAMBDAS)
@pytest.mark.parametrize("n", [3, 6])
def test_blocked_power_table_has_the_bits_of_one_broadcast(lam, n, monkeypatch):
    N = lsq._BLOCK_ROWS + 1  # one full block and a block of one point
    xs = np.resize(_TABLE_XS, N)
    ys = np.random.default_rng(16).uniform(0.5, 2.0, N)  # > 0: inf, never nan
    systems = {"sweep": [], "one_table": []}

    def recording_solve(key):
        # 1e300's powers overflow, so record the system and solve nothing
        return lambda A, b: systems[key].append((A, b)) or (np.ones(len(b)), 1.0)

    monkeypatch.setattr(lsq, "solve_normal_equations", recording_solve("sweep"))
    with np.errstate(over="ignore"):
        fitted = lsq._discrete_fit(xs, ys, np.ones(N), lam, n)[2]
        ref_fitted = _one_table_fit(xs, ys, np.ones(N), lam, n,
                                    solve=recording_solve("one_table"))[2]
    (A, b), = systems["sweep"]
    (ref_A, ref_b), = systems["one_table"]
    # A holds every moment, b = V^T (w y) and V @ 1 the rows of V
    assert _hexes(A) == _hexes(ref_A) and _hexes(b) == _hexes(ref_b)
    assert _hexes(fitted) == _hexes(ref_fitted)


@pytest.mark.parametrize("lam", [0.08, 0.5, 0.75, 2.0])
@pytest.mark.parametrize("n, points", [
    (0, 7), (0, 1001), (0, 2**15 + 3),  # one einsum column, of ones
    (1, 7), (2, 1001), (2, 2**15 + 3), (3, 1001),  # one table
    (3, 2**15 + 3), (6, 2**14 + 1),  # blocked
])
def test_unit_weights_as_none_have_the_bits_of_ones(n, points, lam):
    rng = np.random.default_rng(points + n)
    xs = rng.uniform(0.0, 2.0, points)
    xs[0] = 0.0
    ys = np.exp(-xs) + 0.05 * rng.standard_normal(points)
    coeffs, cond, fitted = lsq._discrete_fit(xs, ys, None, lam, n)
    ref_coeffs, ref_cond, ref_fitted = lsq._discrete_fit(xs, ys, np.ones(points), lam, n)
    assert _hexes(coeffs) == _hexes(ref_coeffs)
    assert float(cond).hex() == float(ref_cond).hex()
    assert fitted.tobytes() == ref_fitted.tobytes()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("xs, ys, n, match", [
    (np.linspace(1e200, 2e200, 50), np.sin(np.arange(50.0)), 2,
     r"moment sum of .*\(max w = 1\)$"),
    # the blocked route
    (np.linspace(1e200, 2e200, 2**14 + 1), np.sin(np.arange(2**14 + 1.0)), 3,
     r"moment sum of .*\(max w = 1\)$"),
    (np.linspace(0.0, 1.0, 10**4), np.full(10**4, 1e305), 2,
     r"max \|y\| = 1e\+305 with max w = 1 puts a right-hand-side sum"),
], ids=["moments", "blocked_moments", "rhs"])
def test_unit_weights_as_none_overflow_names_max_w_1(xs, ys, n, match, capfd):
    with pytest.raises(DomainError, match=match) as none:
        lsq._discrete_fit(xs, ys, None, 1.0, n)
    with pytest.raises(DomainError) as ones:
        lsq._discrete_fit(xs, ys, np.ones(len(xs)), 1.0, n)
    assert str(none.value) == str(ones.value)
    assert capfd.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# fit errors in blocks: the bits of one sum, and no temporary per point
# ---------------------------------------------------------------------------

def _whole_array_sse(ys, fitted, w):
    """The error as one np.sum over whole arrays: the reference of ``_sse``."""
    resid = ys - fitted
    return float(np.sum(w * resid * resid))


@pytest.mark.parametrize("block", [16, 256])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("size", [1, 7, 8, 15, 16, 17, 33, 129, 1000, 4097])
def test_sse_has_the_bits_of_one_sum(size, weighted, block, monkeypatch):
    monkeypatch.setattr(orthobasis, "_BLOCK_ROWS", block)
    rng = np.random.default_rng(size)
    ys = rng.standard_normal(size) * 10.0 ** rng.uniform(-3, 3, size)
    fitted = ys + rng.standard_normal(size)
    w = rng.uniform(0.5, 2.0, size) if weighted else np.broadcast_to(1.0, size)
    assert lsq._sse(ys, fitted, w).hex() == _whole_array_sse(ys, fitted, w).hex()


def _tracemalloc_peak(fn):
    fn()  # warm up
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_SWEEP_POINTS = 2 * 10**5


def _unweighted_data():
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(0.0, 1.0, _SWEEP_POINTS))
    return DataSet(xs, np.exp(xs) + 0.01 * rng.standard_normal(len(xs)))


def test_unweighted_projection_holds_no_temporary_per_point():
    data, n = _unweighted_data(), 4
    peak = _tracemalloc_peak(
        lambda: fit_projection(data, build_discrete(None, data.xs, 0.5, n)))
    # t and the rung table while building; the table, w * ys and then the
    # fitted values while projecting; two block buffers.  One more array of
    # points (1.5 MiB) would break the 0.5 MiB slack.
    assert peak <= 8 * _SWEEP_POINTS * (n + 2) + 2 * 8 * orthobasis._BLOCK_ROWS + 2**19


def test_unweighted_discrete_fit_holds_no_temporary_per_point():
    data, n = _unweighted_data(), 6
    peak = _tracemalloc_peak(lambda: fit_discrete_normal(data, 0.5, n))
    # V, with one block of 2n + 1 powers, then the fitted values
    block = 8 * (lsq._BLOCK_ROWS + 1) * (2 * n + 1)
    assert peak <= 8 * _SWEEP_POINTS * (n + 1) + max(8 * _SWEEP_POINTS, block) + 2**19


def test_unit_weight_array_is_a_read_only_stride_0_view():
    data = _unweighted_data()
    w = data.weight_array()
    assert w.shape == data.xs.shape and w.strides == (0,) and not w.flags.writeable
    assert (w == 1.0).all() and data.weights is None


_BIG_XS = np.linspace(0.0, 1.0, 50)
_BIG_DATA = DataSet(_BIG_XS, np.full(50, 1e300))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fit, max_w", [
    (lambda: fit_continuous_normal(lambda x: 1e300 * np.ones_like(x), 0.0, 1.0, 0.5, 3),
     "0.0313922"),  # the largest weight of the 64-point rule
    (lambda: fit_discrete_normal(_BIG_DATA, 0.5, 3), "1"),
    (lambda: fit_projection(_BIG_DATA, build_discrete(None, _BIG_XS, 0.5, 3)), "1"),
], ids=["continuous_normal", "discrete_normal", "projection"])
def test_fit_error_past_the_float_range_is_one_domain_error(fit, max_w, capfd):
    # no numpy warning first, and no error = inf
    with pytest.raises(DomainError) as info:
        fit()
    assert str(info.value) == (
        f"the least-squares error overflows: max |y| = 1e+300 with max w = {max_w} puts "
        f"the sum of w * (y - fit)^2 past the float range")
    assert capfd.readouterr() == ("", "")


# ---------------------------------------------------------------------------
# input rejection
# ---------------------------------------------------------------------------

_BOGUS_FIT = FitResult("bogus", 0.5, [1.0, 2.0], 0.0, 1.0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: DataSet([0.0, 1.0], [1.0, 2.0], weights=[1.0]),
     DomainError, "weights must match the data length"),
    (lambda: fit_projection(DataSet([0.0, 0.5, 1.0], [1.0, 2.0, 3.0]),
                            build_continuous(WeightSpec(), 0.5, 2)),
     UsageError, "a DataSet target needs a discrete-mode basis"),
    (lambda: predict(_BOGUS_FIT, 0.5), UsageError, "unknown basis descriptor 'bogus'"),
    (lambda: expand_to_monomial(_BOGUS_FIT), UsageError,
     "unknown basis descriptor 'bogus'"),
], ids=["weights_length", "dataset_on_continuous_basis", "predict_bogus_basis",
        "expand_bogus_basis"])
def test_lsq_rejects_bad_input(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
