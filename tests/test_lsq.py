import math

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
    frac_poly_eval,
    muntz_legendre_eval,
    predict,
    solve_fde,
    substituted_rule,
)
from fraclsq import lsq, orthobasis
from fraclsq.functions import lookup, multi_term_problem


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
        [frac_poly_eval(target, t) for t in np.atleast_1d(x)]), basis)
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
    (-1, "must be >= 0"), (1.5, "must be an integer"), (2.0, "must be an integer"),
    (None, "must be an integer"),
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
