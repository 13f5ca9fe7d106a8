"""Acceptance gate: every pinned criterion at its stated tolerance.

Each test prints one PASS/FAIL line per checked figure and then asserts.
Three groups of reference rows are unattainable (details in the row notes
and the failing assertion messages):

* criterion 4's lambda sweep: the lam = 1 reference value is impossible
  (the exact solution x lies in the lam = 1 ladder, forcing a zero
  minimum), and the remaining sweep values come from the same pipeline;
* criterion 7's reference prices: they sit below the Black-Scholes
  European value (11.13) for the stated parameters, an arbitrage bound no
  American put can undercut;
* criterion 8 at n = 2: the true error ratio there is ~7.1e2 (the
  reference data's own n = 2 row has ratio ~7.2e2), below the pinned 1e3.

Those tests fail by design rather than loosen their tolerances.
"""

import math

import numpy as np
import pytest

from fraclsq import (
    DataSet,
    WeightSpec,
    build_continuous,
    build_discrete,
    caputo_derivative,
    expand_to_monomial,
    fit_discrete_normal,
    fit_projection,
    FracFunction,
    gamma,
    gauss_jacobi,
    muntz_legendre_coeffs,
    muntz_legendre_eval,
    predict,
    substituted_rule,
)
from fraclsq.functions import lookup
from fraclsq.reproduce import (
    reproduce_t1,
    reproduce_t2,
    reproduce_t4,
    reproduce_t6,
    reproduce_t8,
    reproduce_t9,
    reproduce_t10,
)


def _check_rows(rows):
    for row in rows:
        print(row.format())
    bad = [r for r in rows if not r.passed]
    assert not bad, "failed: " + "; ".join(r.label for r in bad)


# ---------------------------------------------------------------------------
# criterion 1: continuous fit of x^0.75 + x^1.5 (reference table 1)
# ---------------------------------------------------------------------------

def test_criterion_1_continuous_fit_table():
    _check_rows(reproduce_t1())


# ---------------------------------------------------------------------------
# criterion 2: discrete fit of x^1.5 on [10, 20] (reference table 2)
# ---------------------------------------------------------------------------

def test_criterion_2_discrete_fit_table():
    _check_rows(reproduce_t2())


# ---------------------------------------------------------------------------
# criterion 3: orthogonal basis under (1-x)^(-1/2) and projection fit
# ---------------------------------------------------------------------------

def test_criterion_3_singular_weight_projection():
    basis = build_continuous(WeightSpec.jacobi(0.0, -0.5), 0.5, 1)
    b1 = basis.B[0]
    ok_b1 = abs(b1 - math.pi / 4) <= 1e-9
    print(f"{'PASS' if ok_b1 else 'FAIL'}  B_1: computed={b1!r} expected pi/4 (+-1e-9)")
    fit = fit_projection(lookup("sqrt-shift"), basis)
    ok_c = (abs(fit.coeffs[0] - 0.0) <= 1e-9 and abs(fit.coeffs[1] - 1.0) <= 1e-9
            and fit.cond == 1.0)
    print(f"{'PASS' if ok_c else 'FAIL'}  projection coeffs: {fit.coeffs} "
          f"expected (0, 1) (+-1e-9), cond={fit.cond} (no linear solve)")
    assert ok_b1 and ok_c


# ---------------------------------------------------------------------------
# criterion 4: single-term fractional solve (reference table 4)
# ---------------------------------------------------------------------------

def test_criterion_4_exact_representation_case():
    rows = [r for r in reproduce_t4() if "lam=0.5 " in r.label]
    assert len(rows) == 2
    _check_rows(rows)


@pytest.mark.parametrize("lam", [0.75, 1.0, 1.25, 1.5])
def test_criterion_4_lambda_sweep_reference_rows(lam):
    rows = [r for r in reproduce_t4() if f"lam={lam:g} " in r.label]
    assert len(rows) == 1
    _check_rows(rows)


# ---------------------------------------------------------------------------
# criterion 5: multi-term fractional solve (reference table 8)
# ---------------------------------------------------------------------------

def test_criterion_5_multi_term_solve_table():
    _check_rows(reproduce_t8())


# ---------------------------------------------------------------------------
# criterion 6: sales predictions (reference table 6)
# ---------------------------------------------------------------------------

def test_criterion_6_sales_predictions():
    _check_rows(reproduce_t6())


# ---------------------------------------------------------------------------
# criterion 7: American put prices (reference table 9)
# ---------------------------------------------------------------------------

def test_criterion_7_pricing_invariants():
    rows = [r for r in reproduce_t9() if "price >=" in r.label
            or "American >= European" in r.label]
    assert len(rows) == 8
    _check_rows(rows)


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0])
def test_criterion_7_reference_prices(lam):
    rows = [r for r in reproduce_t9()
            if r.label == f"T9 lam={lam:g} price"]
    assert len(rows) == 1
    _check_rows(rows)


# ---------------------------------------------------------------------------
# criterion 8: population-curve fits (reference table 10)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_criterion_8_population_fit_ratios(n):
    rows = [r for r in reproduce_t10() if f"n={n} " in r.label]
    assert len(rows) == 2
    _check_rows(rows)


# ---------------------------------------------------------------------------
# criterion 9: property suites (no pinned reference figures)
# ---------------------------------------------------------------------------

def test_criterion_9_muntz_orthogonality():
    worst = 0.0
    for lam in (0.5, 0.75, 1.0, 1.5):
        rule = substituted_rule(64, lam)
        vals = [np.array([muntz_legendre_eval(k, lam, float(x)) for x in rule.nodes])
                for k in range(9)]
        for i in range(9):
            for j in range(9):
                got = float(np.sum(rule.weights * vals[i] * vals[j]))
                want = 1.0 / (2 * i * lam + 1) if i == j else 0.0
                worst = max(worst, abs(got - want))
    print(f"{'PASS' if worst <= 1e-10 else 'FAIL'}  Muntz-Legendre orthogonality: "
          f"worst defect {worst:.3e} (tol 1e-10)")
    assert worst <= 1e-10


def test_criterion_9_recurrence_vs_direct_formula():
    worst = 0.0
    for lam in (0.5, 0.75, 1.0, 1.5):
        for n in range(11):
            p = muntz_legendre_coeffs(n, lam)
            for x in np.linspace(0, 1, 21):
                worst = max(worst, abs(muntz_legendre_eval(n, lam, float(x))
                                       - p(float(x))))
    print(f"{'PASS' if worst <= 1e-9 else 'FAIL'}  recurrence vs direct formula: "
          f"worst {worst:.3e} (tol 1e-9, n <= 10)")
    assert worst <= 1e-9


def _gram_schmidt_coeffs(points, w, lam, n):
    ladder = [points ** (k * lam) if k else np.ones_like(points)
              for k in range(n + 1)]
    vals, coeffs = [], []
    for k in range(n + 1):
        v = ladder[k].copy()
        c = np.zeros(n + 1)
        c[k] = 1.0
        for j in range(k):
            proj = float(np.sum(w * ladder[k] * vals[j])) / float(
                np.sum(w * vals[j] * vals[j]))
            v -= proj * vals[j]
            c[: j + 1] -= proj * coeffs[j][: j + 1]
        vals.append(v)
        coeffs.append(c)
    return coeffs


def test_criterion_9_gram_schmidt_equivalence():
    worst = 0.0
    basis = build_continuous(WeightSpec.unit(), 0.75, 5)
    gs = _gram_schmidt_coeffs(basis.points, basis.ip_weights, 0.75, 5)
    for k, poly in enumerate(basis.polys):
        worst = max(worst, float(np.max(np.abs(
            np.array(poly.coeffs) - gs[k][: k + 1]))))
    pts = np.linspace(0.0, 1.0, 11)
    dbasis = build_discrete(None, pts, 1.39, 5)
    gs = _gram_schmidt_coeffs(pts, np.ones_like(pts), 1.39, 5)
    for k, poly in enumerate(dbasis.polys):
        worst = max(worst, float(np.max(np.abs(
            np.array(poly.coeffs) - gs[k][: k + 1]))))
    print(f"{'PASS' if worst <= 1e-8 else 'FAIL'}  Gram-Schmidt equivalence "
          f"(continuous + discrete): worst {worst:.3e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_9_projection_equals_normal_equations():
    # fitted values must agree at every data point; the expanded-coefficient
    # comparison additionally applies where the normal matrix is well
    # conditioned (coefficient agreement is conditioning-limited by nature)
    rng = np.random.default_rng(21)
    worst_fit = 0.0
    worst_coeff = 0.0
    for lam in (0.5, 1.0, 1.39):
        xs = np.sort(rng.uniform(0.0, 1.0, 14))
        data = DataSet(xs, np.sin(2.5 * xs) + 0.2 * rng.uniform(size=14))
        nfit = fit_discrete_normal(data, lam, 4)
        pfit = fit_projection(data, build_discrete(None, xs, lam, 4))
        worst_fit = max(worst_fit, float(np.max(np.abs(
            predict(nfit, xs) - predict(pfit, xs)))))
        if nfit.cond <= 1e6:
            worst_coeff = max(worst_coeff, float(np.max(np.abs(
                np.array(expand_to_monomial(nfit).coeffs)
                - np.array(expand_to_monomial(pfit).coeffs)))))
    ok = worst_fit <= 1e-8 and worst_coeff <= 1e-8
    print(f"{'PASS' if ok else 'FAIL'}  projection == normal equations: "
          f"fitted values {worst_fit:.3e}, well-conditioned coeffs "
          f"{worst_coeff:.3e} (tol 1e-8)")
    assert ok


def test_criterion_9_caputo_power_rule_vs_quadrature():
    worst = 0.0
    for nu, alpha in ((1.0, 0.5), (3.5, 0.25), (0.75, 0.5)):
        d = caputo_derivative(FracFunction.from_terms([(1.0, nu)]), alpha)
        for x in (0.25, 0.5, 0.75, 1.0):
            rule = gauss_jacobi(64, nu - 1.0, -alpha, 0.0, x)
            want = nu * float(np.sum(rule.weights)) / gamma(1.0 - alpha)
            worst = max(worst, abs(d(x) - want) / abs(want))
    print(f"{'PASS' if worst <= 1e-6 else 'FAIL'}  Caputo power rule vs "
          f"integral definition: worst rel {worst:.3e} (tol 1e-6)")
    assert worst <= 1e-6


def test_criterion_9_lambda_one_reduction_exact():
    xs = np.sort(np.random.default_rng(8).uniform(0.0, 2.0, 10))
    n = 3
    idx = np.arange(n + 1)
    exps = 1.0 * (idx[:, None] + idx[None, :])
    A_frac = np.array([[np.sum(xs ** exps[i, j]) for j in idx] for i in idx])
    A_classic = np.array([[np.sum(xs ** int(i + j)) for j in idx] for i in idx])
    ok = np.array_equal(A_frac, A_classic)
    print(f"{'PASS' if ok else 'FAIL'}  lam=1 normal matrix equals the "
          f"classical integer-power one entrywise exactly")
    assert ok


def test_criterion_9_conditioning_growth_and_projection_stability():
    xs = np.linspace(0.0, 1.0, 25)
    data = DataSet(xs, np.sin(xs))
    conds = {n: fit_discrete_normal(data, 0.5, n).cond for n in range(4, 10)}
    growth_ok = all(conds[n + 1] >= 10.0 * conds[n] for n in range(4, 9))
    print(f"{'PASS' if growth_ok else 'FAIL'}  cond growth >= 10x per degree "
          f"(lam=0.5, n=4..9): " +
          ", ".join(f"n={n}: {conds[n]:.2e}" for n in sorted(conds)))
    worst = 0.0
    for n in (6, 8, 9):
        V = xs[:, None] ** (0.5 * np.arange(n + 1))
        c = np.linalg.lstsq(V, data.ys, rcond=None)[0]
        optimal = float(np.sum((data.ys - V @ c) ** 2))
        proj = fit_projection(data, build_discrete(None, xs, 0.5, n)).error
        worst = max(worst, abs(proj - optimal))
    print(f"{'PASS' if worst <= 1e-8 else 'FAIL'}  projection residual within "
          f"{worst:.3e} of optimal (tol 1e-8)")
    assert growth_ok and worst <= 1e-8
