import math

import numpy as np
import pytest

from fraclsq import (
    DomainError,
    FractionalPolynomial,
    integrate,
    muntz_legendre_coeffs,
    muntz_legendre_eval,
    substituted_rule,
)
from fraclsq.fracpoly import muntz_legendre_rungs


# ---------------------------------------------------------------------------
# FractionalPolynomial basics
# ---------------------------------------------------------------------------

def test_eval_at_one_sums_coeffs():
    p = FractionalPolynomial(0.75, (0.0, 1.0, 1.0))
    assert p(1.0) == pytest.approx(2.0, abs=1e-15)


def test_eval_constant_term_at_zero():
    p = FractionalPolynomial(0.5, (-math.pi / 4, 1.0))
    assert p(0.0) == -math.pi / 4


def test_eval_table_row():
    p = FractionalPolynomial(1.5, (0.1388, 2.5269, -0.7126))
    assert p(1.0) == pytest.approx(1.9531, abs=1e-12)


def test_eval_rejects_negative_x():
    p = FractionalPolynomial(0.5, (1.0,))
    with pytest.raises(DomainError):
        p(-0.1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [1e200, [1.0, 1e200]])
def test_eval_past_the_float_range_is_one_domain_error(x):
    p = FractionalPolynomial(2.0, (1.0, 1.0, 1.0))
    with pytest.raises(DomainError, match=r"^the fractional polynomial overflows: "
                       r"max x = 1e\+200 puts it past the float range$"):
        p(x)
    # finite values keep the bits of Horner in u = x^lam
    xs = np.array([0.0, 0.5, 3.0, 1e75])
    assert p(xs).tobytes() == np.polyval([1.0, 1.0, 1.0], xs**2.0).tobytes()


def test_lambda_range_enforced():
    with pytest.raises(DomainError):
        FractionalPolynomial(0.0, (1.0,))
    with pytest.raises(DomainError):
        FractionalPolynomial(2.5, (1.0,))
    with pytest.raises(DomainError):
        FractionalPolynomial(1.0, ())


# ---------------------------------------------------------------------------
# Muntz-Legendre polynomials
# ---------------------------------------------------------------------------

def test_muntz_coeffs_degree_zero_and_one():
    assert muntz_legendre_coeffs(0, 0.77).coeffs == (1.0,)
    lam = 0.6
    p = muntz_legendre_coeffs(1, lam)
    assert p.coeffs[0] == pytest.approx(-1 / lam, rel=1e-14)
    assert p.coeffs[1] == pytest.approx(1 / lam + 1, rel=1e-14)


def test_muntz_coeffs_lambda_one_is_shifted_legendre():
    # degree 2 shifted Legendre: 6x^2 - 6x + 1
    p = muntz_legendre_coeffs(2, 1.0)
    assert p.coeffs == pytest.approx((1.0, -6.0, 6.0), rel=1e-13)


def test_muntz_coeffs_degree_cap():
    with pytest.raises(DomainError):
        muntz_legendre_coeffs(31, 0.5)


def test_muntz_eval_degree_zero_is_one():
    for lam in (0.5, 1.0, 1.7):
        for x in (0.0, 0.3, 1.0):
            assert muntz_legendre_eval(0, lam, x) == 1.0


def test_muntz_eval_at_one_is_one():
    for lam in (0.4, 0.75, 1.0, 1.5, 2.0):
        for n in range(11):
            assert muntz_legendre_eval(n, lam, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_muntz_eval_lambda_one_endpoints():
    # shifted Legendre endpoint values: L_n(0) = (-1)^n, L_n(1) = 1
    for n in range(11):
        assert muntz_legendre_eval(n, 1.0, 0.0) == pytest.approx((-1.0) ** n, rel=1e-12)
        assert muntz_legendre_eval(n, 1.0, 1.0) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("lam", [0.5, 0.75, 1.0, 1.5])
def test_muntz_eval_matches_direct_coeffs(lam):
    # evaluating through the explicit coefficients is conditioned like
    # sum(|coeff|) * eps (alternating huge terms cancelling to O(1)), so the
    # achievable agreement degrades with degree; 1e-9 holds through degree
    # 10 and the conditioning bound covers the rest
    eps = np.finfo(float).eps
    for n in range(13):
        p = muntz_legendre_coeffs(n, lam)
        tol = 1e-9 if n <= 10 else max(1e-9, eps * sum(abs(c) for c in p.coeffs))
        for x in np.linspace(0, 1, 11):
            assert muntz_legendre_eval(n, lam, float(x)) == pytest.approx(
                p(float(x)), abs=tol)


def test_muntz_eval_cross_check_point():
    got = muntz_legendre_eval(3, 0.5, 0.9)
    want = muntz_legendre_coeffs(3, 0.5)(0.9)
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("lam", [0.5, 0.75, 1.0, 1.5])
def test_muntz_orthogonality(lam):
    # int_0^1 L_n L_m = delta_nm / (2 n lam + 1); the substituted rule makes
    # the integrands exactly polynomial
    rule = substituted_rule(64, lam)
    for n in range(9):
        for m in range(n, 9):
            val = integrate(rule, lambda x, n=n, m=m: np.array(
                [muntz_legendre_eval(n, lam, t) * muntz_legendre_eval(m, lam, t)
                 for t in np.atleast_1d(x)]))
            want = 1.0 / (2 * n * lam + 1) if n == m else 0.0
            assert val == pytest.approx(want, abs=1e-10)


# ---------------------------------------------------------------------------
# evaluation over arrays: rung tables
# ---------------------------------------------------------------------------

def _jacobi_scalar(a, b, n, x):
    # the general Jacobi recurrence in plain Python floats; at a = 0 it must
    # give the library's Muntz-Legendre rows bit for bit
    p_prev, p_cur = 1.0, 0.5 * ((a - b) + (a + b + 2) * x)
    if n == 0:
        return p_prev
    for k in range(1, n):
        s = 2 * k + a + b
        c1 = 2 * (k + 1) * (k + a + b + 1) * s
        c2 = (s + 1) * (s * (s + 2) * x + a * a - b * b)
        c3 = 2 * (k + a) * (k + b) * (s + 2)
        p_prev, p_cur = p_cur, (c2 * p_cur - c3 * p_prev) / c1
    return p_cur


def test_muntz_rungs_are_the_plain_recurrence_bits():
    # L_k(x; lam) = P_k^(0, 1/lam - 1)(2 x^lam - 1), row for row and bit for
    # bit; x = 0.5^(1/lam) puts t at (or an ulp from) 0, and x > 1 extrapolates
    n = 22
    for lam in (0.3, 0.75, 1.0, 1.39, 2.0):
        xs = np.append(np.linspace(0.0, 1.5, 16), 0.5 ** (1.0 / lam))
        ts = 2.0 * xs**lam - 1.0
        table = muntz_legendre_rungs(n, lam, xs)
        for k in range(n + 1):
            assert table[k].tolist() == [
                _jacobi_scalar(0.0, 1.0 / lam - 1.0, k, float(t)) for t in ts]


def test_array_evaluation_matches_scalar_calls():
    xs = np.linspace(0.0, 1.0, 37)
    for n in range(12):
        for lam in (0.3, 0.75, 1.39):
            np.testing.assert_allclose(
                muntz_legendre_eval(n, lam, xs),
                [muntz_legendre_eval(n, lam, float(x)) for x in xs], rtol=1e-14, atol=0)
    p = FractionalPolynomial(0.7, (0.3, -1.2, 2.5, 0.8))
    np.testing.assert_allclose(p(xs), [p(float(x)) for x in xs],
                               rtol=1e-14, atol=0)
    assert p(xs.reshape(37, 1)).shape == (37, 1)
    assert FractionalPolynomial(0.5, (2.0,))(xs).tolist() == [2.0] * 37


def test_array_evaluators_keep_their_domains():
    with pytest.raises(DomainError):
        muntz_legendre_eval(2, 0.5, np.array([0.5, 1.2]))
    with pytest.raises(DomainError):
        muntz_legendre_eval(2, 0.5, np.array([0.5, np.nan]))
    with pytest.raises(DomainError):
        FractionalPolynomial(0.5, (1.0, 1.0))(np.array([0.5, -0.1]))
    with pytest.raises(DomainError):
        FractionalPolynomial(0.5, (1.0, 1.0))(np.inf)


def test_muntz_rungs_table_rows_and_extrapolation():
    lam, n = 0.75, 8
    xs = np.linspace(0.0, 1.0, 21)
    table = muntz_legendre_rungs(n, lam, xs)
    assert table.shape == (n + 1, len(xs))
    for i in range(n + 1):
        assert np.array_equal(table[i], muntz_legendre_eval(i, lam, xs))
    # past x = 1 the rows continue the polynomials given by their coefficients
    far = np.array([1.25, 1.5, 2.0, 3.0])
    table = muntz_legendre_rungs(n, lam, far)
    for i in range(n + 1):
        want = muntz_legendre_coeffs(i, lam)(far)
        np.testing.assert_allclose(table[i], want, rtol=1e-11)
    for bad in (-0.1, np.inf, np.nan):
        with pytest.raises(DomainError):
            muntz_legendre_rungs(n, lam, np.array([0.5, bad]))
    with pytest.raises(DomainError):
        muntz_legendre_rungs(-1, lam, xs)
