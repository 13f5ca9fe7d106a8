import math

import numpy as np
import pytest

from fraclsq import (
    DomainError,
    QuadratureRule,
    common_step,
    frac_moment,
    gauss_jacobi,
    gauss_legendre,
    integrate,
    substituted_rule,
    weighted_rule,
)
from fraclsq.quadrature import ladder_rule, sample


def _beta(a, b):
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


# ---------------------------------------------------------------------------
# Gauss-Legendre
# ---------------------------------------------------------------------------

def test_legendre_one_point():
    rule = gauss_legendre(1, -1.0, 1.0)
    assert rule.nodes == pytest.approx([0.0], abs=1e-15)
    assert rule.weights == pytest.approx([2.0], rel=1e-15)


def test_legendre_two_point():
    rule = gauss_legendre(2, -1.0, 1.0)
    assert rule.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)], abs=1e-14)
    assert rule.weights == pytest.approx([1.0, 1.0], rel=1e-14)


def test_legendre_cubic_exactness():
    rule = gauss_legendre(2, 0.0, 1.0)
    assert integrate(rule, lambda x: x**3) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("m", [1, 2, 5, 16, 40])
def test_legendre_monomial_exactness(m):
    rule = gauss_legendre(m, 0.0, 1.0)
    for k in range(2 * m):
        got = integrate(rule, lambda x: x**k)
        assert got == pytest.approx(frac_moment(0, 1, k), rel=1e-12)


@pytest.mark.parametrize("m", [2, 7, 24])
def test_legendre_symmetry(m):
    rule = gauss_legendre(m, -2.0, 6.0)
    mid = 2.0
    assert rule.nodes + rule.nodes[::-1] == pytest.approx(
        np.full(m, 2 * mid), abs=1e-14)
    assert rule.weights == pytest.approx(rule.weights[::-1], rel=1e-14)


def test_legendre_bounds():
    with pytest.raises(DomainError):
        gauss_legendre(0, 0, 1)
    with pytest.raises(DomainError):
        gauss_legendre(257, 0, 1)
    with pytest.raises(DomainError):
        gauss_legendre(4, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Gauss-Jacobi
# ---------------------------------------------------------------------------

def test_jacobi_zero_exponents_is_legendre():
    a = gauss_jacobi(5, 0.0, 0.0, 0.0, 1.0)
    b = gauss_legendre(5, 0.0, 1.0)
    assert a.nodes == pytest.approx(b.nodes, rel=1e-14)
    assert a.weights == pytest.approx(b.weights, rel=1e-14)


def test_jacobi_beta_integrals():
    # int_0^1 (1-x)^(-1/2) dx = 2 and int_0^1 (1-x)^(-1/2) x dx = 4/3
    rule = gauss_jacobi(16, 0.0, -0.5, 0.0, 1.0)
    assert integrate(rule, lambda x: np.ones_like(x)) == pytest.approx(2.0, rel=1e-13)
    assert integrate(rule, lambda x: x) == pytest.approx(4.0 / 3.0, rel=1e-13)


@pytest.mark.parametrize("bl,br", [(0.0, -0.5), (1.0, -0.25), (-0.5, -0.5), (2.0, 3.0)])
def test_jacobi_weight_sum_matches_beta(bl, br):
    rule = gauss_jacobi(20, bl, br, 0.0, 1.0)
    assert float(np.sum(rule.weights)) == pytest.approx(
        _beta(bl + 1, br + 1), rel=1e-12)


@pytest.mark.parametrize("m", [3, 10])
def test_jacobi_monomial_exactness(m):
    bl, br = -0.5, -0.25
    rule = gauss_jacobi(m, bl, br, 0.0, 1.0)
    for k in range(2 * m):
        want = _beta(bl + k + 1, br + 1)
        assert integrate(rule, lambda x: x**k) == pytest.approx(want, rel=1e-12)


def test_jacobi_scaled_interval():
    # int_2^6 (x-2)^(1/2) dx = 2/3 * 4^(3/2)
    rule = gauss_jacobi(8, 0.5, 0.0, 2.0, 6.0)
    assert integrate(rule, lambda x: np.ones_like(x)) == pytest.approx(
        (2.0 / 3.0) * 8.0, rel=1e-13)


def test_jacobi_domain():
    with pytest.raises(DomainError):
        gauss_jacobi(4, -1.0, 0.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        gauss_jacobi(4, 0.0, -1.5, 0.0, 1.0)


# ---------------------------------------------------------------------------
# integrate / frac_moment
# ---------------------------------------------------------------------------

def test_integrate_constant():
    rule = gauss_legendre(4, 0.0, 1.0)
    assert integrate(rule, lambda x: np.ones_like(x)) == pytest.approx(1.0, rel=1e-15)


def test_integrate_scalar_callable():
    rule = gauss_legendre(12, 0.0, 2.0)
    assert integrate(rule, math.sin) == pytest.approx(1 - math.cos(2), rel=1e-12)


def test_integrate_rejects_nonfinite():
    rule = gauss_legendre(4, 0.0, 1.0)
    with pytest.raises(DomainError), np.errstate(divide="ignore"):
        integrate(rule, lambda x: 1.0 / (x - rule.nodes[1]))


def test_integrate_fractional_power_plain_rule():
    # x^0.5 is not polynomial; a dense plain rule still converges slowly
    rule = gauss_legendre(64, 0.0, 1.0)
    assert integrate(rule, lambda x: x**0.5) == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_frac_moment_examples():
    assert frac_moment(0, 1, 0) == 1.0
    assert frac_moment(0, 1, 1.5) == pytest.approx(0.4, rel=1e-15)
    assert frac_moment(10, 20, 3) == pytest.approx(37500.0, rel=1e-15)
    with pytest.raises(DomainError):
        frac_moment(0, 1, -1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lo,hi,s", [
    (0.0, 1e200, 1.0), (0.0, 1e200, 5.5), (1e200, 2e200, 2.0),
    (np.float64(0.0), np.float64(1e200), np.float64(1.0)),  # numpy gives inf, not an error
])
def test_frac_moment_past_the_float_range_is_a_domain_error(lo, hi, s):
    with pytest.raises(DomainError) as info:
        frac_moment(lo, hi, s)
    assert str(info.value) == f"the moment of x^{s} on [{lo}, {hi}] is past the float range"


def test_frac_moment_at_the_edge_of_the_float_range_is_finite():
    assert frac_moment(0.0, 1e154, 1.0) == 1e154 ** 2 / 2


# ---------------------------------------------------------------------------
# substitution machinery
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.25, 0.5, 0.75, 1.0, 1.39, 2.0])
def test_substituted_rule_fractional_exactness(lam):
    rule = substituted_rule(24, lam)
    for s in range(0, 20):
        got = integrate(rule, lambda x: x ** (s * lam))
        assert got == pytest.approx(frac_moment(0, 1, s * lam), rel=1e-12)


#: point counts and right ends of the step-1 grid: m = 1..40 and the large
#: counts, hi from 1e-150 to 1e150
_STEP_ONE_M = [*range(1, 41), 64, 96, 128, 200, 256]
_STEP_ONE_HI = [1e-150, 1e-50, 1e-3, 0.5, 1.0, 3.0, 1e3, 1e50, 1e150]


@pytest.mark.parametrize("hi", _STEP_ONE_HI)
def test_substituted_rule_at_step_one_is_gauss_legendre_bit_for_bit(hi):
    # the x^1 substitution is the identity: its general branch gives the
    # Gauss-Legendre rule on [0, hi] to the last bit
    for m in _STEP_ONE_M:
        got, want = substituted_rule(m, 1.0, hi), gauss_legendre(m, 0.0, hi)
        assert (got.nodes.tobytes(), got.weights.tobytes(), got.lo, got.hi) == \
            (want.nodes.tobytes(), want.weights.tobytes(), want.lo, want.hi), m


def test_substituted_rule_scaled_interval():
    rule = substituted_rule(24, 0.5, hi=4.0)
    assert integrate(rule, lambda x: x**1.5) == pytest.approx(
        frac_moment(0, 4, 1.5), rel=1e-12)
    assert float(np.sum(rule.weights)) == pytest.approx(4.0, rel=1e-12)


def test_substituted_rule_muntz_products():
    # orthogonality integrands are polynomials in x^lam: exactly integrated
    from fraclsq import muntz_legendre_eval

    rule = substituted_rule(64, 0.75)
    val = integrate(rule, lambda x: np.array(
        [muntz_legendre_eval(2, 0.75, t) * muntz_legendre_eval(3, 0.75, t)
         for t in np.atleast_1d(x)]))
    assert abs(val) <= 1e-10


@pytest.mark.parametrize("lam,bl,br", [
    (0.5, 0.0, -0.5), (0.75, 0.0, -0.75), (0.5, 0.0, 0.0), (1.0, 0.0, -0.3),
    (0.75, 1.0, -0.5),
])
def test_weighted_rule_weight_sum(lam, bl, br):
    rule = weighted_rule(64, lam, bl, br)
    assert float(np.sum(rule.weights)) == pytest.approx(
        _beta(bl + 1, br + 1), rel=1e-11)


def test_weighted_rule_half_singularity_moments():
    # weight (1-x)^(-1/2) against ladder powers of x^0.5:
    # int x^(k/2) (1-x)^(-1/2) dx = B(k/2 + 1, 1/2)
    rule = weighted_rule(48, 0.5, 0.0, -0.5)
    for k in range(8):
        want = _beta(k / 2 + 1, 0.5)
        assert integrate(rule, lambda x: x ** (k / 2)) == pytest.approx(
            want, rel=1e-12)


def test_rule_invariants_guarded():
    with pytest.raises(DomainError):
        QuadratureRule(np.array([0.5, 0.2]), np.array([1.0, 1.0]), 0.0, 1.0)
    with pytest.raises(DomainError):
        QuadratureRule(np.array([0.2, 0.5]), np.array([1.0, -1.0]), 0.0, 1.0)


# ---------------------------------------------------------------------------
# common_step
# ---------------------------------------------------------------------------

def test_common_step_examples():
    assert common_step((0.75, 1.5)) == pytest.approx(0.75)
    assert common_step((0.75, 1.5, 1.0, 2.0)) == pytest.approx(0.25)
    assert common_step((1.39, 2.78)) == pytest.approx(1.39)
    assert common_step((0.5, 1.0, math.pi)) is None
    assert common_step((0.0,)) is None


# ---------------------------------------------------------------------------
# sample: the one evaluator of user callables
# ---------------------------------------------------------------------------

def test_sample_makes_one_vectorized_call():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return x**2

    pts = np.array([0.5, 1.0, 2.0])
    assert np.array_equal(sample(f, pts), pts**2)
    assert calls == [(3,)]


def test_sample_falls_back_to_scalar_calls():
    # math.sin rejects arrays with TypeError
    pts = np.array([0.1, 0.2, 0.3])
    assert sample(math.sin, pts) == pytest.approx(np.sin(pts), rel=1e-15)


def test_sample_falls_back_on_shape_mismatch():
    calls = []

    def f(x):
        calls.append(np.shape(x))
        return 2.0 * float(np.sum(x))  # wrong shape for array input

    pts = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(sample(f, pts), 2.0 * pts)
    assert calls == [(3,), (), (), ()]


def test_sample_names_first_nonfinite_point():
    pts = np.array([0.0, 1.0, 2.0, 3.0])
    with pytest.raises(DomainError, match="x=2.0"):
        sample(lambda x: np.where(x >= 2.0, np.nan, x), pts)
    with pytest.raises(DomainError, match="x=1.0"):
        sample(lambda x: math.inf if x == 1.0 else 0.0, pts)


# ---------------------------------------------------------------------------
# ladder_rule: the one rule picker
# ---------------------------------------------------------------------------

def _same_rule(a, b):
    return (np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)
            and (a.lo, a.hi) == (b.lo, b.hi))


def test_ladder_rule_substitutes_common_step():
    rule = ladder_rule(16, (0.75, 1.5, 1.0), 0.0, 2.0, fallback_step=0.75)
    assert _same_rule(rule, substituted_rule(16, 0.25, 2.0))
    # x^(k/4) up to k = 31 integrates exactly on [0, 2]
    for k in (1, 7, 31):
        assert integrate(rule, lambda x: x ** (k / 4)) == pytest.approx(
            frac_moment(0.0, 2.0, k / 4), rel=1e-13)


def test_ladder_rule_fallback_step_for_incommensurable_exponents():
    lam = 2**-0.5
    exps = (0.5, lam, 2 * lam)
    assert common_step(exps) is None
    assert _same_rule(ladder_rule(16, exps, 0.0, 1.0, fallback_step=lam),
                      substituted_rule(16, lam, 1.0))
    # without a fallback the rule is plain Gauss-Legendre
    assert _same_rule(ladder_rule(16, exps, 0.0, 1.0), gauss_legendre(16, 0.0, 1.0))


def test_ladder_rule_step_outside_range_uses_fallback():
    # the common step 3 of {3, 6} is too large for the substitution
    assert _same_rule(ladder_rule(8, (3.0, 6.0), 0.0, 1.0, fallback_step=0.5),
                      substituted_rule(8, 0.5, 1.0))
    assert _same_rule(ladder_rule(8, (3.0, 6.0), 0.0, 1.0), gauss_legendre(8, 0.0, 1.0))


def test_ladder_rule_positive_lo_is_gauss_legendre():
    rule = ladder_rule(12, (0.5, 1.0), 0.5, 2.0, fallback_step=0.5)
    assert _same_rule(rule, gauss_legendre(12, 0.5, 2.0))


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.7, 0.75, 1.0, 1.1, 1.39, 1.5])
@pytest.mark.parametrize("bl,br", [(0.0, -0.5), (0.5, 0.25)])
def test_ladder_rule_jacobi_weight_on_unit_interval_is_weighted_rule(lam, bl, br):
    assert _same_rule(ladder_rule(96, (lam,), 0.0, 1.0, lam, bl, br),
                      weighted_rule(96, lam, bl, br))


def test_ladder_rule_jacobi_weight_positive_lo_is_gauss_jacobi():
    rule = ladder_rule(12, (0.5,), 0.5, 2.0, 0.5, -0.5, 0.25)
    assert _same_rule(rule, gauss_jacobi(12, -0.5, 0.25, 0.5, 2.0))


def test_weighted_rule_scaled_interval():
    # int_0^2 x^(k/2) (2-x)^(-1/2) dx = 2^((k+1)/2) B(k/2 + 1, 1/2)
    rule = weighted_rule(24, 0.5, 0.0, -0.5, hi=2.0)
    assert (rule.lo, rule.hi) == (0.0, 2.0)
    for k in range(8):
        want = 2 ** ((k + 1) / 2) * _beta(k / 2 + 1, 0.5)
        assert integrate(rule, lambda x: x ** (k / 2)) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("call, message", [
    (lambda: QuadratureRule([0.25, 0.5], [1.0], 0.0, 1.0),
     "nodes and weights must be 1-d arrays of equal length"),
    (lambda: gauss_jacobi(4, 0.5, 0.5, 1.0, 1.0), "need lo < hi, got [1.0, 1.0]"),
    (lambda: frac_moment(1, 0, 1), "need 0 <= lo < hi, got [1, 0]"),
    (lambda: substituted_rule(4, 3.0), "substitution step must lie in (0, 2], got 3.0"),
    (lambda: weighted_rule(4, 0.5, -1.5), "endpoint exponents must exceed -1, got (-1.5, 0.0)"),
    # a negative exponent has no step: None, not an error
    (lambda: common_step([-0.5]), None),
], ids=["shapes", "jacobi_lo_eq_hi", "moment_lo_above_hi", "step_above_2",
        "weighted_exponent_below_minus_1", "negative_exponent_step"])
def test_quadrature_rejects_bad_input(call, message):
    if message is None:
        assert call() is None
        return
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message
