import math

import numpy as np
import pytest

from fraclsq import (
    DegeneracyError,
    DomainError,
    RankDeficiencyError,
    UsageError,
    WeightSpec,
    build_continuous,
    build_discrete,
    frac_moment,
    frac_poly_eval,
    inner_product,
    gauss_legendre,
)


def _poly_vals(poly, xs):
    return np.array([frac_poly_eval(poly, float(x)) for x in xs])


# ---------------------------------------------------------------------------
# continuous construction
# ---------------------------------------------------------------------------

def test_singular_weight_first_recurrence_constant():
    # weight (1-x)^(-1/2), lam = 1/2: B_1 = (pi/2) / 2 = pi/4
    basis = build_continuous(WeightSpec.jacobi(0.0, -0.5), 0.5, 1)
    assert basis.B[0] == pytest.approx(math.pi / 4, abs=1e-12)
    assert basis.polys[1].coeffs[0] == pytest.approx(-math.pi / 4, abs=1e-12)


def test_unit_weight_lambda_one_is_monic_shifted_legendre():
    basis = build_continuous(WeightSpec.unit(), 1.0, 2)
    assert basis.B[0] == pytest.approx(0.5, abs=1e-13)
    # monic shifted Legendre: x^2 - x + 1/6
    assert basis.polys[2].coeffs == pytest.approx((1 / 6, -1.0, 1.0), abs=1e-10)


@pytest.mark.parametrize("lam", [0.3, 0.75, 1.0, 1.6])
def test_unit_weight_first_poly(lam):
    basis = build_continuous(WeightSpec.unit(), lam, 1)
    assert basis.B[0] == pytest.approx(frac_moment(0, 1, lam), rel=1e-12)


def _recurrence_vals(basis):
    # regenerate the ladder values from the stored recurrence constants;
    # independent of both the builder's internal arrays and the (ill-
    # conditioned at high degree) coefficient representation
    t = basis.points**basis.lam
    vals = [np.ones_like(basis.points)]
    for i in range(1, basis.degree_index + 1):
        if i == 1:
            vals.append(t - basis.B[0])
        else:
            vals.append((t - basis.B[i - 1]) * vals[i - 1] - basis.C[i - 2] * vals[i - 2])
    return vals


@pytest.mark.parametrize("lam,br", [(0.5, 0.0), (0.75, 0.0), (1.0, 0.0),
                                    (1.5, 0.0), (0.5, -0.5), (0.75, -0.75),
                                    (1.5, -0.5)])
def test_continuous_orthogonality(lam, br):
    # (1-x)^br needs br > -1, so the singular-weight cases keep br in range
    weight = WeightSpec.unit() if br == 0.0 else WeightSpec.jacobi(0.0, br)
    n = 10
    basis = build_continuous(weight, lam, n)
    vals = _recurrence_vals(basis)
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            ip = float(np.sum(basis.ip_weights * vals[i] * vals[j]))
            bound = 1e-10 * math.sqrt(basis.sq_norms[i] * basis.sq_norms[j])
            assert abs(ip) <= bound


def test_coefficient_path_matches_recurrence_path():
    # at moderate degree the ladder-coefficient expansion still evaluates
    # accurately and must agree with the value recurrence
    basis = build_continuous(WeightSpec.unit(), 0.75, 6)
    vals = _recurrence_vals(basis)
    for i, poly in enumerate(basis.polys):
        assert _poly_vals(poly, basis.points) == pytest.approx(vals[i], abs=1e-10)


def test_monic_leading_coefficients_exact():
    basis = build_continuous(WeightSpec.unit(), 0.75, 8)
    for i, poly in enumerate(basis.polys):
        assert poly.coeffs[i] == 1.0


def test_gram_schmidt_equivalence_continuous():
    # classical Gram-Schmidt of the raw ladder under the same inner product
    # is an independent construction of the same monic basis
    lam, n = 0.75, 5
    basis = build_continuous(WeightSpec.unit(), lam, n)
    x, w = basis.points, basis.ip_weights
    ladder = [x ** (k * lam) if k else np.ones_like(x) for k in range(n + 1)]
    gs_vals = []
    gs_coeffs = []
    for k in range(n + 1):
        v = ladder[k].copy()
        c = np.zeros(n + 1)
        c[k] = 1.0
        for j in range(k):
            proj = float(np.sum(w * ladder[k] * gs_vals[j])) / float(
                np.sum(w * gs_vals[j] * gs_vals[j]))
            v -= proj * gs_vals[j]
            c[: j + 1] -= proj * gs_coeffs[j][: j + 1]
        gs_vals.append(v)
        gs_coeffs.append(c)
    for k in range(n + 1):
        got = np.array(basis.polys[k].coeffs)
        assert got == pytest.approx(gs_coeffs[k][: k + 1], abs=1e-8)


def test_degeneracy_raises_with_index():
    # a one-point continuous rule cannot support degree 1
    rule = gauss_legendre(1, 0.0, 1.0)
    with pytest.raises(DegeneracyError) as err:
        build_continuous(WeightSpec.unit(), 1.0, 2, rule=rule)
    assert err.value.index is not None


# ---------------------------------------------------------------------------
# discrete construction
# ---------------------------------------------------------------------------

def test_discrete_two_point_mean():
    basis = build_discrete(None, [0.0, 1.0], 1.0, 1)
    assert basis.B[0] == pytest.approx(0.5, rel=1e-15)
    assert basis.polys[1].coeffs == pytest.approx((-0.5, 1.0), rel=1e-15)


def test_discrete_orthogonality_direct_sum():
    pts = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    basis = build_discrete(None, pts, 1.0, 2)
    v1 = _poly_vals(basis.polys[1], pts)
    v2 = _poly_vals(basis.polys[2], pts)
    assert float(np.sum(v1 * v2)) == pytest.approx(0.0, abs=1e-12)
    assert float(np.sum(v1)) == pytest.approx(0.0, abs=1e-12)


def test_discrete_first_constant_is_weighted_mean():
    pts = np.linspace(0.1, 2.0, 7)
    w = np.linspace(1.0, 3.0, 7)
    lam = 1.39
    basis = build_discrete(w, pts, lam, 1)
    assert basis.B[0] == pytest.approx(
        float(np.sum(w * pts**lam) / np.sum(w)), rel=1e-14)


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.39])
def test_discrete_orthogonality_matrix(lam):
    pts = np.linspace(0.0, 1.0, 11)
    n = 6
    basis = build_discrete(None, pts, lam, n)
    vals = [_poly_vals(p, pts) for p in basis.polys]
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            ip = float(np.sum(basis.ip_weights * vals[i] * vals[j]))
            assert abs(ip) <= 1e-10 * math.sqrt(basis.sq_norms[i] * basis.sq_norms[j])


def test_discrete_gram_schmidt_equivalence():
    lam, n = 1.39, 4
    pts = np.linspace(0.0, 1.0, 11)
    basis = build_discrete(None, pts, lam, n)
    ladder = [pts ** (k * lam) if k else np.ones_like(pts) for k in range(n + 1)]
    gs_vals, gs_coeffs = [], []
    for k in range(n + 1):
        v = ladder[k].copy()
        c = np.zeros(n + 1)
        c[k] = 1.0
        for j in range(k):
            proj = float(np.sum(ladder[k] * gs_vals[j])) / float(
                np.sum(gs_vals[j] * gs_vals[j]))
            v -= proj * gs_vals[j]
            c[: j + 1] -= proj * gs_coeffs[j][: j + 1]
        gs_vals.append(v)
        gs_coeffs.append(c)
    for k in range(n + 1):
        assert np.array(basis.polys[k].coeffs) == pytest.approx(
            gs_coeffs[k][: k + 1], abs=1e-8)


def test_discrete_errors():
    with pytest.raises(RankDeficiencyError):
        build_discrete(None, [0.0, 0.5], 1.0, 2)
    with pytest.raises(DomainError):
        build_discrete(None, [0.0, 0.5, 0.5], 1.0, 1)
    with pytest.raises(DomainError):
        build_discrete(None, [-0.1, 0.5, 1.0], 1.0, 1)
    with pytest.raises(DomainError):
        build_discrete([1.0, -1.0, 1.0], [0.0, 0.5, 1.0], 1.0, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_discrete_rejects_nonfinite_points_and_weights(bad):
    with pytest.raises(DomainError, match="points must be finite"):
        build_discrete(None, [0.0, 0.5, bad], 1.0, 1)
    with pytest.raises(DomainError, match="weight values must be finite"):
        build_discrete([1.0, bad, 1.0], [0.0, 0.5, 1.0], 1.0, 1)


# ---------------------------------------------------------------------------
# inner_product
# ---------------------------------------------------------------------------

def test_inner_product_modes():
    rule = gauss_legendre(8, 0.0, 1.0)
    one = lambda x: np.ones_like(x)
    assert inner_product(one, one, rule=rule) == pytest.approx(1.0, rel=1e-14)
    assert inner_product(one, one, points=[0.0, 1.0, 2.0]) == pytest.approx(3.0)
    with pytest.raises(UsageError):
        inner_product(one, one)
    with pytest.raises(UsageError):
        inner_product(one, one, rule=rule, points=[0.0])


def test_basis_inner_positive_norm():
    basis = build_continuous(WeightSpec.jacobi(0.0, -0.5), 0.5, 1)
    l1 = basis.polys[1]
    val = basis.inner(lambda x: _poly_vals(l1, np.atleast_1d(x)),
                      lambda x: _poly_vals(l1, np.atleast_1d(x)))
    assert val > 0
    assert val == pytest.approx(basis.sq_norms[1], rel=1e-12)


def test_ladder_values_is_a_rung_table():
    basis = build_continuous(WeightSpec.unit(), 0.75, 4)
    xs = np.linspace(0.0, 1.0, 9)
    table = basis.ladder_values(xs)
    assert table.shape == (5, 9)
    assert len(table) == 5
    for row, poly in zip(table, basis.polys):
        np.testing.assert_allclose(row, _poly_vals(poly, xs), rtol=1e-12, atol=1e-12)
    assert basis.ladder_values(0.5).shape == (5,)
    assert np.array_equal(basis.ladder_values(xs.reshape(3, 3)), table.reshape(5, 3, 3))


@pytest.mark.parametrize("field", ["lo", "hi", "beta_left", "beta_right"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_weight_spec_rejects_nonfinite_fields(field, bad):
    kw = dict(kind="jacobi", lo=0.0, hi=1.0, beta_left=0.0, beta_right=0.0)
    kw[field] = bad
    with pytest.raises(DomainError, match="finite"):
        WeightSpec(**kw)


def test_bases_carry_their_interval():
    cont = build_continuous(WeightSpec.jacobi(0.0, -0.5, 0.5, 2.0), 0.5, 2)
    assert (cont.lo, cont.hi) == (0.5, 2.0)
    disc = build_discrete(None, [0.25, 3.0, 1.0], 1.0, 1)
    assert (disc.lo, disc.hi) == (0.25, 3.0)
