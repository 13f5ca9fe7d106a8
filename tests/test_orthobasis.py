import math
from dataclasses import replace

import numpy as np
import pytest

from fraclsq import (
    DegeneracyError,
    DomainError,
    RankDeficiencyError,
    WeightSpec,
    build_continuous,
    build_discrete,
    frac_moment,
)
from fraclsq import orthobasis


def _poly_vals(poly, xs):
    return np.array([poly(float(x)) for x in xs])


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
    # on [0, h] the squared norm of L_i scales as h^(2i+1): at h = 1e-3,
    # ||L_2||^2 = h^5/180 = 5.6e-18 falls below the breakdown threshold
    with pytest.raises(DegeneracyError) as err:
        build_continuous(WeightSpec.unit(0.0, 1e-3), 1.0, 3)
    assert err.value.index == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weight,lam", [
    (WeightSpec.unit(0.0, 1e200), 1.0), (WeightSpec.jacobi(0.0, -0.5, 0.0, 1e200), 0.5),
    (WeightSpec.unit(1e100, 1e200), 1.0), (WeightSpec.unit(0.0, 1e200), 2.0),
])
def test_continuous_recurrence_past_the_float_range_is_a_domain_error(weight, lam):
    with pytest.raises(DomainError, match=rf"^the basis recurrence overflows: max point = "
                       rf"\S+ with lambda = {lam} and degree 3 puts rung \d's B, C or "
                       rf"squared norm past the float range$"):
        build_continuous(weight, lam, 3)


@pytest.mark.filterwarnings("error")
def test_discrete_recurrence_past_the_float_range_names_max_point_lambda_and_degree():
    with pytest.raises(DomainError) as info:
        build_discrete(None, [3e200, 1e200, 4e200, 2e200], 1.0, 2)
    assert str(info.value) == ("the basis recurrence overflows: max point = 4e+200 with "
                               "lambda = 1.0 and degree 2 puts rung 1's B, C or squared "
                               "norm past the float range")


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


_SHUFFLED = np.random.default_rng(3).permutation(np.linspace(0.0, 2.0, 9))


@pytest.mark.parametrize("points", [
    np.linspace(0.0, 2.0, 9),                    # sorted
    np.linspace(0.0, 2.0, 9)[::-1],              # reversed
    _SHUFFLED,                                   # shuffled
    np.r_[_SHUFFLED[0], _SHUFFLED],              # duplicate at the start
    np.r_[_SHUFFLED[:4], _SHUFFLED[2], _SHUFFLED[4:]],  # in the middle
    np.r_[_SHUFFLED, _SHUFFLED[3]],              # at the end
    np.array([0.0, -0.0]),                       # -0.0 == 0.0
])
def test_distinctness_verdict_matches_unique(points):
    distinct = len(np.unique(points)) == len(points)
    if distinct:
        build_discrete(None, points, 0.5, 1)
    else:
        with pytest.raises(DomainError, match="distinct"):
            build_discrete(None, points, 0.5, 1)


def test_basis_inner_positive_norm():
    basis = build_continuous(WeightSpec.jacobi(0.0, -0.5), 0.5, 1)
    l1 = basis.polys[1]
    val = basis.inner(lambda x: _poly_vals(l1, np.atleast_1d(x)),
                      lambda x: _poly_vals(l1, np.atleast_1d(x)))
    assert val > 0
    assert val == pytest.approx(basis.sq_norms[1], rel=1e-12)
    # g defaults to 1: a plain weighted sum over the basis's points
    assert build_discrete(None, [0.0, 1.0, 2.0], 1.0, 1).inner(lambda x: x) == 3.0


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


# recurrence constants, squared norms and ladder coefficients (hex of
# float64) of a unit, a Jacobi and a weighted discrete basis at n = 3
_PINNED_BASES = {
    "unit": (
        ["0x1.249249249249bp-1", "0x1.02d02d02d02d1p-1", "0x1.010953f390106p-1"],
        ["0x1.2cee3c9aa519dp-4", "0x1.0b359fa8bf7b4p-4"],
        ["0x1.fffffffffffffp-1", "0x1.2cee3c9aa51a2p-4", "0x1.3a1b82362b486p-8",
         "0x1.405b3be3b2721p-12"],
        [["0x1.0000000000000p+0"],
         ["-0x1.249249249249bp-1", "0x1.0000000000000p+0"],
         ["0x1.b91b91b91b922p-3", "-0x1.13b13b13b13b6p+0", "0x1.0000000000000p+0"],
         ["-0x1.2233d26592215p-4", "0x1.61af286bca1acp-1", "-0x1.9435e50d79439p+0",
          "0x1.0000000000000p+0"]],
    ),
    "jacobi": (
        ["0x1.921fb54442c1cp-1", "0x1.0e8d81545fbefp-1", "0x1.060a7c441031fp-1"],
        ["0x1.98188b970f7a6p-5", "0x1.dccce5caf51a4p-5"],
        ["0x1.0000000000024p+1", "0x1.98188b970f7e4p-4", "0x1.7c0a22b6ce126p-8",
         "0x1.6f3c17645b71cp-12"],
        [["0x1.0000000000000p+0"],
         ["-0x1.921fb54442c1cp-1", "0x1.0000000000000p+0"],
         ["0x1.75f8a65876366p-2", "-0x1.50569b4c51406p+0", "0x1.0000000000000p+0"],
         ["-0x1.212d319455819p-3", "0x1.f575ee65176dep-1", "-0x1.d35bd96e59596p+0",
          "0x1.0000000000000p+0"]],
    ),
    "discrete": (
        ["0x1.791b9eb3a7208p+0", "0x1.5dd68ab092b71p+0", "0x1.5664748b78514p+0"],
        ["0x1.7694266759c98p-1", "0x1.131947bf64f5bp-1"],
        ["0x1.bffffffffffffp+3", "0x1.47c1a19a6e905p+3", "0x1.60355e5d6b656p+2",
         "0x1.3d6107ec56952p+1"],
        [["0x1.0000000000000p+0"],
         ["-0x1.791b9eb3a7208p+0", "0x1.0000000000000p+0"],
         ["0x1.480c9d8ae6c9ap+0", "-0x1.6b7914b21cebcp+1", "0x1.0000000000000p+0"],
         ["-0x1.d845409d0090dp-1", "0x1.22b12fa042a86p+2", "-0x1.0b55a77bec8a3p+2",
          "0x1.0000000000000p+0"]],
    ),
}


def _pinned_basis(case):
    if case == "unit":
        return build_continuous(WeightSpec.unit(), 0.75, 3)
    if case == "jacobi":
        return build_continuous(WeightSpec.jacobi(0.0, -0.5), 0.5, 3)
    return build_discrete(np.linspace(1.0, 3.0, 7), np.linspace(0.1, 2.0, 7), 1.39, 3)


@pytest.mark.parametrize("case", sorted(_PINNED_BASES))
def test_basis_is_pinned_bit_for_bit(case):
    B, C, sq_norms, polys = _PINNED_BASES[case]
    basis = _pinned_basis(case)
    assert [v.hex() for v in basis.B] == B
    assert [v.hex() for v in basis.C] == C
    assert [v.hex() for v in basis.sq_norms] == sq_norms
    assert [[c.hex() for c in p.coeffs] for p in basis.polys] == polys


@pytest.mark.parametrize("case", sorted(_PINNED_BASES))
def test_point_rungs_is_the_read_only_rung_table(case):
    basis = _pinned_basis(case)
    rows = basis.point_rungs
    assert rows is basis.point_rungs
    assert rows.tobytes() == basis.ladder_values(basis.points).tobytes()
    with pytest.raises(ValueError):
        rows[0, 0] = 2.0
    other = replace(basis, B=tuple(2.0 * b for b in basis.B))
    assert other.point_rungs.tobytes() == other.ladder_values(other.points).tobytes()
    assert other.point_rungs.tobytes() != rows.tobytes()


@pytest.mark.parametrize("field", ["lo", "hi", "beta_left", "beta_right"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_weight_spec_rejects_nonfinite_fields(field, bad):
    kw = dict(lo=0.0, hi=1.0, beta_left=0.0, beta_right=0.0)
    kw[field] = bad
    with pytest.raises(DomainError, match="finite"):
        WeightSpec(**kw)


@pytest.mark.parametrize("hi", [1.0, 2.0])
@pytest.mark.parametrize("lam,n", [(0.5, 4), (0.75, 6), (1.39, 3)])
def test_jacobi_zero_zero_builds_the_unit_basis(hi, lam, n):
    unit = build_continuous(WeightSpec.unit(0.0, hi), lam, n)
    jac = build_continuous(WeightSpec.jacobi(0.0, 0.0, 0.0, hi), lam, n)
    assert (jac.B, jac.C, jac.sq_norms) == (unit.B, unit.C, unit.sq_norms)
    assert jac.point_rungs.tobytes() == unit.point_rungs.tobytes()


@pytest.mark.parametrize("quad_points", [0, -5, 257, 2.0, None])
def test_quad_points_is_checked_before_its_floor(quad_points):
    with pytest.raises(DomainError, match=r"point count must be an integer in \[1, 256\]"):
        build_continuous(WeightSpec.unit(), 0.5, 2, quad_points=quad_points)


def test_jacobi_basis_on_a_longer_interval_substitutes():
    # weight (2-x)^(-1/2) on [0, 2], lam = 1/2: B_1 = pi / (2 sqrt 2); the
    # x^lam substitution resolves the constants as well as on [0, 1]
    weight = WeightSpec.jacobi(0.0, -0.5, 0.0, 2.0)
    basis = build_continuous(weight, 0.5, 4)
    assert basis.B[0] == pytest.approx(math.sqrt(2) * math.pi / 4, rel=1e-13)
    fine = build_continuous(weight, 0.5, 4, quad_points=256)
    np.testing.assert_allclose(basis.B, fine.B, rtol=1e-11, atol=0)
    np.testing.assert_allclose(basis.C, fine.C, rtol=1e-11, atol=0)


def test_bases_carry_their_interval():
    cont = build_continuous(WeightSpec.jacobi(0.0, -0.5, 0.5, 2.0), 0.5, 2)
    assert (cont.lo, cont.hi) == (0.5, 2.0)
    disc = build_discrete(None, [0.25, 3.0, 1.0], 1.0, 1)
    assert (disc.lo, disc.hi) == (0.25, 3.0)


def _shifted_jacobi_constants(beta, lam, n):
    """Monic recurrence constants (B, C) and squared norms of the shifted
    Jacobi (0, beta) polynomials on [0, 1], weight t^beta.

    Gautschi, Orthogonal Polynomials (2004), Section 1.5: the constants
    alpha_k, beta_k on [-1, 1] move to [0, 1] through t = (1 + s)/2 as
    (1 + alpha_k)/2 and beta_k/4.  The norms carry the 1/lam of t = x^lam.
    """
    alpha = [beta / (beta + 2)] + [beta**2 / ((2 * k + beta) * (2 * k + beta + 2))
                                   for k in range(1, n)]
    B = [(1 + a) / 2 for a in alpha]
    C = [k**2 * (k + beta) ** 2 / ((2 * k + beta) ** 2 * (2 * k + beta + 1) * (2 * k + beta - 1))
         for k in range(1, n + 1)]
    sq = [1 / ((beta + 1) * lam)]
    for c in C:
        sq.append(sq[-1] * c)
    return B, C[:-1], sq


@pytest.mark.parametrize("b", [None, -0.5, 0.5])
@pytest.mark.parametrize("lam", [0.25, 0.3, 0.5, 0.75, 1.0, 1.1, 1.39, 2.0])
def test_stieltjes_constants_match_the_closed_form(lam, b):
    # with t = x^lam, the weight x^b on [0, 1] becomes (1/lam) t^((b+1)/lam - 1),
    # so the Stieltjes constants are the shifted Jacobi ones; b = None is the
    # unit weight, built on its own quadrature route
    n = 10
    weight = WeightSpec.unit() if b is None else WeightSpec.jacobi(b, 0.0)
    basis = build_continuous(weight, lam, n)
    beta = ((0.0 if b is None else b) + 1) / lam - 1
    B, C, sq = _shifted_jacobi_constants(beta, lam, n)
    np.testing.assert_allclose(basis.B, B, rtol=1e-10, atol=0)
    np.testing.assert_allclose(basis.C, C, rtol=1e-10, atol=0)
    np.testing.assert_allclose(basis.sq_norms, sq, rtol=1e-10, atol=0)


# ---------------------------------------------------------------------------
# the recurrence in blocks: the bits of whole-array sums
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def _whole_array_recurrence(points, w, lam, n):
    """(B, C, squared norms, rung table) by the recurrence over whole arrays,
    one np.sum per product: the reference the block sweep must match."""
    t = points**lam
    rows = np.empty((n + 1,) + points.shape)
    rows[0] = 1.0
    sq, Bs, Cs = [float(np.sum(w))], [], []
    for i in range(n + 1):
        if i >= 1:
            u = w * t * rows[i - 1]
            if i >= 2:
                Cs.append(float(np.sum(u * rows[i - 2])) / sq[i - 2])
            Bs.append(float(np.sum(u * rows[i - 1])) / sq[i - 1])
            rows[i] = (t - Bs[-1]) * rows[i - 1]
            if i >= 2:
                rows[i] -= Cs[-1] * rows[i - 2]
            sq.append(float(np.sum(w * rows[i] * rows[i])))
        if not all(map(math.isfinite, (sq[i], *Bs[-1:], *Cs[-1:]))):
            raise DomainError(f"the basis recurrence overflows: max point = "
                              f"{float(np.max(points)):.6g} with lambda = {lam} and degree "
                              f"{n} puts rung {i}'s B, C or squared norm past the float range")
        if sq[i] <= orthobasis.DEGENERACY_THRESHOLD:
            raise DegeneracyError(f"degenerate norm at index {i}: {sq[i]:.3e}", index=i)
    return Bs, Cs, sq, rows


def _same_build(points, w, lam, n, build):
    """``build()`` gives the reference's constants and rung table bit for bit,
    or raises the reference's error."""
    try:
        want = _whole_array_recurrence(points, w, lam, n)
    except (DegeneracyError, DomainError) as exc:
        with pytest.raises(type(exc)) as info:
            build()
        assert str(info.value) == str(exc)
        return
    basis = build()
    got = (basis.B, basis.C, basis.sq_norms)
    assert [np.array(v).tobytes() for v in got] == [np.array(v).tobytes() for v in want[:3]]
    assert basis.point_rungs.tobytes() == want[3].tobytes()


@pytest.mark.parametrize("block", [16, 256])
@pytest.mark.parametrize("lam", [0.08, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("size", [1, 7, 8, 15, 16, 17, 33, 129, 1000, 4097])
def test_discrete_sweep_has_the_bits_of_whole_array_sums(size, weighted, lam, block,
                                                         monkeypatch):
    monkeypatch.setattr(orthobasis, "_BLOCK_ROWS", block)
    rng = np.random.default_rng(size)
    xs = np.sort(rng.uniform(0.0, 2.0, size))
    xs[0] = 0.0
    w = rng.uniform(0.5, 2.0, size) if weighted else np.broadcast_to(1.0, size)
    for n in range(9):
        # called directly: size 1 also runs, to the degenerate rung 1
        _same_build(xs, w, lam, n, lambda: orthobasis._recurrence(
            xs, w, lam, n, "discrete", float(xs.min()), float(xs.max())))


@pytest.mark.parametrize("lam", [0.08, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("weight", [WeightSpec.unit(), WeightSpec.jacobi(0.5, -0.5)],
                         ids=["unit", "jacobi"])
def test_continuous_sweep_has_the_bits_of_whole_array_sums(weight, lam, monkeypatch):
    monkeypatch.setattr(orthobasis, "_BLOCK_ROWS", 16)
    # the build's own rule; past 128 nodes the sums are split
    rule = orthobasis.quad.ladder_rule(200, (lam,), weight.lo, weight.hi, lam,
                                       weight.beta_left, weight.beta_right)
    for n in range(9):
        _same_build(rule.nodes, rule.weights, lam, n,
                    lambda: build_continuous(weight, lam, n, quad_points=200))


@pytest.mark.parametrize("size", [1, 2**14, 2**14 + 1, 2**15 + 7, 10**5 + 3, 10**6,
                                  3 * 10**6])
def test_pairwise_sum_is_numpys_sum(size):
    # a numpy that changed its summation order would fail here first
    rng = np.random.default_rng(size)
    x = rng.standard_normal(size) * 10.0 ** rng.uniform(-8, 8, size)
    got = orthobasis._pairwise_sum(size, lambda a, b: np.add.reduce(x[a:b]))
    assert float(got).hex() == float(np.sum(x)).hex()
    pair = orthobasis._pairwise_sum(size, lambda a, b: (np.add.reduce(x[a:b]),
                                                        np.add.reduce(-x[a:b])))
    assert [float(v).hex() for v in pair] == [float(np.sum(x)).hex(),
                                              float(np.sum(-x)).hex()]


def test_unit_weights_are_a_read_only_stride_0_view():
    basis = build_discrete(None, np.linspace(0.0, 1.0, 50), 0.5, 3)
    w = basis.ip_weights
    assert w.shape == (50,) and w.strides == (0,) and not w.flags.writeable
    assert (w == 1.0).all()
