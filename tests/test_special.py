import math

import numpy as np
import pytest
from scipy.special import erfcx

from fraclsq import ConvergenceError, DomainError, gamma, mittag_leffler
from fraclsq.functions import lookup
from fraclsq.reproduce import population_data


def test_gamma_integers():
    assert gamma(1) == 1.0
    assert gamma(5) == 24.0
    assert gamma(2) == 1.0


def test_gamma_half_integer():
    # Gamma(1.5) = sqrt(pi)/2; frozen from a 40-digit evaluation
    assert gamma(1.5) == pytest.approx(0.8862269254527580, rel=1e-13)
    assert gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-15)


def test_gamma_large_argument():
    # frozen from a 40-digit evaluation
    assert gamma(170.0) == pytest.approx(4.2690680090047052749e304, rel=1e-13)


def test_gamma_recurrence_property():
    x = 0.07
    while x <= 100.0:
        assert gamma(x + 1) == pytest.approx(x * gamma(x), rel=1e-12)
        x += 0.93


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan"), float("inf")])
def test_gamma_domain(bad):
    with pytest.raises(DomainError):
        gamma(bad)


# E_1.39(1.3502e-2 x^1.39) at the population table's points, linspace(0, 1, 11)
# and the evaluation point 0.55 (hex of float64)
_POPULATION_PINNED = [
    "0x1.0000000000000p+0", "0x1.001d36b1ecaa3p+0", "0x1.004c94c5587e9p+0",
    "0x1.00869750d4e22p+0", "0x1.00c8d442d6082p+0", "0x1.0111f698aa945p+0",
    "0x1.01611fea8e829p+0", "0x1.01b5b169a2e86p+0", "0x1.020f32f45af90p+0",
    "0x1.026d45f1e5ff7p+0", "0x1.02cf9da7a0d68p+0",
]
_POPULATION_AT_055 = "0x1.0138d56cfb466p+0"


def test_population_curve_is_pinned_at_table_points():
    curve = lookup("ml-population")
    xs = np.linspace(0.0, 1.0, 11)
    assert [float(curve(x)).hex() for x in xs] == _POPULATION_PINNED
    assert float(curve(0.55)).hex() == _POPULATION_AT_055
    data = population_data()
    assert data.xs.tolist() == xs.tolist()
    assert [v.hex() for v in data.ys.tolist()] == _POPULATION_PINNED


def test_mittag_leffler_reduces_to_exp():
    z = -5.0
    while z <= 5.0:
        assert mittag_leffler(1.0, z) == pytest.approx(math.exp(z), rel=1e-12)
        z += 0.7


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 1.39, 2.0, 3.7])
def test_mittag_leffler_at_zero(alpha):
    assert mittag_leffler(alpha, 0.0) == 1.0


def test_mittag_leffler_frozen_values():
    # oracles: direct series summation at 40-digit precision, 60+ terms
    assert mittag_leffler(1.39, 0.0135) == pytest.approx(1.0109788338849973, rel=1e-14)
    assert mittag_leffler(0.5, 2.0) == pytest.approx(108.94090438997797, rel=1e-12)


def test_mittag_leffler_large_supported_argument():
    assert mittag_leffler(1.0, 50.0) == pytest.approx(math.exp(50.0), rel=1e-12)


def test_mittag_leffler_domain():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, 1.0)
    with pytest.raises(DomainError):
        mittag_leffler(-0.5, 1.0)


def test_mittag_leffler_nonconvergent():
    # the partial sums overflow (or the cap trips) long before convergence
    with pytest.raises(ConvergenceError):
        mittag_leffler(0.2, 50.0)


@pytest.mark.parametrize("alpha,z", [(1.0, -40.0), (0.5, -10.0), (1.0, -20.0)])
def test_mittag_leffler_refuses_cancelled_sums(alpha, z):
    # the series' alternating terms dwarf the true values (4.2e-18, 0.0561,
    # 2.1e-9): summing them returns noise
    with pytest.raises(ConvergenceError, match="cancellation"):
        mittag_leffler(alpha, z)


def test_mittag_leffler_meets_its_documented_range():
    # one point on each side of the documented negative-axis limits
    assert mittag_leffler(1.0, -9.5) == pytest.approx(math.exp(-9.5), rel=1e-7)
    with pytest.raises(ConvergenceError):
        mittag_leffler(1.0, -10.0)
    assert mittag_leffler(0.5, -4.0) == pytest.approx(erfcx(4.0), rel=1e-7)
    with pytest.raises(ConvergenceError):
        mittag_leffler(0.5, -4.5)


@pytest.mark.parametrize("alpha,z", [(0.5, -1.0), (0.5, -3.0), (0.8, -6.0), (1.0, -8.0),
                                     (1.5, -10.0), (2.0, -30.0)])
def test_mittag_leffler_negative_axis_against_mpmath(alpha, z):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        want = mpmath.nsum(lambda k: mpmath.mpf(z) ** k / mpmath.gamma(alpha * k + 1),
                           [0, mpmath.inf])
    # the guard admits rounding up to 1e-8 of the sum
    assert mittag_leffler(alpha, z) == pytest.approx(float(want), rel=1e-7)


@pytest.mark.parametrize("z, error, message", [
    (math.inf, DomainError, "mittag_leffler: z must be finite, got inf"),
    # the 500-term cap, though E_0.5(13) ~ 2 e^169 is a float
    (13.0, ConvergenceError,
     "mittag_leffler: no convergence within 500 terms (alpha=0.5, z=13.0)"),
], ids=["infinite_z", "term_cap"])
def test_mittag_leffler_rejects_bad_input(z, error, message):
    with pytest.raises(error) as info:
        mittag_leffler(0.5, z)
    assert str(info.value) == message
