"""The float solves against the exact answer of the system they were given.

``solvers._exact_solve`` solves the exact augmented system [A | b] that a
ladder fit hands to its refinement and rounds each coefficient once.  It is
checked here against a plain Fraction elimination, and then used as the
oracle for the fits: each returned coefficient vector x must lie within
cond * eps * ||x*||_inf of the exact x* (max norm, cond the fit's own
2-norm estimate).  That is the documented accuracy of the refinement; it is
not a promise of the last bit, which a float solve misses whenever the
refinement settles one ulp or more away from x*.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclsq import ConditioningError, DataSet, fit_discrete_normal, lsq, solvers

EPS = np.finfo(float).eps


def _fraction_solve(N):
    """x of the int rows [A | b] by Gauss-Jordan elimination in Fractions,
    rounded once per entry; None when A is singular."""
    M = [[Fraction(v) for v in row] for row in N]
    n = len(M)
    for k in range(n):
        pivot = next((i for i in range(k, n) if M[i][k]), None)
        if pivot is None:
            return None
        M[k], M[pivot] = M[pivot], M[k]
        M[k] = [v / M[k][k] for v in M[k]]
        for i in range(n):
            if i != k and M[i][k]:
                M[i] = [a - M[i][k] * b for a, b in zip(M[i], M[k])]
    return [float(row[-1]) for row in M]


@st.composite
def _int_systems(draw):
    """n int rows of n + 1 entries, n in 1..6: small entries (often a
    singular A or a zero pivot) or entries of up to 90 bits."""
    n = draw(st.integers(min_value=1, max_value=6))
    entries = draw(st.sampled_from([st.integers(-2, 2),
                                    st.integers(-2**90, 2**90)]))
    return draw(st.lists(st.lists(entries, min_size=n + 1, max_size=n + 1),
                         min_size=n, max_size=n))


@settings(max_examples=200)
@given(_int_systems())
def test_exact_solve_is_the_fraction_solve(N):
    want = _fraction_solve(N)
    if want is None:
        with pytest.raises(ConditioningError, match="exactly singular"):
            solvers._exact_solve(N)
    else:
        got = solvers._exact_solve(N)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


@pytest.mark.parametrize("N", [
    [[0, 0]],
    [[1, 2, 3], [2, 4, 6]],
    [[1, 2, 3], [2, 4, 7]],  # inconsistent
    [[0, 1, 1], [0, 2, 5]],  # a zero column
    [[1, 2, 3, 1], [4, 5, 6, 1], [7, 8, 9, 1]],
], ids=["zero", "rank_1", "inconsistent", "zero_column", "rank_2"])
def test_exact_solve_refuses_a_singular_system(N):
    with pytest.raises(ConditioningError, match="exactly singular"):
        solvers._exact_solve(N)


def test_exact_solve_swaps_rows_at_a_zero_pivot():
    # 0 x + y = 1, x + 0 y = 2, over a denominator that cancels
    assert solvers._exact_solve([[0, 3, 3], [3, 0, 6]]).tolist() == [2.0, 1.0]
    # one division per coefficient: 1/3 is correctly rounded
    assert solvers._exact_solve([[3, 1]]).tolist() == [1 / 3]


#: ladder steps from the paper's tables; 0.08 and 1.39 are not dyadic
_FIT_LAMBDAS = (0.08, 0.25, 0.5, 0.75, 1.0, 1.39, 2.0)


def _seeded_fit(seed):
    """(data, lam, n) of one seeded discrete fit: 10-200 points on [0, 2] of
    a noisy cosine, degree 1-6, every other seed weighted."""
    rng = np.random.default_rng(seed)
    points, n = int(rng.integers(10, 201)), int(rng.integers(1, 7))
    xs = rng.uniform(0.0, 2.0, points)
    ys = np.cos(3.0 * xs) + 0.1 * rng.standard_normal(points)
    w = rng.uniform(0.5, 2.0, points) if seed % 2 else None
    return DataSet(xs, ys, w), _FIT_LAMBDAS[seed % len(_FIT_LAMBDAS)], n


def test_discrete_fits_are_within_cond_eps_of_the_exact_answer(monkeypatch):
    systems = []
    ladder_system = solvers._ladder_system
    monkeypatch.setattr(lsq, "_ladder_system", lambda moments, rhs: systems.append(
        ladder_system(moments, rhs)) or systems[-1])
    misses = []
    for seed in range(300):
        data, lam, n = _seeded_fit(seed)
        fit = fit_discrete_normal(data, lam, n)
        _, (N, _) = systems[-1]
        x_star = solvers._exact_solve(N)
        err = float(np.max(np.abs(fit.coeffs - x_star)))
        if err > fit.cond * EPS * float(np.max(np.abs(x_star))):
            misses.append((seed, lam, n, len(data), err, fit.cond))
    assert len(systems) == 300
    assert not misses, f"(seed, lam, n, points, error, cond): {misses}"
