import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fraclsq import ConditioningError
from fraclsq import fraccalc, solvers
from fraclsq.solvers import solve_normal_equations
from fraclsq.functions import lookup, single_term_problem
from fraclsq.lsq import fit_continuous_normal

_residual = solvers._residual


def _fraction_solve(A, b, exact=None, allow_semidefinite=False):
    """The refinement loop with residuals summed term by term in Fractions.

    Same factorization and update as ``solve_normal_equations``; returns the
    solution and every (iterate, residual) pair the loop saw.  ``exact`` is
    the augmented system [A | b] as (N, D), as the solver takes it; by
    default the float entries are taken as exact.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(b)
    d = 1.0 / np.sqrt(np.diag(A))
    As = A * d[:, None] * d[None, :]
    if allow_semidefinite:
        evals, evecs = np.linalg.eigh(As)
        cutoff = 64 * np.finfo(float).eps * np.max(np.abs(evals))
        inv = np.where(np.abs(evals) > cutoff, 1.0 / np.where(evals == 0, 1, evals),
                       0.0)

        def solve_scaled(rhs):
            return evecs @ (inv * (evecs.T @ rhs))
    else:
        def solve_scaled(rhs):
            return np.linalg.solve(As, rhs)

    if exact is None:
        Aq = [[Fraction(v) for v in row] for row in A.tolist()]
        bq = [Fraction(v) for v in b.tolist()]
    else:
        N, D = exact
        Aq = [[Fraction(v, D) for v in row[:-1]] for row in N]
        bq = [Fraction(row[-1], D) for row in N]
    x = solve_scaled(b * d) * d
    seen = []
    best_x, best_rnorm = x, float("inf")
    for _ in range(solvers._MAX_REFINE):
        xq = [Fraction(v) for v in x.tolist()]
        r = np.array([float(bq[i] - sum(Aq[i][j] * xq[j] for j in range(n)))
                      for i in range(n)])
        seen.append((x, r))
        rnorm = float(np.linalg.norm(r))
        if rnorm < best_rnorm:
            best_x, best_rnorm = x, rnorm
        if not r.any():
            break
        x_next = x + d * solve_scaled(r * d)
        if not np.all(np.isfinite(x_next)) or \
                any(np.array_equal(x_next, x_old) for x_old, _ in seen):
            break
        x = x_next
    return best_x, seen


def _bits(v):
    return [float(t).hex() for t in np.asarray(v, dtype=float)]


def _exact_system(monkeypatch, prob, lam, n):
    """(G, d, (N, D)) that solve_fde hands to the solver on its exact path."""
    captured = {}

    def spy(A, b, exact, **kw):
        captured.update(A=A, b=b, exact=exact)
        return solve_normal_equations(A, b, exact, **kw)

    monkeypatch.setattr(fraccalc, "solve_normal_equations", spy)
    fraccalc.solve_fde(prob, lam, n)
    return captured["A"], captured["b"], captured["exact"]


def _solver_steps(monkeypatch, A, b, exact=None, allow_semidefinite=False):
    """The solver's answer and every (iterate, residual) pair it refined with."""
    seen = []

    def spy(N, D, x):
        r = _residual(N, D, x)
        seen.append((x, r))
        return r

    monkeypatch.setattr(solvers, "_residual", spy)
    got, _ = solve_normal_equations(A, b, exact, allow_semidefinite=allow_semidefinite)
    return got, seen


def _check_against_fractions(monkeypatch, A, b, exact=None, allow_semidefinite=False):
    want, want_seen = _fraction_solve(A, b, exact, allow_semidefinite)
    got, seen = _solver_steps(monkeypatch, A, b, exact, allow_semidefinite)
    assert len(seen) == len(want_seen)
    for (x, r), (x_want, r_want) in zip(seen, want_seen):
        assert _bits(x) == _bits(x_want)
        assert _bits(r) == _bits(r_want)
    assert _bits(got) == _bits(want)
    return seen


def test_hilbert_residuals_match_fraction_loop(monkeypatch):
    n = 8
    A = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    b = A @ np.linspace(1.0, 2.0, n)
    seen = _check_against_fractions(monkeypatch, A, b)
    assert len(seen) > 1  # the refinement really iterated


def test_exact_fde_system_residuals_match_fraction_loop(monkeypatch):
    # lam = 0.7 and alpha = 0.3 are not dyadic, so the moments have large
    # odd denominators
    prob, _ = single_term_problem(0.3)
    G, d, exact = _exact_system(monkeypatch, prob, 0.7, 6)
    assert exact[1].bit_length() > 64
    _check_against_fractions(monkeypatch, G, d, exact, allow_semidefinite=True)


def test_semidefinite_fde_system_residuals_match_fraction_loop(monkeypatch):
    # lam == alpha: the image of x^lam is parallel to the IC constant
    prob, _ = single_term_problem(0.5)
    G, d, exact = _exact_system(monkeypatch, prob, 0.5, 3)
    assert np.linalg.matrix_rank(G) < len(d)
    _check_against_fractions(monkeypatch, G, d, exact, allow_semidefinite=True)


def test_residual_norm_past_sqrt_float_max_still_picks_the_best_iterate(monkeypatch):
    # scaled by 2**600 the Hilbert system's residuals pass sqrt(float max), so
    # their sum of squares overflows (a RuntimeWarning, an error under the
    # test settings); a power-of-two scale moves no bit of the answer
    n = 8
    A = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    b = A @ np.linspace(1.0, 2.0, n)
    want, _ = _solver_steps(monkeypatch, A, b)
    got, seen = _solver_steps(monkeypatch, 2.0**600 * A, 2.0**600 * b)
    assert max(np.abs(r).max() for _, r in seen) > math.sqrt(np.finfo(float).max)
    assert _bits(got) == _bits(want)
    assert _bits(got) != _bits(seen[0][0])  # the best iterate is not the first


def test_refinement_stops_at_the_first_repeated_iterate(monkeypatch):
    # the iterates of this continuous fit cycle (x_7 == x_4): the loop stops
    # there, not after _MAX_REFINE residuals, and returns the same bits
    calls = []

    def counting(N, D, x):
        calls.append(x)
        return _residual(N, D, x)

    monkeypatch.setattr(solvers, "_residual", counting)
    fit = fit_continuous_normal(lookup("x075+x15"), 0, 1, 0.75, 8)
    assert _bits(fit.coeffs) == [
        "0x1.2b26d2ae52fa0p-34", "0x1.ffffffe1f6bdcp-1", "0x1.000000d875e15p+0",
        "-0x1.59ce60b0855a0p-22", "0x1.238032cfd5c3ep-20", "-0x1.163028ea38bc8p-19",
        "0x1.2e1f82912d368p-19", "-0x1.5c1543d585e4ep-20", "0x1.4a3bd7359973ap-22"]
    assert (fit.error.hex(), fit.cond.hex()) == ("0x1.63ca94f8b382bp-75",
                                                 "0x1.61d8dd638a677p+39")
    assert len(calls) <= 8


def test_exact_residual_of_fractions_and_floats():
    # [A | b] = [[1/3, 0.5, 1/10], [0.5, 2/7, 1.0]] over the denominator 210
    N = [[70, 105, 21], [105, 60, 210]]
    x = np.array([0.25, -3.0])
    want = [float(Fraction(1, 10) - Fraction(1, 3) * Fraction(0.25) - Fraction(1, 2) * -3),
            float(1 - Fraction(1, 2) * Fraction(0.25) - Fraction(2, 7) * -3)]
    assert _bits(_residual(N, 210, x)) == _bits(want)


def test_exact_form_is_any_common_denominator(monkeypatch):
    # an unreduced (k N, k D) refines exactly as (N, D) does
    prob, _ = single_term_problem(0.3)
    G, d, (N, D) = _exact_system(monkeypatch, prob, 0.7, 6)
    k = 3**40 * 2**7
    want, want_seen = _solver_steps(monkeypatch, G, d, (N, D), allow_semidefinite=True)
    kN = [[k * v for v in row] for row in N]
    got, seen = _solver_steps(monkeypatch, G, d, (kN, k * D), allow_semidefinite=True)
    assert _bits(got) == _bits(want)
    assert [_bits(r) for _, r in seen] == [_bits(r) for _, r in want_seen]
    # the float path is the float entries' own dyadic form
    A = 1.0 / (np.arange(6)[:, None] + np.arange(6)[None, :] + 1.0)
    b = A @ np.linspace(1.0, 2.0, 6)
    dyadic = solvers._dyadic(np.column_stack([A, b]))
    assert dyadic[1] & (dyadic[1] - 1) == 0  # a power of two
    want, want_seen = _solver_steps(monkeypatch, A, b)
    got, seen = _solver_steps(monkeypatch, A, b, dyadic)
    assert _bits(got) == _bits(want)
    assert [_bits(r) for _, r in seen] == [_bits(r) for _, r in want_seen]


_ENTRIES = st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0),
                     st.integers(min_value=-60, max_value=60)) | st.just(0.0)


@st.composite
def _augmented_and_iterate(draw, entries):
    """([A | b] as n rows of n + 1 ``entries``, x as n floats), n in 1..5."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.lists(entries, min_size=n + 1, max_size=n + 1),
                         min_size=n, max_size=n))
    return rows, np.array(draw(st.lists(_ENTRIES, min_size=n, max_size=n)))


def _fraction_residual(Ab, x):
    """b - A x in Fractions, each entry rounded once."""
    return [float(row[-1] - sum(a * Fraction(t) for a, t in zip(row, x.tolist())))
            for row in Ab]


@given(_augmented_and_iterate(_ENTRIES))
def test_residual_of_float_entries_is_the_fraction_residual(case):
    rows, x = case
    N, D = solvers._dyadic(np.array(rows))
    want = _fraction_residual([[Fraction(v) for v in row] for row in rows], x)
    assert _bits(_residual(N, D, x)) == _bits(want)


@given(_augmented_and_iterate(st.integers(min_value=-2**200, max_value=2**200)),
       st.integers(min_value=1, max_value=2**150))
def test_residual_of_an_exact_system_is_the_fraction_residual(case, D):
    N, x = case
    want = _fraction_residual([[Fraction(v, D) for v in row] for row in N], x)
    assert _bits(_residual(N, D, x)) == _bits(want)


@pytest.mark.parametrize("A,b", [
    ([[1.0, 2.0], [2.0, -1.0]], [1.0, 1.0]),        # negative diagonal
    ([[0.0, 0.0], [0.0, 1.0]], [1.0, 1.0]),         # zero diagonal
    ([[1.0, np.nan], [np.nan, 1.0]], [1.0, 1.0]),   # non-finite matrix
    ([[2.0, 1.0], [1.0, 2.0]], [np.inf, 1.0]),      # non-finite right side
])
def test_bad_systems_raise_conditioning_error(A, b):
    with pytest.raises(ConditioningError):
        solve_normal_equations(np.array(A), np.array(b))


def test_singular_system_raises_without_semidefinite_flag():
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ConditioningError):
        solve_normal_equations(A, np.array([1.0, 1.0]))


def _numpy_cond(A):
    try:
        return float(np.linalg.cond(A))
    except np.linalg.LinAlgError:
        return float("inf")


@pytest.mark.parametrize("A,want", [
    (np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]), "finite"),
    (1.0 / (np.arange(12)[:, None] + np.arange(12)[None, :] + 1.0), "finite"),  # Hilbert
    (np.array([[1.0, 2.0], [2.0, 4.0]]), "finite"),   # exactly singular, rounded SVD
    (np.zeros((3, 3)), "inf"),                        # 0/0 reads inf
    (np.array([[1.0, np.nan], [0.0, 1.0]]), "inf"),
    (np.array([[1.0, np.inf], [0.0, 1.0]]), "inf"),
    (np.array([[3.0]]), "finite"),
    (np.array([[0.0]]), "inf"),
], ids=["spd", "hilbert12", "singular", "zero", "nan", "inf", "1x1", "1x1-zero"])
def test_condition_estimate_keeps_numpy_conventions(A, want):
    got = solvers.condition_estimate(A)
    assert type(got) is float
    if want == "inf":
        assert got == float("inf")
    else:
        assert np.isfinite(got) and got.hex() == _numpy_cond(A).hex()
