from fractions import Fraction

import numpy as np
import pytest

from fraclsq import ConditioningError
from fraclsq import fraccalc, solvers
from fraclsq.solvers import solve_normal_equations
from fraclsq.functions import single_term_problem


def _fraction_solve(A, b, exact_A=None, exact_b=None, allow_semidefinite=False):
    """The refinement loop with residuals summed term by term in Fractions.

    Same factorization and update as ``solve_normal_equations``; returns the
    solution and every (iterate, residual) pair the loop saw.
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

    Aq = exact_A or [[Fraction(v) for v in row] for row in A.tolist()]
    bq = exact_b or [Fraction(v) for v in b.tolist()]
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
        if not np.all(np.isfinite(x_next)) or np.array_equal(x_next, x):
            break
        x = x_next
    return best_x, seen


def _bits(v):
    return [float(t).hex() for t in np.asarray(v, dtype=float)]


def _exact_system(monkeypatch, prob, lam, n):
    """(G, d, Gq, dq) that solve_fde hands to the solver on its exact path."""
    captured = {}

    def spy(A, b, **kw):
        captured.update(A=A, b=b, **kw)
        return solve_normal_equations(A, b, **kw)

    monkeypatch.setattr(fraccalc, "solve_normal_equations", spy)
    fraccalc.solve_fde(prob, lam, n)
    return captured["A"], captured["b"], captured["exact_A"], captured["exact_b"]


def _check_against_fractions(A, b, exact_A=None, exact_b=None,
                             allow_semidefinite=False):
    want, seen = _fraction_solve(A, b, exact_A, exact_b, allow_semidefinite)
    residual = solvers._exact_residual(
        A.tolist() if exact_A is None else exact_A,
        b.tolist() if exact_b is None else exact_b)
    for x, r in seen:
        assert _bits(residual(x)) == _bits(r)
    got, _ = solve_normal_equations(A, b, exact_A=exact_A, exact_b=exact_b,
                                    allow_semidefinite=allow_semidefinite)
    assert _bits(got) == _bits(want)
    return seen


def test_hilbert_residuals_match_fraction_loop():
    n = 8
    A = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
    b = A @ np.linspace(1.0, 2.0, n)
    seen = _check_against_fractions(A, b)
    assert len(seen) > 1  # the refinement really iterated


def test_exact_fde_system_residuals_match_fraction_loop(monkeypatch):
    # lam = 0.7 and alpha = 0.3 are not dyadic, so the moments have large
    # odd denominators
    prob, _ = single_term_problem(0.3)
    G, d, Gq, dq = _exact_system(monkeypatch, prob, 0.7, 6)
    assert max(v.denominator for row in Gq for v in row).bit_length() > 64
    _check_against_fractions(G, d, Gq, dq, allow_semidefinite=True)


def test_semidefinite_fde_system_residuals_match_fraction_loop(monkeypatch):
    # lam == alpha: the image of x^lam is parallel to the IC constant
    prob, _ = single_term_problem(0.5)
    G, d, Gq, dq = _exact_system(monkeypatch, prob, 0.5, 3)
    assert np.linalg.matrix_rank(G) < len(d)
    _check_against_fractions(G, d, Gq, dq, allow_semidefinite=True)


def test_exact_residual_of_fractions_and_floats():
    residual = solvers._exact_residual([[Fraction(1, 3), 0.5], [0.5, Fraction(2, 7)]],
                                       [Fraction(1, 10), 1.0])
    x = np.array([0.25, -3.0])
    want = [float(Fraction(1, 10) - Fraction(1, 3) * Fraction(0.25) - Fraction(1, 2) * -3),
            float(1 - Fraction(1, 2) * Fraction(0.25) - Fraction(2, 7) * -3)]
    assert _bits(residual(x)) == _bits(want)


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
