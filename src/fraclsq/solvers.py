"""Direct solver for the (symmetric positive-definite) normal equations.

Normal matrices built from fractional monomials go ill-conditioned fast, so
the solve is made stability-aware in two cheap ways:

* Jacobi equilibration D^-1/2 A D^-1/2 before factorization, which strips
  the scale disparity of mixed-exponent moment sums;
* iterative refinement with exact residuals, which drives the forward
  error of the returned solution to the last bit whenever eps * cond(A) < 1.
  The augmented system [A | b] is held as rows of Python ints over one
  denominator (given by the caller, or read off the float entries), so each
  residual entry is one integer dot product and one correctly rounded
  division.

The reported condition estimate always refers to the raw, un-equilibrated
matrix: it is the diagnostic the caller uses to compare basis choices.
Most systems are tiny (LSMC solves a 3×3 or 4×4 one per exercise date), so
per-call Python overhead counts: the LAPACK work goes through
``np.linalg.svd``, ``np.linalg.solve`` and ``np.linalg.eigh``, while the
condition estimate and the residual norm skip the extra checks of
``np.linalg.cond`` and ``np.linalg.norm`` and compute the same values
directly.
"""

import math
from operator import mul

import numpy as np

from .errors import ConditioningError

__all__ = ["solve_normal_equations", "condition_estimate"]

_MAX_REFINE = 50


def condition_estimate(A):
    """2-norm condition number of A from one ``svd``, with ``np.linalg.cond``'s
    conventions: inf for singular input, and NaN only when A holds a NaN."""
    A = np.asarray(A, dtype=float)
    try:
        s = np.linalg.svd(A, compute_uv=False)
        hi, lo = float(s[0]), float(s[-1])
    except (np.linalg.LinAlgError, IndexError):
        return math.inf
    cond = hi / lo if lo else math.inf
    return math.inf if cond != cond and not np.isnan(A).any() else cond


def _dyadic(v):
    """2-d float array v as (rows, K) with v == rows / K exactly: ``rows`` are
    lists of Python ints and K is the largest power-of-two denominator of the
    entries (1 when there are none)."""
    ratios = [[t.as_integer_ratio() for t in row] for row in v.tolist()]
    K = max((q for row in ratios for _, q in row), default=1)
    return [[p * (K // q) for p, q in row] for row in ratios], K


def _residual(N, D, x):
    """b - A x for the augmented system [A | b] = N / D given as int rows, exact
    and then correctly rounded: with x = X / K, r_i = (K N_i,-1 - N_i X) / (D K)."""
    (X,), K = _dyadic(x[None])
    DK = D * K
    # map stops at the end of X, so the sum leaves out each row's last entry
    return np.array([(K * row[-1] - sum(map(mul, row, X))) / DK for row in N])


def solve_normal_equations(A, b, exact=None, allow_semidefinite=False):
    """Solve A x = b and return (x, cond) with cond = cond_2 of raw A.

    ``exact`` optionally supplies the augmented system [A | b] in exact form
    (N, D): rows of Python ints and one int, [A | b] = N / D.
    Refinement residuals are computed against it, so a float solution of an
    exactly-assembled system converges to its correctly rounded answer.
    When omitted, the float entries are taken as exact.

    With ``allow_semidefinite`` a singular-but-consistent system (a Gram
    matrix with flat directions) falls back to the minimum-norm SVD
    solution instead of raising; otherwise singular or non-finite systems
    raise ConditioningError carrying the condition estimate.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    cond = condition_estimate(A)

    # equilibrate: As = D A D with D = diag(1/sqrt(diag A))
    diag = A.diagonal()
    if (diag <= 0).any() or not np.isfinite(A).all() or not np.isfinite(b).all():
        raise ConditioningError(
            f"normal matrix is not positive definite (cond~{cond:.3e})", cond=cond
        )
    d = 1.0 / np.sqrt(diag)
    As = A * d[:, None] * d[None, :]
    bs = b * d
    if allow_semidefinite:
        # symmetric pseudo-solve with a relative rank cutoff: flat
        # directions of the Gram matrix (operator image parallel to the IC
        # constant) get the minimum-norm resolution, while merely
        # ill-conditioned full-rank systems pass through untruncated
        try:
            evals, evecs = np.linalg.eigh(As)
        except np.linalg.LinAlgError as exc:
            raise ConditioningError(
                f"normal-equation eigensolve failed: {exc} (cond~{cond:.3e})",
                cond=cond) from exc
        cutoff = 64 * np.finfo(float).eps * np.max(np.abs(evals))
        inv = np.where(np.abs(evals) > cutoff, 1.0 / np.where(evals == 0, 1, evals),
                       0.0)

        def solve_scaled(rhs):
            return evecs @ (inv * (evecs.T @ rhs))
    else:
        def solve_scaled(rhs):
            try:
                return np.linalg.solve(As, rhs)
            except np.linalg.LinAlgError as exc:
                raise ConditioningError(
                    f"normal-equation solve failed: {exc} (cond~{cond:.3e})",
                    cond=cond) from exc

    x = solve_scaled(bs) * d
    if not np.isfinite(x).all():
        raise ConditioningError(
            f"normal-equation solution is non-finite (cond~{cond:.3e})", cond=cond
        )

    N, D = _dyadic(np.column_stack([A, b])) if exact is None else exact
    best_x, best_rnorm = x, float("inf")
    # x -> x_next is deterministic, so once an iterate repeats the residual
    # norms only cycle and best_x cannot change; + 0.0 makes -0.0 and 0.0 one key
    seen = {(x + 0.0).tobytes()}
    with np.errstate(over="ignore"):  # the loop handles the inf an overflow leaves
        for _ in range(_MAX_REFINE):
            r = _residual(N, D, x)
            rnorm = math.sqrt(r @ r)  # np.linalg.norm's own arithmetic for 1-d r
            if rnorm == math.inf:  # entries past sqrt(float max): rescale by the largest
                rnorm = (s := np.abs(r).max()) * math.sqrt((r / s) @ (r / s))
            if rnorm < best_rnorm:
                best_x, best_rnorm = x, rnorm
            if not r.any():
                break
            x_next = x + d * solve_scaled(r * d)
            if not np.isfinite(x_next).all():
                break
            key = (x_next + 0.0).tobytes()
            if key in seen:
                break
            seen.add(key)
            x = x_next
    return best_x, cond
