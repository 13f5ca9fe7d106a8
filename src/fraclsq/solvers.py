"""Direct solver for the (symmetric positive-definite) normal equations.

Normal matrices built from fractional monomials go ill-conditioned fast, so
the solve is made stability-aware in two cheap ways:

* Jacobi equilibration D^-1/2 A D^-1/2 before factorization, which strips
  the scale disparity of mixed-exponent moment sums;
* iterative refinement with exact residuals, which drives the forward
  error of the returned solution to the last bit whenever eps * cond(A) < 1.
  The augmented system [A | b] is held as rows of Python ints over one
  denominator, so each residual entry is one integer dot product and one
  correctly rounded division.  The caller passes it (ladder fits from their
  moments, exact ``solve_fde`` from its Gram), else the floats count as exact.

The reported condition estimate always refers to the raw, un-equilibrated
matrix: it is the diagnostic the caller uses to compare basis choices.  Only
the routes that report it compute it: ``solve_normal_equations`` is the
refinement core ``_refined`` plus ``condition_estimate``, and LSMC's
per-date regression, which never reads cond, calls the core alone.
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


def _shifted(ratios, k):
    """The ints p * 2**k / q of (p, q) ``as_integer_ratio`` pairs whose
    power-of-two q divide 2**k, by left shifts; zeros stay 0 unshifted."""
    return [p << k + 1 - q.bit_length() if p else 0 for p, q in ratios]


def _dyadic(v):
    """2-d float array v as (rows, K) with v == rows / K exactly: ``rows`` are
    lists of Python ints and K is the largest power-of-two denominator of the
    entries (1 when there are none)."""
    ratios = [[t.as_integer_ratio() for t in row] for row in v.tolist()]
    k = max((q for row in ratios for _, q in row), default=1).bit_length() - 1
    return [_shifted(row, k) for row in ratios], 1 << k


def _residual(N, D, x):
    """b - A x for the augmented system [A | b] = N / D given as int rows, exact
    and then correctly rounded: with x = X / 2**k, r_i = (N_i,-1 2**k - N_i X)
    / (D 2**k)."""
    ratios = [t.as_integer_ratio() for t in x.tolist()]
    k = max((q for _, q in ratios), default=1).bit_length() - 1
    X, DK = _shifted(ratios, k), D << k
    # map stops at the end of X, so the sum leaves out each row's last entry
    return np.array([((row[-1] << k) - sum(map(mul, row, X))) / DK for row in N])


def _refined(A, b, exact=None, allow_semidefinite=False):
    """The refined solution x of the finite system A x = b: the core of
    ``solve_normal_equations``, which computes no condition estimate, for
    callers that never read one.  A failure raises ConditioningError with no
    estimate in its message and the default cond = inf;
    ``solve_normal_equations`` re-raises it with the estimate in both."""
    # equilibrate: As = D A D with D = diag(1/sqrt(diag A))
    diag = A.diagonal()
    if (diag <= 0).any():
        raise ConditioningError("normal matrix is not positive definite")
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
            raise ConditioningError(f"normal-equation eigensolve failed: {exc}") from exc
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
                raise ConditioningError(f"normal-equation solve failed: {exc}") from exc

    x = solve_scaled(bs) * d
    if not np.isfinite(x).all():
        raise ConditioningError("normal-equation solution is non-finite")

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
    return best_x


def solve_normal_equations(A, b, exact=None, allow_semidefinite=False):
    """Solve A x = b and return (x, cond) with cond = cond_2 of raw A.

    ``exact`` optionally supplies the augmented system [A | b] in exact form
    (N, D): rows of Python ints and one int, [A | b] = N / D.
    Refinement residuals are computed against it, so a float solution of an
    exactly-assembled system converges to its correctly rounded answer.
    When omitted, the float entries are taken as exact.

    With ``allow_semidefinite`` a singular-but-consistent system (a Gram
    matrix with flat directions) is solved through ``np.linalg.eigh`` of the
    equilibrated matrix, dropping eigenvalues at or below 64 eps times the
    largest, instead of raising; otherwise singular systems raise
    ConditioningError carrying the condition estimate.  A non-finite system
    raises it with cond = inf before any LAPACK call.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    # LAPACK prints DLASCL lines on a non-finite matrix
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ConditioningError("normal equations are not finite (cond~inf)")
    try:
        x = _refined(A, b, exact, allow_semidefinite)
    except ConditioningError as exc:
        cond = condition_estimate(A)
        raise ConditioningError(f"{exc} (cond~{cond:.3e})", cond=cond) from exc.__cause__
    return x, condition_estimate(A)
