"""Direct solver for the (symmetric positive-definite) normal equations,
and the one home of their exact form.

Normal matrices built from fractional monomials go ill-conditioned fast, so
the solve is made stability-aware in two cheap ways:

* Jacobi equilibration D^-1/2 A D^-1/2 before factorization, which strips
  the scale disparity of mixed-exponent moment sums;
* iterative refinement with exact residuals.  The augmented system [A | b]
  is held as rows of Python ints over one denominator, so each residual
  entry is one integer dot product and one correctly rounded division.
  On 300 seeded discrete fits the returned x lies within
  cond(A) * eps * ||x*||_inf of the exact solution x* of that system
  (``tests/test_answers.py``, against ``_exact_solve``).  That is not the
  last bit, and the semidefinite solve can miss even that bound once it
  drops eigenvalues (cond past 1 / (64 eps)).

Every Python-int rational operation of the package lives here, and the
callers pass floats in and get floats back plus an opaque exact system:
``_ladder_system`` makes a ladder fit's [A | b] from its 2n+1 moments and
n+1 sums, ``_lattice`` and ``_exact_gram`` the Gram matrix of power sums on
[0, 1] for the exact ``solve_fde`` route, ``_gram_system`` its float
readback and ``_sq_integral`` its residual's exact squared integral.  When
no exact system is passed, the float entries count as exact.
``_exact_solve`` solves an exact system outright; no route calls it yet.

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
from functools import lru_cache
from operator import mul

import numpy as np

from .errors import ConditioningError

__all__ = ["solve_normal_equations", "condition_estimate"]

_MAX_REFINE = 50

#: how many exponent lattices (``_lattice``) are kept for reuse; ``fraccalc``
#: bounds its merge column plans, one per lattice, by the same number
LATTICE_CACHE = 64


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


def _ladder_system(moments, rhs):
    """(A, exact) for the ladder's normal equations A c = rhs: A is the
    Hankel matrix of the 2n+1 ``moments`` (x^(i lam) x^(j lam) = x^((i+j)
    lam), so entry (i, j) is moment i+j), and ``exact`` is [A | rhs] as
    ``_dyadic`` gives it for the whole matrix: every entry of A is a moment,
    so only the moments and the n+1 sums are converted, as one row.  A
    non-finite entry raises OverflowError (inf) or ValueError (nan)."""
    (ints,), D = _dyadic(np.concatenate([moments, rhs])[None])
    idx = np.arange(len(rhs))  # n + 1
    N = [ints[i:i + len(rhs)] + [ints[len(moments) + i]] for i in range(len(rhs))]
    return moments[idx[:, None] + idx[None, :]], (N, D)


@lru_cache(maxsize=LATTICE_CACHE)
def _lattice(exps):
    """(Q, W, L): the kernel 1/(e_a + e_b + 1) on the sorted tuple ``exps`` in
    ints.  With e_a = P_a / Q exactly (``_dyadic``'s split) it is Q / s_ab,
    s_ab = P_a + P_b + Q; L is the lcm of the distinct sums and
    W[a][b] = L // s_ab, in tuples of Python ints.  Cached on the exponents."""
    (P,), Q = _dyadic(np.array([exps], dtype=float))
    sums = [[a + b + Q for b in P] for a in P]
    distinct = set().union(*sums)
    L = math.lcm(*distinct)
    weight = {s: L // s for s in distinct}
    return Q, tuple(tuple(map(weight.__getitem__, row)) for row in sums), L


def _exact_gram(A, lattice):
    """(N, D) with <a_i, a_j> over [0, 1] exactly N[i][j] / D for the rows of
    A over a ``_lattice``: A = Z / K in dyadic ints, N = Q * (Z W Z^T) in int
    rows, D = L K^2.  Only the nonzeros of Z enter, and only j <= i is summed:
    M_i = Z_i W on the columns rows 0..i use, N_ij = Q * M_i Z_j^T.  One row z
    takes half the products: N_00 = Q * sum_a z_a (z_a W_aa + 2 sum_b<a z_b W_ab).
    Extra exponents (zero columns) change N and D but not the rational N / D."""
    Q, W, L = lattice
    Z, K = _dyadic(A)
    rows = [([a for a, z in enumerate(row) if z], [z for z in row if z]) for row in Z]
    if len(rows) == 1:
        (a, z), = rows
        s = 0
        for k, (ak, zk) in enumerate(zip(a, z)):
            Wk = W[ak]
            s += zk * (zk * Wk[ak] + 2 * sum(map(mul, map(Wk.__getitem__, a[:k]), z[:k])))
        return [[Q * s]], L * K * K
    N = [[0] * len(rows) for _ in rows]
    cols = set()
    for i, (ai, zi) in enumerate(rows):
        cols.update(ai)
        M = {b: sum(map(mul, map(W[b].__getitem__, ai), zi)) for b in cols}  # W = W^T
        for j, (aj, zj) in enumerate(rows[:i + 1]):
            N[i][j] = N[j][i] = Q * sum(map(mul, map(M.__getitem__, aj), zj))
    return N, L * K * K


def _gram_system(A, lattice):
    """(G, d, exact) for the rows [Psi; F] of A over a ``_lattice``: the
    normal equations G c = d of min ||c Psi - F||^2 on [0, 1] in floats, one
    division per symmetric pair, and [G | d] exactly (``_exact_gram``).  An
    entry past the float range raises OverflowError."""
    N, D = _exact_gram(A, lattice)
    if max(N[i][i] for i in range(len(N))) > int(np.finfo(float).max) * D:
        raise OverflowError("the Gram matrix leaves the float range")  # |N_ij| <= max N_ii
    Gd = np.empty((len(N) - 1, len(N)))
    for i, row in enumerate(N[:-1]):
        Gd[i, :i + 1] = Gd[:i + 1, i] = [v / D for v in row[:i + 1]]
    Gd[:, -1] = [row[-1] / D for row in N[:-1]]
    return Gd[:, :-1], Gd[:, -1], (N[:-1], D)


def _sq_integral(r, lattice):
    """The integral of r^2 over [0, 1] for the row r over a ``_lattice``,
    summed exactly and rounded once."""
    (N,), D = _exact_gram(r[None], lattice)
    return N[0] / D


def _exact_solve(N):
    """The correctly rounded solution x* of A x = b for the augmented system
    [A | b] given as int rows N over any common denominator, which cancels.

    Bareiss's fraction-free elimination (Math. Comp. 22, 1968) keeps every
    entry an int, swapping rows at a zero pivot; its last pivot d is +-det A,
    so back substitution finds the ints d x* exactly, and each coefficient
    is one int / int division.  An exactly singular A raises
    ConditioningError.  The tests' oracle for the float solves."""
    M, n, prev = [list(row) for row in N], len(N), 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if M[i][k]), None)
        if pivot is None:
            raise ConditioningError("normal matrix is exactly singular")
        M[k], M[pivot] = M[pivot], M[k]
        for i in range(k + 1, n):
            M[i] = [0] * (k + 1) + [(M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
                                    for j in range(k + 1, n + 1)]
        prev = M[k][k]
    y = [0] * n
    for i in reversed(range(n)):
        y[i] = (prev * M[i][n] - sum(map(mul, M[i][i + 1:n], y[i + 1:]))) // M[i][i]
    sign = 1 if prev > 0 else -1  # so an exact 0 is +0.0
    return np.array([sign * v / (sign * prev) for v in y])


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
