"""The integer kernels of the exact routes against copies of their
division-scaled, every-product forms.

``solvers._dyadic`` and ``solvers._residual`` scale by left shifts, and
``solvers._exact_gram`` sums a single row as a symmetric quadratic form.
Each must give the same Python ints (and so the same correctly rounded
floats) as the straightforward code kept here: ``K // q`` multiples, a 2-d
wrap of the iterate, and every product of Z W Z^T.
"""

from operator import mul

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fraclsq import solvers
from fraclsq.solvers import _exact_gram, _lattice


def _dyadic_by_division(v):
    ratios = [[t.as_integer_ratio() for t in row] for row in v.tolist()]
    K = max((q for row in ratios for _, q in row), default=1)
    return [[p * (K // q) for p, q in row] for row in ratios], K


def _residual_by_division(N, D, x):
    (X,), K = _dyadic_by_division(x[None])
    DK = D * K
    return np.array([(K * row[-1] - sum(map(mul, row, X))) / DK for row in N])


def _gram_every_product(A, lattice):
    """N = Q * (Z W Z^T) row by row, j <= i mirrored, for one row as for many."""
    Q, W, L = lattice
    Z, K = _dyadic_by_division(A)
    rows = [([a for a, z in enumerate(row) if z], [z for z in row if z]) for row in Z]
    N = [[0] * len(rows) for _ in rows]
    cols = set()
    for i, (ai, zi) in enumerate(rows):
        cols.update(ai)
        M = {b: sum(map(mul, map(W[b].__getitem__, ai), zi)) for b in cols}
        for j, (aj, zj) in enumerate(rows[:i + 1]):
            N[i][j] = N[j][i] = Q * sum(map(mul, map(M.__getitem__, aj), zj))
    return N, L * K * K


def _outcome(f, *args):
    """f(*args) as float bits, or the name of the exception it raised."""
    try:
        return [float(v).hex() for v in f(*args)]
    except OverflowError as exc:
        return type(exc).__name__


#: floats with every edge the scaling meets: signed zeros, the smallest
#: subnormal, values near the float maximum, and anything finite between
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -0.5, 3.0)
_FLOATS = st.one_of(st.sampled_from(_SPECIAL),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _float_rows(draw, max_rows=5, max_cols=8):
    rows = draw(st.integers(min_value=0, max_value=max_rows))
    cols = draw(st.integers(min_value=0, max_value=max_cols))
    A = np.zeros((rows, cols))
    for row in A:
        kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
        for a in range(cols):
            if kind == "dense" or kind == "sparse" and draw(st.booleans()):
                row[a] = draw(_FLOATS)
    return A


@given(_float_rows())
def test_dyadic_gives_the_ints_of_division_scaling(A):
    rows, K = solvers._dyadic(A)
    assert (rows, K) == _dyadic_by_division(A)
    assert type(K) is int and all(type(z) is int for row in rows for z in row)


@pytest.mark.parametrize("v", [
    [[0.0, -0.0]],             # zeros only: K = 1
    [[5e-324, -1e308, 0.0]],   # the widest shift
    [[1.5, 0.25], [-3.0, 1e-300]],
], ids=["zeros", "subnormal_and_huge", "two_rows"])
def test_dyadic_edges(v):
    A = np.array(v)
    assert solvers._dyadic(A) == _dyadic_by_division(A)


@st.composite
def _systems(draw):
    """(N, D, x): n int rows of n + 1 entries, a positive D, and an iterate x."""
    n = draw(st.integers(min_value=0, max_value=6))
    big = st.integers(min_value=-2 ** 200, max_value=2 ** 200)
    N = [[draw(st.sampled_from([0, 1, -7]) | big) for _ in range(n + 1)] for _ in range(n)]
    D = draw(st.integers(min_value=1, max_value=2 ** 300))
    x = np.array(draw(st.lists(_FLOATS, min_size=n, max_size=n)), dtype=float)
    return N, D, x


@given(_systems())
def test_residual_gives_the_floats_of_division_scaling(system):
    N, D, x = system
    assert _outcome(solvers._residual, N, D, x) == _outcome(_residual_by_division, N, D, x)


def test_residual_edges():
    N = [[3, -1, 2 ** 80], [0, 0, 0]]
    for x in ([0.0, -0.0], [5e-324, -5e-324], [1e308, 0.5], [-0.0, 1e-320]):
        x = np.array(x)
        assert _outcome(solvers._residual, N, 3, x) == _outcome(_residual_by_division, N, 3, x)
    # no unknowns: the residual is the right-hand side
    assert _outcome(solvers._residual, [[5]], 2, np.zeros(0)) == [2.5.hex()]


_DYADIC_EXPONENTS = st.integers(min_value=0, max_value=6 * 64).map(lambda k: k / 64)
_ANY_EXPONENTS = st.floats(min_value=0.0, max_value=6.0)


@st.composite
def _lattice_rows(draw, rows):
    """(exps, A): ``rows`` rows over a sorted lattice of dyadic exponents,
    other exponents or both, each row all-zero, sparse or dense."""
    exps = sorted(set(draw(st.lists(st.one_of(_DYADIC_EXPONENTS, _ANY_EXPONENTS),
                                    min_size=0, max_size=8))))
    A = np.zeros((draw(rows), len(exps)))
    for row in A:
        kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
        for a in range(len(exps)):
            if kind == "dense" or kind == "sparse" and draw(st.booleans()):
                row[a] = draw(_FLOATS)
    return exps, A


def _same_gram(exps, A):
    lattice = _lattice(tuple(exps))
    N, D = _exact_gram(A, lattice)
    assert (N, D) == _gram_every_product(A, lattice)
    assert all(type(v) is int for row in N for v in row)


@given(_lattice_rows(st.just(1)))
def test_one_row_gram_gives_the_ints_of_every_product(case):
    _same_gram(*case)


@given(_lattice_rows(st.integers(min_value=0, max_value=5)))
def test_many_row_gram_gives_the_ints_of_every_product(case):
    _same_gram(*case)


@pytest.mark.parametrize("exps,row", [
    ((0.0, 0.5), [0.0, 0.0]),              # an all-zero row
    ((0.0, 0.5), [-0.0, 0.0]),
    ((), []),                              # a row over no exponents
    ((0.0, 0.3, 1.25), [5e-324, -1e308, 0.7]),
    ((0.25, 0.3, 2.0), [1.0, 0.0, -3.5]),  # dyadic and not
], ids=["zero_row", "signed_zeros", "no_exponents", "subnormal_and_huge", "mixed"])
def test_one_row_gram_edges(exps, row):
    A = np.array([row], dtype=float).reshape(1, len(exps))
    _same_gram(exps, A)
    N, D = _exact_gram(A, _lattice(exps))
    assert N[0][0] >= 0 and (N[0][0] == 0) == (not A.any())


def test_one_row_gram_is_the_square_norm_of_the_row():
    # <x^0.5 - 2, x^0.5 - 2> = 1/2 - 4 * 2/3 + 4 = 11/6
    N, D = _exact_gram(np.array([[-2.0, 1.0]]), _lattice((0.0, 0.5)))
    assert N[0][0] * 6 == 11 * D
