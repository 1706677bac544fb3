import warnings
from fractions import Fraction

import numpy as np
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from tnrank.elimination import (
    RankToleranceWarning,
    exact_rank,
    exact_rank_factor,
    exact_row_reduce,
    float_rank,
    float_rank_factor,
)
from tnrank.scalars import GaussianRational as GR
from tnrank.scalars import from_lanes, to_lanes
from tnrank.tensor import exact_tensor


# Rank 3.  After the first pivot the row [0, 6, 0, 4] has a zero in the pivot
# column; a Bareiss sweep that skips such rows stops dividing exactly and
# reports rank 4.
RANK3_5X4 = [[0, 6, 0, 4], [6, -4, 4, -5], [-4, -3, 2, -2], [-4, 1, -2, 2], [-6, 0, 0, 1]]

# Rank 2 over Q(i) (row 3 = row 1 + i * row 2), so rank 4 of 6 in the real
# embedding; the first pivot, 2i, is purely imaginary, so its real block
# [[0, -2], [2, 0]] pivots on its second row.
IMAG_PIVOT_3X3 = [[GR(0, 2), GR(1, 1), GR(3)], [GR(0, 1), GR(2), GR(0, -1)], [GR(-1, 2), GR(1, 3), GR(4)]]


def _obj(rows):
    return exact_tensor(rows).data


def _factor_product(mat):
    """``C @ R`` of the exact rank factorization, as an object array."""
    rank, cmat, rmat = exact_rank_factor(to_lanes(mat))
    if not rank:
        return np.zeros(mat.shape, dtype=object)
    return from_lanes(*cmat) @ from_lanes(*rmat)


def _naive_rank_over_q(rows):
    """Plain fraction Gauss elimination, the independent reference."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_exact_rank_small_known():
    assert exact_rank(to_lanes(_obj([[1, 0], [0, 1]]))) == 2
    assert exact_rank(to_lanes(_obj([[1, 2], [2, 4]]))) == 1
    assert exact_rank(to_lanes(_obj([[0, 0], [0, 0]]))) == 0
    assert exact_rank(to_lanes(_obj(RANK3_5X4))) == 3


def test_exact_rank_matches_naive_reference_on_random_integers():
    rng = np.random.default_rng(0)
    for _ in range(60):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        rows = rng.integers(-5, 6, size=(m, n)).tolist()
        assert exact_rank(to_lanes(_obj(rows))) == _naive_rank_over_q(rows)


def test_exact_rank_rational_and_complex_entries():
    mat = np.empty((2, 2), dtype=object)
    mat[0, 0] = GR(Fraction(1, 3))
    mat[0, 1] = GR(Fraction(1, 6))
    mat[1, 0] = GR(Fraction(2, 3))
    mat[1, 1] = GR(Fraction(1, 3))
    assert exact_rank(to_lanes(mat)) == 1  # second row is twice the first

    cm = np.empty((2, 2), dtype=object)
    cm[0, 0] = GR(1, 1)
    cm[0, 1] = GR(0, 2)
    cm[1, 0] = GR(1)
    cm[1, 1] = GR(1, 2)  # det = (1+i)(1+2i) - 2i = -1 + i, nonzero
    assert exact_rank(to_lanes(cm)) == 2
    cm[1, 0] = GR(2, 2)
    cm[1, 1] = GR(0, 4)  # now row2 = 2 * row1
    assert exact_rank(to_lanes(cm)) == 1


def test_huge_entries_stay_exact():
    # Coefficient growth far past machine integers must stay exact.
    big = 10**40
    mat = _obj([[big, 2 * big], [3 * big, 6 * big]])
    assert exact_rank(to_lanes(mat)) == 1
    mat2 = _obj([[big, 2 * big], [3 * big, 6 * big + 1]])
    assert exact_rank(to_lanes(mat2)) == 2


def test_exact_row_reduce_reconstructs():
    rng = np.random.default_rng(2)
    for _ in range(40):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        mat = _obj(rng.integers(-4, 5, size=(m, n)).tolist())
        rank, pivots, rref = exact_row_reduce(to_lanes(mat))
        assert rank == exact_rank(to_lanes(mat))
        assert len(pivots) == rank
        # pivot structure: unit columns at the pivots
        rref = from_lanes(*rref)
        for k, c in enumerate(pivots):
            for i in range(rank):
                assert rref[i, c] == (GR(1) if i == k else GR(0))
        prod = _factor_product(mat)
        for i in range(m):
            for j in range(n):
                assert GR(0) + prod[i, j] == mat[i, j]


def test_float_rank_and_factor():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    b = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    m = a @ b
    assert float_rank(m) == 3
    rank, c, r = float_rank_factor(m)
    assert rank == 3
    assert np.allclose(c @ r, m)


def test_float_rank_scale_invariant():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 9))
    assert float_rank(a) == float_rank(1e-9 * a) == float_rank(1e9 * a) == 2


def test_float_rank_zero_matrix():
    assert float_rank(np.zeros((4, 5), dtype=complex)) == 0


def test_conditioning_warning_near_threshold():
    m = np.diag([1.0, 1e-15]).astype(complex)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        float_rank(m)
    assert any(issubclass(w.category, RankToleranceWarning) for w in caught)


def test_exact_vs_float_cross_check():
    # Exact and float ranks agree on integer matrices of moderate size.
    rng = np.random.default_rng(5)
    for _ in range(25):
        rows = rng.integers(-1000, 1001, size=(5, 6)).tolist()
        assert exact_rank(to_lanes(_obj(rows))) == float_rank(np.array(rows, dtype=complex))


@st.composite
def _planted_low_rank(draw):
    """Rows of the product of small r x k and k x c factors, so rank <= k.

    The factors are integer or Gaussian-integer; k = 0 gives the zero matrix.
    """
    r, k, c = draw(st.integers(1, 6)), draw(st.integers(0, 6)), draw(st.integers(1, 6))
    part = st.integers(-3, 3)
    entry = st.builds(GR, part, part if draw(st.booleans()) else st.just(0))
    a = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=r, max_size=r))
    b = draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=k, max_size=k))
    return [[sum((a[i][l] * b[l][j] for l in range(k)), GR(0)) for j in range(c)] for i in range(r)]


def _sym(g):
    return sympy.Rational(g.re.numerator, g.re.denominator) + sympy.I * sympy.Rational(
        g.im.numerator, g.im.denominator
    )


@settings(max_examples=250, derandomize=True, deadline=None)
@example(rows=RANK3_5X4)
@example(rows=IMAG_PIVOT_3X3)
@given(rows=_planted_low_rank())
def test_planted_rank_and_rref_match_sympy(rows):
    mat = _obj(rows)
    m, n = mat.shape
    sym = sympy.Matrix(m, n, lambda i, j: _sym(mat[i, j]))
    rank = exact_rank(to_lanes(mat))
    assert rank == sym.rank()

    rank2, pivots, rref = exact_row_reduce(to_lanes(mat))
    rref = from_lanes(*rref)
    sym_rref, sym_pivots = sym.rref()
    assert rank2 == rank
    assert tuple(pivots) == sym_pivots
    for i in range(rank):
        for j in range(n):
            assert sympy.expand(sympy.radsimp(sym_rref[i, j] - _sym(rref[i, j]))) == 0

    prod = _factor_product(mat)
    for i in range(m):
        for j in range(n):
            assert GR(0) + prod[i, j] == mat[i, j]
