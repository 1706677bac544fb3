"""Matrix rank and rank-revealing factorization in both scalar modes.

Exact mode works over the Gaussian rationals Q(i), on a matrix ``M`` given
as canonical integer lanes (:class:`~tnrank.scalars.Lanes`).  The integer
matrix ``den * M`` has the rank and the reduced row echelon form of ``M``.
One fraction-free (Bareiss) elimination kernel on Python-int rows serves
every exact entry point: its forward sweep gives the rank, and with the rows
above each pivot swept too it gives the reduced row echelon form as integer
numerators over one common denominator.  Every intermediate value is a minor
of the integer matrix, so coefficient growth stays polynomial, and Python's
arbitrary-precision integers keep the result exact for any input.

Complex input goes through the real 2x2 embedding ``E``: each entry
``a + bi`` becomes the block ``[[a, -b], [b, a]]``, rows and columns
interleaved.  ``E`` is an injective ring homomorphism, so
``rank_Q E(M) = 2 rank_Q(i) M``; the pivots come in pairs ``(2j, 2j + 1)``,
with column ``j`` of ``M`` a pivot exactly when ``2j`` is; and by the
uniqueness of the reduced form, the real reduced form of ``E(M)`` is
``E(RREF(M))``.  So the reduced form of ``M`` is read off the even rows of
the reduced embedding: real parts at even columns, imaginary parts negated
at odd ones.

Float mode uses singular values with a relative tolerance in [0, 1).
"""

from __future__ import annotations

import warnings

import numpy as np

from .scalars import Lanes, canonical


class RankToleranceWarning(UserWarning):
    """Float rank decided within a factor of 8 of the tolerance threshold."""


def default_float_tol(shape) -> float:
    m, n = shape
    return max(m, n) * np.finfo(np.float64).eps * 8.0


# ---------------------------------------------------------------------------
# exact mode
# ---------------------------------------------------------------------------


def _int_rows(m: Lanes):
    """Rows of the integer matrix ``den * M``, or of its real embedding when complex."""
    if len(m.shape) != 2:
        raise ValueError("exact elimination expects a 2-d array")
    if m.im is None:
        return m.re.tolist()
    rows = []
    for re, im in zip(m.re.tolist(), m.im.tolist()):
        rows.append([x for a, b in zip(re, im) for x in (a, -b)])
        rows.append([x for a, b in zip(re, im) for x in (b, a)])
    return rows


def _bareiss(rows, reduce: bool):
    """Fraction-free (Bareiss) elimination on Python-int rows, in place.

    Columns are scanned left to right and the first nonzero row at or below
    the current one becomes the pivot row.  With pivot ``p`` and previous
    pivot ``prev``, every other row ``ri`` in the sweep becomes
    ``(p*ri - ri[col]*rk) // prev``.  By Sylvester's identity each quotient
    is a minor of the integer matrix, so the division is exact.  Rows whose
    pivot-column entry is zero are scaled too; skipping them breaks the
    invariant.

    The sweep covers the rows below the pivot, so the pivot count is the
    rank.  With ``reduce`` it also covers the rows above (fraction-free
    Gauss-Jordan): every pivot then ends equal to the last one, ``d``, and
    the reduced row echelon form is ``rows[:rank]`` divided by ``d``.

    Returns ``(pivot_cols, d)``.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        k = len(pivots)
        if k == nrows:
            break
        piv = next((i for i in range(k, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        rk = rows[k]
        p = rk[col]
        for i in range(0 if reduce else k + 1, nrows):
            if i == k:
                continue
            ri = rows[i]
            f = ri[col]
            start = pivots[i] if i < k else col  # ri is zero before start
            ri[start:] = [(p * a - f * b) // prev for a, b in zip(ri[start:], rk[start:])]
        pivots.append(col)
        prev = p
    return pivots, prev


def exact_rank(m: Lanes) -> int:
    """Rank over the Gaussian rationals of an exact matrix."""
    rank = len(_bareiss(_int_rows(m), reduce=False)[0])
    return rank if m.im is None else rank // 2


def exact_row_reduce(m: Lanes):
    """Reduced row echelon form of an exact matrix.

    Returns ``(rank, pivot_cols, rref)`` where ``rref`` is the canonical
    lanes of the ``rank x ncols`` reduced matrix and the input equals
    ``m[:, pivot_cols] @ rref`` exactly.  Pivoting scans columns left to
    right and takes the first nonzero row, so the output is deterministic.
    """
    rows = _int_rows(m)
    pivots, d = _bareiss(rows, reduce=True)
    k = 1 if m.im is None else 2  # side of the embedding's blocks
    red = np.array(rows[: len(pivots)], dtype=object).reshape(len(pivots), k * m.shape[1])
    im = None if k == 1 else -red[::2, 1::2]  # see the module docstring
    return len(pivots) // k, [c // k for c in pivots[::k]], canonical(red[::k, ::k], im, d)


def exact_rank_factor(m: Lanes):
    """Exact rank factorization ``M = C @ R``, both as canonical lanes.

    ``C`` is the pivot columns of ``M`` (m x r) and ``R`` the nonzero rows of
    its reduced row echelon form (r x n).
    """
    rank, pivots, rref = exact_row_reduce(m)
    return rank, canonical(*m.map(lambda x: x[:, pivots])), rref


# ---------------------------------------------------------------------------
# float mode
# ---------------------------------------------------------------------------


def float_rank(mat: np.ndarray, tol: float | None = None) -> int:
    """Number of singular values above ``tol * sigma_1``."""
    if mat.ndim != 2:
        raise ValueError("float_rank expects a 2-d array")
    return _svd_rank(np.linalg.svd(mat, compute_uv=False) if mat.size else np.zeros(0), mat.shape, tol)


def float_rank_factor(mat: np.ndarray, tol: float | None = None):
    """Rank-revealing factorization ``mat ~= C @ R`` by truncated SVD."""
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = _svd_rank(s, mat.shape, tol)
    return rank, u[:, :rank] * s[:rank], vh[:rank, :]


def _svd_rank(s, shape, tol):
    """Count the singular values above ``tol * s[0]``; warn when the count is close."""
    if tol is not None and not 0.0 <= tol < 1.0:  # also refuses NaN
        raise ValueError(f"tol must be a finite number in [0, 1), not {tol!r}")
    if s.size == 0 or s[0] == 0.0:
        return 0
    thresh = (default_float_tol(shape) if tol is None else tol) * s[0]
    rank = int(np.sum(s > thresh))
    near_keep = rank > 0 and s[rank - 1] < 8.0 * thresh
    near_drop = rank < len(s) and s[rank] > thresh / 8.0
    if near_keep or near_drop:
        gap = float(s[rank - 1] / s[rank]) if 0 < rank < len(s) and s[rank] > 0 else float("inf")
        warnings.warn(
            f"rank {rank} decided near tolerance threshold "
            f"(sigma_r/sigma_r+1 = {gap:.3g})",
            RankToleranceWarning,
            stacklevel=3,
        )
    return rank
