"""Matrix rank and rank-revealing factorization in both scalar modes.

Exact mode works over the Gaussian rationals.  Each row is first cleared of
denominators, leaving Python ints for real input and Gaussian integers
otherwise.  One fraction-free (Bareiss) elimination kernel then serves both
exact entry points: its forward sweep gives the rank, and with the rows above
each pivot swept too it gives the reduced row echelon form as integer
numerators over one common denominator.  Every intermediate value is a minor
of the cleared matrix, so coefficient growth stays polynomial, and Python's
arbitrary-precision integers keep the result exact for any input.  Float mode
uses singular values with a relative tolerance.
"""

from __future__ import annotations

import operator
import warnings
from fractions import Fraction

import numpy as np

from .scalars import GaussianRational, as_exact, clear_denominators


class RankToleranceWarning(UserWarning):
    """Float rank decided within a factor of 8 of the tolerance threshold."""


def default_float_tol(shape) -> float:
    m, n = shape
    return max(m, n) * np.finfo(np.float64).eps * 8.0


# ---------------------------------------------------------------------------
# exact mode
# ---------------------------------------------------------------------------


def _cleared_rows(mat):
    """Scale each row by the lcm of its denominators.

    Returns (rows, is_real): rows of Python ints when every entry is real,
    otherwise rows of GaussianRational with integer components.  Row scaling
    changes neither the rank nor the reduced row echelon form.
    """
    cleared = [clear_denominators(row) for row in mat]
    if all(im is None for _, im, _ in cleared):
        return [re for re, _, _ in cleared], True
    return [
        [GaussianRational(a, b) for a, b in zip(re, [0] * len(re) if im is None else im)]
        for re, im, _ in cleared
    ], False


def _bareiss(rows, is_real: bool, reduce: bool):
    """Fraction-free (Bareiss) elimination on the cleared rows, in place.

    Columns are scanned left to right and the first nonzero row at or below
    the current one becomes the pivot row.  With pivot ``p`` and previous
    pivot ``prev``, every other row ``ri`` in the sweep becomes
    ``(p*ri - ri[col]*rk) / prev``.  By Sylvester's identity each quotient
    is a minor of the input, so the division is exact: ``//`` on ints, ``/``
    on Gaussian integers.  Rows whose pivot-column entry is zero are scaled
    too; skipping them breaks the invariant.

    The sweep covers the rows below the pivot, so the pivot count is the
    rank.  With ``reduce`` it also covers the rows above (fraction-free
    Gauss-Jordan): every pivot then ends equal to the last one, ``d``, and
    the reduced row echelon form is ``rows[:rank] / d``.

    Returns ``(pivot_cols, d)``.
    """
    div = operator.floordiv if is_real else operator.truediv
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
            ri[start:] = [div(p * a - f * b, prev) for a, b in zip(ri[start:], rk[start:])]
        pivots.append(col)
        prev = p
    return pivots, prev


def exact_rank(mat: np.ndarray) -> int:
    """Rank over the rationals of an object matrix of exact scalars."""
    if mat.ndim != 2:
        raise ValueError("exact_rank expects a 2-d array")
    rows, is_real = _cleared_rows(mat)
    return len(_bareiss(rows, is_real, reduce=False)[0])


def exact_row_reduce(mat: np.ndarray):
    """Reduced row echelon form of an exact matrix.

    Returns ``(rank, pivot_cols, rref)`` where ``rref`` is a
    ``rank x ncols`` object array of GaussianRational and the input equals
    ``mat[:, pivot_cols] @ rref`` exactly.  Pivoting scans columns left to
    right and takes the first nonzero row, so the output is deterministic.
    """
    if mat.ndim != 2:
        raise ValueError("exact_row_reduce expects a 2-d array")
    rows, is_real = _cleared_rows(mat)
    pivots, d = _bareiss(rows, is_real, reduce=True)
    rank = len(pivots)
    rref = np.empty((rank, mat.shape[1]), dtype=object)
    for k in range(rank):
        if is_real:
            rref[k, :] = [GaussianRational(Fraction(x, d)) for x in rows[k]]
        else:
            rref[k, :] = [x / d for x in rows[k]]
    return rank, pivots, rref


def exact_rank_factor(mat: np.ndarray):
    """Exact rank factorization ``mat = C @ R``.

    ``C`` is the pivot columns of ``mat`` (m x r) and ``R`` the nonzero rows
    of its reduced row echelon form (r x n).
    """
    rank, pivots, rref = exact_row_reduce(mat)
    c = np.empty((mat.shape[0], rank), dtype=object)
    for j, p in enumerate(pivots):
        for i in range(mat.shape[0]):
            c[i, j] = as_exact(mat[i, p])
    return rank, c, rref


# ---------------------------------------------------------------------------
# float mode
# ---------------------------------------------------------------------------


def float_rank(mat: np.ndarray, tol: float | None = None) -> int:
    """Number of singular values above ``tol * sigma_1``."""
    if mat.ndim != 2:
        raise ValueError("float_rank expects a 2-d array")
    if mat.size == 0:
        return 0
    if tol is None:
        tol = default_float_tol(mat.shape)
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] == 0.0:
        return 0
    thresh = tol * s[0]
    rank = int(np.sum(s > thresh))
    _warn_if_near_threshold(s, rank, thresh)
    return rank


def float_rank_factor(mat: np.ndarray, tol: float | None = None):
    """Rank-revealing factorization ``mat ~= C @ R`` by truncated SVD."""
    if tol is None:
        tol = default_float_tol(mat.shape)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        rank = 0
    else:
        thresh = tol * s[0]
        rank = int(np.sum(s > thresh))
        _warn_if_near_threshold(s, rank, thresh)
    return rank, u[:, :rank] * s[:rank], vh[:rank, :]


def _warn_if_near_threshold(s, rank, thresh):
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


def exact_to_float(mat: np.ndarray) -> np.ndarray:
    """Explicit conversion of an exact object matrix to complex128."""
    out = np.empty(mat.shape, dtype=np.complex128)
    flat_in = mat.reshape(-1)
    flat_out = out.reshape(-1)
    for i in range(flat_in.size):
        flat_out[i] = as_exact(flat_in[i]).to_complex()
    return out
