"""Matrix rank and rank-revealing factorization in both scalar modes.

Exact mode works over the Gaussian rationals, on a matrix given as canonical
integer lanes (:class:`~tnrank.scalars.Lanes`): the integer matrix
``den * M`` has the rank and the reduced row echelon form of ``M``, so its
rows are the input, Python ints for real lanes and Gaussian integers
otherwise.  One fraction-free (Bareiss) elimination kernel serves every
exact entry point: its forward sweep gives the rank, and with the rows above
each pivot swept too it gives the reduced row echelon form as integer
numerators over one common denominator.  Every intermediate value is a minor
of the integer matrix, so coefficient growth stays polynomial, and Python's
arbitrary-precision integers keep the result exact for any input.  Float
mode uses singular values with a relative tolerance.
"""

from __future__ import annotations

import warnings

import numpy as np

from .scalars import GaussianRational, Lanes, canonical, to_lanes


class RankToleranceWarning(UserWarning):
    """Float rank decided within a factor of 8 of the tolerance threshold."""


def default_float_tol(shape) -> float:
    m, n = shape
    return max(m, n) * np.finfo(np.float64).eps * 8.0


# ---------------------------------------------------------------------------
# exact mode
# ---------------------------------------------------------------------------


def _int_rows(m: Lanes):
    """Rows of ``den * M``: ints when real, Gaussian-integer GaussianRationals otherwise."""
    if len(m.shape) != 2:
        raise ValueError("exact elimination expects a 2-d array")
    if m.im is None:
        return m.re.tolist(), True
    return [[GaussianRational(a, b) for a, b in zip(*ri)] for ri in zip(m.re.tolist(), m.im.tolist())], False


def _bareiss(rows, is_real: bool, reduce: bool):
    """Fraction-free (Bareiss) elimination on integer rows, in place.

    Columns are scanned left to right and the first nonzero row at or below
    the current one becomes the pivot row.  With pivot ``p`` and previous
    pivot ``prev``, every other row ``ri`` in the sweep becomes
    ``(p*ri - ri[col]*rk) / prev``.  By Sylvester's identity each quotient
    is a minor of the integer matrix, so the division is exact: ``//`` on ints, ``/``
    on Gaussian integers.  Rows whose pivot-column entry is zero are scaled
    too; skipping them breaks the invariant.

    The sweep covers the rows below the pivot, so the pivot count is the
    rank.  With ``reduce`` it also covers the rows above (fraction-free
    Gauss-Jordan): every pivot then ends equal to the last one, ``d``, and
    the reduced row echelon form is ``rows[:rank] / d``.

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
            if is_real:
                ri[start:] = [(p * a - f * b) // prev for a, b in zip(ri[start:], rk[start:])]
            else:
                ri[start:] = [(p * a - f * b) / prev for a, b in zip(ri[start:], rk[start:])]
        pivots.append(col)
        prev = p
    return pivots, prev


def exact_rank(m: Lanes) -> int:
    """Rank over the rationals of an exact matrix."""
    rows, is_real = _int_rows(m)
    return len(_bareiss(rows, is_real, reduce=False)[0])


def exact_row_reduce(m: Lanes):
    """Reduced row echelon form of an exact matrix.

    Returns ``(rank, pivot_cols, rref)`` where ``rref`` is the canonical
    lanes of the ``rank x ncols`` reduced matrix and the input equals
    ``m[:, pivot_cols] @ rref`` exactly.  Pivoting scans columns left to
    right and takes the first nonzero row, so the output is deterministic.
    """
    rows, is_real = _int_rows(m)
    pivots, d = _bareiss(rows, is_real, reduce=True)
    shape = (len(pivots), m.shape[1])
    if is_real:
        return len(pivots), pivots, canonical(np.array(rows[: shape[0]], dtype=object).reshape(shape), None, d)
    rref = np.array([[x / d for x in row] for row in rows[: shape[0]]], dtype=object)
    return len(pivots), pivots, to_lanes(rref.reshape(shape))


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
