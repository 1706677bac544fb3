"""Dense tensors with exact or floating scalars, and their core operations.

A float tensor wraps a complex128 array.  An exact tensor stores canonical
integer lanes (:class:`~tnrank.scalars.Lanes`), and every exact operation
here (``flatten``, ``outer``, ``scale``, ``add``, ``mlmul``, comparisons and
``to_float``) works on the lanes; products run ``np.tensordot`` on Python
ints in :func:`lane_dot`.  The object array of GaussianRational that an
exact tensor stands for is built only when ``.data`` is read.  Mode numbers
at the interface are 1-based; storage is row-major (the last index varies
fastest).
"""

from __future__ import annotations

import numpy as np

from . import elimination
from .scalars import EXACT, FLOAT, Lanes, canonical, check_same_mode, from_lanes, to_lanes


class Tensor:
    """A dense tensor of order ``len(dims)`` in one scalar mode.

    ``Tensor(x, EXACT)`` takes an array of exact scalars or Lanes and keeps
    canonical ``lanes``; a float tensor keeps ``data`` and has ``lanes`` None.
    """

    __slots__ = ("data", "lanes", "mode")

    def __init__(self, data, mode: str):
        if mode == EXACT:
            lanes = canonical(*(data if isinstance(data, Lanes) else to_lanes(data)))
            for lane in lanes[:2]:
                if lane is not None:
                    lane.flags.writeable = False
        elif mode == FLOAT:
            if data.dtype != np.complex128:
                data = np.ascontiguousarray(data, dtype=np.complex128)
            data.flags.writeable = False
            object.__setattr__(self, "data", data)
            lanes = None
        else:
            raise ValueError(f"unknown scalar mode {mode!r}")
        object.__setattr__(self, "lanes", lanes)
        object.__setattr__(self, "mode", mode)

    def __getattr__(self, name):
        # Reached only for an unset slot: the data of an exact tensor, built
        # from the lanes on first read and cached.
        if name != "data" or self.lanes is None:
            raise AttributeError(name)
        data = from_lanes(*self.lanes)
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        return data

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape if self.lanes is None else self.lanes.shape

    @property
    def order(self) -> int:
        return len(self.dims)

    def item(self, index: tuple[int, ...]):
        """Entry at a 1-based multi-index."""
        return self.data[tuple(i - 1 for i in index)]

    def to_float(self) -> "Tensor":
        """Explicit exact -> float conversion (identity on float tensors).

        Int true division rounds correctly: the entries are ``to_complex``'s.
        """
        if self.mode == FLOAT:
            return self
        re, im, den = self.lanes
        out = np.zeros(re.shape, dtype=np.complex128)
        out.real = re / den
        if im is not None:
            out.imag = im / den
        return Tensor(out, FLOAT)

    def __repr__(self):
        return f"Tensor(dims={self.dims}, mode={self.mode!r})"


def exact_tensor(values) -> Tensor:
    """Build an exact tensor from nested lists of ints, Fractions or GaussianRationals."""
    return Tensor(to_lanes(np.array(values, dtype=object)), EXACT)


def zeros(dims, mode: str) -> Tensor:
    if mode == EXACT:
        return Tensor(Lanes(np.zeros(tuple(dims), dtype=object), None, 1), EXACT)
    return Tensor(np.zeros(tuple(dims), dtype=np.complex128), FLOAT)


def basis_vector(n: int, k: int, mode: str = EXACT) -> Tensor:
    """Standard basis vector e_k (1-based) of length n."""
    arr = np.zeros((n,), dtype=object if mode == EXACT else np.complex128)
    arr[k - 1] = 1
    return Tensor(Lanes(arr, None, 1) if mode == EXACT else arr, mode)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def lane_dot(a: Lanes, b: Lanes, axes) -> Lanes:
    """``np.tensordot`` of two exact arrays given as integer lanes.

    Real lanes take one product; Gaussian lanes take the four of complex
    multiplication, skipping the terms of a real operand.  The result is
    not reduced to canonical form.
    """
    (ar, ai, da), (br, bi, db) = a, b
    re, im = np.tensordot(ar, br, axes), None
    if ai is not None:
        im = np.tensordot(ai, br, axes)
        if bi is not None:
            re = re - np.tensordot(ai, bi, axes)
    if bi is not None:
        t = np.tensordot(ar, bi, axes)
        im = t if im is None else im + t
    return Lanes(re, im, da * db)


def outer(a: Tensor, b: Tensor) -> Tensor:
    """Tensor product; dims concatenate."""
    if check_same_mode(a.mode, b.mode) == FLOAT:
        return Tensor(np.tensordot(a.data, b.data, axes=0), FLOAT)
    return Tensor(lane_dot(a.lanes, b.lanes, 0), EXACT)


def flatten(a: Tensor, row_modes) -> Tensor:
    """Flatten into a matrix with rows indexed by ``row_modes``.

    Rows use the given modes sorted ascending, columns the complement sorted
    ascending, both lexicographic with the last index fastest.
    """
    rows = sorted(set(row_modes))
    if not rows:
        raise ValueError("row_modes must be nonempty")
    if any(m < 1 or m > a.order for m in rows):
        raise ValueError("row_modes out of range")
    cols = [m for m in range(1, a.order + 1) if m not in rows]
    if not cols:
        raise ValueError("row_modes must be a proper subset of the modes")
    axes = [m - 1 for m in rows] + [m - 1 for m in cols]
    nrow = int(np.prod([a.dims[m - 1] for m in rows], dtype=np.int64))
    ncol = int(np.prod([a.dims[m - 1] for m in cols], dtype=np.int64))

    def fold(x):
        return np.transpose(x, axes).reshape(nrow, ncol)

    return Tensor(fold(a.data) if a.mode == FLOAT else a.lanes.map(fold), a.mode)


def matrix_rank(m: Tensor, tol: float | None = None) -> int:
    """Rank of a 2-mode tensor; exact over the rationals, float via SVD."""
    if m.order != 2:
        raise ValueError("matrix_rank expects a 2-mode tensor")
    if m.mode == EXACT:
        return elimination.exact_rank(m.lanes)
    return elimination.float_rank(m.data, tol)


def mlmul(a: Tensor, mats) -> Tensor:
    """Multilinear matrix multiplication: mode-i fibers transformed by mats[i]."""
    mats = list(mats)
    if len(mats) != a.order:
        raise ValueError(f"need {a.order} matrices, got {len(mats)}")
    mode = check_same_mode(a.mode, *[m.mode for m in mats])
    for i, m in enumerate(mats):
        if m.order != 2:
            raise ValueError("mlmul factors must be matrices")
        if m.dims[1] != a.dims[i]:
            raise ValueError(
                f"matrix {i + 1} has {m.dims[1]} columns, mode extent is {a.dims[i]}"
            )
    if mode == FLOAT:
        data = a.data
        for i, m in enumerate(mats):
            data = np.moveaxis(np.tensordot(m.data, data, axes=(1, i)), 0, i)
        return Tensor(data, mode)
    # Each product contracts the leading mode and appends its image last, so
    # after all of them the modes are back in order.
    lanes = a.lanes
    for m in mats:
        lanes = lane_dot(lanes, m.lanes, (0, 1))
    return Tensor(lanes, mode)


# ---------------------------------------------------------------------------
# comparisons and elementwise arithmetic
# ---------------------------------------------------------------------------


def tensors_equal(a: Tensor, b: Tensor) -> bool:
    """Exact entrywise equality (same mode, same dims)."""
    if a.mode != b.mode or a.dims != b.dims:
        return False
    if a.mode == FLOAT:
        return bool(np.array_equal(a.data, b.data))
    # Canonical lanes: equal tensors have equal lanes.
    (ar, ai, ad), (br, bi, bd) = a.lanes, b.lanes
    if ad != bd or (ai is None) != (bi is None):
        return False
    return bool(np.array_equal(ar, br) and (ai is None or np.array_equal(ai, bi)))


def is_zero(a: Tensor) -> bool:
    if a.mode == FLOAT:
        return not np.any(a.data)
    return a.lanes.im is None and not any(a.lanes.re.flat)


def scale(a: Tensor, c) -> Tensor:
    """Multiply every entry by the scalar ``c`` (mode-appropriate)."""
    if a.mode == EXACT:
        return outer(a, Tensor(np.array(c, dtype=object), EXACT))
    return Tensor(a.data * complex(c), FLOAT)


def add(a: Tensor, b: Tensor) -> Tensor:
    mode = check_same_mode(a.mode, b.mode)
    if a.dims != b.dims:
        raise ValueError("dims mismatch in tensor addition")
    if mode == FLOAT:
        return Tensor(a.data + b.data, mode)
    (ar, ai, ad), (br, bi, bd) = a.lanes, b.lanes
    im = None if ai is None and bi is None else (0 if ai is None else ai * bd) + (0 if bi is None else bi * ad)
    return Tensor(Lanes(ar * bd + br * ad, im, ad * bd), mode)
