"""Dense tensors with exact or floating scalars, and their core operations.

Tensors are immutable wrappers around numpy arrays: ``object`` dtype holding
:class:`~tnrank.scalars.GaussianRational` entries in exact mode, complex128
in float mode.  Mode numbers at the interface are 1-based; storage is
row-major (the last index varies fastest).

Exact products (``outer``, ``scale``, ``mlmul`` and the network
contractions) convert their operands once to integer lanes
(:func:`~tnrank.scalars.to_lanes`), run ``np.tensordot`` on Python ints in
:func:`lane_dot`, and convert the result back once; storage stays
``GaussianRational``.
"""

from __future__ import annotations

import numpy as np

from . import elimination
from .scalars import EXACT, FLOAT, GaussianRational, as_exact, check_same_mode
from .scalars import from_lanes, to_lanes


class Tensor:
    """A dense tensor of order ``len(dims)`` in one scalar mode."""

    __slots__ = ("data", "mode")

    def __init__(self, data: np.ndarray, mode: str):
        if mode == EXACT:
            if data.dtype != object:
                raise TypeError("exact tensors need an object-dtype array")
        elif mode == FLOAT:
            if data.dtype != np.complex128:
                data = np.ascontiguousarray(data, dtype=np.complex128)
        else:
            raise ValueError(f"unknown scalar mode {mode!r}")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "mode", mode)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def order(self) -> int:
        return self.data.ndim

    def item(self, index: tuple[int, ...]):
        """Entry at a 1-based multi-index."""
        return self.data[tuple(i - 1 for i in index)]

    def to_float(self) -> "Tensor":
        """Explicit exact -> float conversion (identity on float tensors)."""
        if self.mode == FLOAT:
            return self
        return Tensor(elimination.exact_to_float(self.data), FLOAT)

    def __repr__(self):
        return f"Tensor(dims={self.dims}, mode={self.mode!r})"


def exact_tensor(values) -> Tensor:
    """Build an exact tensor, coercing int/Fraction entries."""
    arr = np.array(values, dtype=object)
    flat = arr.reshape(-1)
    for i in range(flat.size):
        flat[i] = as_exact(flat[i])
    return Tensor(arr, EXACT)


def zeros(dims, mode: str) -> Tensor:
    if mode == EXACT:
        arr = np.full(tuple(dims), GaussianRational(0), dtype=object)
        return Tensor(arr, EXACT)
    return Tensor(np.zeros(tuple(dims), dtype=np.complex128), FLOAT)


def basis_vector(n: int, k: int, mode: str = EXACT) -> Tensor:
    """Standard basis vector e_k (1-based) of length n."""
    if mode == EXACT:
        arr = np.full((n,), GaussianRational(0), dtype=object)
        arr[k - 1] = GaussianRational(1)
        return Tensor(arr, EXACT)
    arr = np.zeros((n,), dtype=np.complex128)
    arr[k - 1] = 1.0
    return Tensor(arr, FLOAT)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def lane_dot(a, b, axes):
    """``np.tensordot`` of two exact arrays given as integer lanes ``(re, im, den)``.

    Real lanes take one product; Gaussian lanes take the four of complex
    multiplication, skipping the terms of a real operand.
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
    return re, im, da * db


def outer(a: Tensor, b: Tensor) -> Tensor:
    """Tensor product; dims concatenate."""
    if check_same_mode(a.mode, b.mode) == FLOAT:
        return Tensor(np.tensordot(a.data, b.data, axes=0), FLOAT)
    return Tensor(from_lanes(*lane_dot(to_lanes(a.data), to_lanes(b.data), 0)), EXACT)


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
    return Tensor(np.transpose(a.data, axes).reshape(nrow, ncol), a.mode)


def matrix_rank(m: Tensor, tol: float | None = None) -> int:
    """Rank of a 2-mode tensor; exact over the rationals, float via SVD."""
    if m.order != 2:
        raise ValueError("matrix_rank expects a 2-mode tensor")
    if m.mode == EXACT:
        return elimination.exact_rank(m.data)
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
    lanes = to_lanes(a.data)
    for m in mats:
        lanes = lane_dot(lanes, to_lanes(m.data), (0, 1))
    return Tensor(from_lanes(*lanes), mode)


# ---------------------------------------------------------------------------
# comparisons and elementwise arithmetic
# ---------------------------------------------------------------------------


def tensors_equal(a: Tensor, b: Tensor) -> bool:
    """Exact entrywise equality (same mode, same dims)."""
    if a.mode != b.mode or a.dims != b.dims:
        return False
    if a.mode == FLOAT:
        return bool(np.array_equal(a.data, b.data))
    fa, fb = a.data.reshape(-1), b.data.reshape(-1)
    return all(as_exact(fa[i]) == as_exact(fb[i]) for i in range(fa.size))


def is_zero(a: Tensor) -> bool:
    if a.mode == FLOAT:
        return not np.any(a.data)
    return all(not as_exact(x) for x in a.data.reshape(-1))


def scale(a: Tensor, c) -> Tensor:
    """Multiply every entry by the scalar ``c`` (mode-appropriate)."""
    if a.mode == EXACT:
        return outer(a, Tensor(np.array(as_exact(c), dtype=object), EXACT))
    return Tensor(a.data * complex(c), FLOAT)


def add(a: Tensor, b: Tensor) -> Tensor:
    mode = check_same_mode(a.mode, b.mode)
    if a.dims != b.dims:
        raise ValueError("dims mismatch in tensor addition")
    return Tensor(a.data + b.data, mode)
