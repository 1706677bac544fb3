"""Exact Gaussian-rational scalars, integer lanes, and the two scalar modes.

Every tensor in this package carries one of two scalar modes:

* ``"exact"`` -- entries are complex numbers whose real and imaginary parts
  are arbitrary-precision fractions.  Arithmetic is error-free.
* ``"float"`` -- entries are ``complex128``.

Mixing modes in one operation is an error; conversion exact -> float is
explicit.

An exact array is stored as integer lanes, :class:`Lanes` ``(re, im, den)``:
object arrays of Python ints over one shared denominator, ``im`` None when
every entry is real, kept canonical by :func:`canonical` so that equal
arrays have equal lanes.  Every exact computation in the package (products,
elimination, the gallery's constructions, serialization) runs on lanes and
Python ints.  :class:`GaussianRational` is the public scalar type: the
entries of an exact tensor's ``.data`` and of hand-written input.
:func:`to_lanes` and :func:`from_lanes` convert arrays of it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

EXACT = "exact"
FLOAT = "float"


class ModeMismatchError(TypeError):
    """Raised when operands with different scalar modes are combined."""


def check_same_mode(*modes: str) -> str:
    first = modes[0]
    for m in modes[1:]:
        if m != first:
            raise ModeMismatchError(
                f"scalar modes differ: {first!r} vs {m!r}; convert explicitly"
            )
    return first


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Immutable; supports +, -, *, / (by nonzero) and exact equality.
    Interoperates with ``int`` and ``Fraction`` operands.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x) if isinstance(x, (int, Fraction)) else None

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative fraction."""
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        """Round to the nearest complex double (explicit mode conversion)."""
        return complex(float(self.re), float(self.im))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.abs2()
        if not d:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        return as_exact(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __bool__(self):
        return bool(self.re or self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return f"GR({self.re})"
        return f"GR({self.re}, {self.im})"


def _parts(x):
    """``(re, im)`` of an int, Fraction or GaussianRational."""
    if type(x) is GaussianRational:
        return x.re, x.im
    if isinstance(x, (int, Fraction)):
        return x, 0
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact scalar")


def as_exact(x) -> GaussianRational:
    """Coerce an int/Fraction/GaussianRational to GaussianRational."""
    return x if type(x) is GaussianRational else GaussianRational(*_parts(x))


class Lanes(NamedTuple):
    """Integer lanes of an exact array: entry k is ``(re[k] + i*im[k]) / den``."""

    re: np.ndarray
    im: np.ndarray | None
    den: int

    @property
    def shape(self) -> tuple[int, ...]:
        return self.re.shape

    def map(self, fn) -> "Lanes":
        """Apply one array rearrangement (transpose, reshape, indexing) to both lanes."""
        return Lanes(fn(self.re), None if self.im is None else fn(self.im), self.den)


def canonical(re, im, den: int) -> Lanes:
    """Lanes in canonical form, so that equal arrays have equal lanes.

    ``den > 0``, ``gcd(den, every numerator) == 1``, and ``im`` is None
    exactly when every imaginary part is 0.  One gcd pass over the entries.
    """
    re = np.asarray(re, dtype=object)  # lane arithmetic on 0-d arrays yields bare ints
    if im is not None:
        im = np.asarray(im, dtype=object)
        im = im if any(im.flat) else None
    g = 1 if den == 1 else math.gcd(den, *re.flat, *(() if im is None else im.flat))
    g = -g if den < 0 else g
    if g == 1:
        return Lanes(re, im, den)
    return Lanes(np.asarray(re // g, dtype=object), None if im is None else np.asarray(im // g, dtype=object), den // g)


def parts_to_lanes(shape, parts) -> Lanes:
    """Lanes of the array whose flat entries are ``re + i*im`` for ``(re, im)`` in ``parts``.

    The parts are ints or Fractions.  Numerators of reduced fractions over
    the lcm of their denominators are already canonical.
    """
    den = math.lcm(*(x.denominator for p in parts for x in p))

    def lane(k):
        return np.array([p[k].numerator * (den // p[k].denominator) for p in parts], dtype=object).reshape(shape)

    return Lanes(lane(0), lane(1) if any(p[1] for p in parts) else None, den)


def to_lanes(arr) -> Lanes:
    """The canonical lanes of an array of ints, Fractions or GaussianRationals."""
    arr = np.asarray(arr, dtype=object)
    return parts_to_lanes(arr.shape, [_parts(x) for x in arr.flat])


def from_lanes(re, im, den) -> np.ndarray:
    """The object array of GaussianRational that integer lanes stand for."""
    ims = itertools.repeat(0) if im is None else im.flat
    out = np.empty(re.shape, dtype=object)
    out.flat[:] = [GaussianRational(Fraction(a, den), Fraction(b, den) if b else 0) for a, b in zip(re.flat, ims)]
    return out
