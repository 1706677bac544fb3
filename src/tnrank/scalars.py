"""Exact Gaussian-rational scalars, their integer lanes, and the two scalar modes.

Every tensor in this package carries one of two scalar modes:

* ``"exact"`` -- entries are :class:`GaussianRational` numbers (complex
  numbers whose real and imaginary parts are arbitrary-precision
  fractions).  Arithmetic is error-free.
* ``"float"`` -- entries are ``complex128``.

Mixing modes in one operation is an error; conversion exact -> float is
explicit via :meth:`GaussianRational.to_complex`.

Exact tensors store :class:`GaussianRational` entries, but their products run
on integer lanes: an exact array becomes ``(re, im, den)``, object arrays of
Python ints over one shared positive denominator (the lcm of the entries'
denominators), with ``im`` None when every entry is real.  :func:`to_lanes`
and :func:`from_lanes` convert on the way in and out, and
:func:`clear_denominators` is the one way denominators are cleared, shared
with exact elimination.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

EXACT = "exact"
FLOAT = "float"
MODES = (EXACT, FLOAT)


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

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussianRational(x)
        return None

    def is_zero(self) -> bool:
        return not self.re and not self.im

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __bool__(self):
        return not self.is_zero()

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


ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def as_exact(x) -> GaussianRational:
    """Coerce an int/Fraction/GaussianRational to GaussianRational."""
    g = GaussianRational._coerce(x)
    if g is None:
        raise TypeError(f"cannot interpret {type(x).__name__} as an exact scalar")
    return g


def clear_denominators(entries):
    """Integer numerators of exact scalars over their least common denominator.

    Returns ``(re, im, den)``: lists of Python ints with ``entries[k] ==
    (re[k] + i*im[k]) / den``, and ``im`` None when every entry is real.
    """
    gs = [g if type(g) is GaussianRational else as_exact(g) for g in entries]
    den = math.lcm(*(x.denominator for g in gs for x in (g.re, g.im)))
    re = [g.re.numerator * (den // g.re.denominator) for g in gs]
    if not any(g.im for g in gs):
        return re, None, den
    return re, [g.im.numerator * (den // g.im.denominator) for g in gs], den


def to_lanes(arr: np.ndarray):
    """The integer lanes ``(re, im, den)`` of an array of exact scalars."""
    re, im, den = clear_denominators(arr.reshape(-1))
    re, im = (v if v is None else np.array(v, dtype=object).reshape(arr.shape) for v in (re, im))
    return re, im, den


def from_lanes(re, im, den) -> np.ndarray:
    """The object array of GaussianRational that integer lanes stand for."""
    re = np.asarray(re, dtype=object)  # a 0-d lane difference is a bare int
    ims = itertools.repeat(0) if im is None else np.asarray(im, dtype=object).flat
    out = np.empty(re.shape, dtype=object)
    out.flat[:] = [
        GaussianRational(Fraction(a, den), Fraction(b, den) if b else 0)
        for a, b in zip(re.flat, ims)
    ]
    return out


def parse_fraction(s) -> Fraction:
    """Parse a decimal fraction string like ``"-3/7"`` or ``"5"``."""
    return Fraction(str(s))


def format_fraction(f: Fraction) -> str:
    return str(f)
