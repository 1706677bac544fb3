"""Exact Gaussian-rational scalars and the two scalar modes.

Every tensor in this package carries one of two scalar modes:

* ``"exact"`` -- entries are :class:`GaussianRational` numbers (complex
  numbers whose real and imaginary parts are arbitrary-precision
  fractions).  Arithmetic is error-free.
* ``"float"`` -- entries are ``complex128``.

Mixing modes in one operation is an error; conversion exact -> float is
explicit via :meth:`GaussianRational.to_complex`.
"""

from __future__ import annotations

from fractions import Fraction

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

    Immutable; supports +, -, *, / (by nonzero), conjugation and exact
    equality.  Interoperates with ``int`` and ``Fraction`` operands.
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

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

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


def parse_fraction(s) -> Fraction:
    """Parse a decimal fraction string like ``"-3/7"`` or ``"5"``."""
    return Fraction(str(s))


def format_fraction(f: Fraction) -> str:
    return str(f)
