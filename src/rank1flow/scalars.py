"""Exact scalars for tower geometry.

Three modes are supported:

* ``rational`` -- plain :class:`fractions.Fraction` values,
* ``sqrt2``    -- elements a + b*sqrt(2) of the quadratic field Q(sqrt 2),
  represented by :class:`Sqrt2` with exact, sign-analysis based ordering,
* ``float``    -- double precision, comparisons at relative tolerance 1e-12.

All heights, widths, offsets, times and spacer values are scalars in one
of these modes; a schedule never mixes modes.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import Union

FLOAT_RTOL = 1e-12

MODES = ("rational", "sqrt2", "float")


class Sqrt2:
    """An element a + b*sqrt(2) of Q(sqrt 2) with a, b rational.

    Ordering agrees with the real embedding and is decided exactly by
    sign analysis (no floating point involved).
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    # -- sign analysis ---------------------------------------------------

    def sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return (b > 0) - (b < 0)
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # mixed signs: compare a^2 with 2 b^2
        d = a * a - 2 * b * b
        if a > 0:  # b < 0
            return (d > 0) - (d < 0)
        # a < 0, b > 0: a + b sqrt2 > 0 iff 2 b^2 > a^2
        return (d < 0) - (d > 0)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Sqrt2):
            return x
        if isinstance(x, (int, Fraction)):
            return Sqrt2(x)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt2(o.a - self.a, o.b - self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Sqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = o.a * o.a - 2 * o.b * o.b
        if den == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        # multiply by the conjugate of o
        na = self.a * o.a - 2 * self.b * o.b
        nb = self.b * o.a - self.a * o.b
        return Sqrt2(na / den, nb / den)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return Sqrt2(-self.a, -self.b)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- conversions -----------------------------------------------------

    def __float__(self):
        # fine for the magnitudes we meet; b*sqrt(2) is evaluated through
        # an integer square root to dodge catastrophic cancellation
        if self.b == 0:
            return float(self.a)
        p, q = self.b.numerator, self.b.denominator
        root = Fraction(isqrt(2 * p * p * 10**40), q * 10**20)
        if p < 0:
            root = -root
        return float(self.a + root)

    def __floor__(self):
        p, q = self.b.numerator, self.b.denominator
        if p == 0:
            return self.a.numerator // self.a.denominator
        # bracket b*sqrt(2) between consecutive multiples of 1/q
        s = isqrt(2 * p * p)
        low = self.a + Fraction(s if p > 0 else -s - 1, q)
        c = low.numerator // low.denominator
        while c + 1 <= self:
            c += 1
        return c

    def __repr__(self):
        if self.b == 0:
            return f"Sqrt2({self.a})"
        return f"Sqrt2({self.a}, {self.b})"


SQRT2 = Sqrt2(0, 1)

Scalar = Union[int, Fraction, Sqrt2, float]

SQRT2_FLOAT = 1.4142135623730951
# float(a) + float(b) * SQRT2_FLOAT is within 2**-53 * (2 |a| + 6 |b|) of
# a + b*sqrt(2); the filter's threshold (|a| + 2 |b|) * 2**-50 is over
# twice that.
_FILTER_ULPS = 2.0**-50
_FLOAT_BITS = 1000  # integers this wide convert to float without overflow


def sqrt2_sign(a: int, b: int) -> int:
    """Sign of a + b*sqrt(2) for integers a, b; agrees with :meth:`Sqrt2.sign`.

    Operands of one sign decide at once.  Mixed signs go through a float
    filter (Shewchuk's adaptive-predicate idea): the float value decides
    when it clears its rounding-error bound, otherwise, or when an operand
    is beyond float range, the exact comparison of a^2 with 2 b^2 does.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    if a.bit_length() < _FLOAT_BITS and b.bit_length() < _FLOAT_BITS:
        fa = float(a)
        fb = float(b)
        v = fa + fb * SQRT2_FLOAT
        if abs(v) > (abs(fa) + 2.0 * abs(fb)) * _FILTER_ULPS:
            return 1 if v > 0 else -1
    d = a * a - 2 * b * b  # never 0: sqrt(2) is irrational and b != 0
    return (1 if d > 0 else -1) if a > 0 else (1 if d < 0 else -1)


def floor_scalar(x: Scalar) -> int:
    if isinstance(x, Sqrt2):
        return x.__floor__()
    if isinstance(x, float):
        return int(x // 1)
    return int(Fraction(x) // 1)


def ceil_scalar(x: Scalar) -> int:
    f = floor_scalar(x)
    return f if x == f else f + 1


def has_sqrt2(x: Scalar) -> bool:
    return isinstance(x, Sqrt2) and x.b != 0


def coerce(x: Scalar, mode: str) -> Scalar:
    """Bring a scalar, or its wire string, into the canonical representation of *mode*."""
    from .errors import ModeError

    if isinstance(x, str):
        x = scalar_from_string(x)
    if mode == "float":
        return float(x)
    if mode == "rational":
        if has_sqrt2(x):
            raise ModeError(f"{x!r} involves sqrt(2); schedule mode is exact-rational")
        if isinstance(x, Sqrt2):
            return x.a
        if isinstance(x, float):
            return Fraction(x).limit_denominator(10**12)
        return Fraction(x)
    if mode == "sqrt2":
        if isinstance(x, Sqrt2):
            return x
        if isinstance(x, float):
            return Sqrt2(Fraction(x).limit_denominator(10**12))
        return Sqrt2(x)
    raise ValueError(f"unknown scalar mode {mode!r}")


def close(x: Scalar, y: Scalar, mode: str) -> bool:
    """Equality test; relative tolerance ``FLOAT_RTOL`` in float mode."""
    if mode == "float":
        fx, fy = float(x), float(y)
        return abs(fx - fy) <= FLOAT_RTOL * max(1.0, abs(fx), abs(fy))
    return x == y


# -- string form: "p/q" and "p/q+p'/q'*sqrt2" ----------------------------


def scalar_to_string(x: Scalar) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Sqrt2):
        if x.b == 0:
            return str(x.a)
        return f"{x.a}+{x.b}*sqrt2"
    return str(Fraction(x))


def scalar_from_string(s: str) -> Scalar:
    s = s.strip()
    if "sqrt2" in s:
        a_str, _, rest = s.rpartition("+")
        b_str = rest.replace("*sqrt2", "")
        return Sqrt2(Fraction(a_str), Fraction(b_str))
    if "." in s or "e" in s or "inf" in s:
        return float(s)
    return Fraction(s)
