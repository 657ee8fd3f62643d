"""Exact scalars for tower geometry.

Two modes are supported:

* ``rational`` -- plain :class:`fractions.Fraction` values,
* ``sqrt2``    -- elements a + b*sqrt(2) of the quadratic field Q(sqrt 2),
  represented by :class:`Sqrt2` with exact, sign-analysis based ordering.

All heights, widths, offsets and spacer values are scalars in one of
these modes; a schedule never mixes modes.  A float (a time, a shift, a
base length) is taken at its exact binary value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, isfinite, isqrt, lcm
from typing import Union

from .errors import ModeError, RangeError

MODES = ("rational", "sqrt2")


class Sqrt2:
    """An element a + b*sqrt(2) of Q(sqrt 2) with a, b rational.

    Ordering agrees with the real embedding and is decided exactly, by
    :func:`sqrt2_sign` on the components over their common denominator.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    # -- sign analysis ---------------------------------------------------

    def _scaled(self) -> tuple:
        """Integers (A, B, D), D > 0 the lcm of the denominators, with
        self = (A + B*sqrt 2)/D."""
        a, b = self.a, self.b
        d = lcm(a.denominator, b.denominator)
        return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d

    def sign(self) -> int:
        a, b, _ = self._scaled()
        return sqrt2_sign(a, b)

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
        if isinstance(other, (int, Fraction)):  # a rational divisor scales each component
            return Sqrt2(self.a / other, self.b / other)
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
        return sqrt2_float(*self._scaled())

    def __floor__(self):
        a, b, d = self._scaled()
        return sqrt2_floordiv(a, b, d, 0)

    def __ceil__(self):
        a, b, d = self._scaled()
        return -sqrt2_floordiv(-a, -b, d, 0)

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
FLOAT_BITS = 1000  # integers this wide convert to float without overflow


def sqrt2_sign(a: int, b: int) -> int:
    """Sign of a + b*sqrt(2) for integers a, b.

    Operands of one sign decide at once.  Mixed signs go through a float
    filter (Shewchuk's adaptive-predicate idea): the float value decides
    when it clears its rounding-error bound, otherwise, or when an operand
    is beyond float range, the exact comparison of a^2 with 2 b^2 does.
    """
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    if a.bit_length() < FLOAT_BITS and b.bit_length() < FLOAT_BITS:
        fa = float(a)
        fb = float(b)
        v = fa + fb * SQRT2_FLOAT
        if abs(v) > (abs(fa) + 2.0 * abs(fb)) * _FILTER_ULPS:
            return 1 if v > 0 else -1
    d = a * a - 2 * b * b  # never 0: sqrt(2) is irrational and b != 0
    return (1 if d > 0 else -1) if a > 0 else (1 if d < 0 else -1)


def sqrt2_sorted(pairs) -> list:
    """The distinct integer pairs (a, b) of *pairs* in increasing order of
    a + b*sqrt(2).

    A sort by float value is kept when :func:`sqrt2_sign` confirms each
    adjacent step; an order that floats cannot tell (or values beyond
    float range) is sorted by the exact sign instead.
    """
    points = set(pairs)
    try:
        out = sorted(points, key=lambda p: p[0] + p[1] * SQRT2_FLOAT)
    except OverflowError:
        out = None
    if out is None or not all(sqrt2_sign(q[0] - p[0], q[1] - p[1]) > 0 for p, q in zip(out, out[1:])):
        out = sorted(points, key=cmp_to_key(lambda p, q: sqrt2_sign(p[0] - q[0], p[1] - q[1])))
    return out


def sqrt2_float(a: int, b: int, d: int) -> float:
    """float((a + b*sqrt 2)/d) for integers a, b and d > 0.

    b*sqrt(2)/d, with b/d in lowest terms p/q, is taken as
    isqrt(2 p^2 10^40)/(q 10^20), within 10^-20/q of its value, which
    dodges catastrophic cancellation at the magnitudes we meet; the sum
    with a/d is exact and rounded once.
    """
    if b == 0:
        return a / d
    g = gcd(b, d)
    p, q = b // g, d // g
    root = isqrt(2 * p * p * 10**40)
    s = q * 10**20
    return (a * s + (root if p > 0 else -root) * d) / (d * s)


def sqrt2_floordiv(a: int, b: int, c: int, d: int) -> int:
    """floor((a + b*sqrt 2)/(c + d*sqrt 2)) for integers, (c, d) != (0, 0).

    Exact: times the conjugate the quotient is (A + B*sqrt 2)/N with N > 0,
    and for B != 0 the integer s = isqrt(2 B^2) brackets |B|*sqrt 2
    strictly between s and s + 1, so no float enters.
    """
    A, B, N = a * c - 2 * b * d, b * c - a * d, c * c - 2 * d * d
    if N < 0:
        A, B, N = -A, -B, -N
    if B == 0:
        return A // N
    s = isqrt(2 * B * B)
    return (A + s) // N if B > 0 else (A - s - 1) // N


def has_sqrt2(x: Scalar) -> bool:
    return isinstance(x, Sqrt2) and x.b != 0


def coerce(x: Scalar, mode: str) -> Scalar:
    """Bring a scalar, or its wire string, into the canonical representation of *mode*."""
    if isinstance(x, str):
        x = scalar_from_string(x)
    if mode == "rational":
        if has_sqrt2(x):
            raise ModeError(f"{x!r} involves sqrt(2); schedule mode is exact-rational")
        if isinstance(x, Sqrt2):
            return x.a
        return Fraction(x)
    if mode == "sqrt2":
        return x if isinstance(x, Sqrt2) else Sqrt2(x)
    raise ValueError(f"unknown scalar mode {mode!r}")


def exact(x: Scalar) -> Scalar:
    """x, with a float replaced by its exact binary value."""
    if isinstance(x, float):
        if not isfinite(x):
            raise RangeError(f"{x!r} is not a finite time or shift")
        return Fraction(x)
    return x


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
