"""Exact scalars for tower geometry.

Two modes are supported:

* ``rational`` -- plain :class:`fractions.Fraction` values,
* ``sqrt2``    -- elements of the quadratic field Q(sqrt 2), represented by
  :class:`Sqrt2` as the ints (a, b, denominator) of
  (a + b*sqrt 2)/denominator in lowest terms, with exact, sign-analysis
  based ordering.

All heights, widths, offsets and spacer values are scalars in one of
these modes; a schedule never mixes modes.  A float (a time, a shift, a
base length) is taken at its exact binary value, also where it meets a
:class:`Sqrt2`.  ``Sqrt2`` arithmetic runs on ints alone; a ``Fraction``
appears only at the boundary (rational components in, the rational
mode, the string form and the hash of a rational value).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, isfinite, isqrt, lcm
from operator import ge, gt, le, lt
from typing import Union

from .errors import ModeError, RangeError

MODES = ("rational", "sqrt2")


def _form(x):
    """The integer form (a, b, d) of a scalar x, a float at its exact
    binary value; None when x is no scalar."""
    if isinstance(x, Sqrt2):
        return x.a, x.b, x.denominator
    if isinstance(x, float):
        x = exact(x)
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator
    return None


def _operators(op):
    """The forward and reflected :class:`Sqrt2` methods of *op*, a binary
    operation on integer forms (the pattern of :mod:`fractions`)."""

    def forward(self, other):
        o = _form(other)
        return NotImplemented if o is None else op((self.a, self.b, self.denominator), o)

    def reflected(self, other):
        o = _form(other)
        return NotImplemented if o is None else op(o, (self.a, self.b, self.denominator))

    return forward, reflected


def _comparison(test):
    """A :class:`Sqrt2` comparison: *test* of the sign of self - other against 0."""

    def compare(self, other):
        o = _form(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        d = self.denominator
        return test(sqrt2_sign(self.a * f - c * d, self.b * f - e * d), 0)

    return compare


def _add(x, y):
    (a, b, d), (c, e, f) = x, y
    return Sqrt2.from_ints(a * f + c * d, b * f + e * d, d * f)


def _sub(x, y):
    (a, b, d), (c, e, f) = x, y
    return Sqrt2.from_ints(a * f - c * d, b * f - e * d, d * f)


def _mul(x, y):
    (a, b, d), (c, e, f) = x, y
    return Sqrt2.from_ints(a * c + 2 * b * e, a * e + b * c, d * f)


def _div(x, y):
    """x/y, times the conjugate of y's numerator."""
    (a, b, d), (c, e, f) = x, y
    norm = c * c - 2 * e * e
    if norm == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt 2)")
    return Sqrt2.from_ints(f * (a * c - 2 * b * e), f * (b * c - a * e), d * norm)


class Sqrt2:
    """An element (a + b*sqrt 2)/denominator of Q(sqrt 2), held as ints in
    lowest terms: denominator > 0 and gcd(a, b, denominator) = 1, the form
    of a lattice pair over its scale.  The form is canonical, so ``==``
    compares the fields; ordering agrees with the real embedding and is
    decided exactly, by :func:`sqrt2_sign` of cross-multiplied integers.
    ``Sqrt2(a, b)`` takes rational components, the value a + b*sqrt(2).
    """

    __slots__ = ("a", "b", "denominator")

    def __init__(self, a=0, b=0):
        a, b = Fraction(a), Fraction(b)
        d = lcm(a.denominator, b.denominator)
        self.a, self.b = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
        self.denominator = d

    @classmethod
    def from_ints(cls, a: int, b: int, d: int) -> Sqrt2:
        """(a + b*sqrt 2)/d for ints a, b and d != 0, in lowest terms."""
        g = gcd(a, b, d)
        if d < 0:
            g = -g
        x = cls.__new__(cls)
        x.a, x.b, x.denominator = a // g, b // g, d // g
        return x

    def sign(self) -> int:
        return sqrt2_sign(self.a, self.b)

    __add__, __radd__ = _operators(_add)
    __sub__, __rsub__ = _operators(_sub)
    __mul__, __rmul__ = _operators(_mul)
    __truediv__, __rtruediv__ = _operators(_div)
    __lt__ = _comparison(lt)
    __le__ = _comparison(le)
    __gt__ = _comparison(gt)
    __ge__ = _comparison(ge)

    def __neg__(self):
        return Sqrt2.from_ints(-self.a, -self.b, self.denominator)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __eq__(self, other):
        o = _form(other)
        return NotImplemented if o is None else (self.a, self.b, self.denominator) == o

    def __hash__(self):
        if self.b == 0:  # as the int or Fraction it equals
            return hash(Fraction(self.a, self.denominator))
        return hash((self.a, self.b, self.denominator))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __float__(self):
        return sqrt2_float(self.a, self.b, self.denominator)

    def __floor__(self):
        return sqrt2_floordiv(self.a, self.b, self.denominator, 0)

    def __ceil__(self):
        return -sqrt2_floordiv(-self.a, -self.b, self.denominator, 0)

    def __repr__(self):
        a, b = Fraction(self.a, self.denominator), Fraction(self.b, self.denominator)
        return f"Sqrt2({a})" if self.b == 0 else f"Sqrt2({a}, {b})"


SQRT2 = Sqrt2(0, 1)

Scalar = Union[int, Fraction, Sqrt2, float]

SQRT2_FLOAT = 1.4142135623730951
# float(a) + float(b) * SQRT2_FLOAT is within 2**-53 * (2 |a| + 6 |b|) of
# a + b*sqrt(2); the filter's threshold (|a| + 2 |b|) * 2**-50 is over
# twice that.
_FILTER_ULPS = 2.0**-50
FLOAT_BITS = 1000  # integers this wide convert to float without overflow
FLOAT_EXACT = 2**53  # every int below it is an exact float


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
    """Bring a scalar, or its wire string, into the canonical representation
    of *mode*; a float is taken at its exact binary value, and a scalar
    already canonical (a Fraction in rational mode, a Sqrt2 in sqrt2 mode)
    comes back as it is."""
    kind = type(x)
    if kind is Fraction and mode == "rational" or kind is Sqrt2 and mode == "sqrt2":
        return x  # already canonical
    if kind is int and mode == "sqrt2":
        return Sqrt2.from_ints(x, 0, 1)
    x = exact(scalar_from_string(x) if isinstance(x, str) else x)
    if mode == "rational":
        if has_sqrt2(x):
            raise ModeError(f"{x!r} involves sqrt(2); schedule mode is exact-rational")
        return Fraction(x.a, x.denominator) if isinstance(x, Sqrt2) else Fraction(x)
    if mode == "sqrt2":
        return x if isinstance(x, Sqrt2) else Sqrt2(x)
    raise ValueError(f"unknown scalar mode {mode!r}")


def to_float(x: Scalar, what: str) -> float:
    """float(x); a value past float range raises a RangeError naming *what*."""
    try:
        return float(x)
    except OverflowError:
        raise RangeError(f"{what} = {scalar_to_string(x)} is past float range") from None


def exact(x: Scalar) -> Scalar:
    """x, with a float replaced by its exact binary value."""
    if isinstance(x, float):
        if not isfinite(x):
            raise RangeError(f"{x!r} is not a finite scalar")
        return Fraction(x)
    return x


# -- string form: "p/q" and "p/q+p'/q'*sqrt2" ----------------------------


def scalar_to_string(x: Scalar) -> str:
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Sqrt2):
        a = Fraction(x.a, x.denominator)
        return str(a) if x.b == 0 else f"{a}+{Fraction(x.b, x.denominator)}*sqrt2"
    return str(Fraction(x))


def scalar_from_string(s: str) -> Scalar:
    s = s.strip()
    if "sqrt2" in s:
        a_str, _, b_str = s.rpartition("+")
        if not b_str.endswith("*sqrt2") or s.count("sqrt2") != 1:
            raise ValueError(f"{s!r} is not of the form a+b*sqrt2")
        return Sqrt2(Fraction(a_str), Fraction(b_str[: -len("*sqrt2")]))
    if "." in s or "e" in s or "inf" in s:
        return float(s)
    return Fraction(s)
