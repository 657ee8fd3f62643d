import math
from fractions import Fraction
from math import isqrt

import pytest

from rank1flow import SQRT2, Sqrt2, coerce, scalar_from_string, scalar_to_string
from rank1flow.errors import ModeError
from rank1flow.scalars import ceil_scalar, floor_scalar


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == 2


def test_conjugate_product():
    assert (1 + SQRT2) * (1 - SQRT2) == -1


def test_division_roundtrip():
    x = Sqrt2(Fraction(3, 7), Fraction(-2, 5))
    y = Sqrt2(Fraction(1, 3), Fraction(4, 9))
    assert (x / y) * y == x


def test_ordering_matches_real_embedding():
    vals = [Sqrt2(0, 1), Sqrt2(1, 0), Sqrt2(3, -1), Sqrt2(-1, 1), Sqrt2(Fraction(7, 5))]
    by_exact = sorted(vals)
    by_float = sorted(vals, key=float)
    assert by_exact == by_float


def test_mixed_sign_comparison_is_exact():
    # 99/70 is a continued-fraction convergent of sqrt(2); the gap is
    # ~7e-5, far below anything float32 could see but easily exact.
    assert Fraction(99, 70) > SQRT2
    assert Fraction(99, 70) - SQRT2 < Fraction(1, 10**4)
    assert Fraction(1393, 985) < SQRT2


def test_floor_small():
    assert math.floor(SQRT2) == 1
    assert math.floor(-SQRT2) == -2
    assert math.floor(Sqrt2(3, 0)) == 3
    assert math.floor(Sqrt2(Fraction(1, 2), Fraction(1, 2))) == 1


def test_floor_huge_magnitude():
    b = 10**30
    x = Sqrt2(0, b)
    f = math.floor(x)
    assert f == isqrt(2 * b * b)
    assert f <= x < f + 1


def test_floor_huge_negative():
    x = Sqrt2(Fraction(1, 3), -(10**25))
    f = math.floor(x)
    assert f <= x < f + 1


def test_floor_ceil_helpers():
    assert floor_scalar(Fraction(7, 2)) == 3
    assert ceil_scalar(Fraction(7, 2)) == 4
    assert ceil_scalar(Fraction(4, 2)) == 2
    assert ceil_scalar(SQRT2) == 2


@pytest.mark.parametrize(
    "s",
    ["0", "5", "-3", "3/4", "-17/12", "1/2+5/3*sqrt2", "0+1*sqrt2", "-1+-2/7*sqrt2"],
)
def test_string_roundtrip(s):
    x = scalar_from_string(s)
    assert scalar_from_string(scalar_to_string(x)) == x


def test_scalar_to_string_forms():
    assert scalar_to_string(Fraction(3, 4)) == "3/4"
    assert scalar_to_string(Sqrt2(Fraction(1, 2), Fraction(5, 3))) == "1/2+5/3*sqrt2"
    assert scalar_to_string(Sqrt2(7, 0)) == "7"


def test_coerce_rejects_sqrt2_in_rational_mode():
    with pytest.raises(ModeError):
        coerce(SQRT2, "rational")
