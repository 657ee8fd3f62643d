import math
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from rank1flow import SQRT2, Sqrt2, coerce, scalar_from_string, scalar_to_string
from rank1flow.errors import ModeError, RangeError
from rank1flow.scalars import sqrt2_floordiv


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == 2


def test_conjugate_product():
    assert (1 + SQRT2) * (1 - SQRT2) == -1


def test_division_roundtrip():
    x = Sqrt2(Fraction(3, 7), Fraction(-2, 5))
    y = Sqrt2(Fraction(1, 3), Fraction(4, 9))
    assert (x / y) * y == x


def test_rational_divisor_matches_field_division():
    x = Sqrt2(Fraction(3, 7), Fraction(-2, 5))
    for d in (4, -3, Fraction(5, 6)):
        q = x / d
        assert (Fraction(q.a, q.denominator), Fraction(q.b, q.denominator)) == (
            Fraction(x.a, x.denominator) / d,
            Fraction(x.b, x.denominator) / d,
        )
        assert q == x / Sqrt2(d) and q * d == x
    with pytest.raises(ZeroDivisionError):
        x / 0


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


def pair(x):
    """x as the Fraction pair (a, b), x = a + b*sqrt 2: the form Sqrt2 held
    before its integer form, kept as the reference."""
    if isinstance(x, Sqrt2):
        return Fraction(x.a, x.denominator), Fraction(x.b, x.denominator)
    return Fraction(x), Fraction(0)


def reference_sign(x):
    """Sqrt2.sign as it was first written, by hand on the Fraction
    components (of a Sqrt2, or a Fraction pair as such); Sqrt2.sign now
    calls sqrt2_sign on the integer form."""
    a, b = x if isinstance(x, tuple) else pair(x)
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    d = a * a - 2 * b * b
    if a > 0:
        return (d > 0) - (d < 0)
    return (d < 0) - (d > 0)


def pell(n):
    """The n-th solution (p, q) of p^2 - 2 q^2 = +-1: p/q is a convergent
    of sqrt(2), so p - q*sqrt(2) is within 1/(2q) of 0."""
    p, q = 1, 1
    for _ in range(n):
        p, q = p + 2 * q, p + q
    return p, q


# components up to 1100 bits, past float range
components = st.builds(
    Fraction, st.integers(min_value=-(2**1100), max_value=2**1100), st.integers(min_value=1, max_value=2**1100)
) | st.fractions(max_denominator=10**6)


@st.composite
def pell_near_ties(draw):
    """+-(p - q*sqrt 2)*k for a Pell pair (p, q) (1393/985 at n = 8, past
    1000 bits from n = 786) and a rational k, nudged by at most one unit."""
    p, q = pell(draw(st.integers(min_value=1, max_value=900)))
    k = draw(st.fractions(max_denominator=10**4).filter(bool))
    nudge = draw(st.sampled_from([0, 0, -1, 1]))
    return Sqrt2((p + nudge) * k, -q * k)


@settings(max_examples=400, deadline=None)
@given(st.builds(Sqrt2, components, components) | pell_near_ties())
@example(Sqrt2(Fraction(99, 70), -1))
@example(Sqrt2(Fraction(-1393, 985), 1))
@example(Sqrt2(pell(800)[0], -pell(800)[1]))  # 1018 bits each
def test_sign_matches_the_fraction_sign_analysis(x):
    sign = reference_sign(x)
    assert x.sign() == sign
    assert (x < 0, x == 0, x > 0, x != 0) == (sign < 0, sign == 0, sign > 0, sign != 0)
    a, b = pair(x)
    assert x != Sqrt2(a + 1, b) and not x != Sqrt2(a, b) and x != "x"


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
    assert math.floor(Fraction(7, 2)) == 3
    assert math.ceil(Fraction(7, 2)) == 4
    assert math.ceil(Fraction(4, 2)) == 2
    assert math.ceil(SQRT2) == 2


small_ints = st.integers(min_value=-(10**6), max_value=10**6)
huge_ints = st.integers(min_value=-(2**1100), max_value=2**1100)  # past float range
any_ints = small_ints | huge_ints


@st.composite
def floor_quotients(draw):
    """(a, b, c, d) for floor((a + b sqrt 2)/(c + d sqrt 2)): any operands,
    small or past float range; a divisor of negative norm (-1 + sqrt 2,
    scaled); a rational quotient m/n (B = 0); and a Pell near tie, an
    integer k plus or minus (3 + 2 sqrt 2)**-n of the divisor."""
    kind = draw(st.sampled_from(["any", "negative_norm", "rational", "pell"]))
    c, d = draw(st.tuples(any_ints, any_ints).filter(any))
    if kind == "negative_norm":
        k = draw(any_ints.filter(bool))
        c, d = -k, k
    if kind == "rational":
        m, n = draw(any_ints), draw(small_ints.filter(bool))
        return m * c, m * d, n * c, n * d
    if kind == "pell":
        p, q = pell(draw(st.integers(min_value=1, max_value=900)))
        eps = draw(st.sampled_from([(p, -q), (-p, q)]))
        k = draw(any_ints)
        return k * c + eps[0], k * d + eps[1], c, d
    return draw(any_ints), draw(any_ints), c, d


@settings(max_examples=400, deadline=None)
@given(floor_quotients())
@example((1, 0, -1, 1))  # 1/(-1 + sqrt 2) = 1 + sqrt 2
@example((7, 0, 2, 0))
@example((-7, 0, 2, 0))
def test_exact_floor_brackets_the_quotient(operands):
    a, b, c, d = operands
    k, q = sqrt2_floordiv(a, b, c, d), Sqrt2(a, b) / Sqrt2(c, d)
    assert Sqrt2(k) <= q < Sqrt2(k + 1)
    assert math.floor(q) == k
    assert math.ceil(q) == (k if q == k else k + 1)


@pytest.mark.parametrize(
    "s",
    ["0", "5", "-3", "3/4", "-17/12", "1/2+5/3*sqrt2", "0+1*sqrt2", "-1+-2/7*sqrt2"],
)
def test_string_roundtrip(s):
    x = scalar_from_string(s)
    assert scalar_from_string(scalar_to_string(x)) == x


@pytest.mark.parametrize("s", ["1+2*sqrt2*sqrt2", "1+*sqrt22", "2*sqrt2", "1+2*sqrt2+3", "sqrt2+1*sqrt2"])
def test_malformed_sqrt2_strings_are_rejected(s):
    """Only a+b*sqrt2 is read: exactly one *sqrt2, ending the text after
    the last +."""
    with pytest.raises(ValueError):
        scalar_from_string(s)


def test_scalar_to_string_forms():
    assert scalar_to_string(Fraction(3, 4)) == "3/4"
    assert scalar_to_string(Sqrt2(Fraction(1, 2), Fraction(5, 3))) == "1/2+5/3*sqrt2"
    assert scalar_to_string(Sqrt2(7, 0)) == "7"


def test_coerce_rejects_sqrt2_in_rational_mode():
    with pytest.raises(ModeError):
        coerce(SQRT2, "rational")


def test_coerce_returns_canonical_scalars_unchanged():
    """A Fraction in rational mode and a Sqrt2 in sqrt2 mode come back as
    the same object; an int in sqrt2 mode is the Sqrt2 that Sqrt2(int)
    builds; a bool, a float and a string take the general path; the errors
    keep their messages."""
    third, root = Fraction(1, 3), Sqrt2(Fraction(1, 2), 3)
    assert coerce(third, "rational") is third and coerce(root, "sqrt2") is root
    for x in (0, 7, -12, 2**80):
        got, want = coerce(x, "sqrt2"), Sqrt2(x)
        assert type(got) is Sqrt2 and (got.a, got.b, got.denominator) == (want.a, want.b, want.denominator)
    for x, mode in ((True, "sqrt2"), (True, "rational"), (0.5, "sqrt2"), ("2/3", "rational"), (third, "sqrt2"), (Sqrt2(3, 0), "rational")):
        got = coerce(x, mode)
        assert type(got) is (Sqrt2 if mode == "sqrt2" else Fraction)
        assert got == (scalar_from_string(x) if isinstance(x, str) else x)
    with pytest.raises(ModeError, match=r"^Sqrt2\(.*\) involves sqrt\(2\); schedule mode is exact-rational$"):
        coerce(root, "rational")
    for x in (third, root, 5):
        with pytest.raises(ValueError, match="^unknown scalar mode 'decimal'$"):
            coerce(x, "decimal")


# -- the integer form against the Fraction pairs -------------------------

small_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
elements = st.builds(Sqrt2, small_fractions, small_fractions) | st.builds(Sqrt2, components, components)
rationals = st.integers(min_value=-(10**6), max_value=10**6) | small_fractions
finite_floats = st.floats(allow_nan=False, allow_infinity=False)


def reference_arithmetic(op, p, q):
    """op on Fraction pairs p = a + b*sqrt 2 and q."""
    (a, b), (c, d) = p, q
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c + 2 * b * d, a * d + b * c
    norm = c * c - 2 * d * d
    return (a * c - 2 * b * d) / norm, (b * c - a * d) / norm


def assert_canonical(x):
    assert type(x.a) is type(x.b) is type(x.denominator) is int
    assert x.denominator > 0 and math.gcd(x.a, x.b, x.denominator) == 1


OPERATORS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y, "/": lambda x, y: x / y}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(OPERATORS)), elements, elements | rationals, st.booleans())
def test_arithmetic_matches_the_fraction_pairs(op, x, y, reflected):
    """+ - * / of two elements, or of an element and an int or Fraction on
    either side, give the reference pair in canonical integer form."""
    left, right = (y, x) if reflected else (x, y)
    if op == "/" and not right:
        with pytest.raises(ZeroDivisionError):
            left / right
        return
    got = OPERATORS[op](left, right)
    assert isinstance(got, Sqrt2)
    assert_canonical(got)
    assert pair(got) == reference_arithmetic(op, pair(left), pair(right))


@settings(max_examples=100, deadline=None)
@given(elements, elements | rationals, st.integers(min_value=-(10**9), max_value=10**9).filter(bool))
def test_equal_values_have_equal_fields(x, y, k):
    """The integer form is canonical: any multiple of it normalizes back,
    and == is equality of the fields."""
    again = Sqrt2.from_ints(k * x.a, k * x.b, k * x.denominator)
    assert_canonical(again)
    assert (again.a, again.b, again.denominator) == (x.a, x.b, x.denominator) and again == x
    assert (x == y) == (pair(x) == pair(y))


@settings(max_examples=100, deadline=None)
@given(elements, finite_floats)
def test_ordering_against_a_float_at_its_exact_value(x, f):
    a, b = pair(x)
    sign = reference_sign((a - Fraction(f), b))
    assert (x < f, x <= f, x == f, x >= f, x > f, x != f) == (sign < 0, sign <= 0, sign == 0, sign >= 0, sign > 0, sign != 0)
    assert (f > x, f >= x, f == x, f <= x, f < x) == (sign < 0, sign <= 0, sign == 0, sign >= 0, sign > 0)
    assert pair(x * f) == reference_arithmetic("*", (a, b), (Fraction(f), 0))
    assert pair(f - x) == reference_arithmetic("-", (Fraction(f), 0), (a, b))


@pytest.mark.parametrize("f", [math.inf, -math.inf, math.nan])
def test_a_float_beyond_the_reals_is_a_range_error(f):
    for meet in (lambda: SQRT2 * f, lambda: f + SQRT2, lambda: f < SQRT2, lambda: SQRT2 >= f):
        with pytest.raises(RangeError):
            meet()


@settings(max_examples=100, deadline=None)
@given(elements)
def test_floor_and_ceil_bracket_the_value(x):
    k = math.floor(x)
    a, b = pair(x)
    assert reference_sign((a - k, b)) >= 0 and reference_sign((a - k - 1, b)) < 0
    assert math.ceil(x) == (k if b == 0 and a == k else k + 1)


@settings(max_examples=100, deadline=None)
@given(rationals)
def test_rational_elements_hash_and_compare_as_the_rational(q):
    x = Sqrt2(q)
    assert x == q and q == x and hash(x) == hash(q) and hash(x) == hash(Fraction(q))
    assert {q: "found"}[x] == "found" and {x: "found"}[q] == "found"
    assert x != q + 1 and x != Sqrt2(q, 1)


@settings(max_examples=100, deadline=None)
@given(elements)
def test_the_string_form_round_trips(x):
    a, b = pair(x)
    text = scalar_to_string(x)
    assert text == (str(a) if b == 0 else f"{a}+{b}*sqrt2")
    back = scalar_from_string(text)
    if b:
        assert (back.a, back.b, back.denominator) == (x.a, x.b, x.denominator)
    else:
        assert back == x and type(back) is Fraction
