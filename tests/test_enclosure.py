"""Exact arithmetic in Q(sqrt2, sqrt3, sqrt5), the number type of the bound table.

The hand-written cases pin the field's rules; the property test compares
sign, order (also against 0, an int or a Fraction, on either side),
differences, floor, ceil, inverse and float with mpmath at 80 digits.
"""

import math
from fractions import Fraction

import pytest

from hcs.field import Surd, sqrt


def sqrt2_convergents(count: int) -> list[tuple[int, int]]:
    """Convergents p/q of sqrt(2): |sqrt(2) - p/q| < 1/q^2, alternating in sign."""
    out = [(1, 1)]
    while len(out) < count:
        p, q = out[-1]
        out.append((p + 2 * q, p + q))
    return out


SQRT2_CONVERGENTS = sqrt2_convergents(64)


def near_ties(count: int) -> list[tuple[int, int]]:
    """Pairs with 2a^2 - 3b^2 = -1, so a sqrt(2) - b sqrt(3) = -1/(a sqrt(2) + b sqrt(3))."""
    out = [(1, 1)]
    while len(out) < count:  # times the unit 5 + 2 sqrt(6)
        a, b = out[-1]
        out.append((5 * a + 6 * b, 4 * a + 5 * b))
    return out


class TestSqrtEnclosure:
    def test_sqrt2_brackets(self):
        e = sqrt(2)
        assert e * e == 2
        assert Fraction(14142, 10000) < e < Fraction(14143, 10000)
        assert not e.is_rational

    def test_perfect_square_is_exact(self):
        e = sqrt(Fraction(9, 4))
        assert e == Fraction(3, 2) and e.is_rational
        assert sqrt(Fraction(8, 3)) == 2 * sqrt(6) / 3
        assert sqrt(Fraction(2, 5)) == sqrt(10) / 5

    def test_zero(self):
        assert sqrt(0) == 0 and not sqrt(0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt(-1)
        for outside in (7, 14, Fraction(1, 7)):
            with pytest.raises(ValueError, match="not in"):
                sqrt(outside)


class TestArithmetic:
    def test_order_validated(self):
        # the coordinates are unique, so equality and zero are read from them
        assert sqrt(2) + sqrt(3) != sqrt(5)
        assert (sqrt(2) + sqrt(3)) ** 2 == 5 + 2 * sqrt(6)
        assert Surd(Fraction(1, 3)) == Fraction(1, 3) and Fraction(1, 3) == Surd(Fraction(1, 3))
        assert hash(Surd(Fraction(1, 3))) == hash(Fraction(1, 3))
        assert hash(sqrt(8) / 2) == hash(sqrt(2))
        assert Surd(sqrt(2)) == sqrt(2) and Surd(0.5) == Fraction(1, 2)

    def test_add_sub(self):
        a = 1 + sqrt(2)
        assert a - sqrt(2) == 1
        assert 1 - a == -sqrt(2)
        assert Fraction(1, 2) + a - Fraction(3, 2) == sqrt(2)
        with pytest.raises(TypeError):
            a + "a"

    def test_mul_signs(self):
        # sqrt(A) sqrt(B) = (product of the common primes) sqrt(A xor B)
        assert sqrt(6) * sqrt(10) == 2 * sqrt(15)
        assert sqrt(30) * sqrt(30) == 30
        assert sqrt(15) * sqrt(6) == 3 * sqrt(10)
        assert (sqrt(2) - 1) * (sqrt(2) + 1) == 1
        assert -2 * sqrt(3) * Fraction(1, 2) == -sqrt(3)
        with pytest.raises(TypeError):
            sqrt(3) * "a"

    def test_division(self):
        a = 1 + sqrt(2) + sqrt(3) + sqrt(5)
        assert a * (1 / a) == 1
        assert (sqrt(2) + 1) / sqrt(3) == (sqrt(6) + sqrt(3)) / 3
        assert 1 / sqrt(2) == sqrt(2) / 2
        assert Fraction(1, 3) / sqrt(3) == sqrt(3) / 9
        with pytest.raises(ZeroDivisionError):
            1 / (sqrt(2) * sqrt(2) - 2)

    def test_pow(self):
        a = sqrt(2) + sqrt(3)
        assert a**0 == 1 and a**1 == a
        assert a**3 == a * a * a
        assert a**-2 * a**2 == 1
        with pytest.raises(TypeError):
            a ** "a"

    def test_contains_true_value(self):
        assert sqrt(2) * sqrt(2) == 2
        assert (1 + sqrt(5)) / 2 * ((1 + sqrt(5)) / 2 - 1) == 1  # the golden ratio


class TestComparisons:
    def test_certified_ordering(self):
        s2, s3 = sqrt(2), sqrt(3)
        assert s2 < s3 and s3 >= s2 and s3 > s2 and s2 <= s2
        assert not s2 < s2 and s2 >= s2 and not s2 > s2
        assert not s2 <= Fraction(14, 10)  # 1.4 < sqrt(2)
        assert s2 <= Fraction(15, 10)
        assert Fraction(14, 10) < s2 < 2 and 2 > s2
        assert min(s3, s2, Fraction(3, 2)) == s2
        assert abs(1 - s2) == s2 - 1
        with pytest.raises(TypeError):
            s2 < "a"
        with pytest.raises(TypeError):
            s2 <= "a"
        with pytest.raises(TypeError):
            s2 > "a"
        with pytest.raises(TypeError):
            s2 >= "a"

    def test_floor(self):
        assert math.floor(sqrt(2)) == 1
        assert math.floor(-sqrt(2)) == -2
        assert math.floor(Surd(Fraction(7, 2))) == 3
        assert math.ceil(sqrt(2)) == 2
        assert math.floor(10**20 * sqrt(2)) == 141421356237309504880

    def test_floor_ambiguous(self):
        # what an enclosure of sqrt(2)^2 could not floor is exactly 2
        assert math.floor(sqrt(2) * sqrt(2)) == 2
        assert math.floor(sqrt(3) ** 2 - 1) == 2

    def test_bound_helpers(self):
        assert float(sqrt(2)) == math.sqrt(2)
        assert float(Surd(Fraction(1, 3))) == 1 / 3
        assert str(Surd(Fraction(-3, 7))) == "-3/7"
        assert str(sqrt(10) / 6) == "1/6*sqrt(10)"
        assert str(1 - sqrt(2) + 2 * sqrt(30)) == "1 - sqrt(2) + 2*sqrt(30)"
        assert str(Surd()) == "0"
        assert repr(sqrt(2)) == "Surd(sqrt(2))"


class TestNearCancellation:
    """A sign from one evaluation at fixed precision gets these wrong."""

    def test_signs_of_tiny_differences(self):
        for p, q in SQRT2_CONVERGENTS:
            diff = sqrt(2) - Fraction(p, q)
            expected = 1 if p * p < 2 * q * q else -1
            assert (diff > 0) == (expected > 0), (p, q)
            assert (diff < 0) == (expected < 0), (p, q)
            assert math.floor(diff) == (0 if expected > 0 else -1), (p, q)
            assert math.copysign(1, float(diff)) == expected, (p, q)

    def test_two_roots_that_almost_cancel(self):
        # the rounding of both roots adds up, so no fixed precision separates these
        for a, b in near_ties(40):
            diff = a * sqrt(2) - b * sqrt(3)
            assert diff < 0 and not diff >= 0 and -diff > 0, (a, b)
            assert diff > -1 / Fraction(a) and math.floor(diff) == -1, (a, b)
            assert math.floor(7 - diff) == 7 and math.ceil(7 + diff) == 7, (a, b)
            assert float(diff * (a * sqrt(2) + b * sqrt(3))) == -1.0

    def test_floor_just_below_and_above_an_integer(self):
        p, q = SQRT2_CONVERGENTS[-1]  # |sqrt(2) - p/q| < 1e-45
        near = 5 + (sqrt(2) - Fraction(p, q))
        assert math.floor(near) == (5 if p * p < 2 * q * q else 4)
        assert math.floor(near - 2 * (sqrt(2) - Fraction(p, q))) == (4 if p * p < 2 * q * q else 5)


# --- property test against mpmath --------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import given, settings, strategies as st  # noqa: E402

RADICANDS = (1, 2, 3, 6, 5, 10, 15, 30)
small_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
elements = st.lists(small_rationals, min_size=8, max_size=8).map(
    lambda cs: sum((c * sqrt(r) for c, r in zip(cs, RADICANDS)), Surd())
)


def reference(x: Surd):
    """The value of x at 80 digits, from its coordinates in the basis sqrt(m)."""
    total = mpmath.mpf(0)
    for r, c in zip(RADICANDS, x.coords):
        total += mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(r)
    return total


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(elements, elements, small_rationals, st.integers(-3, 3))
def test_field_agrees_with_mpmath(x, y, q, n):
    with mpmath.workdps(80):
        vx, vy, vq = reference(x), reference(y), mpmath.mpf(q.numerator) / q.denominator
        sign = (vx > 0) - (vx < 0) if x else 0
        assert (x > 0, x < 0, x == 0) == (sign > 0, sign < 0, sign == 0)
        # against 0 the order reads the sign of x itself, with x on either side
        assert (x < 0, x <= 0, x > 0, x >= 0) == (sign < 0, sign <= 0, sign > 0, sign >= 0)
        assert (0 < x, 0 <= x, 0 > x, 0 >= x) == (0 < sign, 0 <= sign, 0 > sign, 0 >= sign)
        assert (x < n, x <= n, x > n, x >= n) == (vx < n, vx <= n, vx > n, vx >= n)
        assert (n < x, n <= x, n > x, n >= x) == (n < vx, n <= vx, n > vx, n >= vx)
        assert x - x == 0 and not x < x and not x > x
        for diff, value in ((x - y, vx - vy), (x - q, vx - vq), (q - x, vq - vx)):
            assert isinstance(diff, Surd) and abs(reference(diff) - value) < mpmath.mpf(10) ** -70
        assert (x < y, x <= y, x > y, x >= y) == (vx < vy, vx <= vy, vx > vy, vx >= vy)
        assert (x < q, x <= q, x > q, x >= q) == (vx < vq, vx <= vq, vx > vq, vx >= vq)
        # a Fraction on the left reaches the reflected Surd method
        assert (q < x, q <= x, q > x, q >= x) == (vq < vx, vq <= vx, vq > vx, vq >= vx)
        same = x * 3 / 3  # equal to x, computed apart
        assert (x < same, x <= same, x > same, x >= same) == (False, True, False, True)
        assert math.floor(x) == int(mpmath.floor(vx))
        assert math.ceil(x) == int(mpmath.ceil(vx))
        assert math.isclose(float(x), float(vx), rel_tol=1e-15, abs_tol=0.0)
        assert abs(reference(x * y) - vx * vy) < mpmath.mpf(10) ** -70
        if x:
            assert x * x**-1 == 1
            assert abs(reference(1 / x) - 1 / vx) < mpmath.mpf(10) ** -60 * (1 + abs(1 / vx))


def test_products_and_text_agree_with_sympy():
    # sympy multiplies radicals by its own rules and parses the printed form
    sympy = pytest.importorskip("sympy")

    def symbolic(x: Surd):
        return sum(sympy.Rational(c.numerator, c.denominator) * sympy.sqrt(r)
                   for r, c in zip(RADICANDS, x.coords))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(elements, elements)
    def check(x, y):
        assert sympy.sympify(str(x)) == symbolic(x)
        assert sympy.expand(symbolic(x) * symbolic(y)) == symbolic(x * y)

    check()
