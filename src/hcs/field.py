"""Exact arithmetic in the number field Q(sqrt2, sqrt3, sqrt5).

Every irrational constant of the bound table lies in this field. An
element is 8 rational coordinates over the basis sqrt(m), m = 1, 2, 3,
6, 5, 10, 15, 30; the index of sqrt(m) is the bit mask of the primes
(2, 3, 5) dividing m. They are stored as integer numerators of the
non-zero coordinates over one positive denominator, in lowest terms, so
an element has one representation. Sums, products and quotients are
exact, and zero is read from the coordinates. The sign of a non-zero
element comes from integer square-root bounds refined until they exclude
0, which always terminates. So every comparison is a proof. A comparison
forms one difference and reads its sign, and none is formed against 0.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import floor, gcd, isqrt

_RADICANDS = (1, 2, 3, 6, 5, 10, 15, 30)  # product of the primes (2, 3, 5) in each mask
# sqrt(A) * sqrt(B) = (product of the primes in A and B) * sqrt(A xor B)
_PRODUCT = tuple(tuple((a ^ b, _RADICANDS[a & b]) for b in range(8)) for a in range(8))


class Surd:
    """An element of Q(sqrt2, sqrt3, sqrt5); mixes with int and Fraction."""

    __slots__ = ("_nums", "_den")

    def __init__(self, value=0) -> None:
        """The element equal to value: a Surd, or anything Fraction accepts.

        A float is read as the decimal it prints as, so Surd(0.3) is 3/10.
        """
        if not isinstance(value, Surd):
            value = _rational(_exact(value))
        self._nums: dict[int, int] = value._nums  # basis mask -> non-zero numerator
        self._den: int = value._den

    @classmethod
    def _of(cls, nums: dict[int, int], den: int) -> "Surd":
        """The element sum(nums[m] sqrt(m)) / den, reduced to lowest terms."""
        nums = {m: a for m, a in nums.items() if a}
        if den < 0:
            nums, den = {m: -a for m, a in nums.items()}, -den
        g = gcd(den, *nums.values())
        if g > 1:
            nums, den = {m: a // g for m, a in nums.items()}, den // g
        x = object.__new__(cls)
        x._nums, x._den = nums, den
        return x

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The 8 coordinates over sqrt(1), sqrt(2), sqrt(3), sqrt(6), sqrt(5), ..., sqrt(30)."""
        return tuple(Fraction(self._nums.get(m, 0), self._den) for m in range(8))

    @property
    def is_rational(self) -> bool:
        return self._nums.keys() <= {0}

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other, sign=1):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        # self + sign * o in one pass, so a difference builds no negated copy
        d = sign * self._den
        nums = {m: a * o._den for m, a in self._nums.items()}
        for m, b in o._nums.items():
            nums[m] = nums.get(m, 0) + b * d
        return Surd._of(nums, self._den * o._den)

    __radd__ = __add__

    def __neg__(self) -> "Surd":
        return Surd._of({m: -a for m, a in self._nums.items()}, self._den)

    def __abs__(self) -> "Surd":
        return -self if self._sign() < 0 else self

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o.__add__(self, -1)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        nums: dict[int, int] = {}
        for a, x in self._nums.items():
            row = _PRODUCT[a]
            for b, y in o._nums.items():
                c, f = row[b]
                nums[c] = nums.get(c, 0) + f * x * y
        return Surd._of(nums, self._den * o._den)

    __rmul__ = __mul__

    def _inverse(self) -> "Surd":
        if not self._nums:
            raise ZeroDivisionError("division by zero in Q(sqrt2, sqrt3, sqrt5)")
        # each product with a conjugate (one prime's root negated) is fixed by
        # that automorphism, so after the conjugates over sqrt5, sqrt3 and sqrt2
        # the denominator is rational
        num, den = Surd(1), self
        for bit in (4, 2, 1):
            if any(m & bit for m in den._nums):
                conj = Surd._of({m: -a if m & bit else a for m, a in den._nums.items()}, den._den)
                num, den = num * conj, den * conj
        return Surd._of({m: a * den._den for m, a in num._nums.items()}, num._den * den._nums[0])

    def __truediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else self * o._inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o * self._inverse()

    def __pow__(self, exponent: int) -> "Surd":
        if not isinstance(exponent, int):
            return NotImplemented
        base = self._inverse() if exponent < 0 else self
        out, exponent = Surd(1), abs(exponent)
        while exponent:
            if exponent & 1:
                out = out * base
            base, exponent = base * base, exponent >> 1
        return out

    # -- order --------------------------------------------------------------

    def _brackets(self, bits: int) -> Iterator[tuple[int, int, int]]:
        """Integers lo, hi and scale with lo <= scale * self <= hi, hi - lo <= 8,
        at bits, then 2 * bits, and so on.

        scale is 2**bits times the denominator, so the brackets narrow without end.
        """
        while True:
            lo = hi = 0
            for m, a in self._nums.items():
                if m == 0:
                    lo += a << bits
                    hi += a << bits
                else:
                    t = isqrt(a * a * _RADICANDS[m] << 2 * bits)  # t <= |a| sqrt(r) 2^bits < t + 1
                    lo, hi = (lo + t, hi + t + 1) if a > 0 else (lo - t - 1, hi - t)
            yield lo, hi, self._den << bits
            bits *= 2

    def _sign(self) -> int:
        if self.is_rational:
            a = self._nums.get(0, 0)
            return (a > 0) - (a < 0)
        # a non-zero value is eventually bracketed away from 0
        for lo, hi, _ in self._brackets(32):
            if lo > 0 or hi < 0:
                return 1 if lo > 0 else -1

    def _order(signs):
        # the sign of self - other, read from self alone against 0
        def compare(self, other):
            o = _coerce(other)
            if o is None:
                return NotImplemented
            return (self.__add__(o, -1) if o._nums else self)._sign() in signs
        return compare

    # the signs of self - other for which <, <=, > and >= hold
    __lt__, __le__, __gt__, __ge__ = map(_order, ((-1,), (-1, 0), (1,), (0, 1)))
    del _order

    def __eq__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else (self._nums, self._den) == (o._nums, o._den)

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(Fraction(self._nums.get(0, 0), self._den))
        return hash((frozenset(self._nums.items()), self._den))

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __floor__(self) -> int:
        # an irrational value is eventually bracketed between integers
        for lo, hi, scale in self._brackets(0 if self.is_rational else 32):
            if lo // scale == hi // scale:
                return lo // scale

    def __ceil__(self) -> int:
        return -floor(-self)

    def __float__(self) -> float:
        if self.is_rational:
            return float(Fraction(self._nums.get(0, 0), self._den))
        # refine until the bracket is narrow relative to the value
        for lo, hi, scale in self._brackets(64):
            if (hi - lo) << 56 <= abs(lo):
                return float(Fraction(lo + hi, 2 * scale))

    # -- text ---------------------------------------------------------------

    def __str__(self) -> str:
        """Rational elements print as their Fraction does, others as a sum of roots."""
        terms = []
        for r, a in sorted((_RADICANDS[m], a) for m, a in self._nums.items()):
            x = Fraction(a, self._den)
            terms.append(str(x) if r == 1 else f"{'' if x == 1 else '-' if x == -1 else f'{x}*'}sqrt({r})")
        return " + ".join(terms).replace(" + -", " - ") if terms else "0"

    def __repr__(self) -> str:
        return f"Surd({self})"


def _rational(q: int | Fraction) -> Surd:
    x = object.__new__(Surd)
    x._nums, x._den = ({0: q.numerator} if q else {}), q.denominator
    return x


def _exact(x) -> Surd | Fraction:
    """x as a Surd or a Fraction; a float is read as the decimal it prints as."""
    if isinstance(x, Surd):
        return x
    return Fraction(repr(float(x))) if isinstance(x, float) else Fraction(x)


def _coerce(x) -> Surd | None:
    if isinstance(x, Surd):
        return x
    if isinstance(x, (int, Fraction)):
        return _rational(x)
    return None


def sqrt(q) -> Surd:
    """The square root of a non-negative rational q, which must lie in the field.

    A float is read as the decimal it prints as, so sqrt(0.3) is sqrt(3/10).
    """
    q = Fraction(_exact(q))
    if q < 0:
        raise ValueError(f"square root of the negative value {q}")
    n = q.numerator * q.denominator  # sqrt(q) = sqrt(n) / q.denominator
    for mask, r in enumerate(_RADICANDS):
        root = isqrt(n * r)
        if root * root == n * r:  # sqrt(n) = (root / r) sqrt(r)
            return Surd._of({mask: root}, r * q.denominator)
    raise ValueError(f"sqrt({q}) is not in Q(sqrt2, sqrt3, sqrt5)")
