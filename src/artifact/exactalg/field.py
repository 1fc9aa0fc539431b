"""Exact arithmetic in a quadratic number field Q(sqrt(d)).

Every element is a + b*sqrt(d) with a, b exact rationals and d a fixed
squarefree integer attached to the element.  d = 1 denotes plain Q (the
surd part must be zero there).  Elements of different fields never mix,
except that a purely rational element adapts to the other operand's field.

The module also provides the exact decision procedures the rest of the
package leans on: "is this value rational / an integer / a natural
number", "is this rational a perfect square", and "is this field element
a square inside the field" (used to split quadratics exactly).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Union

Rat = Union[int, Fraction]

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Largest |d| accepted by FieldSpec.  Squarefreeness is decided by trial
# division up to sqrt|d|, which stays under a second up to this bound.
MAX_ABS_D = 10**12


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    for p in _SMALL_PRIMES:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
    f = 41
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        while n % f == 0:
            n //= f
        f += 2
    return True


def _fraction_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a rational, or None if x is not a rational square."""
    if x < 0:
        return None
    pn = math.isqrt(x.numerator)
    if pn * pn != x.numerator:
        return None
    pd = math.isqrt(x.denominator)
    if pd * pd != x.denominator:
        return None
    return Fraction(pn, pd)


def is_rational_square(x: Union[Fraction, int, "QuadExt"]) -> bool:
    """Whether x is the square of a rational number."""
    if isinstance(x, QuadExt):
        if not x.is_rational():
            return False
        x = x.a
    return _fraction_sqrt(Fraction(x)) is not None


class QuadExt:
    """An element a + b*sqrt(d) of Q(sqrt(d)), immutable.

    Arithmetic is exact (built on fractions.Fraction).  Division by zero
    raises ZeroDivisionError.  Equality and hashing treat (a, b, d) as the
    identity; a rational element compares equal across fields with the
    same rational value only when the d's match or one side is d = 1 with
    b = 0 promoted explicitly -- in practice all values in one computation
    share a single d.
    """

    __slots__ = ("a", "b", "d")

    a: Fraction
    b: Fraction
    d: int

    def __init__(self, a: Rat = 0, b: Rat = 0, d: int = 1):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "d", int(d))
        if d == 1 and self.b != 0:
            # fold sqrt(1) = 1 into the rational part rather than erroring
            object.__setattr__(self, "a", self.a + self.b)
            object.__setattr__(self, "b", Fraction(0))

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("QuadExt is immutable")

    # -- coercion helpers -------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return other
            if other.b == 0:
                return QuadExt(other.a, 0, self.d)
            if self.b == 0:
                return other  # self will adapt via reflected path
            raise ValueError(f"mixing fields d={self.d} and d={other.d}")
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return NotImplemented  # type: ignore[return-value]

    def _same_field(self, other: "QuadExt") -> int:
        if self.d == other.d:
            return self.d
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        raise ValueError(f"mixing fields d={self.d} and d={other.d}")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._same_field(o)
        return QuadExt(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._same_field(o)
        return QuadExt(self.a - o.a, self.b - o.b, d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._same_field(o)
        return QuadExt(
            self.a * o.a + d * self.b * o.b,
            self.a * o.b + self.b * o.a,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt d)")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = QuadExt(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates and structure -------------------------------------------

    def conjugate(self) -> "QuadExt":
        """The field conjugate a - b*sqrt(d)."""
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        """a^2 - d*b^2, the product with the conjugate (a rational)."""
        return self.a * self.a - self.d * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} is irrational")
        return self.a

    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def is_natural(self) -> bool:
        """Membership in {1, 2, 3, ...}."""
        return self.is_integer() and self.a >= 1

    def is_nonneg_integer(self) -> bool:
        return self.is_integer() and self.a >= 0

    def is_nonpos_integer(self) -> bool:
        return self.is_integer() and self.a <= 0

    def sqrt(self) -> Optional["QuadExt"]:
        """An exact square root inside Q(sqrt d), or None.

        For rational x: x is a square iff x = u^2 or x = d*v^2 with u, v
        rational.  Otherwise (u + v sqrt d)^2 = x + y sqrt d forces
        u^2 = (x +- t)/2 with t = sqrt(x^2 - d y^2) rational.
        """
        if self.is_zero():
            return QuadExt(0, 0, self.d)
        if self.b == 0:
            u = _fraction_sqrt(self.a)
            if u is not None:
                return QuadExt(u, 0, self.d)
            if self.d != 1:
                v = _fraction_sqrt(self.a / self.d)
                if v is not None:
                    return QuadExt(0, v, self.d)
            return None
        t = _fraction_sqrt(self.norm())
        if t is None:
            return None
        for tt in (t, -t):
            u = _fraction_sqrt((self.a + tt) / 2)
            if u is not None and u != 0:
                v = self.b / (2 * u)
                cand = QuadExt(u, v, self.d)
                if cand * cand == self:
                    return cand
        return None

    def is_square(self) -> bool:
        return self.sqrt() is not None

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            if self.d == other.d:
                return self.a == other.a and self.b == other.b
            return self.b == 0 and other.b == 0 and self.a == other.a
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return not self.is_zero()

    def sort_key(self):
        return (self.a, self.b)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, d={self.d})"

    def __str__(self):
        from ..expr import format_scalar

        return format_scalar(self)


class FieldSpec:
    """The coefficient field Q(sqrt d), d a squarefree integer with
    |d| <= MAX_ABS_D (1 means Q)."""

    __slots__ = ("d",)

    def __init__(self, d: int = 1):
        d = int(d)
        if abs(d) > MAX_ABS_D:
            raise ValueError(f"|d| must not exceed {MAX_ABS_D}, got {d}")
        if d == 0 or not _is_squarefree(d):
            raise ValueError(f"d must be a nonzero squarefree integer, got {d}")
        object.__setattr__(self, "d", d)

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("FieldSpec is immutable")

    def __call__(self, a: Union[Rat, "QuadExt"] = 0, b: Rat = 0) -> QuadExt:
        if isinstance(a, QuadExt):
            if b:
                raise ValueError("cannot combine a QuadExt value with b != 0")
            if a.d == self.d:
                return a
            if a.b == 0:
                return QuadExt(a.a, 0, self.d)
            raise ValueError(f"cannot place sqrt({a.d}) into Q(sqrt {self.d})")
        return QuadExt(a, b, self.d)

    def surd(self) -> QuadExt:
        """The generator sqrt(d) itself."""
        return QuadExt(0, 1, self.d)

    def zero(self) -> QuadExt:
        return QuadExt(0, 0, self.d)

    def one(self) -> QuadExt:
        return QuadExt(1, 0, self.d)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and other.d == self.d

    def __hash__(self):
        return hash(("FieldSpec", self.d))

    def __repr__(self):
        return f"FieldSpec(d={self.d})"
