"""Exact arithmetic in a quadratic number field Q(sqrt(d)).

Every element is (p + q*sqrt(d))/r with Python integers p, q, r in
canonical form: r >= 1, gcd(p, q, r) = 1, and q = 0 when d = 1 (plain
Q), so each value has one triple and equality compares triples.  d is a
fixed squarefree integer attached to the element.  Elements of different
fields never mix, except that a purely rational element adapts to the
other operand's field.

The module also provides the exact decision procedures the rest of the
package leans on: "is this value rational / an integer / a natural
number", "is this rational a perfect square", and "is this field element
a square inside the field" (used to split quadratics exactly).
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm
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
    """An element (p + q*sqrt(d))/r of Q(sqrt(d)), immutable.

    The rational coordinates a = p/r and b = q/r are read-only Fraction
    properties.  Division by zero raises ZeroDivisionError.  A rational
    element compares and hashes equal to the int or Fraction of the same
    value, and to a rational element of another field -- in practice all
    values in one computation share a single d.
    """

    __slots__ = ("p", "q", "r", "d")

    def __new__(cls, a: Rat = 0, b: Rat = 0, d: int = 1):
        d = int(d)
        if d == 1 and b:
            # fold sqrt(1) = 1 into the rational part rather than erroring
            a, b = Fraction(a) + Fraction(b), 0
        if type(a) is int and type(b) is int:
            # skips two Fractions: about 15 % of sweep-k9 certs_per_s
            return _make(a, b, 1, d)
        a, b = Fraction(a), Fraction(b)
        r = lcm(a.denominator, b.denominator)
        return _make(a.numerator * (r // a.denominator),
                     b.numerator * (r // b.denominator), r, d)

    def __setattr__(self, *args):  # pragma: no cover - immutability guard
        raise AttributeError("QuadExt is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.r)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.r)

    def in_field(self, d: int) -> "QuadExt":
        """This value as an element of Q(sqrt d): itself when d is already
        its field; a rational value moves to any field."""
        if self.d == d:
            return self
        if self.q:
            raise ValueError(f"cannot place sqrt({self.d}) into Q(sqrt {d})")
        return _make(self.p, 0, self.r, d)

    def _operand(self, other) -> Optional["QuadExt"]:
        """other in the result's field, or None for a non-number.  The
        result lies in the field of the irrational operand, if any."""
        if isinstance(other, QuadExt):
            if other.q and not self.q:
                return other
            return other.in_field(self.d)
        if isinstance(other, (int, Fraction)):
            return _make(other.numerator, 0, other.denominator, self.d)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if (o := self._operand(other)) is None:
            return NotImplemented
        sr, r = self.r, o.r
        if sr == r:
            return _make(self.p + o.p, self.q + o.q, r, o.d)
        return _make(self.p * r + o.p * sr, self.q * r + o.q * sr, sr * r, o.d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        if (o := self._operand(other)) is None:
            return NotImplemented
        sr, r = self.r, o.r
        if sr == r:
            return _make(self.p - o.p, self.q - o.q, r, o.d)
        return _make(self.p * r - o.p * sr, self.q * r - o.q * sr, sr * r, o.d)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if (o := self._operand(other)) is None:
            return NotImplemented
        sp, sq, p, q, d = self.p, self.q, o.p, o.q, o.d
        return _make(sp * p + d * sq * q, sp * q + sq * p, self.r * o.r, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        return _make(1, 0, 1, self.d) / self

    def __truediv__(self, other):
        if (o := self._operand(other)) is None:
            return NotImplemented
        p, q, d = o.p, o.q, o.d
        if not p and not q:
            raise ZeroDivisionError("division by zero in Q(sqrt d)")
        # r (sp + sq sqrt d)(p - q sqrt d) / (sr (p^2 - d q^2))
        sp, sq, r = self.p, self.q, o.r
        return _make(r * (sp * p - d * sq * q), r * (sq * p - sp * q),
                     self.r * (p * p - d * q * q), d)

    def __rtruediv__(self, other):
        o = self._operand(other)
        return NotImplemented if o is None else o / self

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

    def norm(self) -> Fraction:
        """a^2 - d*b^2, the product with the conjugate (a rational)."""
        p, q = self.p, self.q
        return Fraction(p * p - self.d * q * q, self.r * self.r)

    def is_zero(self) -> bool:
        return not self.p and not self.q

    def is_rational(self) -> bool:
        return not self.q

    def is_integer(self) -> bool:
        return not self.q and self.r == 1

    def is_natural(self) -> bool:
        """Membership in {1, 2, 3, ...}."""
        return self.is_integer() and self.p >= 1

    def is_nonneg_integer(self) -> bool:
        return self.is_integer() and self.p >= 0

    def is_nonpos_integer(self) -> bool:
        return self.is_integer() and self.p <= 0

    def sqrt(self) -> Optional["QuadExt"]:
        """An exact square root inside Q(sqrt d), or None.

        For rational x: x is a square iff x = u^2 or x = d*v^2 with u, v
        rational.  Otherwise (u + v sqrt d)^2 = x + y sqrt d forces
        u^2 = (x +- t)/2 with t = sqrt(x^2 - d y^2) rational.
        """
        if self.is_zero():
            return QuadExt(0, 0, self.d)
        a = self.a
        if not self.q:
            u = _fraction_sqrt(a)
            if u is not None:
                return QuadExt(u, 0, self.d)
            if self.d != 1:
                v = _fraction_sqrt(a / self.d)
                if v is not None:
                    return QuadExt(0, v, self.d)
            return None
        t = _fraction_sqrt(self.norm())
        if t is None:
            return None
        for tt in (t, -t):
            u = _fraction_sqrt((a + tt) / 2)
            if u is not None and u != 0:
                v = self.b / (2 * u)
                cand = QuadExt(u, v, self.d)
                if cand * cand == self:
                    return cand
        return None

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (not self.q and self.p == other.numerator
                    and self.r == other.denominator)
        if isinstance(other, QuadExt):
            return (self.p == other.p and self.q == other.q
                    and self.r == other.r and (self.d == other.d or not self.q))
        return NotImplemented

    def __hash__(self):
        if self.q:
            return hash((self.a, self.b, self.d))
        return hash(self.a)

    def __bool__(self):
        return bool(self.p or self.q)

    def sort_key(self):
        return (self.a, self.b)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, d={self.d})"

    def __str__(self):
        from ..expr import format_scalar

        return format_scalar(self)


_new = object.__new__
# the slot setters bypass the immutability guard; object.__setattr__
# costs about 9 % of sweep-k9 certs_per_s
_set_p, _set_q, _set_r, _set_d = (
    getattr(QuadExt, name).__set__ for name in QuadExt.__slots__
)


def _make(p: int, q: int, r: int, d: int) -> QuadExt:
    """(p + q*sqrt(d))/r in canonical form; r != 0, and q = 0 if d = 1."""
    if r != 1:
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(p, q, r)
        if g != 1:
            p, q, r = p // g, q // g, r // g
    x = _new(QuadExt)
    _set_p(x, p)
    _set_q(x, q)
    _set_r(x, r)
    _set_d(x, d)
    return x


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
            return a.in_field(self.d)
        return QuadExt(a, b, self.d)

    def surd(self) -> QuadExt:
        """The generator sqrt(d) itself."""
        return QuadExt(0, 1, self.d)

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and other.d == self.d

    def __hash__(self):
        return hash(("FieldSpec", self.d))

    def __repr__(self):
        return f"FieldSpec(d={self.d})"
