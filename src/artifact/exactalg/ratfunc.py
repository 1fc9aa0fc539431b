"""Reduced rational functions in one variable over Q(sqrt d).

A RatFunc is always kept in canonical form: numerator and denominator
coprime and the denominator monic (the zero function is 0/1).  With that
normalization, equality is structural and numerator/denominator degrees
are well defined, which the degree-comparison criteria rely on.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple, Union

from .field import QuadExt
from .upoly import UPoly, poly_gcd

Scalar = Union[int, Fraction, QuadExt]


class RatFunc:
    """A reduced rational function num/den with monic den."""

    __slots__ = ("num", "den")

    num: UPoly
    den: UPoly

    def __init__(self, num: UPoly, den: UPoly):
        if not isinstance(num, UPoly) or not isinstance(den, UPoly):
            raise TypeError("RatFunc expects UPoly numerator and denominator")
        if num.d != den.d:
            raise ValueError("numerator and denominator over different fields")
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = UPoly.zero(num.d), UPoly.one(num.d)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lead = den.lc()
            if lead != 1:
                inv = lead.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("RatFunc is immutable")

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def from_coprime(num: UPoly, den: UPoly) -> "RatFunc":
        """num/den taken as already reduced, with no gcd: the caller
        guarantees den monic and coprime to num, and den = 1 for num = 0."""
        out = object.__new__(RatFunc)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

    @staticmethod
    def from_poly(p: UPoly) -> "RatFunc":
        return RatFunc(p, UPoly.one(p.d))

    @staticmethod
    def zero(d: int) -> "RatFunc":
        return RatFunc(UPoly.zero(d), UPoly.one(d))

    @staticmethod
    def constant(c: Scalar, d: int) -> "RatFunc":
        return RatFunc(UPoly.constant(c, d), UPoly.one(d))

    # -- structure --------------------------------------------------------------

    @property
    def d(self) -> int:
        return self.num.d

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def is_constant(self) -> bool:
        return self.is_polynomial() and self.num.is_constant()

    # -- arithmetic ---------------------------------------------------------------

    def _lift(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            if other.d != self.d:
                raise ValueError("mixing rational functions over different fields")
            return other
        if isinstance(other, UPoly):
            return RatFunc.from_poly(other)
        if isinstance(other, (int, Fraction, QuadExt)):
            return RatFunc.constant(other, self.d)
        return None  # type: ignore[return-value]

    def __add__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return RatFunc(self.num * rhs.den + rhs.num * self.den, self.den * rhs.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return RatFunc(self.num * rhs.num, self.den * rhs.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        if rhs.is_zero():
            raise ZeroDivisionError("division of rational functions by zero")
        return RatFunc(self.num * rhs.den, self.den * rhs.num)

    def __rtruediv__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        return rhs / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num**n, self.den**n)

    def derivative(self) -> "RatFunc":
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def proper_parts(self) -> Tuple[UPoly, "RatFunc"]:
        """Writes self = poly + proper, with deg(proper num) < deg den."""
        q, r = divmod(self.num, self.den)
        return q, RatFunc(r, self.den)

    # -- plumbing ------------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadExt, UPoly)):
            lifted = self._lift(other)
            return self.num == lifted.num and self.den == lifted.den
        if isinstance(other, RatFunc):
            return (
                self.d == other.d
                and self.num == other.num
                and self.den == other.den
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        from ..expr import format_ratfunc

        return f"RatFunc[{format_ratfunc(self)}]"

    def __str__(self):
        from ..expr import format_ratfunc

        return format_ratfunc(self)
