"""Bivariate polynomials P(xi, eta) over Q(sqrt d).

The representation is a tuple of univariate polynomials in xi indexed by
the power of eta (trailing zero rows stripped).  The variational pipeline
reads the rows directly: it expands P(xi, phi(xi) + w) in the normal
displacement w, in polynomials over a power of phi's denominator (see
varcalc).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple, Union

from .field import QuadExt
from .upoly import NEG_INF, Degree, UPoly

Scalar = Union[int, Fraction, QuadExt]


class BiPoly:
    """A polynomial in xi and eta, stored as eta-power rows."""

    __slots__ = ("rows", "d")

    rows: Tuple[UPoly, ...]
    d: int

    def __init__(self, rows: Iterable[UPoly] = (), d: int = 1):
        rs = list(rows)
        for r in rs:
            if not isinstance(r, UPoly):
                raise TypeError("BiPoly rows must be UPoly in xi")
            if r.d != d:
                raise ValueError("row over a different field")
        while rs and rs[-1].is_zero():
            rs.pop()
        object.__setattr__(self, "rows", tuple(rs))
        object.__setattr__(self, "d", int(d))

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("BiPoly is immutable")

    def __reduce__(self):
        return BiPoly, (self.rows, self.d)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(d: int) -> "BiPoly":
        return BiPoly((), d)

    @staticmethod
    def constant(c: Scalar, d: int) -> "BiPoly":
        return BiPoly((UPoly.constant(c, d),), d)

    @staticmethod
    def from_xi_poly(p: UPoly) -> "BiPoly":
        return BiPoly((p,), p.d)

    @staticmethod
    def var_xi(d: int) -> "BiPoly":
        return BiPoly((UPoly.x(d),), d)

    @staticmethod
    def var_eta(d: int) -> "BiPoly":
        return BiPoly((UPoly.zero(d), UPoly.one(d)), d)

    # -- structure ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.rows

    @property
    def degree_eta(self) -> Degree:
        return len(self.rows) - 1 if self.rows else NEG_INF

    def row(self, j: int) -> UPoly:
        if 0 <= j < len(self.rows):
            return self.rows[j]
        return UPoly.zero(self.d)

    # -- arithmetic -----------------------------------------------------------------

    def _check(self, other: "BiPoly") -> None:
        if self.d != other.d:
            raise ValueError("mixing polynomials over different fields")

    def _lift(self, other):
        if isinstance(other, BiPoly):
            self._check(other)
            return other
        if isinstance(other, UPoly):
            return BiPoly.from_xi_poly(other)
        if isinstance(other, (int, Fraction, QuadExt)):
            return BiPoly.constant(other, self.d)
        return None

    def __add__(self, other):
        rhs = self._lift(other)
        if rhs is None:
            return NotImplemented
        n = max(len(self.rows), len(rhs.rows))
        return BiPoly([self.row(j) + rhs.row(j) for j in range(n)], self.d)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly([-r for r in self.rows], self.d)

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
        if self.is_zero() or rhs.is_zero():
            return BiPoly.zero(self.d)
        out = [UPoly.zero(self.d)] * (len(self.rows) + len(rhs.rows) - 1)
        for i, a in enumerate(self.rows):
            if a.is_zero():
                continue
            for j, b in enumerate(rhs.rows):
                out[i + j] = out[i + j] + a * b
        return BiPoly(out, self.d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = BiPoly.constant(1, self.d)
        for bit in bin(n)[2:]:  # left to right: no square past the last bit
            result = result * result * self if bit == "1" else result * result
        return result

    # -- plumbing -----------------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, QuadExt, UPoly)):
            other = self._lift(other)
        if isinstance(other, BiPoly):
            return self.d == other.d and self.rows == other.rows
        return NotImplemented

    def __hash__(self):
        return hash((self.d, self.rows))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        from ..expr import format_bipoly

        return f"BiPoly[{format_bipoly(self)}]"

    def __str__(self):
        from ..expr import format_bipoly

        return format_bipoly(self)
