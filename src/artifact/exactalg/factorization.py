"""Irreducible factorization over Q(sqrt d), quotient-ring evaluation,
and full partial-fraction decomposition.

Factorization is staged for speed: powers of xi are stripped first, Yun's
squarefree decomposition separates multiplicities, linear parts are
immediate, and quadratics split exactly when their discriminant is a
square in the field; only a squarefree part of degree >= 3 falls back to
a general-purpose factorizer (imported lazily).  The certifier factors
one polynomial per certificate, a_0 (see varcalc), whose factors carry
every pole it meets.
Evaluations "at a root" are carried out in the quotient ring K[xi]/(p)
so that conjugate roots are handled as one class and no splitting field
is ever constructed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .field import QuadExt
from .ratfunc import RatFunc
from .upoly import (
    UPoly,
    inverse_mod,
    poly_gcd,
    squarefree_decompose,
    strip_power_of_x,
)


class FactorClass:
    """A monic irreducible factor together with its multiplicity.

    A class of degree g stands for the g conjugate roots of its factor;
    those roots always share one multiplicity, so per-class bookkeeping
    loses nothing.
    """

    __slots__ = ("factor", "multiplicity")

    factor: UPoly
    multiplicity: int

    def __init__(self, factor: UPoly, multiplicity: int):
        if multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "multiplicity", int(multiplicity))

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("FactorClass is immutable")

    @property
    def degree(self) -> int:
        return int(self.factor.degree)

    def __iter__(self):
        return iter((self.factor, self.multiplicity))

    def __eq__(self, other):
        if isinstance(other, FactorClass):
            return (
                self.factor == other.factor
                and self.multiplicity == other.multiplicity
            )
        if isinstance(other, tuple) and len(other) == 2:
            return self.factor == other[0] and self.multiplicity == other[1]
        return NotImplemented

    def __hash__(self):
        return hash((self.factor, self.multiplicity))

    def __repr__(self):
        return f"FactorClass({self.factor!r}, {self.multiplicity})"


def _split_quadratic(g: UPoly) -> List[UPoly]:
    """Monic irreducible factors of a monic quadratic over the field.

    Roots are (-b +- sqrt(disc))/2; they lie in Q(sqrt d) exactly when the
    discriminant is a square there.
    """
    b, c = g.coeff(1), g.coeff(0)
    disc = b * b - 4 * c
    root_disc = disc.sqrt()
    if root_disc is None:
        return [g]
    half = Fraction(1, 2)
    r1 = (-b + root_disc) * half
    r2 = (-b - root_disc) * half
    factors = [UPoly([-r1, 1], g.d), UPoly([-r2, 1], g.d)]
    factors.sort(key=lambda p: p.sort_key())
    return factors


def _split_with_sympy(g: UPoly) -> List[UPoly]:
    """Factor a monic squarefree polynomial of degree >= 3 exactly.

    Delegates to sympy over the algebraic field QQ(sqrt d); coefficients
    are mapped back to exact QuadExt values.  Imported lazily because the
    staged cheap paths cover the common denominators.
    """
    import sympy

    x = sympy.Symbol("x")
    d = g.d
    surd = sympy.sqrt(d) if d != 1 else None

    def to_sympy(c: QuadExt):
        a = sympy.Rational(c.a.numerator, c.a.denominator)
        if c.b == 0:
            return a
        return a + sympy.Rational(c.b.numerator, c.b.denominator) * surd

    def from_sympy(expr) -> QuadExt:
        expr = sympy.expand(expr)
        if d == 1:
            rat = sympy.Rational(expr)
            return QuadExt(Fraction(rat.p, rat.q), 0, d)
        b_part = sympy.expand(expr.coeff(surd))
        a_part = sympy.expand(expr - b_part * surd)
        if not (a_part.is_Rational and b_part.is_Rational):
            raise ValueError(f"coefficient {expr} not in the working field")
        return QuadExt(
            Fraction(a_part.p, a_part.q), Fraction(b_part.p, b_part.q), d
        )

    expr = sympy.Add(*[to_sympy(c) * x**i for i, c in enumerate(g.coeffs)])
    if surd is not None:
        _, factors = sympy.factor_list(expr, x, extension=surd)
    else:
        _, factors = sympy.factor_list(expr, x)
    out: List[UPoly] = []
    for fct, mult in factors:
        coeffs = sympy.Poly(fct, x).all_coeffs()[::-1]
        p = UPoly([from_sympy(c) for c in coeffs], d).monic()
        out.extend([p] * mult)
    out.sort(key=lambda p: p.sort_key())
    return out


def _split_squarefree(g: UPoly) -> List[UPoly]:
    """Monic irreducible factors of a monic squarefree polynomial."""
    deg = g.degree
    if deg <= 0:
        return []
    if deg == 1:
        return [g]
    if deg == 2:
        return _split_quadratic(g)
    return _split_with_sympy(g)


def factor_irreducible(a: UPoly) -> List[FactorClass]:
    """Monic irreducible factorization over Q(sqrt d).

    a = lc(a) * prod p_c^{m_c} with each p_c monic irreducible over the
    field and the classes pairwise distinct, sorted canonically.
    Constant or zero input is rejected.
    """
    if a.is_zero() or a.degree < 1:
        raise ValueError("factorization requires degree >= 1")
    classes: List[FactorClass] = []
    v, rest = strip_power_of_x(a)
    if v > 0:
        classes.append(FactorClass(UPoly.x(a.d), v))
    if rest.degree >= 1:
        for part, mult in squarefree_decompose(rest):
            for p in _split_squarefree(part):
                classes.append(FactorClass(p, mult))
    classes.sort(key=lambda c: c.factor.sort_key())
    return classes


def eval_mod(a: UPoly, p: UPoly) -> UPoly:
    """The canonical representative of a modulo p (deg < deg p).

    The result is a rational constant exactly when a takes the same
    rational value at every conjugate root of p.
    """
    if p.is_zero() or p.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    if not p.is_monic():
        raise ValueError("modulus must be monic")
    return a % p


def ratfunc_eval_mod(f: RatFunc, p: UPoly) -> UPoly:
    """f evaluated in the quotient ring K[xi]/(p); den must be a unit mod p."""
    den_inv = inverse_mod(f.den, p)
    return eval_mod(f.num * den_inv, p)


def constant_eval_mod(f: RatFunc, p: UPoly) -> Optional[QuadExt]:
    """The value of f at the roots of p, when that value is one constant.

    Returns None when f takes different values on conjugate roots (the
    residue class is a non-constant element of the quotient ring).
    """
    rep = ratfunc_eval_mod(f, p)
    if rep.degree > 0:
        return None
    return rep.coeff(0)


class PFTerm:
    """One partial-fraction term numerator/factor^order, deg num < deg factor."""

    __slots__ = ("factor", "order", "numerator")

    def __init__(self, factor: UPoly, order: int, numerator: UPoly):
        object.__setattr__(self, "factor", factor)
        object.__setattr__(self, "order", int(order))
        object.__setattr__(self, "numerator", numerator)

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("PFTerm is immutable")

    def as_ratfunc(self) -> RatFunc:
        return RatFunc(self.numerator, self.factor**self.order)

    def __iter__(self):
        return iter((self.factor, self.order, self.numerator))

    def __eq__(self, other):
        if isinstance(other, PFTerm):
            other = tuple(other)
        if isinstance(other, tuple) and len(other) == 3:
            return (
                self.factor == other[0]
                and self.order == other[1]
                and self.numerator == other[2]
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.factor, self.order, self.numerator))

    def __repr__(self):
        return f"PFTerm({self.factor!r}, {self.order}, {self.numerator!r})"


class PartialFractions:
    """f = poly_part + sum of terms num/(p^order), fully split over the field."""

    __slots__ = ("poly_part", "terms")

    poly_part: UPoly
    terms: Tuple[PFTerm, ...]

    def __init__(self, poly_part: UPoly, terms: Sequence[PFTerm]):
        object.__setattr__(self, "poly_part", poly_part)
        object.__setattr__(self, "terms", tuple(terms))

    def __setattr__(self, *args):  # pragma: no cover
        raise AttributeError("PartialFractions is immutable")

    def recombine(self) -> RatFunc:
        acc = RatFunc.from_poly(self.poly_part)
        for term in self.terms:
            acc = acc + term.as_ratfunc()
        return acc

    def __repr__(self):
        return f"PartialFractions({self.poly_part!r}, {list(self.terms)!r})"


def partial_fractions(
    f: RatFunc, classes: Sequence[FactorClass]
) -> PartialFractions:
    """Full partial-fraction decomposition over Q(sqrt d).

    classes is the irreducible factorization of f's denominator.  Each
    class component is extracted by inverting the cofactor modulo p^m and
    then expanded into p-adic digits, so every term numerator has degree
    below the degree of its factor.
    """
    poly_part, proper = f.proper_parts()
    if proper.is_zero():
        return PartialFractions(poly_part, [])
    num, den = proper.num, proper.den
    terms: List[PFTerm] = []
    for cls in classes:
        p, m = cls.factor, cls.multiplicity
        pm = p**m
        cofactor = den.exact_div(pm)
        component = (num % pm) * inverse_mod(cofactor % pm, pm) % pm
        digits: List[UPoly] = []
        r = component
        for _ in range(m):
            r, digit = divmod(r, p)
            digits.append(digit)
        for j, digit in enumerate(digits):
            if not digit.is_zero():
                terms.append(PFTerm(p, m - j, digit))
    terms.sort(key=lambda t: (t.factor.sort_key(), t.order))
    return PartialFractions(poly_part, terms)


def coprime(a: UPoly, b: UPoly) -> bool:
    return poly_gcd(a, b).is_one()
