"""Irreducible factorization over Q(sqrt d) and quotient-ring evaluation.

Factorization is staged for speed: powers of xi are stripped first, Yun's
squarefree decomposition separates multiplicities, linear parts are
immediate, and quadratics split exactly when their discriminant is a
square in the field.  A squarefree part of degree >= 3 is first tested
with `proven_irreducible`, which proves most irreducible parts
irreducible from their factor degrees modulo a few small split primes;
only a part it cannot prove irreducible falls back to a general-purpose
factorizer (sympy, imported lazily).  The certifier factors one
polynomial per certificate, a_0 (see varcalc), whose factors carry every
pole it meets.
Evaluations "at a root" are carried out in the quotient ring K[xi]/(p)
so that conjugate roots are handled as one class and no splitting field
is ever constructed; the residues of kappa_1 are such elements, one per
class (see varcalc.omega_decompose).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .field import QuadExt
from .upoly import (
    UPoly,
    poly_gcd,
    proven_irreducible,
    squarefree_decompose,
    strip_power_of_x,
)


@dataclass(frozen=True)
class FactorClass:
    """A monic irreducible factor together with its multiplicity.

    A class of degree g stands for the g conjugate roots of its factor;
    those roots always share one multiplicity, so per-class bookkeeping
    loses nothing.
    """

    factor: UPoly
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be >= 1")


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
    return [g] if proven_irreducible(g) else _split_with_sympy(g)


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


def coprime(a: UPoly, b: UPoly) -> bool:
    return poly_gcd(a, b).is_one()
