"""Variational data along a rational invariant curve.

A planar polynomial system (P, Q) induces the foliation d(eta)/d(xi) =
Q/P away from P = 0.  Along an integral curve eta = phi(xi), the
solution displacement w = eta - phi(xi) satisfies w' = R(xi, phi + w),
and the Taylor coefficients of the right-hand side in w,

    kappa_k(xi) = k! * [w^k] R(xi, phi(xi) + w),

are exact rational functions.  kappa_1 drives the first-order equation
Omega' = kappa_1 * Omega; its solution decomposes as Omega =
e^{E(xi)} * prod_c p_c(xi)^{r_c} with a rational exponential part E and
one residue r_c per irreducible pole class of kappa_1.

The expansion runs in polynomials.  With phi = u/v and D the largest
eta-degree of P and Q, v^D * P(xi, phi + w) = sum_k a_k w^k with
polynomial coefficients a_k (and b_k likewise for Q), and the series
r = sum_n r_n w^n of Q/P obeys r_n = (b_n - sum_{i>=1} a_i r_{n-i}) / a_0.
By induction the denominator of r_n divides a_0^(n+1): every pole of
every kappa_k is a root of the one polynomial a_0, so a_0 is factored
once and each r_n is carried as a numerator over a product of a_0's
irreducible factors, with one exponent per factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from typing import List, Optional, Sequence, Tuple

from .exactalg import (
    BiPoly,
    FactorClass,
    FieldSpec,
    QuadExt,
    RatFunc,
    UPoly,
    eval_mod,
    factor_irreducible,
    inverse_mod,
)


class InvalidInputError(ValueError):
    """An order bound out of range or a curve that is not an integral
    curve; every other ValueError of the pipeline is an internal fault."""


class CurveInSingularLocusError(InvalidInputError):
    """The curve lies inside P = 0, so the foliation is undefined on it."""


@dataclass(frozen=True)
class PlanarSystem:
    """The polynomial system xi' = P(xi, eta), eta' = Q(xi, eta)."""

    P: BiPoly
    Q: BiPoly
    field: FieldSpec
    label: str = ""

    def __post_init__(self):
        if self.P.is_zero():
            raise ValueError("P must be nonzero (the foliation Q/P must exist)")
        if self.P.d != self.field.d or self.Q.d != self.field.d:
            raise ValueError("P, Q and the field disagree on d")


@dataclass(frozen=True)
class CurveData:
    """The candidate integral curve eta = phi(xi)."""

    phi: RatFunc


# A term of the series of Q/P: a numerator over prod_f f^e, one exponent
# per irreducible factor f of a_0 (in the order of VariationalData.a0).
Term = Tuple[UPoly, Tuple[int, ...]]


@dataclass(frozen=True)
class VariationalData:
    """kappa_1..kappa_K for one system and curve, each reduced, with the
    irreducible pole classes of each.

    Only the order-0 data is computed at construction; kappa_k is
    expanded the first time it is asked for, and the recurrence state is
    kept, so a caller that stops at order k never pays for the orders
    above k.

    r_n is kept as M_n / prod_f f^e_f over the factors f of a_0 =
    lead * prod_f f^m_f, with M_n coprime to every f of positive
    exponent.  A step brings b_n and the terms a_i * r_{n-i} to the
    denominator prod_f f^E_f, E_f the largest exponent among them, and
    divides the sum by a_0, which gives exponents E_f + m_f.  Then f is
    divided out of the numerator while it divides it, at most E_f + m_f
    times (the valuation cap: a factor at exponent 0 is no pole, however
    often it divides the numerator).  What is left is coprime to every
    remaining f and the denominator holds only those f, so the fraction
    is reduced without a gcd, and its exponents are kappa_n's pole
    classes.
    """

    system: PlanarSystem
    curve: CurveData
    K: int
    # w^k coefficients of v^D * P and v^D * Q along the curve,
    # k = 0..min(K, deg_eta)
    a_series: Tuple[UPoly, ...] = field(repr=False, compare=False)
    b_series: Tuple[UPoly, ...] = field(repr=False, compare=False)
    # the irreducible factorization of a_0 = a_series[0] and its lead
    a0: Tuple[FactorClass, ...] = field(repr=False, compare=False)
    a0_lead: QuadExt = field(repr=False, compare=False)
    # [w^n] Q/P for n = 0..top and kappa_1..kappa_top, top the highest
    # order expanded so far
    r_series: List[Term] = field(repr=False, compare=False)
    kappas: List[RatFunc] = field(repr=False, compare=False)

    def kappa(self, k: int) -> RatFunc:
        if not 1 <= k <= self.K:
            raise IndexError(f"order {k} outside 1..{self.K}")
        a, r = self.a_series, self.r_series
        while len(r) <= k:
            n = len(r)
            terms: List[Term] = []
            if n < len(self.b_series) and not self.b_series[n].is_zero():
                terms.append((self.b_series[n], (0,) * len(self.a0)))
            # a_i = 0 for i > deg_eta P: those terms drop out
            for i in range(1, min(n, len(a) - 1) + 1):
                num, exps = r[n - i]
                if not a[i].is_zero() and not num.is_zero():
                    terms.append((-(a[i] * num), exps))
            num, exps = _over_a0(self.a0, self.a0_lead, terms, a[0].d)
            r.append((num, exps))
            den = UPoly.one(num.d)
            for cls, e in zip(self.a0, exps):
                den = den * cls.factor**e
            self.kappas.append(RatFunc.from_coprime(num * factorial(n), den))
        return self.kappas[k - 1]

    def classes(self, k: int) -> Tuple[FactorClass, ...]:
        """The irreducible pole classes of kappa_k, sorted canonically."""
        self.kappa(k)
        return tuple(
            FactorClass(cls.factor, e)
            for cls, e in zip(self.a0, self.r_series[k][1]) if e > 0
        )


def _over_a0(
    a0: Sequence[FactorClass], lead: QuadExt, terms: Sequence[Term], d: int
) -> Term:
    """(sum of terms) / a_0, reduced by valuations, for a_0 = lead *
    prod_f f^m_f (see VariationalData)."""
    top = [max((e[j] for _, e in terms), default=0) for j in range(len(a0))]
    acc = UPoly.zero(d)
    for num, exps in terms:
        for cls, e, t in zip(a0, exps, top):
            if t > e:
                num = num * cls.factor ** (t - e)
        acc = acc + num
    if acc.is_zero():
        return acc, (0,) * len(a0)
    acc = acc.scale(lead.inverse())
    out: List[int] = []
    for cls, t in zip(a0, top):
        e = t + cls.multiplicity
        while e > 0:
            q, rem = divmod(acc, cls.factor)
            if not rem.is_zero():
                break
            acc, e = q, e - 1
        out.append(e)
    return acc, tuple(out)


def _along_curve(
    p: BiPoly, upow: List[UPoly], vpow: List[UPoly], order: int
) -> Tuple[UPoly, ...]:
    """The w^k coefficients a_k, k = 0..order, of v^D * p(xi, u/v + w):
    a_k = v^k * sum_{j>=k} C(j, k) * row_j * u^(j-k) * v^(D-j), with
    D = len(vpow) - 1 >= deg_eta p."""
    D = len(vpow) - 1
    out: List[UPoly] = []
    for k in range(order + 1):
        acc = UPoly.zero(p.d)
        for j in range(k, len(p.rows)):
            row, u = p.rows[j], upow[j - k]
            if not row.is_zero() and not u.is_zero():
                acc = acc + row * u * vpow[D - j] * comb(j, k)
        out.append(acc * vpow[k])
    return tuple(out)


def kappa_coefficients(
    sys: PlanarSystem, curve: CurveData, K: int
) -> VariationalData:
    """Expand R = Q/P along the curve: kappa_k = k! [w^k] R(xi, phi + w).

    v^D * P and v^D * Q are expanded exactly in the normal displacement
    w, in polynomials; the series of P is inverted order by order, which
    is valid because P does not vanish identically on the curve
    (a_0 != 0).  The curve is integral iff [w^0] of Q/P is phi' =
    (u'v - uv')/v^2, that is iff b_0 * v^2 = (u'v - uv') * a_0.

    Only that order-0 work, and the one factorization of a_0, runs here,
    so bad input fails at once; the returned VariationalData expands
    kappa_k when kappa(k) is first called.
    """
    if K < 1:
        raise InvalidInputError("K must be >= 1")
    u, v = curve.phi.num, curve.phi.den
    D = max(sys.P.degree_eta, sys.Q.degree_eta, 0)
    upow, vpow = [UPoly.one(u.d)], [UPoly.one(v.d)]
    for _ in range(D):
        upow.append(upow[-1] * u)
        vpow.append(vpow[-1] * v)
    a = _along_curve(sys.P, upow, vpow, min(K, sys.P.degree_eta))
    b = _along_curve(sys.Q, upow, vpow, min(K, max(sys.Q.degree_eta, 0)))
    a0 = a[0]
    if a0.is_zero():
        raise CurveInSingularLocusError(
            "P vanishes identically on the curve"
        )
    if b[0] * v * v != (u.derivative() * v - u * v.derivative()) * a0:
        raise InvalidInputError(
            "eta = phi(xi) is not an integral curve of the system"
        )
    classes = tuple(factor_irreducible(a0)) if a0.degree >= 1 else ()
    r0 = _over_a0(classes, a0.lc(), [(b[0], (0,) * len(classes))], a0.d)
    return VariationalData(
        system=sys,
        curve=curve,
        K=K,
        a_series=a,
        b_series=b,
        a0=classes,
        a0_lead=a0.lc(),
        r_series=[r0],
        kappas=[],
    )


@dataclass(frozen=True)
class ResidueEntry:
    """The residue of kappa_1 on one irreducible pole class.

    The residue is stored as an element of K[xi]/(p): a polynomial
    representative of degree < deg p.  It is one number exactly when the
    representative is constant; otherwise the conjugate roots of p carry
    distinct (necessarily irrational) residues.
    """

    cls: FactorClass
    residue: UPoly

    def constant_value(self) -> Optional[QuadExt]:
        if self.residue.degree > 0:
            return None
        return self.residue.coeff(0)

    def is_rational_number(self) -> bool:
        value = self.constant_value()
        return value is not None and value.is_rational()


@dataclass(frozen=True)
class OmegaData:
    """Omega = e^{E} * prod p_c^{r_c}, plus the regularity flag.

    E carries the polynomial part and all pole orders >= 2 of the
    antiderivative of kappa_1 (zero-constant normalization); the residues
    carry the order-1 pole data.  regular_at_infinity records
    deg kappa_1_den > deg kappa_1_num.
    """

    kappa1: RatFunc
    exp_part: RatFunc
    residues: Tuple[ResidueEntry, ...]
    regular_at_infinity: bool

    def reconstruct(self) -> RatFunc:
        """E' + sum_c (r_c * p_c' mod p_c)/p_c; must equal kappa_1."""
        acc = self.exp_part.derivative()
        for entry in self.residues:
            p = entry.cls.factor
            acc = acc + RatFunc(
                eval_mod(entry.residue * p.derivative(), p), p
            )
        return acc


def omega_decompose(
    kappa1: RatFunc, classes: Sequence[FactorClass]
) -> OmegaData:
    """Split the antiderivative of kappa_1 into exponential and log data.

    classes is the irreducible factorization of kappa_1's denominator
    (VariationalData.classes(1)).  The polynomial part of kappa_1
    integrates into E.  At a class p of multiplicity m, kappa_1 = A/p^m
    plus terms regular at the roots of p, with A = kappa_1n *
    (kappa_1d/p^m)^(-1) mod p^m.  While m >= 2, A = v*p' + u*p with v =
    A*t mod p, t = p'^(-1) mod p; since int(v*p'/p^m) = -v/((m-1)
    p^(m-1)) + int(v'/((m-1) p^(m-1))), the first term goes into E and A
    becomes u + v'/(m-1) over p^(m-1).  The simple pole left has the
    class residue A*t in K[xi]/(p); a zero residue gets no entry.
    """
    num, den = kappa1.num, kappa1.den
    exp_part = RatFunc.from_poly((num // den).antiderivative())
    residues: List[ResidueEntry] = []
    for cls in classes:
        p, m = cls.factor, cls.multiplicity
        pm, dp = p**m, p.derivative()
        A = num % pm * inverse_mod(den.exact_div(pm), pm) % pm
        t = inverse_mod(dp, p)
        for i in range(m - 1, 0, -1):
            v, inv = A * t % p, Fraction(1, i)
            exp_part = exp_part - RatFunc(v.scale(inv), p**i)
            A = (A - v * dp).exact_div(p) + v.derivative().scale(inv)
        residue = A * t % p
        if not residue.is_zero():
            residues.append(ResidueEntry(cls=cls, residue=residue))
    return OmegaData(
        kappa1=kappa1,
        exp_part=exp_part,
        residues=tuple(residues),
        regular_at_infinity=den.degree > num.degree,
    )
