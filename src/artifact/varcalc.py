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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from typing import List, Optional, Tuple

from .exactalg import (
    BiPoly,
    FactorClass,
    FieldSpec,
    QuadExt,
    RatFunc,
    UPoly,
    eval_mod,
    partial_fractions,
    poly_xgcd,
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


@dataclass(frozen=True)
class VariationalData:
    """kappa_1..kappa_K for one system and curve, each reduced.

    Only the order-0 data is computed at construction; kappa_k is
    expanded the first time it is asked for, and the recurrence state is
    kept, so a caller that stops at order k never pays for the orders
    above k.
    """

    system: PlanarSystem
    curve: CurveData
    K: int
    # w^k coefficients of P and Q along the curve, k = 0..min(K, deg_eta)
    p_series: Tuple[RatFunc, ...] = field(repr=False, compare=False)
    q_series: Tuple[RatFunc, ...] = field(repr=False, compare=False)
    # [w^k] Q/P for k = 0..n and kappa_1..kappa_n, n the highest order
    # expanded so far
    r_series: List[RatFunc] = field(repr=False, compare=False)
    kappas: List[RatFunc] = field(repr=False, compare=False)

    def kappa(self, k: int) -> RatFunc:
        if not 1 <= k <= self.K:
            raise IndexError(f"order {k} outside 1..{self.K}")
        p, q, r = self.p_series, self.q_series, self.r_series
        while len(r) <= k:
            n = len(r)
            acc = q[n] if n < len(q) else RatFunc.zero(self.system.field.d)
            # p_series[i] = 0 for i > deg_eta P: those terms drop out
            for i in range(1, min(n, len(p) - 1) + 1):
                if not p[i].is_zero():
                    acc = acc - p[i] * r[n - i]
            r.append(acc / p[0])
            self.kappas.append(factorial(n) * r[n])
        return self.kappas[k - 1]


def verify_integral_curve(sys: PlanarSystem, curve: CurveData) -> bool:
    """True iff Q(xi, phi) - phi' * P(xi, phi) vanishes identically."""
    p_on_curve = sys.P.eval_eta(curve.phi)
    if p_on_curve.is_zero():
        raise CurveInSingularLocusError(
            "P vanishes identically on the curve"
        )
    q_on_curve = sys.Q.eval_eta(curve.phi)
    return (q_on_curve - curve.phi.derivative() * p_on_curve).is_zero()


def kappa_coefficients(
    sys: PlanarSystem, curve: CurveData, K: int
) -> VariationalData:
    """Expand R = Q/P along the curve: kappa_k = k! [w^k] R(xi, phi + w).

    Numerator and denominator of R are expanded exactly in the normal
    displacement w; the denominator series is inverted order by order,
    which is valid because P does not vanish identically on the curve.
    The zeroth coefficient must reproduce phi' (the curve is integral).

    Only that order-0 work runs here, so bad input fails at once; the
    returned VariationalData expands kappa_k when kappa(k) is first
    called.
    """
    if K < 1:
        raise InvalidInputError("K must be >= 1")
    phi = curve.phi
    p_series = sys.P.shift_eta(phi, min(K, sys.P.degree_eta))
    q_series = sys.Q.shift_eta(phi, min(K, max(sys.Q.degree_eta, 0)))
    p0 = p_series[0]
    if p0.is_zero():
        raise CurveInSingularLocusError(
            "P vanishes identically on the curve"
        )
    r0 = q_series[0] / p0
    if r0 != phi.derivative():
        raise InvalidInputError(
            "curve is not an integral curve: [w^0] of Q/P differs from phi'"
        )
    return VariationalData(
        system=sys,
        curve=curve,
        K=K,
        p_series=tuple(p_series),
        q_series=tuple(q_series),
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
    """Omega = e^{E} * prod_c p_c^{r_c}, plus the regularity flag.

    E carries the polynomial part and all pole orders >= 2 of the
    antiderivative of kappa_1 (zero-constant normalization); the residues
    carry the order-1 pole data.  regular_at_infinity records
    deg kappa_1_den > deg kappa_1_num; classes factors kappa_1_den.
    """

    kappa1: RatFunc
    exp_part: RatFunc
    residues: Tuple[ResidueEntry, ...]
    regular_at_infinity: bool
    classes: Tuple[FactorClass, ...]

    def reconstruct(self) -> RatFunc:
        """E' + sum_c (r_c * p_c' mod p_c)/p_c; must equal kappa_1."""
        acc = self.exp_part.derivative()
        for entry in self.residues:
            p = entry.cls.factor
            acc = acc + RatFunc(
                eval_mod(entry.residue * p.derivative(), p), p
            )
        return acc


def omega_decompose(kappa1: RatFunc) -> OmegaData:
    """Split the antiderivative of kappa_1 into exponential and log data.

    Partial fractions give kappa_1 = poly + sum n_{c,i}/p_c^i.  The
    polynomial part integrates into E.  Each order-i >= 2 term is reduced
    by one order using n = u*p + v*p', since int(v*p'/p^i) contributes
    the rational term -v/((i-1) p^{i-1}); iterating leaves only simple
    poles, whose class residues are n_c/(p_c') in K[xi]/(p_c).
    """
    d = kappa1.d
    regular = kappa1.den.degree > kappa1.num.degree
    pf = partial_fractions(kappa1)
    exp_part = RatFunc.from_poly(pf.poly_part.antiderivative())

    # Group the term numerators per class: digits[order] = numerator.
    by_class: dict = {}
    for term in pf.terms:
        by_class.setdefault(term.factor, {})[term.order] = term.numerator
    residues: List[ResidueEntry] = []
    classes: List[FactorClass] = []
    for p in sorted(by_class, key=lambda q: q.sort_key()):
        digits = by_class[p]
        # kappa_1 is reduced, so every class has a term of top order m
        m = max(digits)
        classes.append(FactorClass(p, m))
        dp = p.derivative()
        _, _, t = poly_xgcd(p, dp)  # t * p' = 1 mod p
        zero = UPoly.zero(d)
        current = digits.get(m, zero)
        for i in range(m, 1, -1):
            v = eval_mod(current * t, p)
            u = (current - v * dp).exact_div(p)
            inv = QuadExt(1, 0, d) / (i - 1)
            exp_part = exp_part - RatFunc(v.scale(inv), p ** (i - 1))
            current = u + v.derivative().scale(inv) + digits.get(i - 1, zero)
        if not current.is_zero():
            residue = eval_mod(current * t, p)
            residues.append(ResidueEntry(cls=classes[-1], residue=residue))
    return OmegaData(
        kappa1=kappa1,
        exp_part=exp_part,
        residues=tuple(residues),
        regular_at_infinity=regular,
        classes=tuple(classes),
    )
