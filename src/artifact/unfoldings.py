"""Reduced planar systems of the fold-Hopf and double-Hopf unfoldings.

The two bifurcation families reduce, after dropping the inert angular
dynamics, to planar polynomial systems with the coordinate axis eta = 0
as an integral curve:

* fold-Hopf (xi, eta) = (axis coordinate, radius):
      xi' = xi^2 + s*eta^2 + mu,   eta' = eta*(alpha*xi + nu);
* double-Hopf chart 1, (xi, eta) = (r2, r1):
      xi' = xi*(beta*eta^2 - xi^2 + mu),
      eta' = eta*(s*eta^2 + alpha*xi^2 + nu);
* double-Hopf chart 2: chart 1 under the parameter swap
      (mu, nu, alpha, beta, s) -> (nu, mu, -beta*s, alpha, -1),
  obtained by exchanging the roles of r1 and r2 and rescaling the new
  transverse coordinate so the coefficients stay in the base field.

``FAMILIES`` names both families.  Each row holds the parameter
dataclass, whose fields after ``field`` are the family's parameters in
declaration order, the charts, and the builder of one chart.

The module also evaluates, by exact membership tests, the parameter
clauses under which these families are certified nonintegrable, for
cross-validation of the certifier against closed-form expectations.
"""

from __future__ import annotations

import math
from dataclasses import Field, dataclass, fields
from typing import Callable, Dict, List, Optional, Tuple, Union

from .exactalg import (
    BiPoly,
    FieldSpec,
    QuadExt,
    RatFunc,
    UPoly,
    is_rational_square,
)
from .expr import format_scalar
from .varcalc import CurveData, PlanarSystem


def _check_params(p) -> None:
    """The shared __post_init__: s must be a sign, and every other
    parameter becomes an element of p.field (None reads as 0)."""
    if p.s not in (1, -1):
        raise ValueError("s must be +1 or -1")
    for f in fields(p)[1:]:
        if f.name != "s":
            value = getattr(p, f.name)
            object.__setattr__(
                p, f.name, p.field(0 if value is None else value)
            )


@dataclass(frozen=True)
class FoldHopfParams:
    """Parameters of the fold-Hopf unfolding.

    beta and omega only drive the dropped angular equation; they are
    recorded for the input echo but never enter the reduced system.
    """

    field: FieldSpec
    mu: QuadExt
    nu: QuadExt
    alpha: QuadExt
    s: int = 1
    beta: Optional[QuadExt] = None
    omega: Optional[QuadExt] = None

    __post_init__ = _check_params

    def describe(self) -> str:
        return (
            f"fold-hopf(mu={format_scalar(self.mu)},"
            f" nu={format_scalar(self.nu)},"
            f" alpha={format_scalar(self.alpha)}, s={self.s:+d})"
        )


@dataclass(frozen=True)
class DoubleHopfParams:
    """Parameters of the double-Hopf unfolding.

    omega1 and omega2 drive the two dropped angular equations; they are
    recorded but inert.
    """

    field: FieldSpec
    mu: QuadExt
    nu: QuadExt
    alpha: QuadExt
    beta: QuadExt
    s: int = 1
    omega1: Optional[QuadExt] = None
    omega2: Optional[QuadExt] = None

    __post_init__ = _check_params

    def describe(self) -> str:
        return (
            f"double-hopf(mu={format_scalar(self.mu)},"
            f" nu={format_scalar(self.nu)},"
            f" alpha={format_scalar(self.alpha)},"
            f" beta={format_scalar(self.beta)}, s={self.s:+d})"
        )


def chart_two_params(p: DoubleHopfParams) -> DoubleHopfParams:
    """The chart-1 parameters equivalent to chart 2 of p."""
    return DoubleHopfParams(
        field=p.field,
        mu=p.nu,
        nu=p.mu,
        alpha=-(p.beta * p.s),
        beta=p.alpha,
        s=-1,
        omega1=p.omega1,
        omega2=p.omega2,
    )


def fold_hopf_system(p: FoldHopfParams) -> Tuple[PlanarSystem, CurveData]:
    """xi' = xi^2 + s*eta^2 + mu, eta' = eta*(alpha*xi + nu); curve eta = 0."""
    F = p.field
    d = F.d
    rows_p = [
        UPoly([p.mu, F(0), F(1)], d),
        UPoly.zero(d),
        UPoly.constant(F(p.s), d),
    ]
    rows_q = [UPoly.zero(d), UPoly([p.nu, p.alpha], d)]
    system = PlanarSystem(
        P=BiPoly(rows_p, d),
        Q=BiPoly(rows_q, d),
        field=F,
        label=p.describe(),
    )
    return system, CurveData(phi=RatFunc.zero(d))


def double_hopf_system(
    p: DoubleHopfParams, chart: int = 1
) -> Tuple[PlanarSystem, CurveData]:
    """Chart 1: xi' = xi*(beta*eta^2 - xi^2 + mu),
    eta' = eta*(s*eta^2 + alpha*xi^2 + nu); curve eta = 0.
    Chart 2 re-invokes chart 1 on the swapped parameters."""
    if chart not in (1, 2):
        raise ValueError("chart must be 1 or 2")
    if chart == 2:
        system, curve = double_hopf_system(chart_two_params(p), chart=1)
        system = PlanarSystem(
            P=system.P,
            Q=system.Q,
            field=system.field,
            label=p.describe() + " [chart 2]",
        )
        return system, curve
    F = p.field
    d = F.d
    rows_p = [
        UPoly([F(0), p.mu, F(0), F(-1)], d),
        UPoly.zero(d),
        UPoly([F(0), p.beta], d),
    ]
    rows_q = [
        UPoly.zero(d),
        UPoly([p.nu, F(0), p.alpha], d),
        UPoly.zero(d),
        UPoly.constant(F(p.s), d),
    ]
    system = PlanarSystem(
        P=BiPoly(rows_p, d),
        Q=BiPoly(rows_q, d),
        field=F,
        label=p.describe() + " [chart 1]",
    )
    return system, CurveData(phi=RatFunc.zero(d))


@dataclass(frozen=True)
class Family:
    """A builtin unfolding: its parameter dataclass, its charts, and the
    builder of the reduced system on one chart."""

    params: type
    charts: Tuple[int, ...]
    build: Callable[[object, int], Tuple[PlanarSystem, CurveData]]

    @property
    def parameters(self) -> Tuple[Field, ...]:
        """The fields of params after `field`, in declaration order."""
        return fields(self.params)[1:]


# Each builder looks its system function up when it runs, so a rebinding
# of the module global (a tracer's wrapper, say) reaches it.
FAMILIES: Dict[str, Family] = {
    "fold-hopf": Family(
        FoldHopfParams, charts=(1,),
        build=lambda p, chart: fold_hopf_system(p),
    ),
    "double-hopf": Family(
        DoubleHopfParams, charts=(1, 2),
        build=lambda p, chart: double_hopf_system(p, chart=chart),
    ),
}


def fold_hopf_kappa(p: FoldHopfParams, k: int) -> RatFunc:
    """Closed form: kappa_{2j-1} = (2j-1)! * (-s)^{j-1} * (alpha*xi + nu)
    / (xi^2 + mu)^j; even orders vanish."""
    if k < 1:
        raise ValueError("k must be >= 1")
    F = p.field
    d = F.d
    if k % 2 == 0:
        return RatFunc.zero(d)
    j = (k + 1) // 2
    sign = F((-p.s) ** (j - 1))
    num = UPoly([p.nu, p.alpha], d) * (sign * math.factorial(k))
    den = UPoly([p.mu, F(0), F(1)], d) ** j
    return RatFunc(num, den)


def double_hopf_kappa(p: DoubleHopfParams, k: int) -> RatFunc:
    """Closed form for chart 1: kappa_1 = -(alpha*xi^2 + nu)/(xi*(xi^2 - mu));
    kappa_{2j+1} = -(2j+1)! * beta^{j-1} * ((alpha*beta + s)*xi^2
    + beta*nu - mu*s) / (xi*(xi^2 - mu)^{j+1}); even orders vanish."""
    if k < 1:
        raise ValueError("k must be >= 1")
    F = p.field
    d = F.d
    if k % 2 == 0:
        return RatFunc.zero(d)
    x = UPoly.x(d)
    base = UPoly([-p.mu, F(0), F(1)], d)
    if k == 1:
        num = -UPoly([p.nu, F(0), p.alpha], d)
        return RatFunc(num, x * base)
    j = (k - 1) // 2
    lead = p.alpha * p.beta + p.s
    const = p.beta * p.nu - p.mu * p.s
    scale = F(p.beta**(j - 1)) * (-math.factorial(k))
    num = UPoly([const, F(0), lead], d) * scale
    return RatFunc(num, x * base ** (j + 1))


# ---------------------------------------------------------------------------
# Theorem clause evaluation
# ---------------------------------------------------------------------------

SubCondition = Tuple[str, Optional[bool]]


@dataclass(frozen=True)
class ClauseEvaluation:
    clause_id: str
    holds: bool
    subconditions: Tuple[SubCondition, ...]

    @property
    def failing(self) -> Tuple[str, ...]:
        return tuple(name for name, ok in self.subconditions if ok is False)


@dataclass(frozen=True)
class TheoremClauseReport:
    theorem_id: str
    clauses: Tuple[ClauseEvaluation, ...]
    any_clause_holds: bool
    undecidable_flags: Tuple[str, ...] = ()

    def clause(self, clause_id: str) -> ClauseEvaluation:
        for c in self.clauses:
            if c.clause_id == clause_id:
                return c
        raise KeyError(clause_id)


def _clause(clause_id: str, subs: List[SubCondition]) -> ClauseEvaluation:
    return ClauseEvaluation(
        clause_id=clause_id,
        holds=all(ok is True for _, ok in subs),
        subconditions=tuple(subs),
    )


def _fold_hopf_clauses(p: FoldHopfParams) -> Tuple[ClauseEvaluation, ...]:
    mu, nu, alpha = p.mu, p.nu, p.alpha
    mu_nonzero = not mu.is_zero()
    two_alpha = alpha * 2 - 1
    # nu/sqrt(-mu) is rational iff nu^2/(-mu) is the square of a rational;
    # the test is symmetric in the branch of the square root.
    ratio_rational: Optional[bool] = None
    if mu_nonzero:
        ratio_rational = is_rational_square(nu * nu / (-mu))
    c1 = _clause(
        "i",
        [
            ("mu != 0", mu_nonzero),
            ("alpha not in Q", not alpha.is_rational()),
            ("nu != 0", not nu.is_zero()),
        ],
    )
    c2 = _clause(
        "ii",
        [
            ("mu != 0", mu_nonzero),
            (
                "nu/sqrt(-mu) not in Q",
                None if ratio_rational is None else not ratio_rational,
            ),
            ("2*alpha - 1 not in Z<=0", not two_alpha.is_nonpos_integer()),
        ],
    )
    c3 = _clause(
        "iii",
        [
            ("mu == 0", mu.is_zero()),
            ("nu != 0", not nu.is_zero()),
            ("2*alpha - 1 not in Z<=0", not two_alpha.is_nonpos_integer()),
        ],
    )
    return (c1, c2, c3)


def _double_hopf_chart1_clauses(
    p: DoubleHopfParams,
) -> Tuple[ClauseEvaluation, ...]:
    mu, nu, alpha, beta = p.mu, p.nu, p.alpha, p.beta
    s = p.s
    mu_nonzero = not mu.is_zero()
    ratio = nu / mu if mu_nonzero else None
    prod1 = beta * nu - mu * s
    prod2 = (alpha * mu + nu) * s - prod1
    prods = [
        ("beta*nu - mu*s != 0", not prod1.is_zero()),
        ("(alpha*mu + nu)*s - (beta*nu - mu*s) != 0", not prod2.is_zero()),
    ]
    c1 = _clause(
        "i",
        [
            ("mu != 0", mu_nonzero),
            (
                "nu/mu not in Q",
                None if ratio is None else not ratio.is_rational(),
            ),
            ("alpha not in Z>=0", not alpha.is_nonneg_integer()),
            (
                "alpha + nu/mu + 2 not in Z<=0",
                None if ratio is None
                else not (alpha + ratio + 2).is_nonpos_integer(),
            ),
            *prods,
        ],
    )
    c2 = _clause(
        "ii",
        [
            ("mu != 0", mu_nonzero),
            (
                "alpha + nu/mu not in Q",
                None if ratio is None else not (alpha + ratio).is_rational(),
            ),
            ("alpha not in Z>=0", not alpha.is_nonneg_integer()),
            *prods,
        ],
    )
    c3 = _clause(
        "iii",
        [
            ("mu == 0", mu.is_zero()),
            ("nu != 0", not nu.is_zero()),
            ("alpha not in Z>=0", not alpha.is_nonneg_integer()),
            ("beta != s", beta != s),
        ],
    )
    return (c1, c2, c3)


def _double_hopf_chart2_clauses(
    p: DoubleHopfParams,
) -> Tuple[ClauseEvaluation, ...]:
    # The swapped instance of the chart-1 clause list, written in the
    # original parameters (the roles of mu and nu exchange, alpha becomes
    # -beta*s, beta becomes alpha and s becomes -1).
    mu, nu, alpha, beta = p.mu, p.nu, p.alpha, p.beta
    s = p.s
    nu_nonzero = not nu.is_zero()
    ratio = mu / nu if nu_nonzero else None
    beta_s = beta * s
    prod1 = alpha * mu + nu
    prod2 = beta * nu * s - mu - prod1
    prods = [
        ("alpha*mu + nu != 0", not prod1.is_zero()),
        ("beta*nu*s - mu - (alpha*mu + nu) != 0", not prod2.is_zero()),
    ]
    c1 = _clause(
        "i",
        [
            ("nu != 0", nu_nonzero),
            (
                "mu/nu not in Q",
                None if ratio is None else not ratio.is_rational(),
            ),
            ("beta*s not in Z<=0", not beta_s.is_nonpos_integer()),
            (
                "beta*s - mu/nu - 2 not in Z>=0",
                None if ratio is None
                else not (beta_s - ratio - 2).is_nonneg_integer(),
            ),
            *prods,
        ],
    )
    c2 = _clause(
        "ii",
        [
            ("nu != 0", nu_nonzero),
            (
                "beta*s - mu/nu not in Q",
                None if ratio is None else not (beta_s - ratio).is_rational(),
            ),
            ("beta*s not in Z<=0", not beta_s.is_nonpos_integer()),
            *prods,
        ],
    )
    c3 = _clause(
        "iii",
        [
            ("nu == 0", nu.is_zero()),
            ("mu != 0", not mu.is_zero()),
            ("beta*s not in Z<=0", not beta_s.is_nonpos_integer()),
            ("alpha != -1", alpha != -1),
        ],
    )
    return (c1, c2, c3)


def theorem_conditions(
    params: Union[FoldHopfParams, DoubleHopfParams], theorem_id: str
) -> TheoremClauseReport:
    """Evaluate the nonintegrability clause list for one family.

    theorem ids: "1.3" (fold-Hopf), "1.4" (double-Hopf near chart 1),
    "1.5" (double-Hopf near chart 2).  Every sub-condition is an exact
    membership test in Q(sqrt d); a sub-condition guarded by a failed
    division (mu = 0 or nu = 0) is recorded as None.
    """
    if theorem_id == "1.3":
        if not isinstance(params, FoldHopfParams):
            raise ValueError("theorem 1.3 applies to fold-Hopf parameters")
        clauses = _fold_hopf_clauses(params)
    elif theorem_id == "1.4":
        if not isinstance(params, DoubleHopfParams):
            raise ValueError("theorem 1.4 applies to double-Hopf parameters")
        clauses = _double_hopf_chart1_clauses(params)
    elif theorem_id == "1.5":
        if not isinstance(params, DoubleHopfParams):
            raise ValueError("theorem 1.5 applies to double-Hopf parameters")
        clauses = _double_hopf_chart2_clauses(params)
    else:
        raise ValueError(f"unknown theorem id: {theorem_id!r}")
    return TheoremClauseReport(
        theorem_id=theorem_id,
        clauses=clauses,
        any_clause_holds=any(c.holds for c in clauses),
    )
