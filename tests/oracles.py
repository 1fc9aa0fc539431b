"""Independent reference routes, used only to cross-check the pipeline.

* ``dense_ode_solutions`` solves A z' + rho z = rhs by Gauss-Jordan on the
  full coefficient system, with the same degree bounds as
  ``criteria._ode_solutions``; ``ode_solutions_reference`` is the same
  back-substitution as ``criteria._ode_solutions`` in ``QuadExt``
  arithmetic, the reference for its integer-pair solve;
* ``auxiliary_polynomial`` builds the auxiliary polynomial whose double
  roots the simplicity profile predicts in closed form;
* ``kappa_by_differentiation`` computes kappa_k by repeated symbolic
  differentiation of Q/P instead of the series recurrence;
* ``kappa_by_recurrence`` runs the series recurrence in reduced
  ``RatFunc`` arithmetic (a gcd after every operation) on the expansion
  ``shift_eta`` of P and Q along the curve, the reference for the
  polynomial expansion and the valuation reduction of ``varcalc``;
  ``eval_eta`` substitutes the curve into a ``BiPoly``;
* ``pole_classes`` factors a denominator afresh with
  ``factor_irreducible``, the reference for the classes the pipeline
  passes along; ``partition`` and ``omega`` call ``partition_roots`` and
  ``omega_decompose`` with such classes;
* ``FractionPairQuadExt`` is field arithmetic on a pair of Fractions
  a + b*sqrt(d), the reference for the integer-triple ``QuadExt``;
* ``schoolbook_mul``, ``schoolbook_add``, ``schoolbook_scale`` and
  ``schoolbook_divmod`` are the ``UPoly`` ring operations written as
  ``QuadExt`` operations, one coefficient (pair) at a time, with every
  result built by the coercing ``UPoly(...)``: the reference for the
  integer kernels inside ``UPoly``;
* ``fold_hopf_kappa`` and ``double_hopf_kappa`` are the paper's closed
  forms of kappa_k for the two unfoldings, ``clause`` looks up one
  clause of a ``theorem_conditions`` report, and
  ``double_hopf_chart2_clauses`` is Theorem 1.5's clause list written out
  in the original parameters;
* ``partial_fractions`` (with ``proper_parts``, ``PFTerm`` and
  ``PartialFractions``) splits a rational function over its irreducible
  classes by one inverse modulo p^m per class and p-adic digits, and
  ``omega_by_partial_fractions`` reduces those terms to Omega's E and
  residues: the reference for ``omega_decompose``;
* ``poly_xgcd`` is the extended Euclidean algorithm with both
  cofactors, the reference for ``inverse_mod``; ``squarefree_part``
  multiplies out Yun's decomposition, the reference for the distinct-root
  count ``n_bar`` of ``divide_by_rho``; ``degree_xi`` is the degree of a
  ``BiPoly`` in xi;
* ``theta_by_parts`` sums theta_k's log derivative term by term,
  (k-1)*kappa_1 - sum_shared a1*p'/p - sum_new (ak-1)*p'/p + z'/z, the
  reference for the single quotient kappa_kn/(A z) of ``_assemble_witness``;
* the exact-algebra members that only tests call: ``ratfunc_eval_mod``
  and ``constant_eval_mod`` (evaluation in K[xi]/(p)), ``recombine`` (a
  ``PartialFractions`` summed back into one ``RatFunc``), ``multiplicity``,
  ``monomial``, ``poly_eval``, ``as_poly``, ``ratfunc_eval``,
  ``has_pole_at``, ``eval_point``, ``as_fraction`` and ``conjugate``.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import List, Optional, Sequence, Tuple, Union

from artifact.criteria import RootPartition, partition_roots
from artifact.exactalg import (
    BiPoly,
    FactorClass,
    QuadExt,
    RatFunc,
    UPoly,
    eval_mod,
    factor_irreducible,
    inverse_mod,
    squarefree_decompose,
)
from artifact.exactalg.upoly import NEG_INF, Degree
from artifact.exactalg.field import _fraction_sqrt
from artifact.unfoldings import (
    ClauseEvaluation,
    DoubleHopfParams,
    FoldHopfParams,
    TheoremClauseReport,
    _clause,
)

Scalar = Union[int, Fraction, QuadExt]
from artifact.varcalc import (
    CurveData,
    CurveInSingularLocusError,
    OmegaData,
    PlanarSystem,
    ResidueEntry,
    omega_decompose,
)


def solve_linear_exact(
    rows: List[List[QuadExt]], rhs: List[QuadExt], d: int
) -> Optional[Tuple[List[QuadExt], List[List[QuadExt]]]]:
    """Solve rows*x = rhs over the field by reduced row echelon form.

    Returns (particular, kernel basis) or None.  Free columns are 0 in the
    particular solution; each kernel vector is 1 at its free column.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(rows[r]) + [rhs[r]] for r in range(nrows)]
    zero = QuadExt(0, 0, d)
    one = QuadExt(1, 0, d)
    pivots: List[int] = []
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, nrows):
            if not aug[r][col].is_zero():
                sel = r
                break
        if sel is None:
            continue
        aug[prow], aug[sel] = aug[sel], aug[prow]
        inv = aug[prow][col].inverse()
        aug[prow] = [x * inv for x in aug[prow]]
        for r in range(nrows):
            if r != prow and not aug[r][col].is_zero():
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[prow])]
        pivots.append(col)
        prow += 1
        if prow == nrows:
            break
    for r in range(prow, nrows):
        if not aug[r][ncols].is_zero():
            return None
    particular = [zero] * ncols
    for idx, col in enumerate(pivots):
        particular[col] = aug[idx][ncols]
    pivot_set = set(pivots)
    kernel: List[List[QuadExt]] = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [zero] * ncols
        vec[fc] = one
        for idx, col in enumerate(pivots):
            vec[col] = -aug[idx][fc]
        kernel.append(vec)
    return particular, kernel


def dense_ode_solutions(
    A: UPoly, rho: UPoly, rhs: UPoly
) -> Tuple[Optional[UPoly], List[UPoly]]:
    """(particular, kernel basis) of A z' + rho z = rhs from the dense
    (m_max+1) x (n_max+1) coefficient system; (None, []) if unsolvable."""
    d = A.d
    deg_a = int(A.degree)
    candidates = [0]
    lead = deg_a - 1
    if not rho.is_zero():
        lead = max(lead, int(rho.degree))
    if not rhs.is_zero():
        base = int(rhs.degree) - lead
        if base > 0:
            candidates.append(base)
    if not rho.is_zero() and int(rho.degree) == deg_a - 1:
        resonance = -(rho.lc() / A.lc())
        if resonance.is_nonneg_integer():
            candidates.append(int(resonance.a))
    n_max = max(candidates) + 2
    m_max = n_max - 1 + deg_a
    if not rho.is_zero():
        m_max = max(m_max, n_max + int(rho.degree))
    if not rhs.is_zero():
        m_max = max(m_max, int(rhs.degree))
    rows = [
        [
            A.coeff(m - i + 1) * i + rho.coeff(m - i)
            for i in range(n_max + 1)
        ]
        for m in range(m_max + 1)
    ]
    vec = [rhs.coeff(m) for m in range(m_max + 1)]
    solved = solve_linear_exact(rows, vec, d)
    if solved is None:
        return None, []
    particular, kernel = solved
    return UPoly(particular, d), [UPoly(v, d) for v in kernel]


def ode_solutions_reference(
    A: UPoly, rho: UPoly, rhs: UPoly
) -> Tuple[Optional[UPoly], Optional[UPoly]]:
    """(particular, kernel generator) of A z' + rho z = rhs by the
    back-substitution of `criteria._ode_solutions` in QuadExt arithmetic,
    one canonical field element per operation, with the check in UPoly
    products; (None, None) when there is no solution."""
    if A.is_zero():
        raise ValueError("leading coefficient polynomial A must be nonzero")
    d = A.d
    deg_a = int(A.degree)
    candidates = [0]
    lead = deg_a - 1
    if not rho.is_zero():
        lead = max(lead, int(rho.degree))
    if not rhs.is_zero():
        base = int(rhs.degree) - lead
        if base > 0:
            candidates.append(base)
    if not rho.is_zero() and int(rho.degree) == deg_a - 1:
        resonance = -(rho.lc() / A.lc())
        if resonance.is_nonneg_integer():
            candidates.append(int(resonance.a))
    n_max = max(candidates) + 2
    zero = QuadExt(0, 0, d)
    a_terms = [(j, c) for j, c in enumerate(A.coeffs) if c]
    r_terms = [(j, c) for j, c in enumerate(rho.coeffs) if c]

    def row(m: int, z: List[QuadExt], dz: List[QuadExt]) -> QuadExt:
        """[x^m] (A w' + rho w) for w = sum z_i x^i, given dz_i = i*z_i."""
        acc = zero
        for j, c in a_terms:
            i = m + 1 - j
            if 0 <= i <= n_max and dz[i]:
                acc = acc + c * dz[i]
        for j, c in r_terms:
            i = m - j
            if 0 <= i <= n_max and z[i]:
                acc = acc + c * z[i]
        return acc

    top_a, top_r = A.coeff(lead + 1), rho.coeff(lead)
    p = [zero] * (n_max + 1)
    dp = [zero] * (n_max + 1)
    q: Optional[List[QuadExt]] = None
    dq: List[QuadExt] = []
    for i in range(n_max, -1, -1):
        m = i + lead
        c = top_a * i + top_r
        if c.is_zero():
            if q is not None:
                raise AssertionError(
                    "homogeneous kernel cannot exceed dimension 1"
                )
            if m >= 0 and rhs.coeff(m) != row(m, p, dp):
                return None, None
            q = [zero] * (n_max + 1)
            dq = [zero] * (n_max + 1)
            q[i] = QuadExt(1, 0, d)
            dq[i] = QuadExt(i, 0, d)
            continue
        inv = c.inverse()
        p[i] = (rhs.coeff(m) - row(m, p, dp)) * inv
        dp[i] = p[i] * i
        if q is not None:
            q[i] = -(row(m, q, dq) * inv)
            dq[i] = q[i] * i
    t: Optional[QuadExt] = None
    for m in range(lead):
        # residual of row m at p + t*q is a - b*t
        a = rhs.coeff(m) - row(m, p, dp)
        b = row(m, q, dq) if q is not None else zero
        if t is not None:
            a, b = a - b * t, zero
        if b:
            t = a / b
        elif a:
            return None, None
    if q is not None and t is not None:
        p = [x + t * y for x, y in zip(p, q)]
        q = None
    particular = UPoly(p, d)
    kernel = None if q is None else UPoly(q, d)
    for w, want in ((particular, rhs), (kernel, UPoly.zero(d))):
        if w is not None and A * w.derivative() + rho * w != want:
            raise AssertionError("ODE solver produced a non-solution")
    return particular, kernel


def auxiliary_polynomial(
    kappa1: RatFunc, part: RootPartition, k: int, b: Sequence[int]
) -> UPoly:
    """The auxiliary polynomial for multiplier tuple b (one entry per
    shared class):

        (k-1)*kappa_1n*rad1
            - kappa_1d * sum_c (a1_c + b_c - 1) * p_c' * prod_{c'!=c} p_c'.

    The symbolic oracle against the bad_b closed form.
    """
    if len(b) != len(part.shared):
        raise ValueError("one multiplier per shared class required")
    d = kappa1.d
    acc = (kappa1.num * (k - 1)) * part.rad1
    total = UPoly.zero(d)
    for c, b_c in zip(part.shared, b):
        cofactor = part.rad1.exact_div(c.factor)
        total = total + (c.a1 + b_c - 1) * c.factor.derivative() * cofactor
    return acc - kappa1.den * total


def pole_classes(f: RatFunc) -> List[FactorClass]:
    """The irreducible classes of f's denominator; none for a polynomial."""
    return factor_irreducible(f.den) if f.den.degree >= 1 else []


def eval_eta(p: BiPoly, phi: RatFunc) -> RatFunc:
    """p(xi, phi(xi)) for rational phi, by Horner's rule in RatFunc."""
    acc = RatFunc.zero(p.d)
    for r in reversed(p.rows):
        acc = acc * phi + RatFunc.from_poly(r)
    return acc


def shift_eta(p: BiPoly, phi: RatFunc, order: int) -> List[RatFunc]:
    """Coefficients of w^k in p(xi, phi(xi) + w) for k = 0..order.

    Exact binomial expansion: the w^k coefficient is
    sum_{j >= k} C(j, k) * row_j(xi) * phi(xi)^(j-k).
    """
    phi_pows: List[RatFunc] = [RatFunc.from_poly(UPoly.one(p.d))]
    for _ in range(max(p.degree_eta, 0)):
        phi_pows.append(phi_pows[-1] * phi)
    out: List[RatFunc] = []
    for k in range(order + 1):
        acc = RatFunc.zero(p.d)
        for j in range(k, len(p.rows)):
            if p.rows[j].is_zero():
                continue
            acc = acc + comb(j, k) * phi_pows[j - k] * RatFunc.from_poly(
                p.rows[j]
            )
        out.append(acc)
    return out


def kappa_by_recurrence(
    sys: PlanarSystem, curve: CurveData, K: int
) -> List[RatFunc]:
    """kappa_1..kappa_K from the series recurrence r_n = (q_n - sum_i
    p_i r_{n-i}) / p_0 in reduced RatFunc arithmetic, every term summed."""
    p_series = shift_eta(sys.P, curve.phi, K)
    q_series = shift_eta(sys.Q, curve.phi, K)
    r_series = [q_series[0] / p_series[0]]
    for k in range(1, K + 1):
        acc = q_series[k]
        for i in range(1, k + 1):
            acc = acc - p_series[i] * r_series[k - i]
        r_series.append(acc / p_series[0])
    return [factorial(k) * r_series[k] for k in range(1, K + 1)]


def is_integral_curve(sys: PlanarSystem, curve: CurveData) -> bool:
    """True iff Q(xi, phi) - phi' * P(xi, phi) vanishes identically."""
    p_on_curve = eval_eta(sys.P, curve.phi)
    q_on_curve = eval_eta(sys.Q, curve.phi)
    return (q_on_curve - curve.phi.derivative() * p_on_curve).is_zero()


def derivative_eta(p: BiPoly) -> BiPoly:
    """The partial derivative of p in eta."""
    return BiPoly([p.rows[j] * j for j in range(1, len(p.rows))], p.d)


def kappa_by_differentiation(
    sys: PlanarSystem, curve: CurveData, K: int
) -> Tuple[RatFunc, ...]:
    """kappa_k = (d/d eta)^k (Q/P) restricted to the curve, k = 1..K.

    Repeated symbolic differentiation of the quotient followed by
    substitution of eta = phi; slower than the series route.
    """
    phi = curve.phi
    num, den = sys.Q, sys.P
    out: List[RatFunc] = []
    for _ in range(1, K + 1):
        # d/d eta (num/den) = (num_eta * den - num * den_eta) / den^2
        num, den = (
            derivative_eta(num) * den - num * derivative_eta(den),
            den * den,
        )
        den_val = eval_eta(den, phi)
        if den_val.is_zero():
            raise CurveInSingularLocusError(
                "P vanishes identically on the curve"
            )
        out.append(eval_eta(num, phi) / den_val)
    return tuple(out)


class FractionPairQuadExt:
    """a + b*sqrt(d) with a, b Fractions: the field arithmetic of
    ``QuadExt`` written out on rational coordinates, one Fraction
    operation per term."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Union[int, Fraction] = 0,
                 b: Union[int, Fraction] = 0, d: int = 1):
        self.a, self.b, self.d = Fraction(a), Fraction(b), int(d)
        if d == 1 and self.b != 0:
            self.a, self.b = self.a + self.b, Fraction(0)

    def _coerce(self, other) -> "FractionPairQuadExt":
        if isinstance(other, FractionPairQuadExt):
            if other.d == self.d:
                return other
            if other.b == 0:
                return FractionPairQuadExt(other.a, 0, self.d)
            if self.b == 0:
                return other
            raise ValueError(f"mixing fields d={self.d} and d={other.d}")
        return FractionPairQuadExt(other, 0, self.d)

    def _same_field(self, other: "FractionPairQuadExt") -> int:
        if self.d == other.d:
            return self.d
        if self.b == 0:
            return other.d
        if other.b == 0:
            return self.d
        raise ValueError(f"mixing fields d={self.d} and d={other.d}")

    def __add__(self, other):
        o = self._coerce(other)
        return FractionPairQuadExt(self.a + o.a, self.b + o.b,
                                   self._same_field(o))

    def __neg__(self):
        return FractionPairQuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        return FractionPairQuadExt(self.a - o.a, self.b - o.b,
                                   self._same_field(o))

    def __mul__(self, other):
        o = self._coerce(other)
        d = self._same_field(o)
        return FractionPairQuadExt(
            self.a * o.a + d * self.b * o.b, self.a * o.b + self.b * o.a, d
        )

    def inverse(self) -> "FractionPairQuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt d)")
        return FractionPairQuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_rational(self) -> bool:
        return self.b == 0

    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def is_natural(self) -> bool:
        return self.is_integer() and self.a >= 1

    def is_nonneg_integer(self) -> bool:
        return self.is_integer() and self.a >= 0

    def is_nonpos_integer(self) -> bool:
        return self.is_integer() and self.a <= 0

    def sqrt(self) -> Optional["FractionPairQuadExt"]:
        """A square root inside Q(sqrt d), or None (see QuadExt.sqrt)."""
        if self.is_zero():
            return FractionPairQuadExt(0, 0, self.d)
        if self.b == 0:
            u = _fraction_sqrt(self.a)
            if u is not None:
                return FractionPairQuadExt(u, 0, self.d)
            if self.d != 1:
                v = _fraction_sqrt(self.a / self.d)
                if v is not None:
                    return FractionPairQuadExt(0, v, self.d)
            return None
        t = _fraction_sqrt(self.norm())
        if t is None:
            return None
        for tt in (t, -t):
            u = _fraction_sqrt((self.a + tt) / 2)
            if u is not None and u != 0:
                cand = FractionPairQuadExt(u, self.b / (2 * u), self.d)
                if cand * cand == self:
                    return cand
        return None

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if self.d == other.d:
            return self.a == other.a and self.b == other.b
        return self.b == 0 and other.b == 0 and self.a == other.a

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sort_key(self):
        return (self.a, self.b)


def partition(kappa1: RatFunc, kappak: RatFunc) -> RootPartition:
    """partition_roots with both denominators factored afresh."""
    return partition_roots(
        kappa1, kappak, pole_classes(kappa1), pole_classes(kappak)
    )


def omega(kappa1: RatFunc) -> OmegaData:
    """omega_decompose with kappa_1's denominator factored afresh."""
    return omega_decompose(kappa1, pole_classes(kappa1))


def theta_by_parts(
    k: int, kappa1: RatFunc, part: RootPartition, z: UPoly
) -> RatFunc:
    """theta_k'/theta_k as a sum of reduced RatFuncs, one per term."""
    acc = kappa1 * (k - 1)
    for c in part.shared:
        acc = acc - RatFunc(c.factor.derivative(), c.factor) * c.a1
    for c in part.new:
        acc = acc - RatFunc(c.factor.derivative(), c.factor) * (c.ak - 1)
    if not z.is_constant():
        acc = acc + RatFunc(z.derivative(), z)
    return acc


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
    num = UPoly([p.nu, p.alpha], d) * (sign * factorial(k))
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
    scale = F(p.beta**(j - 1)) * (-factorial(k))
    num = UPoly([const, F(0), lead], d) * scale
    return RatFunc(num, x * base ** (j + 1))


def clause(report: TheoremClauseReport, clause_id: str) -> ClauseEvaluation:
    """The clause of report with the given id."""
    for c in report.clauses:
        if c.clause_id == clause_id:
            return c
    raise KeyError(clause_id)


def double_hopf_chart2_clauses(
    p: DoubleHopfParams,
) -> Tuple[ClauseEvaluation, ...]:
    """Theorem 1.5's clauses written out by hand in the original
    parameters: the swapped instance of the chart-1 clause list (the roles
    of mu and nu exchange, alpha becomes -beta*s, beta becomes alpha and s
    becomes -1), the reference for theorem_conditions(p, "1.5")."""
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


def ratfunc_eval_mod(f: RatFunc, p: UPoly) -> UPoly:
    """f evaluated in the quotient ring K[xi]/(p); den must be a unit mod p."""
    return eval_mod(f.num * inverse_mod(f.den, p), p)


def constant_eval_mod(f: RatFunc, p: UPoly) -> Optional[QuadExt]:
    """The value of f at the roots of p, when that value is one constant;
    None when f takes different values on conjugate roots."""
    rep = ratfunc_eval_mod(f, p)
    if rep.degree > 0:
        return None
    return rep.coeff(0)


def proper_parts(f: RatFunc) -> Tuple[UPoly, RatFunc]:
    """f = poly + proper, with deg(proper num) < deg den."""
    q, r = divmod(f.num, f.den)
    return q, RatFunc(r, f.den)


@dataclass(frozen=True)
class PFTerm:
    """One partial-fraction term numerator/factor^order, deg num < deg factor."""

    factor: UPoly
    order: int
    numerator: UPoly


@dataclass(frozen=True)
class PartialFractions:
    """f = poly_part + sum of terms num/(p^order), fully split over the field."""

    poly_part: UPoly
    terms: Tuple[PFTerm, ...]


def partial_fractions(
    f: RatFunc, classes: Sequence[FactorClass]
) -> PartialFractions:
    """Full partial-fraction decomposition over Q(sqrt d): each class
    component is the numerator times the cofactor's inverse modulo p^m,
    expanded into p-adic digits."""
    poly_part, proper = proper_parts(f)
    if proper.is_zero():
        return PartialFractions(poly_part, ())
    num, den = proper.num, proper.den
    terms: List[PFTerm] = []
    for cls in classes:
        p, m = cls.factor, cls.multiplicity
        pm = p**m
        cofactor = den.exact_div(pm)
        r = (num % pm) * inverse_mod(cofactor % pm, pm) % pm
        for j in range(m):
            r, digit = divmod(r, p)
            if not digit.is_zero():
                terms.append(PFTerm(p, m - j, digit))
    terms.sort(key=lambda t: (t.factor.sort_key(), t.order))
    return PartialFractions(poly_part, tuple(terms))


def recombine(pf: PartialFractions) -> RatFunc:
    """poly_part plus every term numerator/factor^order, in RatFunc."""
    acc = RatFunc.from_poly(pf.poly_part)
    for term in pf.terms:
        acc = acc + RatFunc(term.numerator, term.factor**term.order)
    return acc


def omega_by_partial_fractions(
    kappa1: RatFunc, classes: Sequence[FactorClass]
) -> OmegaData:
    """Omega from the partial fractions of kappa_1: each order-i >= 2 term
    is reduced by one order with n = u*p + v*p', since int(v*p'/p^i)
    contributes -v/((i-1) p^(i-1)); the simple-pole numerator n_c left
    gives the residue n_c/p_c' in K[xi]/(p_c)."""
    d = kappa1.d
    pf = partial_fractions(kappa1, classes)
    exp_part = RatFunc.from_poly(pf.poly_part.antiderivative())
    by_class: dict = {}
    for term in pf.terms:
        by_class.setdefault(term.factor, {})[term.order] = term.numerator
    residues: List[ResidueEntry] = []
    zero = UPoly.zero(d)
    for cls in classes:
        p, m = cls.factor, cls.multiplicity
        digits = by_class[p]
        dp = p.derivative()
        _, _, t = poly_xgcd(p, dp)  # t * p' = 1 mod p
        current = digits.get(m, zero)
        for i in range(m, 1, -1):
            v = eval_mod(current * t, p)
            u = (current - v * dp).exact_div(p)
            inv = QuadExt(1, 0, d) / (i - 1)
            exp_part = exp_part - RatFunc(v.scale(inv), p ** (i - 1))
            current = u + v.derivative().scale(inv) + digits.get(i - 1, zero)
        if not current.is_zero():
            residues.append(ResidueEntry(cls, eval_mod(current * t, p)))
    return OmegaData(
        kappa1=kappa1,
        exp_part=exp_part,
        residues=tuple(residues),
        regular_at_infinity=kappa1.den.degree > kappa1.num.degree,
    )


def multiplicity(p: UPoly, f: UPoly) -> int:
    """Largest m with p^m dividing f (f nonzero, p nonconstant)."""
    if f.is_zero():
        raise ValueError("multiplicity in the zero polynomial")
    if p.degree < 1:
        raise ValueError("multiplicity of a constant")
    m = 0
    while True:
        q, r = divmod(f, p)
        if not r.is_zero():
            return m
        m += 1
        f = q


def monomial(c: Scalar, n: int, d: int) -> UPoly:
    """c * xi^n over Q(sqrt d)."""
    return UPoly([0] * n + [c], d)


def poly_eval(p: UPoly, x: Scalar) -> QuadExt:
    """p(x) by Horner's rule."""
    acc = QuadExt(0, 0, p.d)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def as_poly(f: RatFunc) -> UPoly:
    """The numerator of a polynomial f; raises for a proper denominator."""
    if not f.is_polynomial():
        raise ValueError("rational function has a nontrivial denominator")
    return f.num


def ratfunc_eval(f: RatFunc, x: Scalar) -> QuadExt:
    """f(x); raises ZeroDivisionError at a pole."""
    dv = poly_eval(f.den, x)
    if dv.is_zero():
        raise ZeroDivisionError("evaluation at a pole")
    return poly_eval(f.num, x) / dv


def has_pole_at(f: RatFunc, x: Scalar) -> bool:
    return poly_eval(f.den, x).is_zero()


def eval_point(p: BiPoly, xi: Scalar, eta: Scalar) -> QuadExt:
    """p(xi, eta) by Horner's rule in eta."""
    acc = QuadExt(0, 0, p.d)
    for r in reversed(p.rows):
        acc = acc * eta + poly_eval(r, xi)
    return acc


def as_fraction(c: QuadExt) -> Fraction:
    """A rational c as a Fraction; raises for an irrational c."""
    if c.q:
        raise ValueError(f"{c!r} is irrational")
    return c.a


def conjugate(c: QuadExt) -> QuadExt:
    """The field conjugate a - b*sqrt(d)."""
    return QuadExt(c.a, -c.b, c.d)


def schoolbook_mul(a: UPoly, b: UPoly) -> UPoly:
    """a*b as one QuadExt multiply and one add per coefficient pair."""
    d = a.d
    if a.is_zero() or b.is_zero():
        return UPoly.zero(d)
    out = [QuadExt(0, 0, d)] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return UPoly(out, d)


def schoolbook_add(a: UPoly, b: UPoly, sign: int = 1) -> UPoly:
    """a + sign*b, coefficient by coefficient."""
    n = max(len(a.coeffs), len(b.coeffs))
    return UPoly([a.coeff(i) + b.coeff(i) * sign for i in range(n)], a.d)


def schoolbook_scale(a: UPoly, c: Scalar) -> UPoly:
    """c*a, one QuadExt multiply per coefficient."""
    return UPoly([x * c for x in a.coeffs], a.d)


def schoolbook_divmod(a: UPoly, b: UPoly) -> Tuple[UPoly, UPoly]:
    """Long division: (q, r) with a = q*b + r and deg r < deg b."""
    d = a.d
    q, r = UPoly.zero(d), a
    while r.degree >= b.degree:
        shift = len(r.coeffs) - len(b.coeffs)
        t = UPoly([0] * shift + [r.lc() / b.lc()], d)
        q, r = schoolbook_add(q, t), schoolbook_add(r, schoolbook_mul(t, b), -1)
    return q, r


def poly_xgcd(a: UPoly, b: UPoly) -> Tuple[UPoly, UPoly, UPoly]:
    """Extended gcd: returns monic g and u, v with u*a + v*b = g."""
    d = a.d
    r0, r1 = a, b
    s0, s1 = UPoly.one(d), UPoly.zero(d)
    t0, t1 = UPoly.zero(d), UPoly.one(d)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = r0.lc().inverse()
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def squarefree_part(f: UPoly) -> UPoly:
    """The monic radical: the product of the distinct irreducible factors."""
    result = UPoly.one(f.d)
    for part, _ in squarefree_decompose(f):
        result = result * part
    return result


def degree_xi(p: BiPoly) -> Degree:
    """The degree of p in xi (-inf for the zero polynomial)."""
    return max((r.degree for r in p.rows if not r.is_zero()), default=NEG_INF)
