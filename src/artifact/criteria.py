"""The nonintegrability criteria battery and the certificate driver.

Pipeline: a transcendence verdict for the first-order solution Omega
(condition H1), then for each order k >= 2 a battery of sufficient
criteria for condition H2 built from exact root bookkeeping:

* the denominator of kappa_k is partitioned against the denominator of
  kappa_1 into shared and new irreducible root classes with signed
  exponents;
* a per-class simplicity analysis locates the single multiplier value at
  which an auxiliary polynomial can acquire a double root;
* an auxiliary polynomial rho_k and the division of the kappa_k
  numerator by it feed degree comparisons;
* a first-order linear ODE is solved exactly over polynomials as the
  catch-all test, and an existing coprime solution refutes H2 at that
  order (recorded as a witness rather than a certificate).

Everything is exact; no criterion is ever decided numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .exactalg import (
    FactorClass,
    QuadExt,
    RatFunc,
    UPoly,
    coprime,
    poly_gcd,
)
from .varcalc import (
    CurveData,
    InvalidInputError,
    OmegaData,
    PlanarSystem,
    ResidueEntry,
    VariationalData,
    kappa_coefficients,
    omega_decompose,
)

MAX_ORDER_CAP = 25
DEFAULT_MAX_ORDER = 9

STATUS_NONINTEGRABLE = "nonintegrable"
STATUS_INCONCLUSIVE = "inconclusive"
STATUS_INAPPLICABLE = "inapplicable"

# ---------------------------------------------------------------------------
# Root partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharedClass:
    """An irreducible factor of the kappa_1 denominator whose multiplicity
    changes in the kappa_k denominator: exponent a1 = mult_k - mult_1 != 0."""

    factor: UPoly
    b1: int
    a1: int


@dataclass(frozen=True)
class NewClass:
    """An irreducible factor of the kappa_k denominator that does not
    divide the kappa_1 denominator; exponent ak = its multiplicity >= 1."""

    factor: UPoly
    ak: int


@dataclass(frozen=True)
class RootPartition:
    shared: Tuple[SharedClass, ...]
    new: Tuple[NewClass, ...]
    n1: int
    nk: int
    rad1: UPoly
    radk: UPoly


def partition_roots(
    kappa1: RatFunc,
    kappak: RatFunc,
    classes1: Sequence[FactorClass],
    classesk: Sequence[FactorClass],
) -> RootPartition:
    """Partition the kappa_k denominator against the kappa_1 denominator
    (kappa_k nonzero; certify skips an order where it vanishes).

    Classes whose multiplicity does not change are absorbed and omitted.
    Root counts n1, nk count distinct roots, i.e. sum the class degrees.
    classes1 and classesk are the irreducible factorizations of the two
    denominators (VariationalData.classes); the partition is checked to
    reconstruct the kappa_k denominator from the kappa_1 denominator.
    """
    d = kappa1.d
    k1d, kkd = kappa1.den, kappak.den
    mult1: Dict[UPoly, int] = {c.factor: c.multiplicity for c in classes1}
    multk: Dict[UPoly, int] = {c.factor: c.multiplicity for c in classesk}
    shared: List[SharedClass] = []
    new: List[NewClass] = []
    for p in sorted(mult1, key=lambda q: q.sort_key()):
        m1 = mult1[p]
        mk = multk.get(p, 0)
        if mk != m1:
            shared.append(SharedClass(factor=p, b1=m1, a1=mk - m1))
    for p in sorted(multk, key=lambda q: q.sort_key()):
        if p not in mult1:
            new.append(NewClass(factor=p, ak=multk[p]))
    rad1 = UPoly.one(d)
    for c in shared:
        rad1 = rad1 * c.factor
    radk = UPoly.one(d)
    for c in new:
        radk = radk * c.factor
    part = RootPartition(
        shared=tuple(shared),
        new=tuple(new),
        n1=sum(int(c.factor.degree) for c in shared),
        nk=sum(int(c.factor.degree) for c in new),
        rad1=rad1,
        radk=radk,
    )
    _assert_partition_reconstructs(k1d, kkd, part)
    return part


def _assert_partition_reconstructs(
    k1d: UPoly, kkd: UPoly, part: RootPartition
) -> None:
    num = k1d
    den = UPoly.one(k1d.d)
    for c in part.shared:
        if c.a1 > 0:
            num = num * c.factor**c.a1
        else:
            den = den * c.factor ** (-c.a1)
    for c in part.new:
        num = num * c.factor**c.ak
    if num != kkd * den:
        raise AssertionError("root partition does not reconstruct kappa_kd")


# ---------------------------------------------------------------------------
# Simplicity profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassSimplicity:
    """Where the class root can fail to be a simple zero of the auxiliary
    polynomial, as a function of the free multiplier b attached to it.

    bad_b is the unique value of b at which simplicity fails, or None
    when no value can break it.  Failure requires the class root to be a
    simple root of the kappa_1 denominator and the residue of kappa_1
    there to be constant across the conjugate roots.
    """

    factor: UPoly
    a1: int
    bad_b: Optional[QuadExt]

    @property
    def simple_for_all_b(self) -> bool:
        """Simple for every natural multiplier value."""
        return self.bad_b is None or not self.bad_b.is_natural()

    @property
    def simple_whenever_bj_gt_1(self) -> bool:
        """Simple for every multiplier value >= 2."""
        return self.simple_for_all_b or self.bad_b == 1


@dataclass(frozen=True)
class SimplicityProfile:
    k: int
    classes: Tuple[ClassSimplicity, ...]

    @property
    def all_simple_whenever_bj_gt_1(self) -> bool:
        return all(c.simple_whenever_bj_gt_1 for c in self.classes)

    def criterion_ii_fires(self) -> bool:
        """Every class either never breaks or breaks exactly at b = 1,
        and at least one class does break at b = 1."""
        return self.all_simple_whenever_bj_gt_1 and any(
            c.bad_b == 1 for c in self.classes)


def simplicity_profile(
    om: OmegaData, part: RootPartition, k: int
) -> SimplicityProfile:
    """Locate, per shared class, the multiplier value that breaks simplicity.

    At a shared root xi* with exponent a1, the auxiliary polynomial has a
    double root exactly when b = (k-1)*res - a1 + 1, res the residue of
    kappa_1 at xi*.  That residue is Omega's, read off om.residues as an
    element of K[xi]/(p) (a class without an entry has residue 0).  A
    multiple pole of kappa_1 (b1 >= 2, where kappa_1d' vanishes at the
    class) or a non-constant residue means no natural b can break
    simplicity.
    """
    residues = {e.cls.factor: e.residue for e in om.residues}
    zero = UPoly.zero(om.kappa1.d)
    classes: List[ClassSimplicity] = []
    for c in part.shared:
        bad: Optional[QuadExt] = None
        if c.b1 == 1:
            rep = residues.get(c.factor, zero) * (k - 1)
            if rep.degree <= 0:
                bad = rep.coeff(0) - c.a1 + 1
        classes.append(ClassSimplicity(factor=c.factor, a1=c.a1, bad_b=bad))
    return SimplicityProfile(k=k, classes=tuple(classes))


# ---------------------------------------------------------------------------
# rho and the polynomial ODE
# ---------------------------------------------------------------------------


def build_rho(kappa1: RatFunc, part: RootPartition, k: int) -> UPoly:
    """The degree-bookkeeping polynomial

        rho_k = (k-1)*kappa_1n*radk
                - kappa_1d * sum_new (ak-1) * p' * prod_other
                - (kappa_1d*radk/rad1) * sum_shared a1 * p' * prod_other,

    with each root sum evaluated per conjugate class.  The third term's
    division is exact because every shared class divides kappa_1d.
    """
    d = kappa1.d
    term1 = (kappa1.num * (k - 1)) * part.radk
    s_new = UPoly.zero(d)
    for c in part.new:
        if c.ak == 1:
            continue
        s_new = s_new + (c.ak - 1) * c.factor.derivative() * part.radk.exact_div(
            c.factor
        )
    term2 = kappa1.den * s_new
    s_shared = UPoly.zero(d)
    for c in part.shared:
        s_shared = s_shared + c.a1 * c.factor.derivative() * part.rad1.exact_div(
            c.factor
        )
    cofactor = (kappa1.den * part.radk).exact_div(part.rad1)
    term3 = cofactor * s_shared
    return term1 - term2 - term3


def divide_by_rho(
    kappakn: UPoly, rho: UPoly
) -> Tuple[UPoly, UPoly, int]:
    """kappa_kn = rho_bar * rho + rho_tilde with deg rho_tilde < deg rho;
    n_bar counts the distinct roots of rho_bar (0 for a constant): in
    characteristic 0 that is deg rho_bar - deg gcd(rho_bar, rho_bar')."""
    if rho.is_zero():
        raise ValueError("rho vanishes identically (degenerate order)")
    rho_bar, rho_tilde = divmod(kappakn, rho)
    n_bar = 0
    if not rho_bar.is_constant():
        gcd = poly_gcd(rho_bar, rho_bar.derivative())
        n_bar = int(rho_bar.degree - gcd.degree)
    return rho_bar, rho_tilde, n_bar


def _ode_solutions(
    A: UPoly, rho: UPoly, rhs: UPoly
) -> Tuple[Optional[UPoly], Optional[UPoly]]:
    """All polynomial solutions of A z' + rho z = rhs.

    Returns (particular, kernel generator), or (None, None) when there is
    no solution.  The kernel is at most one-dimensional (two independent
    solutions of the homogeneous equation would have a constant ratio).
    The unknowns are z_0..z_n: the degree bound n comes from leading-term
    analysis, with degree 0 always admitted (a constant solution
    contributes no z' term and escapes that analysis) and a safety margin
    of two extra degrees.  The equations are the coefficients of x^m.

    With lead = max(deg A - 1, deg rho), the unknown z_i reaches no row
    above m = i + lead, where its coefficient is c(i) = i*A[lead+1] +
    rho[lead].  The system is therefore triangular and is solved by
    back-substitution in exact arithmetic: for i = n, ..., 0, row i + lead
    fixes z_i from the z_j (j > i) already known.  c(i) vanishes at most at
    one index, the resonance; there z_i becomes a free parameter t, and the
    unknowns below it are carried as p_i + t*q_i.  The rows no unknown
    tops -- the resonant row and the rows below lead -- are consistency
    checks a + b*t = 0, each of which rejects the system, fixes t, or holds
    for every t; the kernel survives only when no check fixes t.  No row
    lies above n + lead, since n + lead > deg rhs.

    The pair is normalised as reduced echelon form normalises it: the
    kernel generator has its top nonzero coefficient (at the resonance)
    equal to 1, and the particular solution is 0 at that index.  Both are
    checked, so every particular + t*kernel solves the equation.
    """
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


def _coprime_solution(
    A: UPoly, rho: UPoly, rhs: UPoly, part: RootPartition
) -> Optional[UPoly]:
    """A polynomial solution coprime to the classes of `part`, or None.

    The solution set is an affine family z = particular + t * kernel.
    A marked class p rules out the whole family iff p divides both the
    particular solution and the kernel generator; otherwise at most one
    scalar t per class is bad, and a small integer t avoids them all.
    """
    particular, kernel = _ode_solutions(A, rho, rhs)
    if particular is None:
        return None
    marked = part.rad1 * part.radk
    if marked.degree < 1:
        return particular
    if kernel is None:
        return particular if coprime(particular, marked) else None
    for p in (c.factor for c in part.shared + part.new):
        if (particular % p).is_zero() and (kernel % p).is_zero():
            return None
    bound = int(marked.degree) + 2
    for t in range(bound):
        candidate = particular + kernel * t
        if coprime(candidate, marked):
            return candidate
    raise AssertionError("coprime representative search must terminate")


# ---------------------------------------------------------------------------
# H2 refutation witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class H2FailureWitness:
    """A coprime polynomial solution of the order-k ODE refutes H2 there.

    theta_log_derivative is the exact logarithmic derivative
    (k-1)*kappa_1 - sum_shared a1*p'/p - sum_new (ak-1)*p'/p + z'/z,
    a rational function certifying that theta_k is non-transcendental.
    build_rho puts the class terms over A = kappa_1d*radk, as rho/A, and
    z solves A z' + rho z = kappa_kn, so the sum is the single quotient
    rho/A + z'/z = (A z' + rho z)/(A z) = kappa_kn/(A z).
    """

    k: int
    solution: UPoly
    theta_log_derivative: RatFunc


def _assemble_witness(
    k: int, A: UPoly, kappakn: UPoly, z: UPoly
) -> H2FailureWitness:
    return H2FailureWitness(
        k=k, solution=z, theta_log_derivative=RatFunc(kappakn, A * z)
    )


# ---------------------------------------------------------------------------
# The criterion battery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderDiagnostics:
    n1: int
    nk: int
    deg_kappa1d: int
    deg_kappakn: int
    rho: Optional[UPoly] = None
    rho0: Optional[QuadExt] = None
    rho_bar: Optional[UPoly] = None
    rho_tilde: Optional[UPoly] = None
    n_bar: Optional[int] = None
    degenerate_rho: bool = False


@dataclass(frozen=True)
class CriterionOutcome:
    k: int
    fired: Optional[str]
    precondition_failures: Tuple[str, ...] = ()
    extra_hypothesis_ok: bool = True
    h2_failure: Optional[H2FailureWitness] = None
    diagnostics: Optional[OrderDiagnostics] = None
    skipped: bool = False
    partition: Optional[RootPartition] = None
    simplicity: Optional[SimplicityProfile] = None


def criterion_scan(
    k: int,
    kappa1: RatFunc,
    kappak: RatFunc,
    part: RootPartition,
    prof: SimplicityProfile,
) -> CriterionOutcome:
    """Run the battery at order k; first firing criterion wins.

    Order: the cheap class tests (i), (ii); then, under the simplicity
    hypothesis for multipliers > 1, the degree tests (iv), (v), (vi) and
    finally the ODE test (iii).  (iii) runs last because it is the most
    expensive test and its failure doubles as an H2 refutation: when
    (iii) is reached and a coprime polynomial solution exists, that
    solution refutes H2 at this order and is attached as a witness
    instead of a firing.
    """
    def outcome(**kw) -> CriterionOutcome:
        return CriterionOutcome(k=k, partition=part, simplicity=prof, **kw)

    failures: List[str] = []
    if kappa1.num.is_zero():
        failures.append("kappa_1 numerator vanishes identically")
    if kappak.num.is_zero():
        failures.append("kappa_k numerator vanishes identically")
    if (
        not kappa1.num.is_zero()
        and part.rad1.degree >= 1
        and not coprime(kappak.num, part.rad1)
    ):
        failures.append("kappa_k numerator vanishes at a shared root")
    base_diag = OrderDiagnostics(
        n1=part.n1,
        nk=part.nk,
        deg_kappa1d=int(kappa1.den.degree),
        deg_kappakn=int(kappak.num.degree) if not kappak.num.is_zero() else 0,
    )
    if failures:
        return outcome(
            fired=None,
            precondition_failures=tuple(failures),
            diagnostics=base_diag,
        )

    # (i): a new class of exponent exactly 1.
    if any(c.ak == 1 for c in part.new):
        return outcome(fired="i", diagnostics=base_diag)

    # (ii): simplicity breaks exactly at multiplier 1 somewhere, and
    # nowhere at any larger multiplier.
    if prof.criterion_ii_fires():
        return outcome(fired="ii", diagnostics=base_diag)

    # Hypothesis for the remaining tests: simplicity for multipliers > 1.
    if not prof.all_simple_whenever_bj_gt_1:
        return outcome(
            fired=None,
            extra_hypothesis_ok=False,
            diagnostics=base_diag,
        )

    rho = build_rho(kappa1, part, k)
    deg_k1d = int(kappa1.den.degree)
    deg_kkn = int(kappak.num.degree)
    if rho.is_zero():
        diag = replace(base_diag, rho=rho, degenerate_rho=True)
        fired, witness = _run_ode_test(k, kappa1, kappak, part, rho)
        return outcome(fired=fired, h2_failure=witness, diagnostics=diag)

    rho_bar, rho_tilde, n_bar = divide_by_rho(kappak.num, rho)
    rho0 = rho.lc()
    diag = replace(base_diag, rho=rho, rho0=rho0, rho_bar=rho_bar,
                   rho_tilde=rho_tilde, n_bar=n_bar)
    deg_rho = int(rho.degree)
    lhs_degree = deg_k1d + part.nk

    # (iv)
    if n_bar == 0:
        iva = rho_bar.is_zero() or not rho_tilde.is_zero()
        ivb = lhs_degree != deg_rho + 1 or not (-rho0).is_natural()
        if iva and ivb:
            return outcome(fired="iv", diagnostics=diag)

    # (v)
    if n_bar > 0 and lhs_degree > max(deg_kkn, deg_rho + 1):
        return outcome(fired="v", diagnostics=diag)

    # (vi)
    if n_bar > 0 and lhs_degree < deg_rho - int(rho_bar.degree) + 1:
        marked = part.rad1 * part.radk
        via = marked.degree >= 1 and not coprime(rho_bar, marked)
        vib = rho_tilde != kappa1.den * rho_bar.derivative() * part.radk
        if via or vib:
            return outcome(fired="vi", diagnostics=diag)

    # (iii), last: the ODE catch-all.
    fired, witness = _run_ode_test(k, kappa1, kappak, part, rho)
    return outcome(fired=fired, h2_failure=witness, diagnostics=diag)


def _run_ode_test(
    k: int,
    kappa1: RatFunc,
    kappak: RatFunc,
    part: RootPartition,
    rho: UPoly,
) -> Tuple[Optional[str], Optional[H2FailureWitness]]:
    """Criterion (iii): no polynomial solution coprime to the marked roots.

    A found coprime solution refutes H2 at this order (all new classes
    have exponent >= 2 here, since (i) did not fire), so it is returned
    as a witness.
    """
    A = kappa1.den * part.radk
    z = _coprime_solution(A, rho, kappak.num, part)
    if z is None:
        return "iii", None
    return None, _assemble_witness(k, A, kappak.num, z)


# ---------------------------------------------------------------------------
# Condition H1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class H1Verdict:
    """Transcendence verdict for Omega.

    Omega = e^E * prod p_c^{r_c} is transcendental over the rational
    functions iff E is nonzero or some residue r_c is not a rational
    number (a non-constant quotient-ring residue counts: its conjugate
    values are conjugate irrational algebraic numbers).
    """

    holds: bool
    reason: str  # nonzero-exp-part | irrational-residue | all-residues-rational
    witness: Union[RatFunc, ResidueEntry, None] = None


def check_H1(om: OmegaData) -> H1Verdict:
    if not om.exp_part.is_zero():
        return H1Verdict(
            holds=True, reason="nonzero-exp-part", witness=om.exp_part
        )
    for entry in om.residues:
        if not entry.is_rational_number():
            return H1Verdict(
                holds=True, reason="irrational-residue", witness=entry
            )
    return H1Verdict(holds=False, reason="all-residues-rational")


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """The assembled verdict for one system, curve, and order bound."""

    status: str
    system: PlanarSystem
    curve: CurveData
    max_order: int
    regular_at_infinity: bool
    omega: Optional[OmegaData]
    h1: Optional[H1Verdict]
    orders: Tuple[CriterionOutcome, ...]
    fired_k: Optional[int]
    fired_criterion: Optional[str]
    inconclusive_reason: Optional[str]
    trace: Tuple[str, ...]
    variational: Optional[VariationalData] = None

    @property
    def h2_failures(self) -> Tuple[H2FailureWitness, ...]:
        return tuple(
            o.h2_failure for o in self.orders if o.h2_failure is not None
        )


def certify(
    sys: PlanarSystem, curve: CurveData, K: int = DEFAULT_MAX_ORDER
) -> Certificate:
    """Run the full pipeline and assemble a certificate.

    Steps: kappa_1; the regularity gate at infinity (fail ->
    inapplicable); the H1 transcendence verdict (fail -> inconclusive);
    then the criterion battery for k = 2..K, stopping at the first firing
    order (-> nonintegrable).  kappa_k is computed only when the battery
    reaches order k, so no order above the stopping order is expanded.
    The one factorization is that of a_0 in kappa_coefficients, which
    also checks that the curve is integral; the pole classes of every
    kappa_k come with it (VariationalData.classes) and flow to
    omega_decompose and to every partition, and Omega's residues feed
    every simplicity profile.
    Input it cannot certify raises InvalidInputError.
    """
    if not 2 <= K <= MAX_ORDER_CAP:
        raise InvalidInputError(f"max order must lie in 2..{MAX_ORDER_CAP}")
    trace: List[str] = []
    vd = kappa_coefficients(sys, curve, K)
    kappa1 = vd.kappa(1)
    trace.append(f"kappa_1 = {kappa1}")
    om = omega_decompose(kappa1, vd.classes(1))

    def certificate(status: str, **fields) -> Certificate:
        fields = {"regular_at_infinity": True, "h1": None, "orders": (),
                  "fired_k": None, "fired_criterion": None,
                  "inconclusive_reason": None, **fields}
        return Certificate(status=status, system=sys, curve=curve,
                           max_order=K, omega=om, trace=tuple(trace),
                           variational=vd, **fields)

    if not om.regular_at_infinity:
        trace.append(
            "deg(kappa_1 denominator) <= deg(kappa_1 numerator):"
            " irregular at infinity; the method does not apply"
        )
        return certificate(STATUS_INAPPLICABLE, regular_at_infinity=False)
    h1 = check_H1(om)
    if h1.holds:
        trace.append(f"H1 holds ({h1.reason})")
    else:
        trace.append("H1 fails: every residue is rational and E = 0")
        return certificate(
            STATUS_INCONCLUSIVE, h1=h1, inconclusive_reason="h1-fails"
        )
    outcomes: List[CriterionOutcome] = []
    fired_k: Optional[int] = None
    fired_criterion: Optional[str] = None
    for k in range(2, K + 1):
        kappak = vd.kappa(k)
        if kappak.is_zero():
            outcomes.append(CriterionOutcome(
                k=k, fired=None, skipped=True,
                precondition_failures=("kappa_k vanishes identically",)))
            trace.append(f"k={k}: kappa_k = 0, skipped")
            continue
        part = partition_roots(kappa1, kappak, vd.classes(1), vd.classes(k))
        prof = simplicity_profile(om, part, k)
        outcome = criterion_scan(k, kappa1, kappak, part, prof)
        outcomes.append(outcome)
        if outcome.fired is not None:
            fired_k = k
            fired_criterion = outcome.fired
            trace.append(f"k={k}: criterion ({outcome.fired}) fires")
            break
        if outcome.h2_failure is not None:
            trace.append(
                f"k={k}: H2 refuted by polynomial solution"
                f" {outcome.h2_failure.solution}"
            )
        elif outcome.precondition_failures:
            trace.append(
                f"k={k}: preconditions not met:"
                f" {'; '.join(outcome.precondition_failures)}"
            )
        elif not outcome.extra_hypothesis_ok:
            trace.append(
                f"k={k}: simplicity hypothesis for multipliers > 1 violated"
            )
        else:
            trace.append(f"k={k}: no criterion fires")
    if fired_k is not None:
        return certificate(
            STATUS_NONINTEGRABLE, h1=h1, orders=tuple(outcomes),
            fired_k=fired_k, fired_criterion=fired_criterion,
        )
    trace.append(f"no criterion fired for any k <= {K}")
    return certificate(
        STATUS_INCONCLUSIVE, h1=h1, orders=tuple(outcomes),
        inconclusive_reason="no-criterion-fired",
    )
