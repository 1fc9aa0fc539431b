"""Acceptance gate: eight end-to-end criteria, one summary line each.

Each test is one gate; the conftest terminal hook prints a PASS/FAIL
line per gate at the end of the run.  All checks are exact unless the
numerical oracle in gate 8 is explicitly involved.
"""

import random
import time
from fractions import Fraction

from conftest import rand_scalar
from oracles import (
    auxiliary_polynomial,
    multiplicity,
    omega,
    partition,
    pole_classes,
    ratfunc_eval,
    recombine,
)

from artifact.criteria import (
    _ode_solutions,
    build_rho,
    certify,
    divide_by_rho,
    simplicity_profile,
)
from artifact.exactalg import (
    FieldSpec,
    RatFunc,
    UPoly,
    factor_irreducible,
    partial_fractions,
)
from artifact.unfoldings import (
    DoubleHopfParams,
    FoldHopfParams,
    double_hopf_system,
    fold_hopf_system,
    theorem_conditions,
)
from artifact.varcalc import kappa_coefficients

F = FieldSpec(2)
RT = F.surd()
SEED = 20260814


def xp(*coeffs) -> UPoly:
    return UPoly([F(c) for c in coeffs], 2)


def factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


# ---------------------------------------------------------------------------
# Gate 1: fold-Hopf variational coefficients match the closed form
# ---------------------------------------------------------------------------


def test_gate_1_fold_hopf_kappa_closed_form():
    rng = random.Random(SEED)
    for trial in range(10):
        mu = rand_scalar(rng, F)
        nu = rand_scalar(rng, F)
        alpha = rand_scalar(rng, F)
        s = rng.choice([1, -1])
        params = FoldHopfParams(F, mu, nu, alpha, s=s)
        start = time.perf_counter()
        system, curve = fold_hopf_system(params)
        vd = kappa_coefficients(system, curve, 7)
        lin = xp(0, 1) * alpha + nu  # alpha*xi + nu
        quad = xp(0, 0, 1) + mu  # xi^2 + mu
        for k in range(1, 8):
            if k % 2 == 0:
                assert vd.kappa(k).is_zero(), (trial, k)
                continue
            j = (k + 1) // 2
            lead = F(factorial(k)) * (F(-s)) ** (j - 1)
            expected = RatFunc(lin * lead, quad**j)
            assert vd.kappa(k) == expected, (trial, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"tuple {trial} took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# Gate 2: double-Hopf chart-1 variational coefficients match the closed form
# ---------------------------------------------------------------------------


def test_gate_2_double_hopf_kappa_closed_form():
    rng = random.Random(SEED + 1)
    mu = F(1)
    for trial in range(10):
        nu = rand_scalar(rng, F)
        alpha = rand_scalar(rng, F)
        beta = rand_scalar(rng, F)
        s = rng.choice([1, -1])
        params = DoubleHopfParams(F, mu, nu, alpha, beta, s=s)
        start = time.perf_counter()
        system, curve = double_hopf_system(params, chart=1)
        vd = kappa_coefficients(system, curve, 7)
        denom_base = xp(0, 1) * (xp(0, 0, 1) - mu)  # xi*(xi^2 - mu)
        quad = xp(0, 0, 1) - mu
        expected1 = RatFunc(-(xp(0, 0, 1) * alpha + nu), denom_base)
        assert vd.kappa(1) == expected1, trial
        for k in range(2, 8):
            if k % 2 == 0:
                assert vd.kappa(k).is_zero(), (trial, k)
                continue
            j = (k - 1) // 2
            lead = F(factorial(k)) * beta ** (j - 1)
            num = (xp(0, 0, 1) * (alpha * beta + F(s)) + (beta * nu - mu * F(s)))
            expected = RatFunc(-(num * lead), xp(0, 1) * quad ** (j + 1))
            assert vd.kappa(k) == expected, (trial, k)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"tuple {trial} took {elapsed:.2f} s"


# ---------------------------------------------------------------------------
# Gate 3: fundamental-solution residues and exponential part
# ---------------------------------------------------------------------------


def test_gate_3_omega_residues():
    rng = random.Random(SEED + 2)
    for trial in range(6):
        nu = rand_scalar(rng, F, nonzero=True)
        alpha = rand_scalar(rng, F, nonzero=True)

        # mu = -1: two simple poles, residues (alpha -+ nu)/2 at xi = -+1.
        params = FoldHopfParams(F, -1, nu, alpha)
        system, curve = fold_hopf_system(params)
        k1 = kappa_coefficients(system, curve, 1).kappa(1)
        om = omega(k1)
        assert om.exp_part.is_zero()
        by_class = {
            tuple(e.cls.factor.coeffs): e.constant_value() for e in om.residues
        }
        assert by_class[tuple(xp(-1, 1).coeffs)] == (alpha + nu) / 2  # root +1
        assert by_class[tuple(xp(1, 1).coeffs)] == (alpha - nu) / 2  # root -1

        # mu = 0: double pole at 0, exponential part -nu/xi, residue alpha.
        params0 = FoldHopfParams(F, 0, nu, alpha)
        system0, curve0 = fold_hopf_system(params0)
        k10 = kappa_coefficients(system0, curve0, 1).kappa(1)
        om0 = omega(k10)
        assert om0.exp_part == RatFunc(UPoly.constant(-nu, 2), xp(0, 1))
        assert len(om0.residues) == 1
        entry = om0.residues[0]
        assert tuple(entry.cls.factor.coeffs) == tuple(xp(0, 1).coeffs)
        assert entry.constant_value() == alpha


# ---------------------------------------------------------------------------
# Gate 4: end-to-end certificates
# ---------------------------------------------------------------------------


def test_gate_4_end_to_end_certificates():
    def timed_certify(system, curve):
        start = time.perf_counter()
        cert = certify(system, curve, K=9)
        assert time.perf_counter() - start < 2.0
        return cert

    # (a) both signs of s: criterion (iv) at k = 3
    for s in (1, -1):
        cert = timed_certify(*fold_hopf_system(FoldHopfParams(F, -1, 1, RT, s=s)))
        assert (cert.status, cert.fired_k, cert.fired_criterion) == (
            "nonintegrable", 3, "iv",
        )

    # (b) cancellation at alpha = nu: criterion (i) at k = 3
    cert = timed_certify(*fold_hopf_system(FoldHopfParams(F, -1, RT, RT)))
    assert (cert.status, cert.fired_k, cert.fired_criterion) == (
        "nonintegrable", 3, "i",
    )

    # (c) mu = 0
    cert = timed_certify(*fold_hopf_system(FoldHopfParams(F, 0, 1, RT)))
    assert (cert.status, cert.fired_k) == ("nonintegrable", 3)

    # (d) double-Hopf chart 1: the polynomial-solution nonexistence test
    cert = timed_certify(
        *double_hopf_system(
            DoubleHopfParams(F, 1, RT, Fraction(1, 2), 1), chart=1
        )
    )
    assert (cert.status, cert.fired_k, cert.fired_criterion) == (
        "nonintegrable", 3, "iii",
    )

    # (e) rational residues: inconclusive with an H1-failure verdict
    cert = timed_certify(*fold_hopf_system(FoldHopfParams(F, -1, 2, 3)))
    assert cert.status == "inconclusive"
    assert cert.h1 is not None and cert.h1.holds is False
    assert cert.h1.reason == "all-residues-rational"
    assert cert.orders == ()


# ---------------------------------------------------------------------------
# Gate 5: rho-division closed forms
# ---------------------------------------------------------------------------


def test_gate_5_rho_division_closed_forms():
    # fold-Hopf, mu = -1, alpha != 1, alpha != +-nu, j in {2, 3}:
    # rho_bar = k!(-s)^(j-1) alpha / (2(j-1)(alpha-1)),
    # rho_tilde = -k!(-s)^(j-1) nu / (alpha-1).
    combos = [(RT, F(1)), (F(2), RT), (RT / 2, F(3))]
    for alpha, nu in combos:
        for s in (1, -1):
            params = FoldHopfParams(F, -1, nu, alpha, s=s)
            system, curve = fold_hopf_system(params)
            vd = kappa_coefficients(system, curve, 5)
            k1 = vd.kappa(1)
            for j in (2, 3):
                k = 2 * j - 1
                kk = vd.kappa(k)
                part = partition(k1, kk)
                rho = build_rho(k1, part, k)
                rho_bar, rho_tilde, n_bar = divide_by_rho(kk.num, rho)
                assert n_bar == 0
                lead = F(factorial(k)) * F(-s) ** (j - 1)
                denom = (alpha - 1) * (2 * (j - 1))
                assert rho_bar == UPoly.constant(lead * alpha / denom, 2)
                assert rho_tilde == UPoly.constant(
                    -lead * nu / (alpha - 1), 2
                )

    # double-Hopf, beta = 0, k = 3: empty partition, rho_bar = 0,
    # rho_tilde = -6s.
    for mu, nu, alpha in [
        (F(1), RT, F(Fraction(1, 2))),
        (F(-2), F(1), RT),
        (F(Fraction(1, 2)), RT, F(2)),
    ]:
        for s in (1, -1):
            params = DoubleHopfParams(F, mu, nu, alpha, 0, s=s)
            system, curve = double_hopf_system(params, chart=1)
            vd = kappa_coefficients(system, curve, 3)
            k1, k3 = vd.kappa(1), vd.kappa(3)
            part = partition(k1, k3)
            assert not part.shared and not part.new
            rho = build_rho(k1, part, 3)
            assert rho == k1.num * 2
            rho_bar, rho_tilde, n_bar = divide_by_rho(k3.num, rho)
            assert rho_bar.is_zero() and n_bar == 0
            assert rho_tilde == UPoly.constant(F(-6 * s), 2)


# ---------------------------------------------------------------------------
# Gate 6: theorem-conditions cross-validation sweep
# ---------------------------------------------------------------------------


def test_gate_6_theorem_cross_validation_sweep():
    """Whenever a clause evaluator claims nonintegrability, the certifier
    must confirm it at some order k <= 9, over seeded pools of >= 50
    tuples per family."""
    irr = [RT, 2 * RT, -RT, RT / 2, 3 * RT]
    rat = [F(Fraction(1, 4)), F(Fraction(-1, 2)), F(Fraction(3, 4)), F(2), F(-1)]
    mus = [F(-1), F(1), F(2), F(-2), F(0), F(Fraction(1, 2))]
    pool = irr + rat + [F(0)]
    rng = random.Random(SEED)
    start = time.perf_counter()

    fh_claims = 0
    for _ in range(60):
        params = FoldHopfParams(
            F, rng.choice(mus), rng.choice(pool), rng.choice(pool),
            s=rng.choice([1, -1]),
        )
        report = theorem_conditions(params, "1.3")
        cert = certify(*fold_hopf_system(params), K=9)
        if report.any_clause_holds:
            fh_claims += 1
            assert cert.status == "nonintegrable" and cert.fired_k <= 9, (
                f"clause holds but certificate is {cert.status}: {params}"
            )

    dh_claims = 0
    for i in range(60):
        params = DoubleHopfParams(
            F, rng.choice(mus), rng.choice(pool), rng.choice(pool),
            rng.choice(pool), s=rng.choice([1, -1]),
        )
        chart = 1 if i < 30 else 2
        report = theorem_conditions(params, "1.4" if chart == 1 else "1.5")
        cert = certify(*double_hopf_system(params, chart=chart), K=9)
        if report.any_clause_holds:
            dh_claims += 1
            assert cert.status == "nonintegrable" and cert.fired_k <= 9, (
                f"clause holds but certificate is {cert.status}:"
                f" chart {chart}, {params}"
            )

    elapsed = time.perf_counter() - start
    assert fh_claims >= 30 and dh_claims >= 30
    assert elapsed < 120.0, f"sweep took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# Gate 7: chart-2 certificates equal chart-1 certificates under the swap
# ---------------------------------------------------------------------------


def test_gate_7_chart_two_equivalence():
    rng = random.Random(SEED + 3)
    for trial in range(20):
        params = DoubleHopfParams(
            F,
            rand_scalar(rng, F),
            rand_scalar(rng, F),
            rand_scalar(rng, F),
            rand_scalar(rng, F),
            s=rng.choice([1, -1]),
        )
        swapped = DoubleHopfParams(
            F,
            mu=params.nu,
            nu=params.mu,
            alpha=-(params.beta * params.s),
            beta=params.alpha,
            s=-1,
        )
        cert2 = certify(*double_hopf_system(params, chart=2), K=7)
        cert1 = certify(*double_hopf_system(swapped, chart=1), K=7)
        key = lambda c: (c.status, c.fired_k, c.fired_criterion, c.trace)
        assert key(cert2) == key(cert1), trial


# ---------------------------------------------------------------------------
# Gate 8: randomized algebra identities and the numerical kappa oracle
# ---------------------------------------------------------------------------


def test_gate_8_property_and_numerical_oracles():
    from conftest import rand_upoly

    rng = random.Random(SEED + 4)

    # Reconstruction identities.
    for _ in range(150):
        f = rand_upoly(rng, F, 5)
        g = rand_upoly(rng, F, 4, nonzero=True)
        q, r = divmod(f, g)
        assert q * g + r == f and (r.is_zero() or r.degree < g.degree)
    for _ in range(40):
        num = rand_upoly(rng, F, 3)
        den = rand_upoly(rng, F, 3, nonzero=True)
        f = RatFunc(num, den)
        assert recombine(partial_fractions(f, pole_classes(f))) == f
    for _ in range(40):
        p = rand_upoly(rng, F, 4, nonzero=True)
        if p.degree < 1:
            continue
        rebuilt = UPoly.constant(p.lc(), 2)
        for cls in factor_irreducible(p):
            rebuilt = rebuilt * cls.factor**cls.multiplicity
        assert rebuilt == p

    # ODE solver substitution identity.
    for _ in range(40):
        A = rand_upoly(rng, F, 3, nonzero=True)
        rho = rand_upoly(rng, F, 2)
        z = rand_upoly(rng, F, 2)
        rhs = A * z.derivative() + rho * z
        found = _ode_solutions(A, rho, rhs)[0]
        assert found is not None
        assert A * found.derivative() + rho * found == rhs

    # simplicity profile against the double-root oracle for b in 1..5.
    checked = 0
    for params in [
        FoldHopfParams(F, -1, 1, RT),
        DoubleHopfParams(F, 1, RT, Fraction(1, 2), 1),
    ]:
        if isinstance(params, FoldHopfParams):
            system, curve = fold_hopf_system(params)
        else:
            system, curve = double_hopf_system(params, chart=1)
        vd = kappa_coefficients(system, curve, 5)
        k1 = vd.kappa(1)
        for k in (3, 5):
            part = partition(k1, vd.kappa(k))
            prof = simplicity_profile(k1, part, k)
            for idx, cls in enumerate(prof.classes):
                for b in range(1, 6):
                    multipliers = [1] * len(part.shared)
                    multipliers[idx] = b
                    aux = auxiliary_polynomial(k1, part, k, multipliers)
                    doubled = (
                        True if aux.is_zero()
                        else multiplicity(cls.factor, aux) >= 2
                    )
                    assert doubled == (cls.bad_b == F(b)), (params, k, idx, b)
                    checked += 1
    assert checked >= 40

    # Numerical oracle: high-precision differentiation of R(xi, w) in w.
    from mpmath import mp, mpf, sqrt as mpsqrt, diff

    mp.dps = 60

    def num_scalar(c):
        return (
            mpf(c.a.numerator) / mpf(c.a.denominator)
            + mpf(c.b.numerator) / mpf(c.b.denominator) * mpsqrt(2)
        )

    def num_bipoly(p, x, y):
        total = mpf(0)
        for j in range(p.degree_eta + 1):
            row = p.row(j)
            rowval = mpf(0)
            for i, c in enumerate(row.coeffs):
                rowval += num_scalar(c) * x**i
            total += rowval * y**j
        return total

    systems = [
        fold_hopf_system(FoldHopfParams(F, -1, 1, RT)),
        double_hopf_system(DoubleHopfParams(F, 1, RT, Fraction(1, 2), 1)),
    ]
    points = [
        Fraction(n, d)
        for d in (3, 5, 7, 9, 11)
        for n in (-2, -1, 1, 2)
        if abs(Fraction(n, d)) != 1
    ]
    assert len(points) >= 20
    for system, curve in systems:
        vd = kappa_coefficients(system, curve, 5)
        for x0 in points:
            x_num = mpf(x0.numerator) / mpf(x0.denominator)
            f = lambda w: (
                num_bipoly(system.Q, x_num, w) / num_bipoly(system.P, x_num, w)
            )
            for k in range(1, 6):
                exact = ratfunc_eval(vd.kappa(k), F(x0))
                numeric = diff(f, 0, n=k)
                scale = max(mpf(1), abs(num_scalar(exact)))
                assert abs(numeric - num_scalar(exact)) / scale <= mpf(
                    "1e-9"
                ), (x0, k)
