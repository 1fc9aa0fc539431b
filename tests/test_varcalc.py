"""Variational coefficients kappa_k and the fundamental-solution data."""

import random
from fractions import Fraction

import pytest

from artifact.exactalg import (
    BiPoly,
    FactorClass,
    FieldSpec,
    RatFunc,
    UPoly,
    eval_mod,
    inverse_mod,
)
from artifact.expr import parse_bipoly, parse_ratfunc
from artifact.unfoldings import (
    DoubleHopfParams,
    FoldHopfParams,
    double_hopf_system,
    fold_hopf_system,
)
from artifact.varcalc import (
    CurveData,
    CurveInSingularLocusError,
    PlanarSystem,
    kappa_coefficients,
    omega_decompose,
)

from conftest import rand_scalar, rand_upoly
from oracles import (
    double_hopf_kappa,
    eval_eta,
    fold_hopf_kappa,
    is_integral_curve,
    kappa_by_differentiation,
    kappa_by_recurrence,
    omega,
    omega_by_partial_fractions,
    pole_classes,
)


def make_system(F, p_text, q_text, phi_text="0"):
    system = PlanarSystem(
        P=parse_bipoly(p_text, F), Q=parse_bipoly(q_text, F), field=F
    )
    curve = CurveData(phi=parse_ratfunc(phi_text, F))
    return system, curve


def test_verify_integral_curve(F2):
    """kappa_coefficients accepts exactly the curves that the
    substitution oracle finds integral."""
    cases = [
        ("eta^2 + xi^2 - 1", "rt*xi*eta + eta", "0", True),
        ("1", "xi - eta", "0", False),
        # P = xi, Q = -eta: (1/xi)' = -1/xi^2 = Q/P on eta = 1/xi
        ("xi", "-eta", "1/xi", True),
        ("xi", "eta", "1/xi", False),
        # eta = xi/(xi + 1) under P = (xi + 1)^2, Q = 1: a non-monic
        # numerator over a nonconstant denominator
        ("xi^2 + 2*xi + 1", "1", "xi/(xi + 1)", True),
        ("xi^2 + 2*xi + 1 + eta", "1", "xi/(xi + 1)", False),
    ]
    for p_text, q_text, phi_text, integral in cases:
        system, curve = make_system(F2, p_text, q_text, phi_text)
        assert is_integral_curve(system, curve) == integral
        if integral:
            kappa_coefficients(system, curve, 3)
        else:
            with pytest.raises(ValueError, match="not an integral curve"):
                kappa_coefficients(system, curve, 3)


def test_singular_curve_rejected(F2):
    system, curve = make_system(F2, "eta", "xi")
    with pytest.raises(CurveInSingularLocusError):
        kappa_coefficients(system, curve, 3)
    system, curve = make_system(F2, "xi*eta - 1", "eta", "1/xi")
    with pytest.raises(CurveInSingularLocusError):
        kappa_coefficients(system, curve, 3)


def test_non_integral_curve_rejected(F2):
    system, curve = make_system(F2, "1", "xi - eta")
    with pytest.raises(ValueError, match="not an integral curve"):
        kappa_coefficients(system, curve, 3)


def test_kappa_known_quadratic_foliation(F2):
    # R = Q/P with P = 1: kappa_k are literal eta-derivatives of Q on eta=0.
    system, curve = make_system(F2, "1", "xi*eta^2 + eta + xi^3")
    # Q/P = xi*eta^2 + eta + xi^3 but eta=0 must solve it: it does not
    # (Q(xi,0) = xi^3 != 0), so shift to a valid example:
    system, curve = make_system(F2, "1", "xi*eta^2 + eta")
    data = kappa_coefficients(system, curve, 4)
    assert data.kappa(1) == RatFunc.from_poly(UPoly.one(2))
    assert data.kappa(2) == RatFunc.from_poly(UPoly([0, 2], 2))
    assert data.kappa(3).is_zero() and data.kappa(4).is_zero()


def test_kappa_series_matches_differentiation_oracle(F2):
    rng = random.Random(97)
    trials = 0
    while trials < 6:
        # random system with eta | Q so that eta = 0 is integral; degrees
        # stay tiny because the oracle squares the denominator per order
        p_rows = [rand_upoly(rng, F2, 1) for _ in range(2)]
        q_rows = [UPoly.zero(2), rand_upoly(rng, F2, 1), rand_upoly(rng, F2, 1)]
        system = PlanarSystem(
            P=BiPoly(p_rows, 2), Q=BiPoly(q_rows, 2), field=F2
        )
        curve = CurveData(phi=RatFunc.zero(2))
        if eval_eta(system.P, curve.phi).is_zero():
            continue
        data = kappa_coefficients(system, curve, 3)
        oracle = kappa_by_differentiation(system, curve, 3)
        for k in range(1, 4):
            assert data.kappa(k) == oracle[k - 1]
        trials += 1


def test_kappa_requires_positive_order(F2):
    system, curve = make_system(F2, "eta^2 + xi^2 - 1", "rt*xi*eta + eta")
    with pytest.raises(ValueError):
        kappa_coefficients(system, curve, 0)


def test_omega_decompose_simple_poles(F2, rt2):
    # kappa_1 = (rt*xi + 1)/(xi^2 - 1): residues (1 + rt)/2 at 1, (rt - 1)/2 at -1
    f = parse_ratfunc("(rt*xi + 1)/(xi^2 - 1)", F2)
    om = omega(f)
    assert om.exp_part.is_zero()
    got = {}
    for entry in om.residues:
        root = -entry.cls.factor.coeff(0)
        got[(root.a, root.b)] = entry.residue.coeff(0)
        assert entry.cls.multiplicity == 1
        assert entry.residue.degree <= 0
    assert got[(Fraction(1), Fraction(0))] == (F2(1) + rt2) / F2(2)
    assert got[(Fraction(-1), Fraction(0))] == (rt2 - F2(1)) / F2(2)
    assert not om.residues[0].is_rational_number()


def test_omega_decompose_exponential_part(F2):
    # kappa_1 = 1/xi^2 + 3/xi: E = -1/xi, residue 3
    f = parse_ratfunc("(3*xi + 1)/(xi^2)", F2)
    om = omega(f)
    assert om.exp_part == parse_ratfunc("-1/xi", F2)
    assert len(om.residues) == 1
    assert om.residues[0].residue.coeff(0) == F2(3)
    assert om.residues[0].is_rational_number()


def test_omega_decompose_polynomial_part_integrates(F2):
    # kappa_1 = 2*xi + 1/(xi-1): E = xi^2
    f = parse_ratfunc("(2*xi^2 - 2*xi + 1)/(xi - 1)", F2)
    om = omega(f)
    assert om.exp_part == RatFunc.from_poly(UPoly([0, 0, 1], 2))
    assert om.residues[0].residue.coeff(0) == F2(1)


def test_omega_reconstruct_identity_random(F2):
    from conftest import rand_ratfunc

    rng = random.Random(103)
    checked = 0
    for _ in range(40):
        f = rand_ratfunc(rng, F2, max_degree=4)
        om = omega(f)
        assert om.reconstruct() == f
        checked += 1
    assert checked == 40


def _rand_class_factor(rng, F):
    """xi - c, or a monic quadratic irreducible over F."""
    if rng.random() < 0.5:
        return UPoly([-rand_scalar(rng, F), 1], F.d)
    while True:
        b, c = rand_scalar(rng, F, span=3), rand_scalar(rng, F, span=3)
        if (b * b - 4 * c).sqrt() is None:
            return UPoly([c, b, 1], F.d)


def test_omega_decompose_matches_the_partial_fraction_oracle():
    """E and every residue equal the partial-fraction route's, over five
    fields, for linear and quadratic classes of multiplicity 1-3."""
    rng = random.Random(109)
    seen = set()
    for d in (1, 2, 5, -1, -3):
        F = FieldSpec(d)
        for _ in range(12):
            factors = {_rand_class_factor(rng, F)
                       for _ in range(rng.randint(1, 2))}
            classes = sorted(
                (FactorClass(p, rng.randint(1, 3)) for p in factors),
                key=lambda c: c.factor.sort_key())
            den = UPoly.one(d)
            for c in classes:
                den = den * c.factor**c.multiplicity
            num = rand_upoly(rng, F, int(den.degree) + 1, nonzero=True)
            f = RatFunc(num, den)
            if f.den != den:  # a class cancelled: not its pole set
                continue
            om = omega_decompose(f, classes)
            assert om == omega_by_partial_fractions(f, classes)
            assert om.reconstruct() == f
            dden = f.den.derivative()
            for entry in om.residues:
                p = entry.cls.factor
                seen.add((int(p.degree), entry.cls.multiplicity))
                if entry.cls.multiplicity == 1:
                    assert entry.residue == eval_mod(
                        f.num * inverse_mod(dden, p), p)
    assert seen == {(g, m) for g in (1, 2) for m in (1, 2, 3)}


def test_omega_nonconstant_class_residue(F2):
    # kappa_1 = xi/(xi^2 - 3): conjugate roots +-sqrt(3) carry residues
    # r/(2r) = 1/2 each -> constant class residue 1/2, rational.
    om = omega(parse_ratfunc("xi/(xi^2 - 3)", F2))
    assert len(om.residues) == 1
    assert om.residues[0].cls.factor.degree == 2
    assert om.residues[0].residue.coeff(0) == F2(Fraction(1, 2))
    assert om.residues[0].is_rational_number()
    # kappa_1 = 1/(xi^2 - 3): residues +-1/(2 sqrt 3) differ by conjugation
    om2 = omega(parse_ratfunc("1/(xi^2 - 3)", F2))
    entry = om2.residues[0]
    assert entry.residue.degree == 1  # genuinely nonconstant in K[xi]/(p)
    assert entry.constant_value() is None
    assert not entry.is_rational_number()


OUT_OF_ORDER = (5, 2, 6, 3, 1)


def test_lazy_kappa_out_of_order_closed_forms(F2, rt2):
    K = 6
    fold = FoldHopfParams(F2, mu=F2(-1), nu=F2(1), alpha=rt2)
    double = DoubleHopfParams(
        F2, mu=F2(1), nu=rt2, alpha=F2(Fraction(1, 2)), beta=F2(1)
    )
    cases = [
        (fold_hopf_system(fold), lambda k: fold_hopf_kappa(fold, k)),
        (
            double_hopf_system(double, chart=1),
            lambda k: double_hopf_kappa(double, k),
        ),
    ]
    for (system, curve), closed_form in cases:
        eager = kappa_by_recurrence(system, curve, K)
        # the oracle squares the denominator per order; keep it to k <= 3
        oracle = kappa_by_differentiation(system, curve, 3)
        data = kappa_coefficients(system, curve, K)
        for k in OUT_OF_ORDER:
            assert data.kappa(k) == eager[k - 1] == closed_form(k)
            if k <= 3:
                assert data.kappa(k) == oracle[k - 1]
        assert len(data.kappas) == K


def test_lazy_kappa_out_of_order_random_system(F2):
    # Q = phi' P + (eta - phi) S makes the nonconstant line eta = phi
    # integral, so r_0 = phi' != 0 enters every order of the recurrence
    K = 6
    rng = random.Random(97)
    eta = BiPoly.var_eta(2)
    while True:
        P = BiPoly([rand_upoly(rng, F2, 1) for _ in range(2)], 2)
        S = BiPoly([rand_upoly(rng, F2, 1) for _ in range(2)], 2)
        phi = UPoly([rand_scalar(rng, F2), rand_scalar(rng, F2, nonzero=True)], 2)
        Q = P * phi.derivative() + (eta - phi) * S
        system = PlanarSystem(P=P, Q=Q, field=F2)
        curve = CurveData(phi=RatFunc.from_poly(phi))
        if not eval_eta(P, curve.phi).is_zero():
            break
    eager = kappa_by_recurrence(system, curve, K)
    oracle = kappa_by_differentiation(system, curve, K)
    data = kappa_coefficients(system, curve, K)
    for k in OUT_OF_ORDER:
        assert data.kappa(k) == eager[k - 1] == oracle[k - 1]
        assert not data.kappa(k).is_zero()


def test_lazy_kappa_expands_only_what_is_asked(F2):
    system, curve = make_system(F2, "eta^2 + xi^2 - 1", "rt*xi*eta + eta")
    data = kappa_coefficients(system, curve, 9)
    assert len(data.kappas) == 0
    data.kappa(4)
    assert len(data.kappas) == 4
    data.kappa(2)
    assert len(data.kappas) == 4
    for k in (0, 10):
        with pytest.raises(IndexError):
            data.kappa(k)
    assert len(data.kappas) == 4


def test_kappa_with_zero_q(F2):
    # Q = 0 has no eta rows; eta = 0 is still integral, with kappa_k = 0
    system, curve = make_system(F2, "xi + eta", "0")
    data = kappa_coefficients(system, curve, 3)
    assert all(data.kappa(k).is_zero() for k in (3, 1, 2))


def _random_system_on_rational_curve(rng, field):
    """A random system with the integral curve eta = u/v, v nonconstant.

    P = v^2 * P1 and Q = (u'v - uv') * P1 + (v*eta - u) * S give
    Q(xi, phi) = phi' * P(xi, phi) for any P1, S.  Degrees and
    coefficients stay small because the oracle's gcds grow fast.
    """
    d = field.d
    eta = BiPoly.var_eta(d)
    while True:
        u = UPoly([rand_scalar(rng, field, 2) for _ in range(2)], d)
        v = UPoly([rand_scalar(rng, field, 2), 1], d)
        phi = RatFunc(u, v)
        if phi.den.degree < 1:
            continue
        P1 = BiPoly(
            [rand_upoly(rng, field, 1), rand_upoly(rng, field, 1, True)], d
        )
        S = BiPoly(
            [UPoly.constant(rand_scalar(rng, field, 2, True), d)] * 2, d
        )
        u, v = phi.num, phi.den
        P = P1 * (v * v)
        Q = P1 * (u.derivative() * v - u * v.derivative()) + (eta * v - u) * S
        if P.is_zero():
            continue
        system = PlanarSystem(P=P, Q=Q, field=field)
        curve = CurveData(phi=phi)
        if not eval_eta(P, phi).is_zero():
            return system, curve


@pytest.mark.parametrize("d", [1, 2, 5, -3])
def test_kappa_matches_ratfunc_recurrence_on_rational_curves(d):
    """The polynomial expansion reduced by valuations gives the kappa_k
    of the reduced-RatFunc recurrence, and its pole classes are the
    factorization of each kappa_k denominator."""
    field = FieldSpec(d)
    rng = random.Random(400 + d)
    K = 8
    for _ in range(4):
        system, curve = _random_system_on_rational_curve(rng, field)
        assert is_integral_curve(system, curve)
        expected = kappa_by_recurrence(system, curve, K)
        data = kappa_coefficients(system, curve, K)
        for k in range(1, K + 1):
            assert data.kappa(k) == expected[k - 1]
            assert list(data.classes(k)) == pole_classes(expected[k - 1])


def test_kappa_high_multiplicity_closed_form(F2, rt2):
    """dh1(1, rt, 1, 1) to K = 25: kappa_25 has the classes xi - 1 and
    xi + 1 at multiplicity 13 against 1 in a_0, and at every odd order
    the factor xi of a_2 must be divided out of the numerator once."""
    params = DoubleHopfParams(F2, mu=F2(1), nu=rt2, alpha=F2(1), beta=F2(1))
    system, curve = double_hopf_system(params, chart=1)
    K = 25
    data = kappa_coefficients(system, curve, K)
    for k in range(1, K + 1):
        expected = double_hopf_kappa(params, k)
        assert data.kappa(k) == expected
        assert list(data.classes(k)) == pole_classes(expected)
    assert max(c.multiplicity for c in data.classes(K)) == 13

