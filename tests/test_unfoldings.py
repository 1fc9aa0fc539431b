"""Builtin unfolding families: systems, closed-form coefficients, clauses."""

import random
from fractions import Fraction

import pytest

from artifact.exactalg import QuadExt, RatFunc
from artifact.unfoldings import (
    DoubleHopfParams,
    FoldHopfParams,
    chart_two_params,
    double_hopf_kappa,
    double_hopf_system,
    fold_hopf_kappa,
    fold_hopf_system,
    theorem_conditions,
)
from artifact.varcalc import kappa_coefficients

from conftest import rand_scalar
from oracles import eval_eta, is_integral_curve


def fh(F, mu, nu, alpha, s=1, beta=None, omega=None):
    return FoldHopfParams(
        field=F, mu=mu, nu=nu, alpha=alpha, s=s, beta=beta, omega=omega
    )


def dh(F, mu, nu, alpha, beta, s=1, omega1=None, omega2=None):
    return DoubleHopfParams(
        field=F,
        mu=mu,
        nu=nu,
        alpha=alpha,
        beta=beta,
        s=s,
        omega1=omega1,
        omega2=omega2,
    )


def test_param_validation(F2, rt2):
    p = fh(F2, -1, 1, rt2)
    assert p.s == 1 and p.beta == F2(0) and p.mu == F2(-1)
    with pytest.raises(ValueError):
        fh(F2, -1, 1, rt2, s=2)
    q = dh(F2, 1, rt2, Fraction(1, 2), 1)
    assert q.s == 1 and q.omega1 == F2(0)
    with pytest.raises(ValueError):
        dh(F2, 1, 1, 1, 1, s=0)


def test_fold_hopf_system_shape(F2, rt2):
    params = fh(F2, -1, 1, rt2)
    system, curve = fold_hopf_system(params)
    assert curve.phi.is_zero()
    assert is_integral_curve(system, curve)
    # P = xi^2 + s eta^2 + mu, Q = eta (alpha xi + nu)
    assert system.P.eval_point(F2(2), F2(3)) == F2(4 + 9 - 1)
    assert system.Q.eval_point(F2(2), F2(3)) == F2(3) * (rt2 * F2(2) + F2(1))


def test_fold_hopf_system_sign(F2, rt2):
    system, _ = fold_hopf_system(fh(F2, -1, 1, rt2, s=-1))
    assert system.P.eval_point(F2(2), F2(3)) == F2(4 - 9 - 1)


def test_double_hopf_chart1_system_shape(F2, rt2):
    params = dh(F2, 1, rt2, Fraction(1, 2), 1)
    system, curve = double_hopf_system(params, chart=1)
    assert curve.phi.is_zero()
    assert is_integral_curve(system, curve)
    # P = xi (beta eta^2 - xi^2 + mu), Q = eta (s eta^2 + alpha xi^2 + nu)
    x, e = F2(2), F2(3)
    assert system.P.eval_point(x, e) == x * (F2(9) - F2(4) + F2(1))
    assert system.Q.eval_point(x, e) == e * (F2(9) + F2(2) + rt2)


def test_chart_two_params_swap(F2, rt2):
    p = dh(F2, rt2, 1, -1, Fraction(1, 2), s=-1)
    q = chart_two_params(p)
    assert q.mu == F2(1)
    assert q.nu == rt2
    assert q.alpha == F2(Fraction(1, 2))  # -(beta * s) = -(1/2 * -1)
    assert q.beta == F2(-1)
    assert q.s == -1


def test_double_hopf_chart2_equals_chart1_on_swapped_params(F2, rt2):
    rng = random.Random(107)
    for _ in range(10):
        p = dh(
            F2,
            rand_scalar(rng, F2, 3),
            rand_scalar(rng, F2, 3),
            rand_scalar(rng, F2, 3),
            rand_scalar(rng, F2, 3),
            s=rng.choice((1, -1)),
        )
        sys2, curve2 = double_hopf_system(p, chart=2)
        sys1, curve1 = double_hopf_system(chart_two_params(p), chart=1)
        assert sys2.P == sys1.P and sys2.Q == sys1.Q
        assert curve2.phi == curve1.phi


def test_fold_hopf_kappa_closed_form_matches_pipeline(F2, rt2):
    rng = random.Random(109)
    for _ in range(6):
        params = fh(
            F2,
            rand_scalar(rng, F2, 3),
            rand_scalar(rng, F2, 3),
            rand_scalar(rng, F2, 3),
            s=rng.choice((1, -1)),
        )
        system, curve = fold_hopf_system(params)
        if eval_eta(system.P, curve.phi).is_zero():
            continue
        data = kappa_coefficients(system, curve, 7)
        for k in range(1, 8):
            assert data.kappa(k) == fold_hopf_kappa(params, k)
            if k % 2 == 0:
                assert data.kappa(k).is_zero()


def test_double_hopf_kappa_closed_form_matches_pipeline(F2, rt2):
    rng = random.Random(113)
    count = 0
    while count < 6:
        params = dh(
            F2,
            rand_scalar(rng, F2, 3, nonzero=True),
            rand_scalar(rng, F2, 3),
            rand_scalar(rng, F2, 3),
            rand_scalar(rng, F2, 3),
            s=rng.choice((1, -1)),
        )
        system, curve = double_hopf_system(params, chart=1)
        data = kappa_coefficients(system, curve, 7)
        for k in range(1, 8):
            assert data.kappa(k) == double_hopf_kappa(params, k)
            if k % 2 == 0:
                assert data.kappa(k).is_zero()
        count += 1


def test_fold_hopf_kappa_first_order(F2, rt2):
    # kappa_1 = (alpha xi + nu)/(xi^2 + mu)
    params = fh(F2, -1, 1, rt2)
    k1 = fold_hopf_kappa(params, 1)
    x = F2(3)
    assert k1.eval(x) == (rt2 * x + F2(1)) / (x * x - F2(1))


def test_inert_parameters_do_not_change_kappas(F2, rt2):
    base = fh(F2, -1, 1, rt2)
    decorated = fh(F2, -1, 1, rt2, beta=Fraction(7, 2), omega=5)
    for k in range(1, 6):
        assert fold_hopf_kappa(base, k) == fold_hopf_kappa(decorated, k)
    b0 = dh(F2, 1, rt2, 1, 1)
    b1 = dh(F2, 1, rt2, 1, 1, omega1=3, omega2=rt2)
    s0, _ = double_hopf_system(b0)
    s1, _ = double_hopf_system(b1)
    assert s0.P == s1.P and s0.Q == s1.Q


def test_theorem_conditions_examples(F2, rt2):
    # alpha irrational, nu nonzero, mu nonzero -> first clause holds
    report = theorem_conditions(fh(F2, -1, 1, rt2), "1.3")
    assert report.any_clause_holds
    assert report.clause("i").holds
    # all-rational resonant example -> no clause holds
    report2 = theorem_conditions(fh(F2, -1, 2, 3), "1.3")
    assert not report2.any_clause_holds
    assert {c.clause_id for c in report2.clauses} == {"i", "ii", "iii"}


def test_theorem_conditions_sqrt_clause(F2, rt2):
    # mu = -1: nu / sqrt(-mu) = nu; pick nu irrational, alpha rational
    # with 2*alpha - 1 not a nonpositive integer -> clause (ii)
    report = theorem_conditions(fh(F2, -1, rt2, 1), "1.3")
    assert report.clause("ii").holds
    # mu = -4, nu = 3: nu/sqrt(-mu) = 3/2 rational -> (ii) fails
    report2 = theorem_conditions(fh(F2, -4, 3, 1), "1.3")
    assert not report2.clause("ii").holds
    # mu = 0 branch: (iii) requires nu != 0 and 2 alpha - 1 not in Z_{<=0}
    report3 = theorem_conditions(fh(F2, 0, 1, rt2), "1.3")
    assert report3.clause("iii").holds
    assert not report3.clause("i").holds


def test_theorem_conditions_double_hopf_chart1(F2, rt2):
    report = theorem_conditions(dh(F2, 1, rt2, Fraction(1, 2), 1), "1.4")
    assert report.clause("i").holds
    # alpha a nonnegative integer blocks every clause
    report2 = theorem_conditions(dh(F2, 1, rt2, 1, 1), "1.4")
    assert not report2.any_clause_holds


def test_theorem_conditions_chart2_matches_swap(F2, rt2):
    rng = random.Random(127)
    for _ in range(40):
        p = dh(
            F2,
            rand_scalar(rng, F2, 3),
            rand_scalar(rng, F2, 3),
            rand_scalar(rng, F2, 3),
            rand_scalar(rng, F2, 3),
            s=rng.choice((1, -1)),
        )
        direct = theorem_conditions(p, "1.5")
        swapped = theorem_conditions(chart_two_params(p), "1.4")
        assert direct.any_clause_holds == swapped.any_clause_holds
        for cid in ("i", "ii", "iii"):
            assert direct.clause(cid).holds == swapped.clause(cid).holds


def test_theorem_conditions_rejects_mismatched_params(F2, rt2):
    with pytest.raises(ValueError):
        theorem_conditions(fh(F2, -1, 1, rt2), "1.4")
    with pytest.raises(ValueError):
        theorem_conditions(dh(F2, 1, 1, 1, 1), "1.3")
    with pytest.raises(ValueError):
        theorem_conditions(fh(F2, -1, 1, rt2), "9.9")
