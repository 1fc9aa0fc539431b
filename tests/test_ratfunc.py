"""Rational functions and bivariate polynomials."""

import random

import pytest

from artifact.exactalg import BiPoly, RatFunc, UPoly

from conftest import rand_ratfunc, rand_upoly
from oracles import (
    as_poly,
    eval_eta,
    eval_point,
    has_pole_at,
    ratfunc_eval,
    shift_eta,
)


def xp(*coeffs, d=2):
    return UPoly(list(coeffs), d)


def test_reduction_to_lowest_terms_and_monic_den(F2):
    f = RatFunc(xp(-1, 0, 1), xp(2, 2))  # (xi^2-1)/(2xi+2) = (xi-1)/2
    assert f.den == UPoly.one(2)
    assert f.num == xp(-0.5, 0.5) or f.num.scale(F2(2)) == xp(-1, 1)
    g = RatFunc(xp(0, 2), xp(0, 0, 4))  # 2xi/4xi^2 = (1/2)/xi
    assert g.den == UPoly.x(2)


def test_zero_denominator_rejected(F2):
    with pytest.raises(ZeroDivisionError):
        RatFunc(UPoly.one(2), UPoly.zero(2))


def test_field_axioms_random(F2):
    rng = random.Random(53)
    for _ in range(60):
        f = rand_ratfunc(rng, F2)
        g = rand_ratfunc(rng, F2)
        h = rand_ratfunc(rng, F2)
        assert f + g == g + f
        assert f * (g + h) == f * g + f * h
        assert (f - g) + g == f
        if not g.is_zero():
            assert (f / g) * g == f
    with pytest.raises(ZeroDivisionError):
        rand_ratfunc(rng, F2) / RatFunc.zero(2)


def test_mixed_scalar_and_poly_operations(F2, rt2):
    f = RatFunc(xp(1, 1), xp(-1, 1))
    assert f + 1 == RatFunc(xp(0, 2), xp(-1, 1))
    assert (f * rt2) / rt2 == f
    assert f - f == RatFunc.zero(2)
    assert RatFunc.constant(rt2, 2).is_constant()


def test_quotient_rule_derivative(F2):
    rng = random.Random(59)
    for _ in range(40):
        f = rand_ratfunc(rng, F2)
        g = rand_ratfunc(rng, F2)
        assert (f * g).derivative() == f.derivative() * g + f * g.derivative()
        if not g.is_zero():
            q = f / g
            assert q.derivative() == (
                f.derivative() * g - f * g.derivative()
            ) / (g * g)


def test_eval_and_poles(F2):
    f = RatFunc(xp(1, 1), xp(-1, 1))  # (xi+1)/(xi-1)
    assert ratfunc_eval(f, F2(3)) == F2(2)
    assert has_pole_at(f, F2(1))
    assert not has_pole_at(f, F2(0))
    with pytest.raises(ZeroDivisionError):
        ratfunc_eval(f, F2(1))


def test_proper_parts_identity(F2):
    rng = random.Random(61)
    for _ in range(40):
        f = rand_ratfunc(rng, F2, max_degree=4)
        poly, proper = f.proper_parts()
        assert RatFunc.from_poly(poly) + proper == f
        if not proper.is_zero():
            assert proper.num.degree < proper.den.degree


def test_as_poly_round_trip(F2):
    p = xp(1, 2, 3)
    f = RatFunc.from_poly(p)
    assert f.is_polynomial()
    assert as_poly(f) == p
    g = RatFunc(UPoly.one(2), xp(0, 1))
    assert not g.is_polynomial()
    with pytest.raises(ValueError):
        as_poly(g)


def test_bipoly_algebra_and_substitution(F2, rt2):
    # P = eta^2 + xi^2 - 1 as rows in eta
    P = BiPoly([xp(-1, 0, 1), UPoly.zero(2), UPoly.one(2)], 2)
    assert P.degree_eta == 2
    assert P.degree_xi == 2
    Q = BiPoly([UPoly.zero(2), xp(1, rt2)], 2)  # eta*(rt*xi + 1)
    S = P * Q
    assert S.degree_eta == 3
    # evaluation hom at (xi, eta) = (2, 1): P=4, Q=1+2rt -> S=4+8rt
    x, e = F2(2), F2(1)
    assert eval_point(S, x, e) == eval_point(P, x, e) * eval_point(Q, x, e)
    assert eval_point(P + Q, x, e) == eval_point(P, x, e) + eval_point(Q, x, e)


def test_bipoly_eval_eta_and_shift_series(F2):
    rng = random.Random(67)
    for _ in range(15):
        rows = [rand_upoly(rng, F2, max_degree=2) for _ in range(3)]
        P = BiPoly(rows, 2)
        phi = RatFunc.constant(F2(rng.randint(-3, 3)), 2)
        coeffs = shift_eta(P, phi, order=3)
        assert len(coeffs) == 4
        assert coeffs[3].is_zero()  # degree_eta <= 2
        # P(xi, phi + w) = sum_j coeffs[j] w^j at sample points
        for _ in range(4):
            x = F2(rng.randint(-5, 5))
            w = F2(rng.randint(-3, 3), 1)
            lhs = eval_point(P, x, ratfunc_eval(phi, x) + w)
            rhs = sum(
                (ratfunc_eval(coeffs[j], x) * w**j for j in range(4)), F2(0)
            )
            assert lhs == rhs
        assert coeffs[0] == eval_eta(P, phi)
