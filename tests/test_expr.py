"""Expression parsing and canonical printing round-trips."""

import random
from fractions import Fraction

import pytest

from artifact.exactalg import BiPoly, RatFunc, UPoly
from artifact.expr import (
    ExprSyntaxError,
    format_bipoly,
    format_poly,
    format_ratfunc,
    format_scalar,
    parse_bipoly,
    parse_expression,
    parse_ratfunc,
)

from conftest import rand_ratfunc, rand_scalar, rand_upoly
from oracles import eval_point


def test_parse_polynomial_basics(F2, rt2):
    p = parse_bipoly("eta^2 + xi^2 - 1", F2)
    assert p.degree_eta == 2 and p.degree_xi == 2
    assert eval_point(p, F2(2), F2(1)) == F2(4)
    q = parse_bipoly("rt*xi*eta + eta", F2)
    assert eval_point(q, F2(1), F2(1)) == rt2 + F2(1)


def test_parse_rational_literals_and_signs(F2):
    p = parse_bipoly("1/2*xi - 3/4", F2)
    assert p.row(0) == UPoly([Fraction(-3, 4), Fraction(1, 2)], 2)
    q = parse_bipoly("-xi + (-2)", F2)
    assert q.row(0) == UPoly([-2, -1], 2)


def test_parse_powers_and_parens(F2):
    p = parse_bipoly("(xi + 1)^3", F2)
    assert p.row(0) == UPoly([1, 1], 2) ** 3
    with pytest.raises(ExprSyntaxError):
        parse_bipoly("xi^(1/2)", F2)
    with pytest.raises(ExprSyntaxError):
        parse_bipoly("xi^xi", F2)


def test_parse_top_level_division(F2):
    f = parse_ratfunc("(rt*xi + 1)/(xi^2 - 1)", F2)
    assert isinstance(f, RatFunc)
    assert f.den == UPoly([-1, 0, 1], 2)
    # eta is not allowed inside a rational function
    with pytest.raises(ExprSyntaxError):
        parse_ratfunc("eta/(xi - 1)", F2)


def test_parse_expression_chooses_shape(F2):
    assert isinstance(parse_expression("xi*eta", F2), BiPoly)
    assert isinstance(parse_expression("xi/(xi+1)", F2), RatFunc)


def test_parse_errors_carry_position(F2, F1):
    with pytest.raises(ExprSyntaxError) as info:
        parse_bipoly("xi + $", F2)
    assert "column" in str(info.value) or info.value.column == 6
    with pytest.raises(ExprSyntaxError):
        parse_bipoly("zeta", F2)
    with pytest.raises(ExprSyntaxError):
        parse_bipoly("rt", F1)  # no surd when d = 1
    with pytest.raises(ExprSyntaxError):
        parse_bipoly("xi +", F2)
    with pytest.raises(ExprSyntaxError):
        parse_bipoly("(xi", F2)
    with pytest.raises(ExprSyntaxError):
        parse_bipoly("", F2)


def test_format_scalar_shapes(F2, rt2):
    assert format_scalar(F2(0)) == "0"
    assert format_scalar(F2(Fraction(-3, 4))) == "-3/4"
    assert format_scalar(rt2) == "rt"
    assert format_scalar(F2(1, 1)) == "1 + rt"
    assert format_scalar(F2(0, Fraction(-1, 2))) == "-1/2*rt"


def test_scalar_round_trip_random(F2):
    rng = random.Random(71)
    for _ in range(120):
        c = rand_scalar(rng, F2, span=9)
        text = format_scalar(c)
        p = parse_bipoly(text, F2)
        assert p.degree_xi <= 0 and p.degree_eta <= 0
        assert p.row(0).coeff(0) == c


def test_poly_round_trip_random(F2):
    rng = random.Random(73)
    for _ in range(120):
        p = rand_upoly(rng, F2, max_degree=5)
        text = format_poly(p)
        back = parse_bipoly(text, F2)
        assert back.degree_eta <= 0
        assert back.row(0) == p


def test_ratfunc_round_trip_random(F2):
    rng = random.Random(79)
    for _ in range(120):
        f = rand_ratfunc(rng, F2, max_degree=4)
        back = parse_expression(format_ratfunc(f), F2)
        if isinstance(back, BiPoly):
            back = RatFunc.from_poly(back.row(0))
        assert back == f


def test_bipoly_round_trip_random(F2):
    rng = random.Random(83)
    for _ in range(60):
        rows = [
            rand_upoly(rng, F2, max_degree=3)
            for _ in range(rng.randint(1, 3))
        ]
        p = BiPoly(rows, 2)
        assert parse_bipoly(format_bipoly(p), F2) == p


def test_round_trip_rational_field(F1):
    rng = random.Random(89)
    for _ in range(60):
        p = rand_upoly(rng, F1, max_degree=4)
        assert parse_bipoly(format_poly(p), F1).row(0) == p
