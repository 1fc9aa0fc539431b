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
from oracles import degree_xi, eval_point


def test_parse_polynomial_basics(F2, rt2):
    p = parse_bipoly("eta^2 + xi^2 - 1", F2)
    assert p.degree_eta == 2 and degree_xi(p) == 2
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


def test_shape_errors_name_the_offending_token(F2):
    cases = [
        (parse_ratfunc, "xi + 2*eta", 1, 8, "'eta' is not allowed"),
        (parse_ratfunc, "xi + eta", 1, 6,
         "line 1, column 6: 'eta' is not allowed in this expression"),
        (parse_ratfunc, "(xi - 1)/(xi +\n 3*eta)", 2, 4, "'eta' is not"),
        (parse_ratfunc, "eta - eta + xi/(1 + eta)", 1, 21, "'eta' is not"),
        (parse_ratfunc, "(xi + 1)/(xi - xi)", 1, 9, "zero denominator"),
        (parse_bipoly, "xi/(xi + 1)", 1, 3, "'/' (other than a rational"),
        (parse_bipoly, "1/2*xi + xi^2/3", 1, 14, "'/' (other than a"),
        # the '/' is refused before the eta above it is looked at
        (parse_bipoly, "eta^2/(xi + 1)", 1, 6, "'/' (other than a rational"),
    ]
    for parse, text, line, column, message in cases:
        with pytest.raises(ExprSyntaxError) as info:
            parse(text, F2)
        assert (info.value.line, info.value.column) == (line, column), text
        assert message in str(info.value)


def test_parse_ratfunc_tokenizes_once(F2, monkeypatch):
    """Only the error path tokenizes again, to find the 'eta'."""
    from artifact import expr

    calls = []
    tokenize = expr._tokenize
    monkeypatch.setattr(
        expr, "_tokenize", lambda text: calls.append(text) or tokenize(text))
    for text in ("1/2", "xi + 1"):
        calls.clear()
        parse_ratfunc(text, F2)
        assert calls == [text]


def test_digits_are_ascii_only(F2):
    for text, column in (("eta^2 + \u00b2*xi - 1", 9), ("xi^\u0663", 4)):
        with pytest.raises(ExprSyntaxError) as info:
            parse_bipoly(text, F2)
        assert info.value.column == column
        assert "unexpected character" in str(info.value)


def test_parse_caps_nesting_and_literal_digits(F2):
    assert parse_bipoly("(" * 100 + "xi" + ")" * 100, F2) == BiPoly.var_xi(2)
    with pytest.raises(ExprSyntaxError) as info:
        parse_bipoly("1 + " + "(" * 101 + "xi" + ")" * 101, F2)
    assert info.value.column == 105 and "limit 100" in str(info.value)
    big = int("9" * 1000)
    assert parse_bipoly("9" * 1000, F2) == BiPoly.constant(big, 2)
    with pytest.raises(ExprSyntaxError) as info:
        parse_bipoly("xi^2 + " + "9" * 1001, F2)
    assert info.value.column == 8 and "limit 1000" in str(info.value)


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
        assert degree_xi(p) <= 0 and p.degree_eta <= 0
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
