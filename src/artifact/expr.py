"""Polynomial expression language: parsing and canonical printing.

Grammar (whitespace-insensitive)::

    expr     := sum ( "/" sum )?          # "/" at top level only
    sum      := "-"? product (("+"|"-") product)*
    product  := power ("*" power)*
    power    := atom ("^" exponent)?      # exponent a nonnegative integer
    exponent := INT | "(" "-"? INT ")"
    atom     := INT ("/" INT)?            # rational literal
              | "rt"                      # the adjoined surd, sqrt(d)
              | "xi" | "eta"
              | "(" sum ")"

A top-level "/" makes the expression a rational function; everywhere
else "/" is legal only inside a rational literal.  Printing emits text
this grammar accepts, and parsing printed output reproduces the value
exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple, Union

from .exactalg import BiPoly, FieldSpec, QuadExt, RatFunc, UPoly

_MAX_EXPONENT = 512


class ExprSyntaxError(ValueError):
    """Syntax or field error with a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class _Token(NamedTuple):
    kind: str  # INT NAME OP END
    text: str
    line: int
    column: int


_NAMES = ("xi", "eta", "rt")
_OPS = "+-*/^()"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word not in _NAMES:
                raise ExprSyntaxError(f"unknown name {word!r}", line, col)
            tokens.append(_Token("NAME", word, line, col))
            col += j - i
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token("OP", ch, line, col))
            col += 1
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("END", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, field: FieldSpec):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.d = field.d

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.text in ops

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if not (tok.kind == "OP" and tok.text == op):
            raise ExprSyntaxError(
                f"expected {op!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.advance()

    def fail(self, message: str) -> ExprSyntaxError:
        tok = self.peek()
        return ExprSyntaxError(message, tok.line, tok.column)

    # -- grammar -------------------------------------------------------------

    def parse_top(self) -> Union[BiPoly, RatFunc]:
        numerator = self.parse_sum()
        if self.at_op("/"):
            self.advance()
            denominator = self.parse_sum()
            self.expect_end()
            return self.to_ratfunc(numerator, denominator)
        self.expect_end()
        return numerator

    def expect_end(self) -> None:
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(
                f"unexpected {tok.text!r}", tok.line, tok.column
            )

    def parse_sum(self) -> BiPoly:
        if self.at_op("-"):
            self.advance()
            acc = -self.parse_product()
        else:
            acc = self.parse_product()
        while self.at_op("+", "-"):
            op = self.advance().text
            term = self.parse_product()
            acc = acc + term if op == "+" else acc - term
        return acc

    def parse_product(self) -> BiPoly:
        acc = self.parse_power()
        while self.at_op("*"):
            self.advance()
            acc = acc * self.parse_power()
        return acc

    def parse_power(self) -> BiPoly:
        base = self.parse_atom()
        if not self.at_op("^"):
            return base
        self.advance()
        exponent = self.parse_exponent()
        return base**exponent

    def parse_exponent(self) -> int:
        tok = self.peek()
        negative = False
        parenthesized = False
        if self.at_op("("):
            self.advance()
            parenthesized = True
        if self.at_op("-"):
            negative = True
            self.advance()
        tok = self.peek()
        if tok.kind != "INT":
            raise self.fail("expected an integer exponent")
        value = int(self.advance().text)
        if parenthesized:
            self.expect_op(")")
        if negative:
            raise ExprSyntaxError(
                "negative exponents are not allowed", tok.line, tok.column
            )
        if value > _MAX_EXPONENT:
            raise ExprSyntaxError(
                f"exponent {value} exceeds the limit {_MAX_EXPONENT}",
                tok.line,
                tok.column,
            )
        return value

    def parse_atom(self) -> BiPoly:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            numerator = int(tok.text)
            if self.at_op("/") and self.tokens[self.pos + 1].kind == "INT":
                self.advance()
                dtok = self.advance()
                denominator = int(dtok.text)
                if denominator == 0:
                    raise ExprSyntaxError(
                        "zero denominator in rational literal",
                        dtok.line,
                        dtok.column,
                    )
                return BiPoly.constant(
                    Fraction(numerator, denominator), self.d
                )
            return BiPoly.constant(numerator, self.d)
        if tok.kind == "NAME":
            self.advance()
            if tok.text == "xi":
                return BiPoly.var_xi(self.d)
            if tok.text == "eta":
                return BiPoly.var_eta(self.d)
            if self.d == 1:
                raise ExprSyntaxError(
                    "the surd token 'rt' is undefined when d = 1",
                    tok.line,
                    tok.column,
                )
            return BiPoly.constant(QuadExt(0, 1, self.d), self.d)
        if self.at_op("("):
            self.advance()
            inner = self.parse_sum()
            self.expect_op(")")
            return inner
        if tok.kind == "END":
            raise self.fail("unexpected end of input")
        raise self.fail(f"unexpected {tok.text!r}")

    # -- conversions ---------------------------------------------------------

    def to_ratfunc(self, num: BiPoly, den: BiPoly) -> RatFunc:
        num_p = _eta_free(num)
        den_p = _eta_free(den)
        if den_p.is_zero():
            raise ExprSyntaxError("zero denominator", 1, 1)
        return RatFunc(num_p, den_p)


def _eta_free(p: BiPoly) -> UPoly:
    if p.degree_eta > 0:
        raise ExprSyntaxError("'eta' is not allowed in this expression", 1, 1)
    return p.row(0)


def parse_expression(
    text: str, field: FieldSpec
) -> Union[BiPoly, RatFunc]:
    """Parse to a BiPoly, or to a RatFunc when a top-level '/' is present."""
    return _Parser(text, field).parse_top()


def parse_bipoly(text: str, field: FieldSpec) -> BiPoly:
    """Parse a polynomial in xi and eta (no top-level division)."""
    value = parse_expression(text, field)
    if isinstance(value, RatFunc):
        raise ExprSyntaxError(
            "'/' (other than a rational literal) is not allowed here", 1, 1
        )
    return value


def parse_ratfunc(text: str, field: FieldSpec) -> RatFunc:
    """Parse a rational function of xi (eta not allowed)."""
    value = parse_expression(text, field)
    if isinstance(value, RatFunc):
        return value
    return RatFunc.from_poly(_eta_free(value))


# -- printing ---------------------------------------------------------------


def _format_rational(c: QuadExt) -> str:
    """The text of a rational element, read off its triple."""
    return str(c.p) if c.r == 1 else f"{c.p}/{c.r}"


def _format_surd(a: Fraction, b: Fraction) -> str:
    """The text of a + b*rt for b != 0."""
    if a == 0:
        return "rt" if b == 1 else ("-rt" if b == -1 else f"{b}*rt")
    if b > 0:
        tail = "rt" if b == 1 else f"{b}*rt"
        return f"{a} + {tail}"
    tail = "rt" if b == -1 else f"{-b}*rt"
    return f"{a} - {tail}"


def format_scalar(c: QuadExt) -> str:
    """Canonical text for a field element; reparses to the same value."""
    return _format_surd(c.a, c.b) if c.q else _format_rational(c)


def _term_text(c: QuadExt, mono: str) -> Tuple[bool, str]:
    """(is_negative, magnitude_text) for one monomial c*mono."""
    if not c.q:
        negative = c.p < 0
        mag = -c if negative else c
        if not mono:
            return negative, _format_rational(mag)
        if mag == 1:
            return negative, mono
        return negative, f"{_format_rational(mag)}*{mono}"
    b = c.b
    if c.p:
        text = f"({_format_surd(c.a, b)})"
        return False, f"{text}*{mono}" if mono else text
    negative = b < 0
    mag = -b if negative else b
    coeff = "rt" if mag == 1 else f"{mag}*rt"
    if not mono:
        return negative, coeff
    return negative, f"{coeff}*{mono}"


def _join_terms(terms: List[Tuple[bool, str]]) -> str:
    if not terms:
        return "0"
    out = "".join(
        [f" - {text}" if neg else f" + {text}" for neg, text in terms])
    return ("-" if terms[0][0] else "") + out[3:]


def _xi_mono(i: int) -> str:
    return "" if i == 0 else "xi" if i == 1 else f"xi^{i}"


def format_poly(p: UPoly) -> str:
    """Canonical text for a univariate polynomial, highest degree first."""
    terms = [
        _term_text(p.coeffs[i], _xi_mono(i))
        for i in range(len(p.coeffs) - 1, -1, -1)
        if not p.coeffs[i].is_zero()
    ]
    return _join_terms(terms)


def format_ratfunc(f: RatFunc) -> str:
    """Canonical text for a rational function; '/' appears at most once."""
    if f.is_polynomial():
        return format_poly(f.num)
    return f"({format_poly(f.num)})/({format_poly(f.den)})"


def format_bipoly(p: BiPoly) -> str:
    """Canonical text for a bivariate polynomial, eta powers descending."""
    terms: List[Tuple[bool, str]] = []
    for j in range(len(p.rows) - 1, -1, -1):
        row = p.rows[j]
        eta_mono = "" if j == 0 else ("eta" if j == 1 else f"eta^{j}")
        for i in range(len(row.coeffs) - 1, -1, -1):
            c = row.coeffs[i]
            if c.is_zero():
                continue
            xi_mono = _xi_mono(i)
            mono = (f"{xi_mono}*{eta_mono}" if xi_mono and eta_mono
                    else xi_mono or eta_mono)
            terms.append(_term_text(c, mono))
    return _join_terms(terms)
