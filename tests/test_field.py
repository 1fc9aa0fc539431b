"""Scalar field arithmetic in Q(sqrt d)."""

import math
import random
from fractions import Fraction

import pytest

from artifact.exactalg import FieldSpec, QuadExt, is_rational_square
from artifact.exactalg.field import MAX_ABS_D

from conftest import rand_scalar
from oracles import FractionPairQuadExt, as_fraction, conjugate


def test_construction_and_equality(F2):
    x = F2(Fraction(1, 2), 3)
    assert x.a == Fraction(1, 2) and x.b == 3 and x.d == 2
    assert F2(1, 0) == F2(1)
    assert F2(0) == 0 and not F2(0)
    assert F2(2, 1) != F2(2, -1)


def test_field_spec_validates_d():
    with pytest.raises(ValueError):
        FieldSpec(0)
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(12)
    assert FieldSpec(-1).d == -1
    assert FieldSpec(-6).d == -6
    # above the cap d is rejected before any trial division
    for d in (MAX_ABS_D + 1, -(MAX_ABS_D + 1), 10**30 + 57):
        with pytest.raises(ValueError, match="must not exceed"):
            FieldSpec(d)


def test_field_spec_accepts_quadext(F1, F2, rt2):
    assert F2(rt2) == rt2
    assert F2(F1(3)) == F2(3)
    with pytest.raises(ValueError):
        F1(rt2)
    with pytest.raises(ValueError):
        F2(rt2, 1)


def test_arithmetic_against_known_identities(F2, rt2):
    assert rt2 * rt2 == F2(2)
    assert (F2(1) + rt2) * (F2(1) - rt2) == F2(-1)
    x = F2(3, -2)  # 3 - 2*sqrt(2)
    assert x * x == F2(17, -12)
    assert F2(1) / (F2(1) + rt2) == F2(-1, 1)  # rationalized denominator


def test_division_and_inverse_random(F2):
    rng = random.Random(101)
    for _ in range(200):
        x = rand_scalar(rng, F2, nonzero=True)
        y = rand_scalar(rng, F2)
        assert x * (y / x) == y
        assert (y * x) / x == y
    with pytest.raises(ZeroDivisionError):
        F2(1) / F2(0)


def test_conjugate_and_norm(F2, rt2):
    x = F2(3, Fraction(1, 2))
    assert conjugate(x) == F2(3, Fraction(-1, 2))
    assert x * conjugate(x) == F2(x.norm())
    assert x.norm() == Fraction(9, 1) - 2 * Fraction(1, 4)


def test_rationality_predicates(F2, rt2):
    assert F2(5, 0).is_rational()
    assert not rt2.is_rational()
    assert as_fraction(F2(Fraction(7, 3))) == Fraction(7, 3)
    with pytest.raises(ValueError):
        as_fraction(rt2)
    assert F2(4).is_integer()
    assert not F2(Fraction(1, 2)).is_integer()
    assert not rt2.is_integer()


def test_sqrt_inside_the_field(F2, rt2):
    assert F2(2).sqrt() in (rt2, -rt2)
    assert F2(Fraction(9, 4)).sqrt() == F2(Fraction(3, 2))
    # 3 + 2*sqrt(2) = (1 + sqrt(2))^2
    assert F2(3, 2).sqrt() in (F2(1, 1), -F2(1, 1))
    assert F2(3).sqrt() is None
    assert F2(0, 1).sqrt() is None  # sqrt(sqrt 2) leaves the field


def test_is_rational_square(F2, rt2):
    assert is_rational_square(Fraction(9, 16))
    assert not is_rational_square(Fraction(2))
    assert is_rational_square(F2(4))
    assert not is_rational_square(rt2)
    assert not is_rational_square(F2(-1))


def test_negative_discriminant_field():
    Fi = FieldSpec(-1)
    i = Fi.surd()
    assert i * i == Fi(-1)
    assert (Fi(2, 3) * Fi(2, -3)) == Fi(13)
    assert Fi(1) / i == -i


def test_ordering_sort_key_is_total(F2):
    rng = random.Random(7)
    values = [rand_scalar(rng, F2) for _ in range(50)]
    ordered = sorted(values, key=lambda v: v.sort_key())
    assert sorted(ordered, key=lambda v: v.sort_key()) == ordered
    for u, v in zip(values, values[1:]):
        if u == v:
            assert u.sort_key() == v.sort_key()


def test_no_float_conversion(F2, rt2):
    # floats must not enter the decision path: elements refuse conversion
    for x in (F2(3), rt2, FieldSpec(-1).surd()):
        with pytest.raises(TypeError):
            float(x)
        with pytest.raises(TypeError):
            complex(x)


# -- cross-check against the Fraction-pair reference -------------------------

ORACLE_FIELDS = (1, 2, -1, 5, MAX_ABS_D - 11)


def _rand_rational(rng):
    """A rational of small, medium or large height (up to ~200 bits)."""
    bits = rng.choice((3, 3, 40, 200))
    den = rng.randint(1, 2**bits)
    return Fraction(rng.randint(-(2**bits), 2**bits), den)


def _pair(rng, d):
    kind = rng.randrange(6)
    a = _rand_rational(rng) if kind != 0 else Fraction(rng.randint(-3, 3))
    b = Fraction(0) if d == 1 or kind < 2 else _rand_rational(rng)
    return a, b


def _assert_canonical(x):
    assert type(x.p) is int and type(x.q) is int and type(x.r) is int
    assert x.r >= 1 and math.gcd(x.p, x.q, x.r) == 1
    if x.d == 1:
        assert x.q == 0


def _assert_same(x, y):
    """The triple-backed x and the Fraction-pair y are the same element."""
    _assert_canonical(x)
    assert (x.a, x.b, x.d) == (y.a, y.b, y.d)
    assert x.sort_key() == y.sort_key()
    assert hash(x) == hash(y)


def test_quadext_matches_fraction_pair_oracle():
    rng = random.Random(20261018)
    checked = 0
    for d in ORACLE_FIELDS:
        for _ in range(150):
            (a1, b1), (a2, b2) = _pair(rng, d), _pair(rng, d)
            x, y = QuadExt(a1, b1, d), QuadExt(a2, b2, d)
            ox, oy = FractionPairQuadExt(a1, b1, d), FractionPairQuadExt(a2, b2, d)
            _assert_same(x, ox)
            _assert_same(x + y, ox + oy)
            _assert_same(x - y, ox - oy)
            _assert_same(x * y, ox * oy)
            _assert_same(-x, -ox)
            assert x.norm() == ox.norm() and type(x.norm()) is Fraction
            assert (x == y) == (ox == oy) and x == x
            for n in (a2, a2.numerator, 0, 1, -1):
                _assert_same(x + n, ox + n)
                _assert_same(x * n, ox * n)
                _assert_same(n - x, FractionPairQuadExt(n, 0, d) - ox)
                assert (x == n) == (ox == n)
            if y:
                _assert_same(x / y, ox / oy)
                _assert_same(y.inverse(), oy.inverse())
                _assert_same(a1 / y, FractionPairQuadExt(a1, 0, d) / oy)
            for pred in ("is_zero", "is_rational", "is_integer", "is_natural",
                         "is_nonneg_integer", "is_nonpos_integer"):
                assert getattr(x, pred)() == getattr(ox, pred)(), pred
            for z, oz in ((x * x, ox * ox), (x, ox), (x * d, ox * d)):
                root, oroot = z.sqrt(), oz.sqrt()
                assert (root is None) == (oroot is None)
                if root is not None:
                    _assert_same(root, oroot)
                    assert root * root == z
            checked += 1
    assert checked == 150 * len(ORACLE_FIELDS)


def test_quadext_special_values_are_canonical():
    for d in ORACLE_FIELDS:
        zero = QuadExt(0, 0, d)
        assert (zero.p, zero.q, zero.r) == (0, 0, 1)
        x = QuadExt(Fraction(6, 4), Fraction(-9, 6), d)
        assert x - x == zero and (x - x).r == 1
        assert conjugate(x) * x == QuadExt(x.norm(), 0, d)
        # a negative denominator from an inverse is moved into p and q
        _assert_canonical(QuadExt(-3, 0, d).inverse())
        assert QuadExt(-3, 0, d).inverse() == Fraction(-1, 3)
    # the d = 1 fold of b into a
    assert QuadExt(Fraction(1, 2), Fraction(1, 2), 1) == 1
    assert (QuadExt(2, 3, 1).p, QuadExt(2, 3, 1).q) == (5, 0)


def test_quadext_mixed_fields():
    F1, F2, F5 = FieldSpec(1), FieldSpec(2), FieldSpec(5)
    half = F1(Fraction(1, 2))
    for total in (half + F2.surd(), F2.surd() + half):
        assert total.d == 2 and total == F2(Fraction(1, 2), 1)
    assert (half * F2.surd()).d == 2
    assert (F2.surd() / F1(2)) == F2(0, Fraction(1, 2))
    assert F1(3) == F2(3) and hash(F1(3)) == hash(F2(3))
    for op in (lambda x, y: x + y, lambda x, y: x * y,
               lambda x, y: x - y, lambda x, y: x / y):
        with pytest.raises(ValueError):
            op(F2.surd(), F5.surd())
    assert F2.surd() != F5.surd()
    assert hash(QuadExt(5, 0, 2)) == hash(5)
    assert hash(QuadExt(Fraction(5, 3), 0, 2)) == hash(Fraction(5, 3))


def test_quadext_arithmetic_builds_no_fractions(monkeypatch):
    rng = random.Random(3)
    values = [QuadExt(_rand_rational(rng), _rand_rational(rng), 2)
              for _ in range(40)]
    original, calls = Fraction.__new__, []

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    results = []
    for i in range(1000):
        x, y, z = values[i % 40], values[(7 * i + 3) % 40], values[i // 25]
        results.append(x * y + z)
    monkeypatch.undo()
    assert len(results) == 1000 and all(w.q for w in results)
    assert calls == []
