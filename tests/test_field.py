"""Scalar field arithmetic in Q(sqrt d)."""

import random
from fractions import Fraction

import pytest

from artifact.exactalg import FieldSpec, QuadExt, is_rational_square
from artifact.exactalg.field import MAX_ABS_D

from conftest import rand_scalar


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
    assert x.conjugate() == F2(3, Fraction(-1, 2))
    assert x * x.conjugate() == F2(x.norm())
    assert x.norm() == Fraction(9, 1) - 2 * Fraction(1, 4)


def test_rationality_predicates(F2, rt2):
    assert F2(5, 0).is_rational()
    assert not rt2.is_rational()
    assert F2(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
    with pytest.raises(ValueError):
        rt2.as_fraction()
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
