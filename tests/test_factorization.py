"""Irreducible factorization, modular evaluation, partial fractions."""

import random
from fractions import Fraction

import pytest

from artifact.exactalg import (
    FieldSpec,
    RatFunc,
    UPoly,
    coprime,
    eval_mod,
    factor_irreducible,
    inverse_mod,
    poly_gcd,
)
from artifact.exactalg.factorization import _split_with_sympy
from artifact.exactalg.upoly import (
    _factor_degrees_mod_p,
    _gcd_degree_mod_p,
    proven_irreducible,
    small_split_primes,
)
from artifact.expr import parse_ratfunc

from conftest import rand_ratfunc, rand_upoly
from oracles import (
    constant_eval_mod,
    monomial,
    partial_fractions,
    pole_classes,
    recombine,
)


def xp(*coeffs, d=2):
    return UPoly(list(coeffs), d)


def rebuild(classes, lead, d):
    out = UPoly.constant(lead, d)
    for cls in classes:
        out = out * cls.factor**cls.multiplicity
    return out


def test_factor_linear_and_quadratic_split(F2, rt2):
    # xi^2 - 2 splits over Q(sqrt 2)
    classes = factor_irreducible(xp(-2, 0, 1))
    assert [c.multiplicity for c in classes] == [1, 1]
    roots = sorted([-c.factor.coeff(0) for c in classes], key=lambda v: v.sort_key())
    assert roots == sorted([rt2, -rt2], key=lambda v: v.sort_key())


def test_factor_irreducible_quadratic_stays_whole(F2):
    classes = factor_irreducible(xp(-3, 0, 1))  # xi^2 - 3 irreducible here
    assert len(classes) == 1
    assert classes[0].factor == xp(-3, 0, 1)
    assert classes[0].multiplicity == 1


def test_factor_with_multiplicities_and_content(F2):
    f = xp(-1, 1) ** 3 * xp(1, 1) * UPoly.constant(F2(5), 2)
    classes = factor_irreducible(f)
    by_factor = {tuple(c.factor.coeffs): c.multiplicity for c in classes}
    assert by_factor == {
        tuple(xp(-1, 1).coeffs): 3,
        tuple(xp(1, 1).coeffs): 1,
    }
    assert rebuild(classes, f.coeff(f.degree), 2) == f


def test_factor_strips_x_powers(F2):
    f = monomial(1, 3, 2) * xp(-1, 0, 1)
    classes = factor_irreducible(f)
    assert rebuild(classes, f.coeff(f.degree), 2) == f
    mults = {c.factor.degree: c.multiplicity for c in classes}
    assert mults[1] in (1, 3)  # both linear; exact split checked by rebuild


def test_factor_cubic_requires_deep_split(F2):
    # (xi^2 + 1)(xi - 3) stays a (quadratic, linear) pair over Q(sqrt 2);
    # the cubic has nonzero constant term so the generic splitter runs.
    f = xp(1, 0, 1) * xp(-3, 1)
    classes = factor_irreducible(f)
    assert rebuild(classes, f.coeff(f.degree), 2) == f
    assert sorted(c.factor.degree for c in classes) == [1, 2]


def test_factor_quartic_random_reconstruction(F2):
    rng = random.Random(41)
    for _ in range(12):
        f = rand_upoly(rng, F2, max_degree=4, nonzero=True)
        if f.degree < 1:
            continue
        classes = factor_irreducible(f)
        assert rebuild(classes, f.coeff(f.degree), 2) == f
        for cls in classes:
            assert cls.factor.coeff(cls.factor.degree) == F2(1)


def test_factor_rejects_constants(F2):
    with pytest.raises(ValueError):
        factor_irreducible(UPoly.one(2))
    with pytest.raises(ValueError):
        factor_irreducible(UPoly.zero(2))


def test_eval_mod_is_ring_hom(F2):
    rng = random.Random(43)
    p = xp(-3, 0, 1)
    for _ in range(40):
        a = rand_upoly(rng, F2, max_degree=5)
        b = rand_upoly(rng, F2, max_degree=5)
        assert eval_mod(a * b, p) == eval_mod(eval_mod(a, p) * eval_mod(b, p), p)
        assert eval_mod(a + b, p) == eval_mod(eval_mod(a, p) + eval_mod(b, p), p)


def test_constant_eval_mod(F2, rt2):
    p = xp(-2, 0, 1)  # classes at +-rt2 jointly
    f = RatFunc(xp(0, 1), xp(1, 0, 1))  # xi/(xi^2+1): at xi^2=2 -> xi/3
    value = constant_eval_mod(f, xp(-3, 0, 1))
    assert value is None  # xi/4 representative is nonconstant mod xi^2-3
    g = RatFunc(xp(0, 0, 3), xp(1, 0, 1))  # 3 xi^2/(xi^2+1) -> 6/3 = 2 mod p
    assert constant_eval_mod(g, p) == F2(2)
    # a pole on the class is a non-unit denominator
    h = RatFunc(UPoly.one(2), p)
    with pytest.raises(ValueError):
        constant_eval_mod(h, p)


def test_coprime_predicate(F2):
    assert coprime(xp(-1, 1), xp(1, 1))
    assert not coprime(xp(-1, 0, 1), xp(-1, 1))


def test_partial_fractions_reconstruct_random(F2):
    rng = random.Random(47)
    checked = 0
    for _ in range(40):
        f = rand_ratfunc(rng, F2, max_degree=4)
        if f.is_zero():
            continue
        pf = partial_fractions(f, pole_classes(f))
        assert recombine(pf) == f
        for term in pf.terms:
            assert not term.numerator.is_zero()
            assert term.numerator.degree < term.factor.degree
        checked += 1
    assert checked >= 30


def test_partial_fractions_term_shape(F2):
    # 1/((xi-1)^2 (xi+2)) has terms at orders 1,2 of (xi-1) and 1 of (xi+2)
    den = xp(-1, 1) ** 2 * xp(2, 1)
    f = RatFunc(UPoly.one(2), den)
    pf = partial_fractions(f, pole_classes(f))
    assert pf.poly_part.is_zero()
    p1, p2 = xp(-1, 1), xp(2, 1)
    orders = {(tuple(t.factor.coeffs), t.order) for t in pf.terms}
    assert orders == {
        (tuple(p1.coeffs), 1),
        (tuple(p1.coeffs), 2),
        (tuple(p2.coeffs), 1),
    }
    assert recombine(pf) == f


def _monic(text, d):
    return parse_ratfunc(text, FieldSpec(d)).num.monic()


def _rand_monic(rng, F, degree):
    # small integral coefficients keep sympy's norm-based factorizer quick
    coeffs = [F(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(degree)]
    return UPoly(coeffs + [F(1)], F.d)


def test_factor_degrees_mod_p_match_sympy():
    from sympy import Poly, symbols

    x = symbols("x")
    rng = random.Random(59)
    p = small_split_primes(2)[0][0]
    checked = 0
    for _ in range(40):
        f = [rng.randrange(p) for _ in range(rng.randint(2, 9))] + [1]
        df = [i * c % p for i, c in enumerate(f)][1:]
        if _gcd_degree_mod_p(f, df, p) != 0:
            continue
        _, factors = Poly(f[::-1], x, modulus=p).factor_list()
        expected = sorted(Poly(h, x).degree() for h, _ in factors)
        assert sorted(_factor_degrees_mod_p(f, p)) == expected
        checked += 1
    assert checked > 30


def test_degree_set_proofs_agree_with_sympy():
    """Whenever the modular test proves g irreducible, sympy finds one
    factor; a product is never proven, and d = -1 never is."""
    rng = random.Random(61)
    proven = 0
    for d in (2, 3, 5, -3, -1):
        F = FieldSpec(d)
        for _ in range(6):
            g = _rand_monic(rng, F, rng.randint(3, 8))
            if poly_gcd(g, g.derivative()).degree > 0:
                continue
            product = g * _rand_monic(rng, F, rng.randint(1, 3))
            assert not proven_irreducible(product)
            if proven_irreducible(g):
                assert d != -1
                assert _split_with_sympy(g) == [g]
                proven += 1
    assert proven >= 20


@pytest.mark.parametrize(
    "text, d",
    [
        ("xi^4 + 1", 3),  # irreducible, but reducible mod every prime
        ("xi^4 - 10*xi^2 + 1", 2),  # (xi^2 - 2*rt*xi - 1)(xi^2 + 2*rt*xi - 1)
        ("(xi^3 + xi + 1)*(xi^3 - 2*xi + 5)", 2),
        ("xi^4 + xi + 1", -1),  # no prime of the test splits
    ],
)
def test_degree_set_controls_fall_through(text, d):
    assert not proven_irreducible(_monic(text, d))


def test_degree_set_proves_the_quartic_class():
    g = _monic("xi^4 + xi + 1", 2)
    assert proven_irreducible(g)
    assert [c.factor for c in factor_irreducible(g)] == [g]
