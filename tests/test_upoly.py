"""Univariate polynomial arithmetic over Q(sqrt d)."""

import random
from fractions import Fraction

import pytest

from artifact.exactalg import (
    FieldSpec,
    NEG_INF,
    UPoly,
    inverse_mod,
    poly_gcd,
    squarefree_decompose,
    strip_power_of_x,
)
from artifact.exactalg import field, upoly
from artifact.exactalg.upoly import small_split_primes

from conftest import rand_scalar, rand_upoly
from oracles import (
    monomial,
    multiplicity,
    poly_eval,
    poly_xgcd,
    schoolbook_add,
    schoolbook_divmod,
    schoolbook_mul,
    schoolbook_scale,
    squarefree_part,
)


def xp(*coeffs, d=2):
    """Polynomial from low-to-high coefficients."""
    return UPoly(list(coeffs), d)


def test_basic_construction_and_degree(F2):
    p = xp(1, 0, 3)  # 3*xi^2 + 1
    assert p.degree == 2
    assert p.coeff(2) == F2(3) and p.coeff(1) == F2(0) and p.coeff(5) == F2(0)
    assert UPoly.zero(2).is_zero()
    assert UPoly.zero(2).degree == NEG_INF
    assert UPoly.one(2).degree == 0
    assert UPoly.x(2) == xp(0, 1)
    assert monomial(4, 3, 2) == xp(0, 0, 0, 4)


def test_normalization_strips_leading_zeros(F2):
    assert UPoly([1, 2, 0, 0], 2).degree == 1
    assert UPoly([0, 0, 0], 2).is_zero()


def test_ring_axioms_random(F2):
    rng = random.Random(11)
    for _ in range(80):
        a = rand_upoly(rng, F2)
        b = rand_upoly(rng, F2)
        c = rand_upoly(rng, F2)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == UPoly.zero(2)


def test_eval_and_composition_consistency(F2, rt2):
    p = xp(-1, 0, 1)  # xi^2 - 1
    assert poly_eval(p, F2(3)) == F2(8)
    assert poly_eval(p, rt2) == F2(1)
    rng = random.Random(13)
    for _ in range(40):
        a = rand_upoly(rng, F2)
        b = rand_upoly(rng, F2)
        x = F2(rng.randint(-5, 5), rng.randint(-3, 3))
        assert poly_eval(a * b, x) == poly_eval(a, x) * poly_eval(b, x)
        assert poly_eval(a + b, x) == poly_eval(a, x) + poly_eval(b, x)


def test_derivative_product_rule(F2):
    rng = random.Random(17)
    for _ in range(40):
        a = rand_upoly(rng, F2)
        b = rand_upoly(rng, F2)
        assert (a * b).derivative() == a.derivative() * b + a * b.derivative()
    assert xp(5).derivative().is_zero()
    assert xp(0, 0, 0, 2).derivative() == xp(0, 0, 6)


def test_antiderivative_inverts_derivative(F2):
    rng = random.Random(19)
    for _ in range(30):
        a = rand_upoly(rng, F2)
        assert a.antiderivative().derivative() == a


def test_divrem_identity_and_degree_bound(F2):
    rng = random.Random(23)
    for _ in range(120):
        a = rand_upoly(rng, F2, max_degree=6)
        b = rand_upoly(rng, F2, max_degree=4, nonzero=True)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree < b.degree
    with pytest.raises(ZeroDivisionError):
        divmod(xp(1, 1), UPoly.zero(2))


def test_gcd_divides_and_is_monic(F2):
    rng = random.Random(29)
    for _ in range(80):
        a = rand_upoly(rng, F2, max_degree=4)
        b = rand_upoly(rng, F2, max_degree=4)
        g = poly_gcd(a, b)
        if a.is_zero() and b.is_zero():
            assert g.is_zero()
            continue
        assert g.coeff(g.degree) == F2(1)
        for f in (a, b):
            if not f.is_zero():
                _, r = divmod(f, g)
                assert r.is_zero()


def test_gcd_detects_common_factor(F2):
    common = xp(1, 1)  # xi + 1
    a = common * xp(-3, 1)
    b = common * common * xp(7, 0, 1)
    assert poly_gcd(a, b) == common.monic()


def test_xgcd_bezout_identity(F2):
    rng = random.Random(31)
    for _ in range(60):
        a = rand_upoly(rng, F2, max_degree=4)
        b = rand_upoly(rng, F2, max_degree=4)
        g, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g
        assert g == poly_gcd(a, b)


def test_inverse_mod():
    """inverse_mod agrees with the extended-Euclid oracle modulo p, p^2
    and p^3 for linear and quadratic p over several fields, and refuses
    an f that shares the factor p with the modulus."""
    rng = random.Random(43)
    for d in (1, 2, 5, -1, -3):
        F = FieldSpec(d)
        for degree in (1, 2):
            p = UPoly([rand_scalar(rng, F) for _ in range(degree)] + [1], d)
            for m in (p, p**2, p**3):
                f = rand_upoly(rng, F, max_degree=5, nonzero=True)
                g, u, _ = poly_xgcd(f % m, m)
                if g.is_one():
                    inv = inverse_mod(f, m)
                    assert inv == u % m
                    assert ((f * inv - 1) % m).is_zero()
                else:
                    with pytest.raises(ValueError):
                        inverse_mod(f, m)
                with pytest.raises(ValueError):
                    inverse_mod(f * p, m)


def test_squarefree_decompose_reconstructs(F2):
    rng = random.Random(37)
    for _ in range(40):
        base = [
            rand_upoly(rng, F2, max_degree=2, nonzero=True)
            for _ in range(rng.randint(1, 3))
        ]
        exps = [rng.randint(1, 3) for _ in base]
        f = UPoly.one(2)
        for p, e in zip(base, exps):
            f = f * p**e
        if f.degree < 1:
            continue
        parts = squarefree_decompose(f)
        rebuilt = UPoly.constant(f.coeff(f.degree), 2)
        for part, mult in parts:
            assert poly_gcd(part, part.derivative()).degree <= 0
            rebuilt = rebuilt * part**mult
        assert rebuilt == f
        mults = [m for _, m in parts]
        assert mults == sorted(mults)


def test_squarefree_part_and_multiplicity(F2):
    p = xp(-1, 1)  # xi - 1
    q = xp(1, 1)  # xi + 1
    f = p**3 * q
    assert squarefree_part(f) == (p * q).monic()
    assert multiplicity(p, f) == 3
    assert multiplicity(q, f) == 1
    assert multiplicity(xp(5, 1), f) == 0


def test_strip_power_of_x(F2):
    f = monomial(1, 2, 2) * xp(3, 1)
    v, rest = strip_power_of_x(f)
    assert v == 2 and rest == xp(3, 1)
    v, rest = strip_power_of_x(xp(3, 1))
    assert v == 0 and rest == xp(3, 1)


def test_monic_and_scale(F2, rt2):
    f = xp(2, 0, 4)
    m = f.monic()
    assert m.coeff(2) == F2(1)
    assert m == f.scale(F2(1) / F2(4))
    g = xp(0, rt2)
    assert g.monic() == UPoly.x(2)


# -- the integer kernels against the QuadExt schoolbook -------------------------


def _kernel_operand(rng, F, kind):
    """A polynomial of the given kind: "zero", "constant", "rational" or
    "surd", with zero coefficients inside and at the low end and mixed
    denominators; the coefficient list may end in zeros."""
    if kind == "zero":
        return UPoly([0] * rng.randint(0, 2), F.d)
    n = 1 if kind == "constant" else rng.randint(2, 9)
    cs = []
    for _ in range(n):
        a = Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 4, 6, 35)))
        b = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5, 9)))
        cs.append(0 if rng.random() < 0.25 else
                  F(a, b) if kind == "surd" and F.d != 1 else a)
    if not any(cs):
        cs[-1] = 1
    return UPoly(cs + [0] * rng.randint(0, 1), F.d)


def test_ring_operations_match_the_schoolbook_oracle():
    rng = random.Random(24)
    kinds = ("zero", "constant", "rational", "surd")
    for d in (1, 2, 5, -1, -3):
        F = FieldSpec(d)
        for i in range(64):
            a = _kernel_operand(rng, F, kinds[i % 4])
            b = _kernel_operand(rng, F, kinds[i // 4 % 4])
            for got, want in ((a * b, schoolbook_mul(a, b)),
                              (a + b, schoolbook_add(a, b)),
                              (a - b, schoolbook_add(a, b, -1))):
                assert got == want and hash(got) == hash(want)
            if not b.is_zero():
                assert divmod(a, b) == schoolbook_divmod(a, b)
            power = UPoly.one(d)
            for e in range(4):
                assert a**e == power
                power = schoolbook_mul(power, a)
            for c in (0, -3, Fraction(5, 6), F(Fraction(1, 2), 3)):
                assert a * c == schoolbook_scale(a, c) == c * a


def test_product_makes_one_field_element_per_output_coefficient(monkeypatch):
    rng = random.Random(5)
    F, n = FieldSpec(2), 12
    a, b = (UPoly([F(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     rng.randint(-9, 9)) for _ in range(n - 1)] + [1], 2)
            for _ in range(2))
    calls = []
    make = field._make

    def counted(*args):
        calls.append(args)
        return make(*args)

    monkeypatch.setattr(field, "_make", counted)
    monkeypatch.setattr(upoly, "_make", counted)
    product = a * b
    assert len(calls) <= 2 * n - 1
    calls.clear()
    assert schoolbook_mul(a, b) == product
    assert len(calls) >= 2 * n * n


# -- the modular coprimality test in poly_gcd ----------------------------------


def euclid_gcd(a, b):
    """Reference: the plain Euclidean gcd, without the modular test."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _is_prime(n):
    """Miller-Rabin with the first 13 prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % q == 0 for q in bases):
        return n in bases
    r, s = n - 1, 0
    while r % 2 == 0:
        r, s = r // 2, s + 1
    for q in bases:
        x = pow(q, r, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _filter_prime(d):
    """The prime of the gcd filter and its square root of d."""
    return small_split_primes(d)[0]


def test_filter_prime_table():
    for d in (1, 2, 5, -3):
        table = [p for p, _ in small_split_primes(d)]
        assert len(set(table)) == len(table) > 1
        for p in table:
            assert 2**14 < p < 2**14 + 2**11 and p % 4 == 3 and _is_prime(p)
    assert not _is_prime(2**61 - 3) and _is_prime(2**31 - 1)


def test_split_prime_gives_a_square_root_of_d():
    candidates = [p for p in range(2**14 + 3, 2**14 + 2**11, 4)
                  if _is_prime(p)]
    for d in (1, 2, 3, 5, -2, -7, 13, 10**12 - 11):
        p, s = _filter_prime(d)
        assert p in candidates and s * s % p == d % p
        # the first prime of the table in which d is a square
        assert all(pow(d % q, (q - 1) // 2, q) != 1
                   for q in candidates[:candidates.index(p)])
    # -1 is a non-square modulo every p = 3 (mod 4): Euclid always runs
    assert small_split_primes(-1) == ()


def test_gcd_matches_euclid_seeded():
    rng = random.Random(41)
    proven = 0
    for d in (1, 2, -1, 5):
        F = FieldSpec(d)
        for i in range(60):
            a = rand_upoly(rng, F, max_degree=5, nonzero=True)
            b = rand_upoly(rng, F, max_degree=5, nonzero=True)
            if i % 5 < 2:
                common = UPoly(
                    [rand_scalar(rng, F) for _ in range(rng.randint(1, 3))]
                    + [rand_scalar(rng, F, nonzero=True)], d)
                a, b = a * common, b * common
            expected = euclid_gcd(a, b)
            assert poly_gcd(a, b) == expected
            assert poly_gcd(b, a) == expected
            if upoly._coprime_mod_p(a, b):
                assert expected.is_one()
                proven += 1
    assert proven > 60


def test_gcd_falls_back_on_a_denominator_divisible_by_p():
    p, _ = _filter_prime(2)
    lin = xp(Fraction(1, p), 1)  # xi + 1/p
    for a, b, g in ((lin, xp(1, 0, 1), UPoly.one(2)),
                    (lin * xp(1, 1), lin * xp(2, 1), lin)):
        assert not upoly._coprime_mod_p(a, b)
        assert poly_gcd(a, b) == g == euclid_gcd(a, b)


def test_gcd_falls_back_on_a_leading_coefficient_divisible_by_p():
    p, _ = _filter_prime(2)
    # mod p both drop to degree 1 and look coprime: (xi + 1) and (xi + 2);
    # the true gcd xi + 1/p is not p-integral
    a = xp(1, p) * xp(1, 1)
    b = xp(1, p) * xp(2, 1)
    assert not upoly._coprime_mod_p(a, b)
    assert poly_gcd(a, b) == xp(Fraction(1, p), 1) == euclid_gcd(a, b)


def test_coprime_gcd_is_proven_without_exact_division(monkeypatch):
    rng = random.Random(7)
    F = FieldSpec(2)

    def monic(degree):
        return UPoly([F(rng.randint(-3, 3), rng.randint(-3, 3))
                      for _ in range(degree)] + [F(1)], 2)

    a, b = monic(32), monic(31)
    expected = euclid_gcd(a, b)
    assert expected.is_one()

    def refuse(self, other):
        raise AssertionError("exact division reached")

    monkeypatch.setattr(UPoly, "__divmod__", refuse)
    assert poly_gcd(a, b) == expected
