"""Randomized algebraic invariants checked with hypothesis."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artifact.criteria import _ode_solutions, build_rho
from artifact.exactalg import (
    FieldSpec,
    QuadExt,
    RatFunc,
    UPoly,
    factor_irreducible,
    partial_fractions,
    poly_gcd,
    squarefree_decompose,
)
from artifact.expr import (
    format_bipoly,
    format_ratfunc,
    format_scalar,
    parse_bipoly,
    parse_expression,
    parse_ratfunc,
)

from oracles import conjugate, omega, partition, pole_classes, recombine

F2 = FieldSpec(2)


fractions = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def scalars(field=F2):
    if field.d == 1:
        return st.builds(lambda a: field(a), fractions)
    return st.builds(lambda a, b: QuadExt(a, b, field.d), fractions, fractions)


def upolys(max_degree=4, field=F2):
    return st.builds(
        lambda cs: UPoly(cs, field.d),
        st.lists(scalars(field), min_size=1, max_size=max_degree + 1),
    )


def nonzero_upolys(max_degree=4, field=F2):
    return upolys(max_degree, field).filter(lambda p: not p.is_zero())


def ratfuncs(max_degree=3, field=F2):
    return st.builds(
        RatFunc, upolys(max_degree, field), nonzero_upolys(max_degree, field)
    )


# ---------------------------------------------------------------------------
# Field and polynomial arithmetic
# ---------------------------------------------------------------------------


@given(scalars(), scalars(), scalars())
def test_field_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


@given(scalars(), scalars())
def test_field_division_inverts(a, b):
    assume(b)
    assert (a / b) * b == a


@given(scalars())
def test_field_norm_multiplicative_with_conjugate(a):
    assert a * conjugate(a) == type(a)(a.norm(), 0, a.d)


@given(upolys(), nonzero_upolys())
def test_divrem_identity(f, g):
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree


@given(upolys(3), upolys(3), nonzero_upolys(2))
def test_gcd_contains_common_factor(a, b, f):
    g = poly_gcd(a * f, b * f)
    _, r = divmod(g, f.monic())
    assert r.is_zero()
    if not (a * f).is_zero():
        _, r1 = divmod(a * f, g)
        assert r1.is_zero()


@given(nonzero_upolys(5))
def test_squarefree_reconstructs(p):
    assume(p.degree >= 1)
    parts = squarefree_decompose(p)
    rebuilt = UPoly.constant(p.lc(), p.d)
    for factor, mult in parts:
        rebuilt = rebuilt * factor ** mult
    assert rebuilt == p
    mults = [m for _, m in parts]
    assert mults == sorted(mults) and len(set(mults)) == len(mults)


@settings(max_examples=40, deadline=None)
@given(nonzero_upolys(4))
def test_factorization_reconstructs(p):
    assume(p.degree >= 1)
    classes = factor_irreducible(p)
    rebuilt = UPoly.constant(p.lc(), p.d)
    for cls in classes:
        rebuilt = rebuilt * cls.factor ** cls.multiplicity
    assert rebuilt == p
    assert all(cls.factor.is_monic() for cls in classes)


@settings(max_examples=40, deadline=None)
@given(upolys(3), nonzero_upolys(3))
def test_partial_fractions_recombine(num, den):
    f = RatFunc(num, den)
    pf = partial_fractions(f, pole_classes(f))
    assert recombine(pf) == RatFunc(num, den)
    for term in pf.terms:
        assert term.numerator.degree < term.factor.degree


# ---------------------------------------------------------------------------
# Expression round-trips
# ---------------------------------------------------------------------------


@given(scalars())
def test_scalar_format_round_trip(c):
    assert parse_expression(format_scalar(c), F2) == c


@given(ratfuncs())
def test_ratfunc_format_round_trip(r):
    assert parse_ratfunc(format_ratfunc(r), F2) == r


@settings(max_examples=40)
@given(st.lists(upolys(2), min_size=1, max_size=3))
def test_bipoly_format_round_trip(rows):
    from artifact.exactalg import BiPoly

    p = BiPoly(rows, F2.d)
    assert parse_bipoly(format_bipoly(p), F2) == p


# ---------------------------------------------------------------------------
# Omega decomposition
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(ratfuncs(3))
def test_omega_reconstructs_kappa1(k1):
    om = omega(k1)
    assert om.reconstruct() == k1


# ---------------------------------------------------------------------------
# Partition and ODE layer
# ---------------------------------------------------------------------------


small_factors = st.sampled_from(
    [
        UPoly([Fraction(-1), Fraction(1)], 2),
        UPoly([Fraction(1), Fraction(1)], 2),
        UPoly([Fraction(-2), Fraction(0), Fraction(1)], 2),
        UPoly([Fraction(-3), Fraction(0), Fraction(1)], 2),
        UPoly([Fraction(2), Fraction(1)], 2),
    ]
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(small_factors, st.integers(1, 2), st.integers(0, 3)),
        min_size=1,
        max_size=3,
        unique_by=lambda t: tuple(t[0].coeffs),
    ),
    nonzero_upolys(2),
    nonzero_upolys(3),
    st.integers(2, 5),
)
def test_partition_accounts_for_every_class(spec, num1, numk, k):
    den1 = UPoly.one(2)
    denk = UPoly.one(2)
    for factor, m1, mk in spec:
        den1 = den1 * factor ** m1
        denk = denk * factor ** mk
    k1 = RatFunc(num1, den1)
    kk = RatFunc(numk, denk)
    assume(not kk.is_zero())
    part = partition(k1, kk)
    n1 = sum(c.factor.degree for c in part.shared if c.b1 >= 1)
    assert part.n1 <= k1.den.degree
    for c in part.shared:
        assert c.a1 != 0
        _, r = divmod(k1.den, c.factor)
        assert r.is_zero()
    for c in part.new:
        assert c.ak >= 1
        _, r = divmod(k1.den, c.factor)
        assert not r.is_zero()
    rho = build_rho(k1, part, k)
    assert rho.d == 2


@settings(max_examples=60, deadline=None)
@given(nonzero_upolys(3), upolys(2), upolys(2))
def test_polynomial_solution_finds_constructed_one(A, rho, z):
    rhs = A * z.derivative() + rho * z
    assume(not rhs.is_zero() or z.is_zero())
    found = _ode_solutions(A, rho, rhs)[0]
    assert found is not None
    assert A * found.derivative() + rho * found == rhs


@settings(max_examples=40, deadline=None)
@given(nonzero_upolys(2), nonzero_upolys(2))
def test_polynomial_solution_verifies_when_found(A, rho):
    rhs = UPoly.one(2)
    found = _ode_solutions(A, rho, rhs)[0]
    if found is not None:
        assert A * found.derivative() + rho * found == rhs
