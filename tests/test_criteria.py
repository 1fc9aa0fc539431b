"""Root partitions, simplicity, rho division, the ODE test, the battery."""

import random
from fractions import Fraction

import pytest

from artifact.criteria import (
    DEFAULT_MAX_ORDER,
    MAX_ORDER_CAP,
    SkipOrder,
    _ode_solutions,
    build_rho,
    certify,
    check_H1,
    criterion_scan,
    divide_by_rho,
    simplicity_profile,
)
from artifact.exactalg import (
    FieldSpec,
    QuadExt,
    RatFunc,
    UPoly,
    poly_gcd,
)
from artifact.expr import parse_ratfunc
from artifact.unfoldings import (
    DoubleHopfParams,
    FoldHopfParams,
    double_hopf_system,
    fold_hopf_system,
)

from conftest import rand_scalar, rand_upoly
from oracles import (
    auxiliary_polynomial,
    dense_ode_solutions,
    double_hopf_kappa,
    fold_hopf_kappa,
    monomial,
    multiplicity,
    omega,
    partition,
)


def xp(*coeffs, d=2):
    return UPoly(list(coeffs), d)


def rf(text, F):
    return parse_ratfunc(text, F)


# ---------------------------------------------------------------------------
# partition_roots
# ---------------------------------------------------------------------------


def test_partition_shared_and_new_classes(F2):
    k1 = rf("1/((xi - 1)*(xi + 1))", F2)
    kk = rf("1/((xi - 1)^3*(xi + 2)^2)", F2)
    part = partition(k1, kk)
    shared = {tuple(c.factor.coeffs): (c.b1, c.a1) for c in part.shared}
    # xi-1: multiplicity 1 -> 3; xi+1: 1 -> 0 (disappears, a1 = -1)
    assert shared == {
        tuple(xp(-1, 1).coeffs): (1, 2),
        tuple(xp(1, 1).coeffs): (1, -1),
    }
    assert [
        (tuple(c.factor.coeffs), c.ak) for c in part.new
    ] == [(tuple(xp(2, 1).coeffs), 2)]
    assert part.n1 == 2 and part.nk == 1
    assert part.rad1 == xp(-1, 1) * xp(1, 1)
    assert part.radk == xp(2, 1)


def test_partition_omits_unchanged_classes(F2):
    k1 = rf("1/((xi - 1)*(xi + 1))", F2)
    kk = rf("1/((xi - 1)*(xi + 1)^2)", F2)
    part = partition(k1, kk)
    assert len(part.shared) == 1  # xi - 1 dropped: multiplicity unchanged
    assert part.shared[0].factor == xp(1, 1)
    assert part.shared[0].a1 == 1
    assert part.rad1 == xp(1, 1)


def test_partition_zero_kappak_skips(F2):
    with pytest.raises(SkipOrder):
        partition(rf("1/xi", F2), RatFunc.zero(2))


def test_partition_polynomial_kappak(F2):
    k1 = rf("1/xi", F2)
    part = partition(k1, rf("xi + 3", F2))
    # kappa_k has no poles: the xi class disappears (a1 = -1)
    assert len(part.new) == 0
    assert len(part.shared) == 1 and part.shared[0].a1 == -1


def test_partition_quadratic_conjugate_class(F2):
    k1 = rf("1/(xi^2 - 3)", F2)
    kk = rf("1/(xi^2 - 3)^2", F2)
    part = partition(k1, kk)
    assert len(part.shared) == 1
    assert part.shared[0].factor == xp(-3, 0, 1)
    assert part.n1 == 2  # a class of degree 2 counts both conjugate roots


# ---------------------------------------------------------------------------
# simplicity_profile and the auxiliary-polynomial oracle
# ---------------------------------------------------------------------------


def test_simplicity_closed_form_example(F2, rt2):
    # fold-Hopf mu=-1: kappa_1 = (alpha xi + nu)/(xi^2 - 1), k = 3:
    # bad_b at xi = +-1 is (alpha +- nu) - a1 + 1 with a1 = 1.
    alpha, nu = rt2, F2(1)
    k1 = fold_hopf_kappa(FoldHopfParams(F2, -1, nu, alpha), 1)
    kk = fold_hopf_kappa(FoldHopfParams(F2, -1, nu, alpha), 3)
    part = partition(k1, kk)
    prof = simplicity_profile(k1, part, 3)
    by_class = {tuple(c.factor.coeffs): c.bad_b for c in prof.classes}
    assert by_class[tuple(xp(-1, 1).coeffs)] == alpha + nu  # at xi = 1
    assert by_class[tuple(xp(1, 1).coeffs)] == alpha - nu  # at xi = -1


def test_simplicity_profile_flags(F2, rt2):
    # bad_b = 1 exactly: alpha - nu = 1 at xi = -1 with alpha irrational
    params = FoldHopfParams(F2, -1, rt2 - F2(1), rt2)
    k1 = fold_hopf_kappa(params, 1)
    part = partition(k1, fold_hopf_kappa(params, 3))
    prof = simplicity_profile(k1, part, 3)
    flags = {tuple(c.factor.coeffs): c for c in prof.classes}
    c_plus = flags[tuple(xp(1, 1).coeffs)]  # xi = -1
    assert c_plus.bad_b == F2(1)
    assert prof.criterion_ii_fires()


def test_simplicity_vs_auxiliary_polynomial_oracle(F2, rt2):
    """bad_b == b exactly when the class root doubles in the auxiliary
    polynomial with that multiplier; checked for b in 1..5."""
    cases = [
        FoldHopfParams(F2, -1, 1, rt2),
        FoldHopfParams(F2, -1, rt2 - 1, rt2),
        FoldHopfParams(F2, -1, 3, 2),  # bad_b = 5 and 0 at the two roots
        FoldHopfParams(F2, -1, Fraction(1, 2), Fraction(5, 2)),
        DoubleHopfParams(F2, 1, rt2, Fraction(1, 2), 1),
        DoubleHopfParams(F2, -2, 3, 2, Fraction(1, 2)),
    ]
    checked = 0
    for params in cases:
        if isinstance(params, FoldHopfParams):
            gen = fold_hopf_kappa
        else:
            gen = double_hopf_kappa
        k1 = gen(params, 1)
        for k in (3, 5):
            part = partition(k1, gen(params, k))
            prof = simplicity_profile(k1, part, k)
            for idx, cls in enumerate(prof.classes):
                for b in range(1, 6):
                    multipliers = [1] * len(part.shared)
                    multipliers[idx] = b
                    aux = auxiliary_polynomial(k1, part, k, multipliers)
                    if aux.is_zero():
                        doubled = True
                    else:
                        doubled = multiplicity(cls.factor, aux) >= 2
                    assert doubled == (cls.bad_b == F2(b)), (
                        params,
                        k,
                        idx,
                        b,
                    )
                    checked += 1
    assert checked >= 100


def test_auxiliary_polynomial_always_vanishes_on_shared_roots(F2, rt2):
    params = FoldHopfParams(F2, -1, 1, rt2)
    k1 = fold_hopf_kappa(params, 1)
    part = partition(k1, fold_hopf_kappa(params, 3))
    for b in ([1, 1], [2, 3], [4, 5]):
        aux = auxiliary_polynomial(k1, part, 3, b)
        for cls in part.shared:
            assert multiplicity(cls.factor, aux) >= 1
    with pytest.raises(ValueError):
        auxiliary_polynomial(k1, part, 3, [1])


# ---------------------------------------------------------------------------
# rho: construction and division
# ---------------------------------------------------------------------------


def test_rho_closed_form_fold_hopf(F2, rt2):
    """rho_bar and rho_tilde of the resonance-free closed forms for
    k = 2j-1, j in {2, 3}: division of kappa_k num by rho is exact
    constant-by-constant."""
    import math

    for alpha, nu in [
        (rt2, F2(1)),
        (rt2 + 2, rt2 - 3),
        (F2(Fraction(2, 3)), F2(5)),
        (F2(3), rt2),
    ]:
        for s in (1, -1):
            params = FoldHopfParams(F2, -1, nu, alpha, s=s)
            k1 = fold_hopf_kappa(params, 1)
            for j in (2, 3):
                k = 2 * j - 1
                kk = fold_hopf_kappa(params, k)
                part = partition(k1, kk)
                rho = build_rho(k1, part, k)
                rho_bar, rho_tilde, n_bar = divide_by_rho(kk.num, rho)
                lead = F2(math.factorial(k)) * F2(-s) ** (j - 1)
                expect_bar = (
                    lead * alpha / (F2(2 * (j - 1)) * (alpha - F2(1)))
                )
                expect_tilde = -lead * nu / (alpha - F2(1))
                assert rho_bar == UPoly.constant(expect_bar, 2)
                assert rho_tilde == UPoly.constant(expect_tilde, 2)
                assert n_bar == 0


def test_rho_closed_form_double_hopf_beta_zero(F2, rt2):
    """beta = 0 collapses kappa_3 to -6s/(xi (xi^2 - mu)): rho_bar
    vanishes and rho_tilde = -6s."""
    for mu, nu, alpha, s in [
        (F2(1), rt2, F2(2), 1),
        (F2(-2), F2(3), rt2, -1),
        (rt2, F2(1), F2(Fraction(1, 2)), 1),
    ]:
        params = DoubleHopfParams(F2, mu, nu, alpha, 0, s=s)
        k1 = double_hopf_kappa(params, 1)
        kk = double_hopf_kappa(params, 3)
        part = partition(k1, kk)
        assert not part.shared and not part.new  # same poles at k=3
        rho = build_rho(k1, part, 3)
        rho_bar, rho_tilde, n_bar = divide_by_rho(kk.num, rho)
        assert rho_bar.is_zero()
        assert rho_tilde == UPoly.constant(F2(-6 * s), 2)
        assert n_bar == 0


def test_divide_by_rho_rejects_zero(F2):
    with pytest.raises(ValueError):
        divide_by_rho(xp(1, 2), UPoly.zero(2))


def test_divide_by_rho_counts_distinct_roots(F2):
    rho = xp(0, 1)  # xi
    kkn = xp(0, 0, 0, 2, 0, 1) + xp(3)  # xi^5 + 2 xi^3 + 3
    rho_bar, rho_tilde, n_bar = divide_by_rho(kkn, rho)
    assert rho_bar * rho + rho_tilde == kkn
    assert rho_tilde.degree < rho.degree
    # rho_bar = xi^4 + 2 xi^2 has distinct roots {0, +-i sqrt 2}: the
    # squarefree part is xi (xi^2 + 2), three distinct roots
    assert n_bar == 3


# ---------------------------------------------------------------------------
# polynomial solutions of A z' + rho z = rhs
# ---------------------------------------------------------------------------


def test_polynomial_solution_simple(F2):
    # A = xi^5, rho = xi, rhs = 2 xi: z = 2
    z = _ode_solutions(monomial(1, 5, 2), xp(0, 1), xp(0, 2))[0]
    assert z == UPoly.constant(F2(2), 2)


def test_polynomial_solution_nontrivial(F2, rt2):
    # A = xi^3, rho = -3 xi^2 - 2 rt: z = xi^2 + 1 solves
    # A z' + rho z = -xi^4 - (3 + 2 rt) xi^2 - 2 rt... built by substitution
    A = monomial(1, 3, 2)
    rho = UPoly([-2 * rt2, 0, -3], 2)
    z_true = xp(1, 0, 1)
    rhs = A * z_true.derivative() + rho * z_true
    z = _ode_solutions(A, rho, rhs)[0]
    assert z is not None
    assert A * z.derivative() + rho * z == rhs


def test_polynomial_solution_none_when_impossible(F2):
    # A = 1, rho = 0: z' = rhs integrates any rhs -> always solvable; use
    # rho = xi with rhs constant 1: degree bookkeeping forbids a solution
    # z: deg(xi * z) = deg z + 1 = 0 impossible unless z = 0 -> rhs 0.
    z = _ode_solutions(UPoly.one(2), xp(0, 1), UPoly.one(2))[0]
    assert z is None


def test_polynomial_solution_kernel_family(F2):
    # A = xi^2, rho = -2 xi: kernel z = xi^2 (A z' + rho z = 0)
    A = monomial(1, 2, 2)
    rho = xp(0, -2)
    zero = _ode_solutions(A, rho, UPoly.zero(2))[0]
    assert zero is not None
    assert (A * zero.derivative() + rho * zero).is_zero()


def test_polynomial_solution_degree_zero_candidate(F2):
    # rhs constant with balanced degrees: z constant must be found
    A = xp(0, 0, 1)  # xi^2
    rho = xp(0, 1)  # xi
    rhs = xp(0, 3)  # 3 xi: z = 3 works since rho * 3 = 3 xi
    z = _ode_solutions(A, rho, rhs)[0]
    assert z is not None
    assert A * z.derivative() + rho * z == rhs


def test_polynomial_solution_resonant_degree(F2):
    # deg rho = deg A - 1 with -lc(rho)/lc(A) = n >= 0 admits degree-n
    # solutions: A = xi^3, rho = -2 xi^2 -> n = 2
    A = monomial(1, 3, 2)
    rho = xp(0, 0, -2)
    z_true = xp(0, 0, 1)  # xi^2: A*2xi + rho*xi^2 = 2xi^4 - 2xi^4 = 0
    assert (A * z_true.derivative() + rho * z_true).is_zero()
    rhs = A * xp(1, 1).derivative() + rho * xp(1, 1)
    z = _ode_solutions(A, rho, rhs)[0]
    assert z is not None
    assert A * z.derivative() + rho * z == rhs


# ---------------------------------------------------------------------------
# back-substitution against the dense Gauss-Jordan oracle
# ---------------------------------------------------------------------------


def _rand_poly(rng, F, lo, hi):
    """A random polynomial of exact degree in lo..hi."""
    deg = rng.randint(lo, hi)
    coeffs = [rand_scalar(rng, F) for _ in range(deg)]
    return UPoly(coeffs + [rand_scalar(rng, F, nonzero=True)], F.d)


def _image(A, rho, z):
    return A * z.derivative() + rho * z


def _ode_cases(rng, F):
    """One seeded input per class: (class, A, rho, rhs)."""
    d = F.d
    z = rand_upoly(rng, F, 5)
    A = _rand_poly(rng, F, 1, 4)
    yield "rho = 0", A, UPoly.zero(d), A * z.derivative()
    A = _rand_poly(rng, F, 3, 4)
    rho = _rand_poly(rng, F, 0, int(A.degree) - 2)
    yield "deg rho < deg A - 1", A, rho, _image(A, rho, z)
    # q solves A q' + rho q = 0 for A = q*B, rho = -B*q': resonance deg q
    q = _rand_poly(rng, F, 1, 4)
    B = _rand_poly(rng, F, 0, 2)
    A, rho = q * B, -(B * q.derivative())
    yield "resonant, kernel survives", A, rho, _image(A, rho, z)
    A = _rand_poly(rng, F, 2, 4)
    r = rng.randint(1, 6)
    low = _rand_poly(rng, F, int(A.degree) - 2, int(A.degree) - 2)
    rho = low + monomial(-A.lc() * r, int(A.degree) - 1, d)
    yield "resonant, a low row fixes t", A, rho, _image(A, rho, z)
    A = _rand_poly(rng, F, 0, 3)
    rho = _rand_poly(rng, F, max(int(A.degree), 1), int(A.degree) + 2)
    yield "deg rho > deg A - 1", A, rho, _image(A, rho, z)
    yield "inconsistent", A, rho, _image(A, rho, z) + UPoly.one(d)


def test_ode_solutions_match_dense_oracle():
    """Back-substitution returns exactly the reduced-echelon pair of the
    dense solve: same particular solution, same normalised kernel."""
    rng = random.Random(20261018)
    seen = {}
    for trial in range(40):
        F = FieldSpec((1, 2, 5)[trial % 3])
        for name, A, rho, rhs in _ode_cases(rng, F):
            particular, kernel = _ode_solutions(A, rho, rhs)
            want, kernels = dense_ode_solutions(A, rho, rhs)
            assert len(kernels) <= 1
            assert particular == want, name
            assert kernel == (kernels[0] if kernels else None), name
            shape = (particular is not None, kernel is not None)
            seen.setdefault(name, set()).add(shape)
            if kernel is not None:
                top = int(kernel.degree)
                assert kernel.lc() == 1 and particular.coeff(top) == 0
    assert seen == {
        "rho = 0": {(True, True)},
        "deg rho < deg A - 1": {(True, False)},
        "resonant, kernel survives": {(True, True)},
        "resonant, a low row fixes t": {(True, False)},
        "deg rho > deg A - 1": {(True, False)},
        "inconsistent": {(False, False)},
    }


@pytest.mark.parametrize(
    "A, rho, rhs",
    [
        # x z' - z = x: the resonant row x^1 reads 0 = 1
        (xp(0, 1), xp(-1), xp(0, 1)),
        # z' + x z = 1: the low row x^0 cannot be met
        (xp(1), xp(0, 1), xp(1)),
    ],
)
def test_ode_solutions_rejects_like_dense_oracle(A, rho, rhs):
    assert _ode_solutions(A, rho, rhs) == (None, None)
    assert dense_ode_solutions(A, rho, rhs) == (None, [])


def _count_mul(monkeypatch, A, rho, rhs):
    calls = [0]
    mul = QuadExt.__mul__

    def counting(self, other):
        calls[0] += 1
        return mul(self, other)

    monkeypatch.setattr(QuadExt, "__mul__", counting)
    _ode_solutions(A, rho, rhs)
    monkeypatch.setattr(QuadExt, "__mul__", mul)
    return calls[0]


def test_ode_solve_work_is_linear_in_the_resonance(monkeypatch, rt2):
    """Doubling the resonance about doubles the QuadExt products: a
    triangular solve is linear in the degree bound, a dense one cubic."""
    counts = []
    for r in (20, 40):
        A = UPoly([1, rt2, 2, 3], 2)
        rho = UPoly([rt2, -1, -3 * r], 2)
        rhs = _image(A, rho, UPoly([1, 2, rt2], 2))
        counts.append(_count_mul(monkeypatch, A, rho, rhs))
    assert counts[1] <= 2.5 * counts[0]


# ---------------------------------------------------------------------------
# The battery: criterion fixtures
# ---------------------------------------------------------------------------


def scan_family(params, k, gen1=fold_hopf_kappa):
    k1 = gen1(params, 1)
    kk = gen1(params, k)
    part = partition(k1, kk)
    prof = simplicity_profile(k1, part, k)
    return criterion_scan(k, k1, kk, part, prof)


def test_criterion_i_new_simple_class(F2, rt2):
    # alpha = nu makes kappa_1 = alpha/(xi-1); kappa_3 reintroduces xi+1
    out = scan_family(FoldHopfParams(F2, -1, rt2, rt2), 3)
    assert out.fired == "i"


def test_criterion_ii_break_exactly_at_one(F2, rt2):
    out = scan_family(FoldHopfParams(F2, -1, rt2 - 1, rt2), 3)
    assert out.fired == "ii"


def test_criterion_iv_constant_rho_bar(F2, rt2):
    out = scan_family(FoldHopfParams(F2, -1, 1, rt2), 3)
    assert out.fired == "iv"
    assert out.diagnostics.n_bar == 0


def test_criterion_v_degree_gap(F2, rt2):
    # mu = 1, alpha = 1, nu = rt2: leading cancellation in rho makes
    # rho_bar nonconstant and the pole degree dominates
    out = scan_family(FoldHopfParams(F2, 1, rt2, 1), 3)
    assert out.fired == "v"
    assert out.diagnostics.n_bar > 0


def test_criterion_iii_ode_has_no_solution(F2, rt2):
    params = DoubleHopfParams(F2, 1, rt2, Fraction(1, 2), 1)
    out = scan_family(params, 3, gen1=double_hopf_kappa)
    assert out.fired == "iii"
    assert out.h2_failure is None


def test_criterion_vi_synthetic_irregular(F2):
    """(vi) needs an input irregular at infinity, so it is exercised on
    directly constructed kappa data rather than a certified system."""
    k1 = RatFunc(xp(Fraction(1, 2), 0, 0, 0, 1), xp(-1, 0, 1))
    kk = RatFunc(xp(3, 0, 0, 0, 0, 1), xp(-1, 0, 1) ** 2)
    part = partition(k1, kk)
    prof = simplicity_profile(k1, part, 3)
    out = criterion_scan(3, k1, kk, part, prof)
    assert out.fired == "vi"
    diag = out.diagnostics
    assert diag.n_bar > 0
    assert diag.deg_kappa1d + part.nk < int(diag.rho.degree) - int(
        diag.rho_bar.degree
    ) + 1


def test_scan_precondition_failures(F2, rt2):
    params = FoldHopfParams(F2, -1, 1, rt2)
    k1 = fold_hopf_kappa(params, 1)
    kk = fold_hopf_kappa(params, 3)
    del kk
    # kappa_k numerator vanishing at a shared root violates the
    # coprimality gate; the root must come from a class that left the
    # denominator entirely, else reduction would cancel it.
    bad_kk = rf("(xi - 1)/(xi + 1)^3", F2)
    part = partition(k1, bad_kk)
    assert any(c.a1 < 0 for c in part.shared)
    prof = simplicity_profile(k1, part, 3)
    out = criterion_scan(3, k1, bad_kk, part, prof)
    assert out.fired is None
    assert any("shared root" in f for f in out.precondition_failures)


def test_scan_extra_hypothesis_violation_recorded(F2, rt2):
    # alpha = 2 + rt2, nu = rt2: bad_b = alpha - nu - 1 + 2 = 3 at xi = -1
    # Actually bad_b in {2,3,...} somewhere -> hypothesis violated
    params = FoldHopfParams(F2, -1, rt2, 2 + rt2)
    k1 = fold_hopf_kappa(params, 1)
    kk = fold_hopf_kappa(params, 3)
    part = partition(k1, kk)
    prof = simplicity_profile(k1, part, 3)
    assert not prof.all_simple_whenever_bj_gt_1
    out = criterion_scan(3, k1, kk, part, prof)
    assert out.fired is None
    assert out.extra_hypothesis_ok is False


def test_h2_failure_witness_double_hopf_alpha_one(F2, rt2):
    """alpha = 1 admits a coprime polynomial solution at every odd order:
    H2 fails there and the witness carries the exact log-derivative."""
    params = DoubleHopfParams(F2, 1, rt2, 1, 1)
    k1 = double_hopf_kappa(params, 1)
    kk = double_hopf_kappa(params, 3)
    part = partition(k1, kk)
    prof = simplicity_profile(k1, part, 3)
    out = criterion_scan(3, k1, kk, part, prof)
    witness = out.h2_failure
    assert witness is not None
    z = witness.solution
    A = k1.den * part.radk
    rho = build_rho(k1, part, 3)
    assert A * z.derivative() + rho * z == kk.num
    assert poly_gcd(z, part.rad1 * part.radk).degree <= 0
    # the log-derivative identity: theta'/theta reconstructed from parts
    expected = k1 * 2
    for c in part.shared:
        expected = expected - RatFunc(c.factor.derivative(), c.factor) * c.a1
    for c in part.new:
        expected = expected - RatFunc(c.factor.derivative(), c.factor) * (
            c.ak - 1
        )
    if not z.is_constant():
        expected = expected + RatFunc(z.derivative(), z)
    assert witness.theta_log_derivative == expected
    # and the scan records it without firing
    assert out.fired is None and out.h2_failure is not None


# ---------------------------------------------------------------------------
# H1
# ---------------------------------------------------------------------------


def test_check_h1_reasons(F2, rt2):
    om = omega(rf("(rt*xi + 1)/(xi^2 - 1)", F2))
    verdict = check_H1(om)
    assert verdict.holds and verdict.reason == "irrational-residue"
    om2 = omega(rf("(3*xi + 1)/(xi^2)", F2))
    verdict2 = check_H1(om2)
    assert verdict2.holds and verdict2.reason == "nonzero-exp-part"
    om3 = omega(rf("(3*xi + 2)/(xi^2 - 1)", F2))
    verdict3 = check_H1(om3)
    assert not verdict3.holds and verdict3.reason == "all-residues-rational"
    # nonconstant class residue counts as irrational
    om4 = omega(rf("1/(xi^2 - 3)", F2))
    assert check_H1(om4).holds


# ---------------------------------------------------------------------------
# certify end-to-end
# ---------------------------------------------------------------------------


def test_certify_nonintegrable_fold_hopf(F2, rt2):
    for s in (1, -1):
        system, curve = fold_hopf_system(FoldHopfParams(F2, -1, 1, rt2, s=s))
        cert = certify(system, curve, K=9)
        assert cert.status == "nonintegrable"
        assert cert.fired_k == 3 and cert.fired_criterion == "iv"
        assert cert.regular_at_infinity and cert.h1.holds
        assert cert.orders[-1].fired == "iv"


def test_certify_stops_at_first_firing_order(F2, rt2):
    system, curve = fold_hopf_system(FoldHopfParams(F2, -1, 1, rt2))
    cert = certify(system, curve, K=9)
    assert [o.k for o in cert.orders] == [2, 3]
    assert cert.orders[0].skipped  # even orders vanish identically


def test_certify_expands_kappa_only_to_the_firing_order(F2):
    from artifact.expr import parse_bipoly
    from artifact.varcalc import CurveData, PlanarSystem

    # expanding this system's series to K = 25 up front took minutes
    system = PlanarSystem(
        P=parse_bipoly("xi^3 - 3 + xi*eta", F2),
        Q=parse_bipoly("eta*(xi^2 + rt) + eta^2*xi", F2),
        field=F2,
    )
    cert = certify(system, CurveData(phi=RatFunc.zero(2)), K=25)
    assert cert.status == "nonintegrable"
    assert cert.fired_k == 2 and cert.fired_criterion == "iii"
    assert len(cert.variational.kappas) == cert.fired_k


def test_certify_factors_each_pole_class_once(F2, monkeypatch):
    """The control quartic, which splits over Q(sqrt 2), reaches sympy
    once per certificate, in the factorization of a_0, and nothing is
    kept from one certificate for the next."""
    from artifact.exactalg import factorization
    from artifact.expr import parse_bipoly
    from artifact.varcalc import CurveData, PlanarSystem

    calls = []
    split = factorization._split_with_sympy
    monkeypatch.setattr(
        factorization, "_split_with_sympy",
        lambda g: calls.append(g) or split(g),
    )
    system = PlanarSystem(
        P=parse_bipoly("xi^4 - 10*xi^2 + 1 + eta^2", F2),
        Q=parse_bipoly("eta*(rt*xi + 1) + eta^2", F2),
        field=F2,
    )
    curve = CurveData(phi=RatFunc.zero(2))
    cert = certify(system, curve, K=9)
    assert (cert.fired_k, cert.fired_criterion) == (2, "iv")
    assert calls == [xp(1, 0, -10, 0, 1)]
    certify(system, curve, K=9)
    assert len(calls) == 2


_QUARTIC_WITHOUT_SYMPY = """
import sys
from artifact.criteria import certify
from artifact.exactalg import FieldSpec, RatFunc
from artifact.expr import parse_bipoly
from artifact.varcalc import CurveData, PlanarSystem

F = FieldSpec(2)
system = PlanarSystem(
    P=parse_bipoly("xi^4 + xi + 1 + eta^2", F),
    Q=parse_bipoly("eta*(rt*xi + 1) + eta^2", F),
    field=F,
)
cert = certify(system, CurveData(phi=RatFunc.zero(2)), K=25)
print(cert.status, cert.fired_k, cert.fired_criterion, "sympy" in sys.modules)
"""


def test_certify_the_quartic_without_importing_sympy():
    """The modular test proves xi^4 + xi + 1 irreducible over Q(sqrt 2),
    so the quartic certifies at K = 25 and sympy is never imported."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import artifact

    src = str(Path(artifact.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _QUARTIC_WITHOUT_SYMPY],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == ["nonintegrable", "2", "iv", "False"]


def test_certify_calls_factor_irreducible_once(F2, rt2, monkeypatch):
    """One certificate factors one polynomial, a_0; every kappa_k pole
    class is read off its factors, at every order the battery reaches."""
    import sys

    from artifact.exactalg import factorization

    calls = []
    factor = factorization.factor_irreducible

    def counted(a):
        calls.append(a)
        return factor(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("artifact") and (
            getattr(module, "factor_irreducible", None) is factor
        ):
            monkeypatch.setattr(module, "factor_irreducible", counted)
    params = DoubleHopfParams(F2, 1, rt2, 1, 1)
    system, curve = double_hopf_system(params, chart=1)
    cert = certify(system, curve, K=25)
    assert cert.status == "inconclusive" and len(cert.orders) == 24
    assert calls == [system.P.row(0)]


def test_certify_inconclusive_h1(F2):
    system, curve = fold_hopf_system(FoldHopfParams(F2, -1, 2, 3))
    cert = certify(system, curve, K=9)
    assert cert.status == "inconclusive"
    assert cert.inconclusive_reason == "h1-fails"
    assert not cert.h1.holds
    assert cert.orders == ()
    residues = {
        tuple(e.cls.factor.coeffs): e.residue.coeff(0)
        for e in cert.omega.residues
    }
    assert residues[tuple(xp(-1, 1).coeffs)] == F2(Fraction(5, 2))
    assert residues[tuple(xp(1, 1).coeffs)] == F2(Fraction(1, 2))


def test_certify_inapplicable_irregular(F2):
    from artifact.expr import parse_bipoly
    from artifact.varcalc import CurveData, PlanarSystem

    system = PlanarSystem(
        P=parse_bipoly("1", F2), Q=parse_bipoly("eta", F2), field=F2
    )
    cert = certify(system, CurveData(phi=RatFunc.zero(2)), K=5)
    assert cert.status == "inapplicable"
    assert cert.h1 is None and cert.orders == ()
    assert not cert.regular_at_infinity


def test_certify_rejects_bad_order_bound(F2, rt2):
    system, curve = fold_hopf_system(FoldHopfParams(F2, -1, 1, rt2))
    with pytest.raises(ValueError):
        certify(system, curve, K=1)
    with pytest.raises(ValueError):
        certify(system, curve, K=MAX_ORDER_CAP + 1)


def test_certify_rejects_non_integral_curve(F2):
    from artifact.expr import parse_bipoly, parse_ratfunc
    from artifact.varcalc import CurveData, PlanarSystem

    system = PlanarSystem(
        P=parse_bipoly("1", F2), Q=parse_bipoly("xi - eta", F2), field=F2
    )
    with pytest.raises(ValueError):
        certify(system, CurveData(phi=parse_ratfunc("xi", F2)), K=5)


def test_certify_resonance_gap_stays_inconclusive(F2, rt2):
    """Persistent multiplier resonance: bad_b lands in {2,3,...} at every
    odd order, the extra hypothesis never holds, and the certifier
    honestly reports inconclusive rather than firing."""
    system, curve = fold_hopf_system(FoldHopfParams(F2, -1, rt2, 2 + rt2))
    cert = certify(system, curve, K=9)
    assert cert.status == "inconclusive"
    assert cert.inconclusive_reason == "no-criterion-fired"
    assert cert.h1.holds  # H1 is fine; the battery is silent
    for out in cert.orders:
        if out.k % 2 == 0:
            assert out.skipped
        else:
            assert out.fired is None
            assert out.extra_hypothesis_ok is False
    assert not cert.h2_failures


def test_certify_double_hopf_alpha_one_collects_witnesses(F2, rt2):
    system, curve = double_hopf_system(DoubleHopfParams(F2, 1, rt2, 1, 1))
    cert = certify(system, curve, K=7)
    assert cert.status == "inconclusive"
    ks = [w.k for w in cert.h2_failures]
    assert ks == [3, 5, 7]


def test_scan_vanishing_rho_is_the_b1_resonance(F2):
    """rho vanishing identically is exactly the multiplier-1 resonance:
    kappa_1 = 1/(xi-1), kappa_3 = 1/(xi-1)^3 gives bad_b = 1 at the
    class, so criterion (ii) fires before rho is ever built."""
    k1 = rf("1/(xi - 1)", F2)
    kk = rf("1/(xi - 1)^3", F2)
    part = partition(k1, kk)
    assert len(part.shared) == 1 and part.shared[0].a1 == 2
    assert build_rho(k1, part, 3).is_zero()
    prof = simplicity_profile(k1, part, 3)
    assert prof.classes[0].bad_b == F2(1)
    out = criterion_scan(3, k1, kk, part, prof)
    assert out.fired == "ii"


def test_polynomial_solution_with_zero_rho(F2):
    """The degenerate-rho ODE A z' = rhs: solvable exactly when A | the
    antiderivative's derivative data, i.e. rhs/A integrates to a poly."""
    A = xp(-1, 1)  # xi - 1
    assert _ode_solutions(A, UPoly.zero(2), UPoly.one(2))[0] is None
    z = _ode_solutions(A, UPoly.zero(2), xp(-1, 1))[0]
    assert z is not None
    assert A * z.derivative() == xp(-1, 1)


def test_scan_zero_kappa1_precondition(F2):
    kk = rf("1/(xi - 1)", F2)
    part = partition(RatFunc.zero(2), kk)
    prof = simplicity_profile(RatFunc.zero(2), part, 2)
    out = criterion_scan(2, RatFunc.zero(2), kk, part, prof)
    assert out.fired is None
    assert any("kappa_1" in f for f in out.precondition_failures)
