"""Golden corpus: certificates that must not change by a single byte.

Each file under tests/golden/ is the JSON report of one request, with the
``version`` field blanked.  The test recomputes every report and compares
the text exactly; it never writes a file.  When certificates change on
purpose, rewrite the corpus from the repository root with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Dict

import pytest

from artifact.cli import (
    FAMILY_DOUBLE_HOPF,
    FAMILY_FOLD_HOPF,
    SystemSpec,
    run_check,
)
from artifact.exactalg import BiPoly, FieldSpec, RatFunc, UPoly
from artifact.expr import parse_bipoly
from artifact.unfoldings import (
    DoubleHopfParams,
    FoldHopfParams,
    double_hopf_system,
    fold_hopf_system,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

F = FieldSpec(2)
RT = F.surd()

# (label, FoldHopfParams arguments) of the gate-4 fold-Hopf systems
_GATE4_FOLD_HOPF = (
    ("fh_m1_1_rt_s+1", (F(-1), F(1), RT, 1)),
    ("fh_m1_1_rt_s-1", (F(-1), F(1), RT, -1)),
    ("fh_m1_rt_rt", (F(-1), RT, RT, 1)),
    ("fh_0_1_rt", (F(0), F(1), RT, 1)),
    ("fh_m1_2_3", (F(-1), F(2), F(3), 1)),
)
_GATE4_DOUBLE_HOPF = DoubleHopfParams(F, F(1), RT, F(Fraction(1, 2)), F(1))
# double-Hopf (1, rt, 1, 1), chart 1: an H2 witness at 12 orders up to
# K = 25, over Q(sqrt 2) and over Q(sqrt -1), where the gcd filter finds
# no split prime and every reduction runs the full Euclid.
_WITNESS_FIELDS = (("dh1_1_rt_1_1_k25", FieldSpec(2)),
                   ("dh1_dm1_1_rt_1_1_k25", FieldSpec(-1)))

_SIX_TERM = (
    "(-1 + rt)*xi^3*eta^2 + 2*xi^2*eta^2 + xi*eta^2 + eta^2"
    " - 3*xi^2*eta - 3*eta + 1/2*xi^2 - 1/2*xi + 3/2",
    "(-1 + 2*rt)*xi*eta^2 + 1/2*eta^2 - 2*xi*eta + (-2 + rt)*eta",
)
# Its kappa_k denominators carry the class xi^4 + xi + 1, irreducible
# over Q(sqrt 2).
_QUARTIC = ("xi^4 + xi + 1 + eta^2", "eta*(rt*xi + 1) + eta^2")
# The control: a_0 = xi^4 - 10*xi^2 + 1 is irreducible over Q but the
# product of two quadratics over Q(sqrt 2), so this request runs the
# general-purpose factorizer.
_SD_QUARTIC = ("xi^4 - 10*xi^2 + 1 + eta^2", "eta*(rt*xi + 1) + eta^2")


def _fold_hopf(field, args, K) -> SystemSpec:
    mu, nu, alpha, s = args
    return SystemSpec(
        field=field, max_order=K, family=FAMILY_FOLD_HOPF,
        params=FoldHopfParams(field, mu, nu, alpha, s=s),
    )


def _double_hopf(K, params=_GATE4_DOUBLE_HOPF) -> SystemSpec:
    return SystemSpec(
        field=params.field, max_order=K, family=FAMILY_DOUBLE_HOPF, chart=1,
        params=params,
    )


def _sheared(K) -> SystemSpec:
    """The gate-4 double-Hopf system in the coordinates (xi, eta + xi).

    With eta~ = eta + xi the system reads P~ = P(xi, eta~ - xi),
    Q~ = Q(xi, eta~ - xi) + P~ and the curve eta~ = phi + xi; the normal
    displacement is unchanged, so are the kappas and the verdict, but phi
    is no longer zero.
    """
    system, curve = double_hopf_system(_GATE4_DOUBLE_HOPF, chart=1)
    d = F.d
    shift = BiPoly.var_eta(d) - BiPoly.var_xi(d)

    def substitute(p: BiPoly) -> BiPoly:
        out = BiPoly.zero(d)
        for j in range(len(p.rows)):
            out = out + BiPoly.from_xi_poly(p.row(j)) * shift**j
        return out

    P = substitute(system.P)
    Q = substitute(system.Q) + P
    phi = curve.phi + RatFunc.from_poly(UPoly.x(d))
    return SystemSpec(field=F, max_order=K, P=P, Q=Q, phi=phi)


_SHEARED_FH_P = (
    "eta^2*xi^4 + 8*eta^2*xi^3 + 24*eta^2*xi^2 + 32*eta^2*xi + 16*eta^2"
    " - 2*eta*xi^3 - 12*eta*xi^2 - 24*eta*xi - 16*eta + xi^6 + 8*xi^5"
    " + 23*xi^4 + 24*xi^3 - 7*xi^2 - 28*xi - 12"
)


def _fold_hopf_sheared(K) -> SystemSpec:
    """fh(-1, 1, rt), s = +1, in the coordinates (xi, eta + 1/(xi + 2)).

    With v = xi + 2 and phi = 1/v the system reads
    P~ = v^4 * P(xi, eta~ - phi) and
    Q~ = v^4 * (Q(xi, eta~ - phi) + phi' * P(xi, eta~ - phi)); the factor
    v^4 clears every denominator and cancels in Q~/P~.  The curve is
    eta~ = phi, whose denominator v is not constant; Q~/P~ only gains
    phi', so every kappa_k, and the verdict, is that of the unsheared
    system.
    """
    params = FoldHopfParams(F, F(-1), F(1), RT, s=1)
    system, _ = fold_hopf_system(params)
    d = F.d
    v = UPoly([2, 1], d)
    # v * (eta~ - phi) = v * eta~ - 1
    shift = BiPoly.from_xi_poly(v) * BiPoly.var_eta(d) - 1

    def substitute(p: BiPoly, weight: int) -> BiPoly:
        """v^weight * p(xi, eta~ - phi), for deg_eta p <= weight."""
        out = BiPoly.zero(d)
        for j in range(len(p.rows)):
            out = out + BiPoly.from_xi_poly(p.row(j) * v ** (weight - j)) * (
                shift**j
            )
        return out

    # v^4 * phi' * P(xi, eta~ - phi) = -v^2 * P(xi, eta~ - phi)
    P = substitute(system.P, 4)
    Q = substitute(system.Q, 4) - substitute(system.P, 2)
    phi = RatFunc(UPoly.one(d), v)
    return SystemSpec(field=F, max_order=K, P=P, Q=Q, phi=phi)


def corpus() -> Dict[str, SystemSpec]:
    """Label -> request of every certificate in the corpus."""
    specs: Dict[str, SystemSpec] = {}
    for K in (9, 25):
        for label, args in _GATE4_FOLD_HOPF:
            specs[f"{label}_k{K}"] = _fold_hopf(F, args, K)
        specs[f"dh1_1_rt_1by2_1_k{K}"] = _double_hopf(K)
    for label, field in _WITNESS_FIELDS:
        specs[label] = _double_hopf(25, DoubleHopfParams(
            field, field(1), field.surd(), field(1), field(1)))
    Q1 = FieldSpec(1)
    specs["fh_d1_1_1_1by2_k9"] = _fold_hopf(
        Q1, (Q1(1), Q1(1), Q1(Fraction(1, 2)), 1), 9
    )
    specs["dh1_sheared_k9"] = _sheared(9)
    specs["fh_m1_1_rt_s+1_sheared_k9"] = _fold_hopf_sheared(9)
    specs["inline_six_term_k6"] = SystemSpec(
        field=F, max_order=6,
        P=parse_bipoly(_SIX_TERM[0], F), Q=parse_bipoly(_SIX_TERM[1], F),
        phi=RatFunc.zero(F.d),
    )
    for label, (P, Q), K in (
        ("inline_quartic_k25", _QUARTIC, 25),
        ("inline_sd_quartic_k9", _SD_QUARTIC, 9),
    ):
        specs[label] = SystemSpec(
            field=F, max_order=K, P=parse_bipoly(P, F), Q=parse_bipoly(Q, F),
            phi=RatFunc.zero(F.d),
        )
    return specs


def report_text(spec: SystemSpec) -> str:
    return replace(run_check(spec), version="").to_json()


@pytest.mark.parametrize("label", sorted(corpus()))
def test_certificate_matches_golden(label):
    expected = (GOLDEN / f"{label}.json").read_text()
    assert report_text(corpus()[label]) == expected


def test_sheared_fold_hopf_keeps_the_verdict():
    sheared = _fold_hopf_sheared(9)
    assert sheared.P == parse_bipoly(_SHEARED_FH_P, F)
    verdicts = []
    for spec in (sheared, corpus()["fh_m1_1_rt_s+1_k9"]):
        cert = run_check(spec).certificate
        verdicts.append((cert.status, cert.fired_k, cert.fired_criterion))
    assert verdicts[0] == verdicts[1]


def test_corpus_has_no_stray_files():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(corpus())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, spec in corpus().items():
        (GOLDEN / f"{name}.json").write_text(report_text(spec))
    print(f"wrote {len(corpus())} files to {GOLDEN}", file=sys.stderr)
