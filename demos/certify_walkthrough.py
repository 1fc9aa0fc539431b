"""Stage-by-stage walkthrough of one nonintegrability certificate.

Runs the full pipeline on a fold-Hopf system over Q(sqrt 2) and prints
every intermediate object: the variational coefficients kappa_k along
the invariant curve, the decomposition of Omega = exp(int kappa_1), the
transcendence verdict, the root partition and simplicity data at the
firing order, and the assembled certificate trace.

Usage: python3 demos/certify_walkthrough.py
"""

from artifact.criteria import (
    build_rho,
    certify,
    check_H1,
    divide_by_rho,
    partition_roots,
    simplicity_profile,
)
from artifact.exactalg import FieldSpec
from artifact.expr import format_poly, format_ratfunc
from artifact.unfoldings import FoldHopfParams, fold_hopf_system
from artifact.varcalc import kappa_coefficients, omega_decompose


def main() -> None:
    F = FieldSpec(2)
    params = FoldHopfParams(F, mu=-1, nu=1, alpha=F.surd())
    system, curve = fold_hopf_system(params)
    print(f"system: {system.label}")
    print(f"  P = {system.P}")
    print(f"  Q = {system.Q}")
    print(f"  invariant curve: eta = {format_ratfunc(curve.phi)}")
    print()

    print("variational coefficients along the curve:")
    vd = kappa_coefficients(system, curve, 5)
    for k in range(1, 6):
        print(f"  kappa_{k} = {format_ratfunc(vd.kappa(k))}")
    print()

    k1 = vd.kappa(1)
    om = omega_decompose(k1, vd.classes(1))
    print("Omega = exp(int kappa_1) decomposition:")
    print(f"  exponential part E = {format_ratfunc(om.exp_part)}")
    for entry in om.residues:
        print(
            f"  residue at class {format_poly(entry.cls.factor)}:"
            f" {format_poly(entry.residue)}"
        )
    verdict = check_H1(om)
    print(f"  transcendence verdict: holds={verdict.holds} ({verdict.reason})")
    print()

    k = 3
    kk = vd.kappa(k)
    part = partition_roots(k1, kk, vd.classes(1), vd.classes(k))
    print(f"root partition at k = {k}:")
    for cls in part.shared:
        print(
            f"  shared class {format_poly(cls.factor)}:"
            f" b1 = {cls.b1}, multiplicity change a1 = {cls.a1}"
        )
    for cls in part.new:
        print(f"  new class {format_poly(cls.factor)}: exponent ak = {cls.ak}")
    prof = simplicity_profile(om, part, k)
    for cls in prof.classes:
        print(
            f"  simplicity at {format_poly(cls.factor)}:"
            f" breaking multiplier b = {cls.bad_b}"
        )
    rho = build_rho(k1, part, k)
    rho_bar, rho_tilde, n_bar = divide_by_rho(kk.num, rho)
    print(f"  rho = {format_poly(rho)}")
    print(
        f"  division: rho_bar = {format_poly(rho_bar)},"
        f" rho_tilde = {format_poly(rho_tilde)}, n_bar = {n_bar}"
    )
    print()

    cert = certify(system, curve, K=9)
    print("certificate trace:")
    for line in cert.trace:
        print(f"  {line}")
    print()
    print(
        f"verdict: {cert.status}"
        + (
            f" (criterion {cert.fired_criterion} at k = {cert.fired_k})"
            if cert.fired_criterion
            else ""
        )
    )


if __name__ == "__main__":
    main()
