"""Output checks, run outside the timed region.

Each check returns a list of problems; an empty list means the output
passed.  The checks use the recorded references, the closed-form clause
evaluators of `unfoldings` as an independent oracle, and ring identities
that a certificate's claims must satisfy.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional

from artifact.cli import FAMILY_FOLD_HOPF, ReportDocument, SystemSpec
from artifact.unfoldings import theorem_conditions

REPORT_KEYS = {"version", "status", "h1", "orders", "input_echo"}


def cert_digest(json_text: str) -> str:
    """sha256 of a certificate document with its version value blanked,
    so that the digest guards every other byte."""
    version = json.loads(json_text)["version"]
    stripped = json_text.replace(
        f'"version": {json.dumps(version)}', '"version": null', 1
    )
    return hashlib.sha256(stripped.encode()).hexdigest()


def verdict_of(report: ReportDocument):
    cert = report.certificate
    return (cert.status, cert.fired_k, cert.fired_criterion)


def check_report(
    report: ReportDocument,
    json_text: str,
    verdict,
    digest: Optional[str],
) -> List[str]:
    """The verdict, the document's shape and its recorded digest."""
    problems = []
    got = verdict_of(report)
    if got != tuple(verdict):
        problems.append(f"verdict {got} != expected {tuple(verdict)}")
    doc = json.loads(json_text)
    if set(doc) != REPORT_KEYS:
        problems.append(f"top-level keys {sorted(doc)}")
    elif doc["status"] != got[0]:
        problems.append(f"JSON status {doc['status']!r} != {got[0]!r}")
    if digest is None:
        problems.append("no recorded digest")
    elif cert_digest(json_text) != digest:
        problems.append("certificate JSON differs from the recorded digest")
    return problems


def check_witnesses(report: ReportDocument, expected_count: int) -> List[str]:
    """Re-check every H2 witness and the Omega decomposition with ring
    operations only: A*z' + rho*z == kappa_k.num with
    A = kappa_1.den * radk, and omega.reconstruct() == kappa_1."""
    problems = []
    cert = report.certificate
    kappa1 = cert.variational.kappa(1)
    if cert.omega.reconstruct() != kappa1:
        problems.append("Omega decomposition does not reconstruct kappa_1")
    count = 0
    for outcome in cert.orders:
        witness = outcome.h2_failure
        if witness is None:
            continue
        count += 1
        z = witness.solution
        A = kappa1.den * outcome.partition.radk
        rho = outcome.diagnostics.rho
        kappak = cert.variational.kappa(outcome.k)
        if A * z.derivative() + rho * z != kappak.num:
            problems.append(f"witness at k={outcome.k} fails A z' + rho z")
    if count != expected_count:
        problems.append(f"{count} witnesses, expected {expected_count}")
    return problems


def check_clause_oracle(spec: SystemSpec, report: ReportDocument) -> List[str]:
    """A clause that holds means nonintegrability at some k <= K."""
    if spec.family == FAMILY_FOLD_HOPF:
        theorem = "1.3"
    else:
        theorem = "1.4" if spec.chart == 1 else "1.5"
    if not theorem_conditions(spec.params, theorem).any_clause_holds:
        return []
    cert = report.certificate
    if cert.status == "nonintegrable" and cert.fired_k <= spec.max_order:
        return []
    return [f"theorem {theorem} clause holds but status is {cert.status}"]


def check_sweep_document(sweep_text: str, texts: List[str]) -> List[str]:
    """The sweep document carries each row's certificate, in order."""
    doc = json.loads(sweep_text)
    problems = []
    if doc["summary"]["total"] != len(texts):
        problems.append("sweep summary total differs from the rows")
    shown = [r["certificate"] for r in doc["reports"]]
    if shown != [json.loads(t) if t else None for t in texts]:
        problems.append("sweep reports differ from the certificates")
    return problems
