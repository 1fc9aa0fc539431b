"""One workload run in a fresh process: set-up, timed passes, checks.

Started by run.py, never by hand.  It prints a line `ready <clock>` when
set-up is done (the parent times set-up from spawn to that clock) and,
as its last line, one JSON object with the measurements.

A pass sends every request of the workload once, one after another (a
closed loop with one client). Passes repeat until --seconds of timed
work (normalised, see calibrate.py) have run, and always end whole, so
every request is measured the same number of times. Output checks and
calibration probes run between certificates, untimed.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
LAYERS = ("cli", "criteria", "varcalc", "exactalg", "unfoldings", "expr")
STAGES = ("partition_roots", "simplicity_profile", "build_rho",
          "divide_by_rho", "ode_test", "witness")
# Problems reported per run, beyond which only the count grows.
MAX_PROBLEMS = 20


def monotonic() -> float:
    """A system-wide clock, comparable between parent and child."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    setup_clock = calibrate.Clock()
    setup_clock.start()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from artifact import cli

    import checks
    import workloads
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    refs = json.loads((HERE / "reference.json").read_text())
    sizes = {label: rec["bytes"] for label, rec in refs.items()}
    wl = workloads.build(args.workload, args.seed, sizes)
    cli.run_check(wl.warmup).to_json()
    if tracer:
        tracer.uninstall()
        setup_spans = len(tracer.spans)
    ready = monotonic()
    _, unit = setup_clock.stop()
    print(f"ready {ready!r} {setup_clock.spent!r} {unit!r}", flush=True)
    if args.setup_only:
        return 0

    run = Run(wl, refs, cli, checks, workloads)
    if tracer:
        result = run.traced(tracer, args.seconds, args.seed,
                            setup_spans, calibrate.NOMINAL_S / unit)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        result = run.untraced(args.seconds)
    result["env"] = {
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "nproc": os.cpu_count(),
    }
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(json.dumps(result))
    return 0


class Run:
    """The passes of one run, their timings and the outcome of checks."""

    def __init__(self, wl, refs, cli, checks, workloads):
        self.wl, self.refs = wl, refs
        self.cli, self.checks, self.workloads = cli, checks, workloads
        self.clock = calibrate.Clock()
        self.samples = []
        self.raw_samples = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self, tracer=None):
        """Send every request once.

        Returns the normalised and the raw pass seconds (see calibrate.py),
        the (request, report, json text, error) of each request, and the
        sweep document if the workload is a sweep.
        """
        cli, clock, outcomes = self.cli, self.clock, []
        normalised = raw = 0.0
        for index, req in enumerate(self.wl.requests):
            if tracer:
                tracer.cert = index

            def request(spec=req.spec):
                try:
                    report = cli.run_check(spec)
                    return report, report.to_json(), None
                except Exception:  # any fault counts as a failed certificate
                    return None, None, traceback.format_exc()

            (report, text, error), took, scaled = clock.time(request)
            self.samples.append(scaled)
            self.raw_samples.append(took)
            normalised += scaled
            raw += took
            outcomes.append((req, report, text, error))
        sweep_text = None
        if self.wl.is_sweep:
            if tracer:
                tracer.cert = -1

            def document():
                rows = [
                    cli.SweepRow(index=i, params=self.workloads.params_text(
                        req.spec), report=report, error=error)
                    for i, (req, report, _, error) in enumerate(outcomes)
                ]
                return cli.sweep_json(rows, summarize(rows))

            sweep_text, took, scaled = clock.time(document)
            normalised += scaled
            raw += took
        return normalised, raw, outcomes, sweep_text

    def check(self, outcomes, sweep_text) -> None:
        checks = self.checks
        for req, report, text, error in outcomes:
            self.attempted += 1
            if error is not None:
                problems = [error.strip().splitlines()[-1]]
            else:
                ref = self.refs.get(req.label, {})
                if self.wl.is_sweep:
                    expected = ref.get("verdict", ())
                else:
                    expected = self.workloads.EXPECTED[req.label]
                problems = checks.check_report(
                    report, text, expected, ref.get("sha256"))
                if self.wl.is_sweep:
                    problems += checks.check_clause_oracle(req.spec, report)
                witnesses = self.workloads.EXPECTED_WITNESSES.get(req.label)
                if witnesses is not None:
                    problems += checks.check_witnesses(report, witnesses)
            if problems:
                self.failed += 1
                self.note(f"{req.label}: {'; '.join(problems)}")
        if sweep_text is not None:
            texts = [text for _, _, text, _ in outcomes]
            problems = checks.check_sweep_document(sweep_text, texts)
            if problems:
                self.failed += 1
                self.note(f"sweep document: {'; '.join(problems)}")

    def note(self, problem: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def summary(self) -> dict:
        return {
            "requests": len(self.wl.requests),
            "samples": self.samples,
            "raw_samples": self.raw_samples,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
        }

    def untraced(self, seconds: float) -> dict:
        passes, raw_passes = [], []
        while sum(passes) < seconds or not passes:
            normalised, raw, outcomes, sweep_text = self.one_pass()
            self.check(outcomes, sweep_text)
            passes.append(normalised)
            raw_passes.append(raw)
        return {**self.summary(), "pass_s": passes, "raw_pass_s": raw_passes}

    def traced(self, tracer, seconds, seed, setup_spans, setup_speed):
        """Alternate untraced and traced passes; report per-layer metrics
        as medians over the traced passes.  The first `setup_spans` spans
        are the set-up's, whose calibration factor is `setup_speed`."""
        import micro

        plain, traced, per_pass, elapsed = [], [], [], 0.0
        while not plain or elapsed < seconds:
            normalised, raw, outcomes, sweep_text = self.one_pass()
            self.check(outcomes, sweep_text)
            plain.append(normalised)
            elapsed += normalised
            first = len(tracer.spans)
            tracer.install()
            try:
                normalised, raw, outcomes, sweep_text = self.one_pass(tracer)
            finally:
                tracer.uninstall()
            self.check(outcomes, sweep_text)
            traced.append(normalised)
            elapsed += normalised
            per_pass.append(layer_metrics(
                tracer.totals(first), outcomes, normalised / raw))
        metrics = {
            name: statistics.median(p[name] for p in per_pass)
            for name in per_pass[0]
        }
        setup = tracer.totals(0, setup_spans)
        metrics["expr.parse_s"] = setup["expr.parse"]["s"] * setup_speed
        metrics["exactalg.poly_gcd.max_deg"] = tracer.gcd_max_deg
        metrics["exactalg.max_coeff_bits"] = tracer.max_coeff_bits
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(plain) - 1
        )
        metrics.update(micro.run(seed))
        metrics.update(line_counts())
        return {**self.summary(), "metrics": metrics,
                "pass_s": plain, "traced_pass_s": traced}


def summarize(rows) -> dict:
    """The sweep summary block, as the sweep command builds it."""
    by_status, by_criterion, by_k = {}, {}, {}
    errors = 0
    for row in rows:
        if row.report is None:
            errors += 1
            continue
        cert = row.report.certificate
        by_status[cert.status] = by_status.get(cert.status, 0) + 1
        if cert.fired_criterion is not None:
            key = cert.fired_criterion
            by_criterion[key] = by_criterion.get(key, 0) + 1
        if cert.fired_k is not None:
            key = str(cert.fired_k)
            by_k[key] = by_k.get(key, 0) + 1
    return {
        "total": len(rows),
        "errors": errors,
        "by_status": dict(sorted(by_status.items())),
        "by_criterion": dict(sorted(by_criterion.items())),
        "by_k": dict(sorted(by_k.items())),
    }


def layer_metrics(totals, outcomes, speed: float) -> dict:
    """Per-layer metrics of one traced pass; span seconds are scaled by
    the pass's calibration factor `speed`, like the end-to-end times."""
    def t(name, key="s"):
        value = totals.get(name, {}).get(key, 0)
        return value if key == "calls" else value * speed

    certs = [report.certificate for _, report, _, _ in outcomes if report]
    metrics = {
        "varcalc.kappa_coefficients_s": t("varcalc.kappa_coefficients"),
        "varcalc.kappa_used_frac":
            sum(1 + len(c.orders) for c in certs)
            / max(1, sum(c.max_order for c in certs)),
        "varcalc.omega_decompose_s": t("varcalc.omega_decompose"),
        "criteria.criterion_scan.self_s":
            t("criteria.criterion_scan", "self_s"),
        "criteria.orders_examined": sum(len(c.orders) for c in certs),
        "criteria.witnesses": sum(len(c.h2_failures) for c in certs),
        "exactalg.poly_gcd_s": t("exactalg.poly_gcd"),
        "exactalg.poly_gcd.calls": t("exactalg.poly_gcd", "calls"),
        "exactalg.ratfunc_init.calls": t("exactalg.ratfunc_init", "calls"),
        "exactalg.factor_irreducible_s": t("exactalg.factor_irreducible"),
        "exactalg.factor_irreducible.calls":
            t("exactalg.factor_irreducible", "calls"),
        "exactalg.sympy_split.calls": t("exactalg.sympy_split", "calls"),
        "exactalg.coprime.calls": t("exactalg.coprime", "calls"),
        "unfoldings.build_s": t("unfoldings.build"),
        "unfoldings.build.calls": t("unfoldings.build", "calls"),
        "expr.format_s": t("expr.format"),
        "cli.run_check.self_s": t("cli.run_check", "self_s"),
        "cli.to_json_s": t("cli.to_json"),
    }
    for stage in STAGES:
        metrics[f"criteria.{stage}_s"] = t(f"criteria.{stage}")
        metrics[f"criteria.{stage}.calls"] = t(f"criteria.{stage}", "calls")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = speed * sum(
            v["self_s"] for name, v in totals.items()
            if name.startswith(layer + "."))
    return metrics


def line_counts() -> dict:
    """Lines of each layer's source under src/artifact, and the total."""
    package = ROOT / "src" / "artifact"

    def lines(paths):
        return sum(len(p.read_text().splitlines()) for p in paths)

    counts = {f"{m}.lines": lines([package / f"{m}.py"])
              for m in LAYERS if (package / f"{m}.py").exists()}
    counts["exactalg.lines"] = lines((package / "exactalg").rglob("*.py"))
    counts["artifact.lines"] = lines(package.rglob("*.py"))
    return counts


if __name__ == "__main__":
    sys.exit(main())
