"""The certifier benchmark: time to verdict on one workload.

    python3 perfbench/run.py --workload sweep-k9 --seed 1 --trace 0

Workloads: firing-k25, sweep-k9, witness-deep (see perfbench/README.md).
Each run starts the workload in a fresh Python process (worker.py) with
no threads.  With --trace 0 it also starts SETUP_PROBES set-up-only
processes, and prints the end-to-end metrics; with --trace 1 it prints
the per-layer metrics of a traced run.  Every certificate is checked;
the last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The metrics and their units are those BENCHMARK.json declares.  The
benchmark reads the program from src/ of the checkout it sits in and
writes only under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("firing-k25", "sweep-k9", "witness-deep")
# Set-up-only processes per untraced run; setup_s is their median.
SETUP_PROBES = 5
# Percentiles tried for cert_tail_s, highest first.
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
TAIL_BEYOND = 10
# A whole run must end well within three minutes.
DEADLINE_S = 170


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(args, deadline: float, setup_only: bool = False):
    """Run worker.py; return its raw and normalised set-up seconds and its
    last-line JSON (None with setup_only).  Set-up runs from spawn to the
    worker's ready line, less the worker's own calibration probes."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    started = monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("benchmark: worker exceeded the time limit")
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: worker exited with {proc.returncode}")
    lines = out.splitlines()
    ready = [line.split()[1:] for line in lines if line.startswith("ready ")]
    if not ready:
        raise SystemExit("benchmark: worker never finished set-up")
    clock, spent, unit = map(float, ready[0])
    raw = clock - started - spent
    result = None if setup_only else json.loads(lines[-1])
    return raw, raw * calibrate.NOMINAL_S / unit, result


def p50(samples, requests: int) -> float:
    """Median over the requests of each request's mean time.  Samples
    come pass by pass.  Taking each request's mean over its three or four
    passes first keeps the median steady on a workload of two very
    different certificates, where the plain median of all samples would
    fall in the gap between them."""
    return statistics.median(
        statistics.fmean(samples[i::requests]) for i in range(requests))


def tail(samples):
    """(percentile, value, samples beyond) of the highest percentile in
    TAIL_PERCENTILES with at least TAIL_BEYOND samples above it, or None."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p * n / 100))  # nearest rank, 1-based
        if n - rank >= TAIL_BEYOND:
            return p, ordered[rank - 1], n - rank
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "artifact" / "__init__.py").is_file():
        print("benchmark: src/artifact not found next to perfbench/",
              file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S

    setups, raw_setups = [], []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            raw, normalised, _ = spawn(args, deadline, setup_only=True)
            raw_setups.append(raw)
            setups.append(normalised)
    _, _, result = spawn(args, deadline)

    env = result["env"]
    print(f"env: python {env['python']}, sympy {env['sympy']},"
          f" nproc {env['nproc']}")
    passes = len(result["pass_s"]) + len(result.get("traced_pass_s", ()))
    print(f"workload {args.workload}, seed {args.seed}:"
          f" {result['requests']} requests, {passes} passes,"
          f" {result['attempted']} certificates, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"  check failed: {problem}")
    samples = result["samples"]
    failed_frac = result["failed"] / result["attempted"]
    if args.trace:
        values = result["metrics"]
    else:
        values = {
            "certs_per_s": len(samples) / sum(result["pass_s"]),
            "cert_p50_s": p50(samples, result["requests"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark: no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print("times are normalised to the calibration probe (calibrate.py);"
          " raw wall times in brackets")
    raw = {} if args.trace else {
        "certs_per_s":
            len(result["raw_samples"]) / sum(result["raw_pass_s"]),
        "cert_p50_s": p50(result["raw_samples"], result["requests"]),
        "setup_s": statistics.median(raw_setups),
    }
    for name, metric in metrics.items():
        shown = f"  [{raw[name]:.6g}]" if name in raw else ""
        print(f"{name:40s} {metric['value']:14.6g} {metric['unit']}{shown}")
    print(f"{'failed_frac':40s} {failed_frac:14.6g} ratio")
    if not args.trace:
        found = tail(samples)
        if found:
            p, value, beyond = found
            print(f"{'cert_tail_s':40s} {value:14.6g} s  (p{p:g} of"
                  f" {len(samples)} samples, {beyond} beyond)")
        else:
            print(f"{'cert_tail_s':40s} {'-':>14s}    (only {len(samples)}"
                  f" samples, too few for a tail)")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
