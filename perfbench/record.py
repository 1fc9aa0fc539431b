"""Record reference.json: the verdict, certificate digest and document
size of every request any workload can send.

Run from the repository root when the certificates change on purpose:

    python3 perfbench/record.py

It writes perfbench/reference.json.  The benchmark compares every
certificate it produces with these records, so a run fails if a change
alters any byte of a certificate other than the version.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from artifact import cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    F = workloads.field()
    requests = []
    for name in ("firing-k25", "witness-deep"):
        requests.extend(workloads.fixed_requests(name, F))
    for group in workloads.population(F).values():
        requests.extend(group)
    records = {}
    for req in requests:
        report = cli.run_check(req.spec)
        text = report.to_json()
        records[req.label] = {
            "verdict": list(checks.verdict_of(report)),
            "sha256": checks.cert_digest(text),
            "bytes": len(text),
        }
    out = HERE / "reference.json"
    rows = [f"{json.dumps(label)}: {json.dumps(rec, sort_keys=True)}"
            for label, rec in sorted(records.items())]
    out.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    print(f"wrote {len(records)} records to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
