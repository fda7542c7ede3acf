"""Record the expected outputs that the benchmark checks against.

Run from the repository root as ``PYTHONPATH=src python3 perfbench/freeze.py``
only when a change is meant to alter an output.  It runs every workload once
on the default seed and writes ``perfbench/expected/<workload>.json``: the
SHA-256 of each fixed ``hyperbetti betti`` request's standard output, and per
check the instance labels (as a digest) and one status letter per instance.
It refuses to write when an edge-route table leaves its closed form, a cache
hit does not replay its miss, or a check reports a mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    workloads.WORK_DIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="freeze-", dir=workloads.WORK_DIR))
    os.environ["HYPERBETTI_CACHE_DIR"] = str(scratch / "cache")
    try:
        requests = workloads.betti_cli_requests(workloads.DEFAULT_SEED, scratch / "inputs")
        _, pairs = workloads.run_betti_cli(requests)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    digests = {r.key: workloads.digest(miss.stdout)
               for r, (miss, _) in zip(requests, pairs) if r.family is not None}
    failures = workloads.check_betti_cli(requests, pairs, digests)
    frozen = {"betti-cli": digests}
    for workload in workloads.VERIFY_CHECKS:
        grids = workloads.verify_grids(workload, workloads.DEFAULT_SEED)
        _, reports = workloads.run_verify(workload, grids)
        frozen[workload] = {}
        for check, report in reports.items():
            if isinstance(report, str) or report.mismatched:
                failures.append(f"{check}: {report if isinstance(report, str) else 'mismatch'}")
                continue
            summary = workloads.summarize_report(report)
            frozen[workload][check] = workloads.freeze_report(check, summary)
    if failures:
        print("not frozen:", *failures, sep="\n  ", file=sys.stderr)
        return 1
    workloads.EXPECTED_DIR.mkdir(exist_ok=True)
    for name, record in frozen.items():
        path = workloads.EXPECTED_DIR / f"{name}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
