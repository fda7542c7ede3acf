"""One pass of a workload in a fresh interpreter.

Usage: ``python3 perfbench/child.py '<json spec>'`` with ``PYTHONPATH`` naming
the package sources and ``PERFBENCH_SPAWN`` holding the parent's
``time.monotonic()`` just before it started this process.  The spec has the
keys ``workload``, ``seed``, ``mode`` (``setup`` to stop once the inputs are
built, ``pass`` to run them), ``trace``, ``inputs`` (a scratch directory) and
``spans`` (where a traced pass writes its spans).  The last line of standard
output is a JSON object with the results.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

import hostclock
import workloads


def main() -> int:
    spec = json.loads(sys.argv[1])
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    workload, seed = spec["workload"], spec["seed"]

    import hyperbetti  # noqa: F401  (set-up includes the package import)

    if workload == "betti-cli":
        requests = workloads.betti_cli_requests(seed, Path(spec["inputs"]))
    else:
        grids = workloads.verify_grids(workload, seed)
    result = {"setup_s": time.monotonic() - spawned}
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    clock = hostclock.HostClock()
    if workload == "betti-cli":
        wall, pairs = workloads.run_betti_cli(requests, tracer, clock)
    else:
        wall, summaries = workloads.run_verify(workload, grids, tracer, clock)
    result["wall_s"] = wall
    result["wall_norm_s"] = clock.normalize(wall)
    result["reference_samples_s"] = clock.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        checks = [c for group in workloads.VERIFY_CHECKS.values() for c in group]
        result["layers"] = tracing.layer_metrics(tracer, checks)
        result["missing_layers"] = tracer.missing
        tracer.write(spec["spans"])

    if workload == "betti-cli":
        failures = workloads.check_betti_cli(
            requests, pairs, workloads.load_expected("betti-cli")
        )
        result["attempted"] = 2 * len(requests)
        result["failed"] = len(failures)
        result["miss_ms"] = [1000 * miss.seconds for miss, _ in pairs]
        result["hit_ms"] = [1000 * hit.seconds for _, hit in pairs]
    else:
        frozen = workloads.load_expected(workload)
        reports = {
            check: report if isinstance(report, str) else workloads.summarize_report(report)
            for check, report in summaries.items()
        }
        attempted, failed, failures = workloads.check_verify(
            reports, frozen, seeded=seed != workloads.DEFAULT_SEED
        )
        result["attempted"] = attempted
        result["failed"] = failed
    result["failures"] = failures[:20]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
