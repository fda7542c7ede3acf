"""Benchmark of the hyperbetti package.

Usage, from the repository root:

    python3 perfbench/run.py --workload betti-cli --seed 0 --seconds 30 --trace 0

Workloads are ``betti-cli``, ``verify-betti`` and ``verify-chordal`` (see
``workloads.py``).  Every pass runs in a fresh interpreter with
``PYTHONPATH=src`` and its own empty ``HYPERBETTI_CACHE_DIR``, and every
output of every pass is checked.  With ``--trace 0`` the run runs passes
until ``--seconds`` would be exceeded (at least one), with a few interpreters
that only set up before and after them, and reports the end-to-end metrics of
``BENCHMARK.json`` as medians.  With ``--trace 1`` it runs one
untraced and one traced pass and reports the per-layer metrics.  Times are
normalized to a host of nominal speed by a fixed pure-Python loop sampled
all through each pass and around each set-up (see ``hostclock.py``); the raw
times and every sample are printed and recorded beside them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit.  The full record of the run is written to
``.perfbench/result-<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostclock
import stats
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_ONLY_EACH_SIDE = 5
SAMPLES_AROUND_SETUP = 3
RUN_BUDGET_S = 170


class ChildFailed(RuntimeError):
    """A pass's interpreter exited abnormally or ran out of time."""


def run_child(workload: str, seed: int, mode: str, trace: bool, deadline: float) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its result object."""
    scratch = Path(tempfile.mkdtemp(prefix="pass-", dir=workloads.WORK_DIR))
    spec = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "trace": trace,
        "inputs": str(scratch / "inputs"),
        "spans": str(workloads.WORK_DIR / f"spans-{workload}.jsonl.gz"),
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["HYPERBETTI_CACHE_DIR"] = str(scratch / "cache")
    try:
        env["PERFBENCH_SPAWN"] = repr(time.monotonic())
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("child.py")), json.dumps(spec)],
            env=env, capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} of {workload} ran past the run's time budget") from exc
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildFailed(f"{mode} of {workload} exited {proc.returncode}: " + " | ".join(tail))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def set_up_only(workload: str, seed: int, deadline: float) -> dict:
    """Set-up time of an interpreter that stops once its inputs are built,
    with the host sampled just before and just after it."""
    clock = hostclock.HostClock()
    for _ in range(SAMPLES_AROUND_SETUP):
        clock.sample()
    setup = run_child(workload, seed, "setup", False, deadline)["setup_s"]
    for _ in range(SAMPLES_AROUND_SETUP):
        clock.sample()
    return {"setup_s": setup, "setup_norm_s": clock.normalize(setup),
            "reference_samples_s": clock.samples}


def latency_summary(samples_ms: list[float]) -> dict:
    """Median and 90th percentile of a latency sample, with its size and the
    highest percentile that still has ten samples beyond it."""
    if not samples_ms:
        return {"n": 0, "p50": 0.0, "p90": 0.0, "tail_percentile": None}
    return {
        "n": len(samples_ms),
        "p50": stats.percentile(samples_ms, 50),
        "p90": stats.percentile(samples_ms, 90),
        "tail_percentile": stats.tail_percentile(len(samples_ms)),
    }


def cli_latencies(passes: list[dict]) -> dict[str, dict]:
    return {
        kind: latency_summary([ms for p in passes for ms in p.get(f"{kind}_ms", [])])
        for kind in ("miss", "hit")
    }


def end_to_end(setups: list[dict], passes: list[dict]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(s["setup_norm_s"] for s in setups),
        "wall_norm_s": statistics.median(p["wall_norm_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    metrics = dict(traced["layers"])
    # Raw times: the traced pass samples the host only before and after, as
    # samples taken inside it would land inside spans.
    metrics["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
    metrics["host.wall_raw_s"] = untraced["wall_s"]
    metrics["host.sample_ms"] = 1000 * statistics.fmean(untraced["reference_samples_s"])
    for kind, summary in cli_latencies([untraced]).items():
        metrics[f"cli.{kind}_p50_ms"] = summary["p50"]
        metrics[f"cli.{kind}_p90_ms"] = summary["p90"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "hyperbetti" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {ROOT / 'src' / 'hyperbetti'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    deadline = time.monotonic() + RUN_BUDGET_S
    workloads.WORK_DIR.mkdir(exist_ok=True)
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    try:
        if args.trace:
            passes = [run_child(args.workload, args.seed, "pass", trace, deadline)
                      for trace in (False, True)]
            metrics = per_layer(*passes)
        else:
            def set_up_only_runs() -> list[dict]:
                return [set_up_only(args.workload, args.seed, deadline)
                        for _ in range(SETUP_ONLY_EACH_SIDE)]

            # Set-up samples before and after the passes, so the median spans
            # the whole run rather than one moment of the host.
            setups = set_up_only_runs()
            passes = []
            start = time.monotonic()
            while True:
                passes.append(run_child(args.workload, args.seed, "pass", False, deadline))
                elapsed = time.monotonic() - start
                if elapsed + elapsed / len(passes) > args.seconds:
                    break
            setups += set_up_only_runs()
            record["setups"] = setups
            metrics = end_to_end(setups, passes)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 3

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    record["passes"] = passes
    record["cli_latency_ms"] = cli_latencies(passes[:1] if args.trace else passes)
    (workloads.WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")

    for p in passes:
        for line in p["failures"]:
            print(f"FAILED {line}")
        for name in p.get("missing_layers", []):
            print(f"missing layer: {name}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if args.workload == "betti-cli":
        for kind, s in record["cli_latency_ms"].items():
            print(f"{kind}_p50_ms = {s['p50']:.6g} ms, {kind}_p90_ms = {s['p90']:.6g} ms "
                  f"({s['n']} samples; highest percentile with 10 beyond: p{s['tail_percentile']})")
    if "setups" in record:
        raw = statistics.median(s["setup_s"] for s in record["setups"])
        print(f"set-up: raw median setup_s = {raw:.6g} s over {len(record['setups'])} interpreters")
    for p in passes:
        samples = p["reference_samples_s"]
        print(f"pass: raw wall_s = {p['wall_s']:.6g} s; reference sample "
              f"(nominal {hostclock.NOMINAL_S} s) mean {statistics.fmean(samples):.4g} s, "
              f"min {min(samples):.4g}, max {max(samples):.4g}, n {len(samples)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
