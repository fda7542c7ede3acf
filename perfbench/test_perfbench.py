"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostclock  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hyperbetti.betti import BettiTable, line_betti_closed_form  # noqa: E402


# -- percentile rule ----------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(108) == 90
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(99) == 50
    assert stats.tail_percentile(200) == 95
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(20) == 50
    assert stats.tail_percentile(19) is None
    for n in range(20, 3000, 7):
        p = stats.tail_percentile(n)
        assert stats.beyond(n, p) >= 10
        higher = [q for q in stats.PERCENTILES if q > p]
        assert all(stats.beyond(n, q) < 10 for q in higher)


def test_nearest_rank_percentile():
    samples = list(range(100, 0, -1))
    assert stats.percentile(samples, 50) == 50
    assert stats.percentile(samples, 90) == 90
    assert stats.percentile([7.0], 90) == 7.0


# -- host normalization -------------------------------------------------------


def test_host_clock_leaves_its_samples_out_of_the_pass_time():
    clock = hostclock.HostClock(interval=0.02)
    clock.begin()
    spent_before = clock.spent
    t0 = time.perf_counter()
    with clock.sampling_timer():
        while time.perf_counter() - t0 < 0.3:
            pass
    seconds = clock.end()
    inside = clock.spent - spent_before - clock.samples[-1]
    assert len(clock.samples) >= 5
    assert 0 < inside and abs(seconds + inside - 0.3) < 0.05


def test_normalize_scales_by_the_mean_sample():
    clock = hostclock.HostClock()
    clock.samples = [hostclock.NOMINAL_S, 3 * hostclock.NOMINAL_S]
    assert abs(clock.normalize(10.0) - 5.0) < 1e-9


# -- self time ----------------------------------------------------------------


def test_self_time_takes_the_union_of_children_on_two_threads():
    spans = [
        # id, parent, request, name, t0, t1, thread
        (1, 0, 1, "sweep", 0.0, 10.0, 0),
        (2, 1, 1, "work", 1.0, 5.0, 1),
        (3, 1, 1, "work", 3.0, 8.0, 2),
        (4, 2, 1, "leaf", 2.0, 3.0, 1),
    ]
    times = tracing.self_times(spans)
    assert times["sweep"] == (3.0, 10.0, 1)  # 10 minus the union [1, 8]
    assert times["work"] == (8.0, 9.0, 2)  # 4 - 1 and 5 - 0
    assert times["leaf"] == (1.0, 1.0, 1)


def test_self_time_adds_sequential_children_on_one_thread():
    spans = [
        (1, 0, 1, "outer", 0.0, 10.0, 0),
        (2, 1, 1, "inner", 1.0, 3.0, 0),
        (3, 1, 1, "inner", 4.0, 8.0, 0),
    ]
    assert tracing.self_times(spans)["outer"] == (4.0, 10.0, 1)


def test_worker_thread_spans_attach_to_the_open_request_span():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2, timeout=5)

    def work():
        token = tracer.open("work")
        barrier.wait()  # both workers are inside their spans at once
        for _ in range(1000):
            tracer.count("work.items")
        barrier.wait()
        tracer.close(token)

    tracer.begin_request()
    sweep = tracer.open("sweep")
    workers = [threading.Thread(target=work) for _ in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=5)
        assert not w.is_alive()
    tracer.close(sweep)

    spans = list(tracer)
    assert len(spans) == 3
    sweep_id = next(s[0] for s in spans if s[3] == "sweep")
    assert {s[1] for s in spans if s[3] == "work"} == {sweep_id}
    assert {s[2] for s in spans} == {1}
    assert len({s[6] for s in spans}) == 3
    assert tracer.counts["work.items"] == 2000
    self_s, total_s, _ = tracing.self_times(tracer)["sweep"]
    assert 0 <= self_s < total_s


def _missing_after_install(prelude: str) -> list[str]:
    """Install the wrappers in a fresh interpreter after running ``prelude``."""
    here = Path(__file__).resolve().parent
    code = (f"import json, sys; sys.path[:0] = [{str(here)!r}, {str(here.parent / 'src')!r}]\n"
            f"{prelude}\nimport tracing\ntracer = tracing.Tracer()\n"
            "tracing.install(tracer)\nprint(json.dumps(tracer.missing))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_traced_name_exists():
    assert _missing_after_install("") == []


def test_a_removed_name_is_reported_as_a_missing_layer():
    prelude = "import hyperbetti.cache as cache\ndel cache.store"
    assert _missing_after_install(prelude) == ["cache.store"]


# -- output checks ------------------------------------------------------------


def _line_request(tmp_path):
    argv = ("betti", str(tmp_path / "in.json"), "--field", "gf2", "--complex", "independence")
    return workloads.Request("line n=5 d=3 alpha=1 independence gf2", argv,
                             ("line", 5, 3, 1), None, 16)


def test_checker_flags_a_corrupted_table(tmp_path):
    request = _line_request(tmp_path)
    good = line_betti_closed_form(5, 3, 1).to_json() + "\n"
    entries = dict(line_betti_closed_form(5, 3, 1).entries)
    entries[(1, 3)] += 1
    bad = BettiTable("quotient", 16, entries).to_json() + "\n"
    hit_note = "[cache] hit\n"

    def outcome(text, err=""):
        return workloads.CliOutcome(0, text, err, 0.001)

    check = workloads.check_betti_cli
    assert check([request], [(outcome(good), outcome(good, hit_note))],
                 {request.key: workloads.digest(good)}) == []
    # against the frozen digest
    assert len(check([request], [(outcome(bad), outcome(bad, hit_note))],
                     {request.key: workloads.digest(good)})) == 1
    # against the closed form, even when the digest was frozen from bad output
    assert len(check([request], [(outcome(bad), outcome(bad, hit_note))],
                     {request.key: workloads.digest(bad)})) == 1
    # a hit that replays other bytes, or is not reported as a hit
    assert len(check([request], [(outcome(good), outcome(bad, hit_note))],
                     {request.key: workloads.digest(good)})) == 1
    assert len(check([request], [(outcome(good), outcome(good))],
                     {request.key: workloads.digest(good)})) == 1


def _summary(labels, status, skips=None):
    return {"labels": labels, "status": status, "skip_details": skips or {}}


def test_checker_flags_a_flipped_verdict():
    labels = ["line n=1 field=gf2", "line n=2 field=gf2", "line n=3 field=gf2"]
    frozen = {"P": workloads.freeze_report("P", _summary(labels, "smm"))}
    ok = workloads.check_verify({"P": _summary(labels, "smm")}, frozen, seeded=False)
    assert ok[:2] == (3, 0)
    flipped = workloads.check_verify({"P": _summary(labels, "sxm")}, frozen, seeded=False)
    assert flipped[:2] == (3, 1)
    relabeled = workloads.check_verify(
        {"P": _summary(labels[:2] + ["line n=9 field=gf2"], "smm")}, frozen, seeded=False
    )
    assert relabeled[:2] == (3, 3)
    raised = workloads.check_verify({"P": "SizeBudgetError"}, frozen, seeded=False)
    assert raised[:2] == (3, 3)


def test_seeded_checks_judge_random_instances_by_rule():
    labels = ["line n=1 field=gf2", "random trial=0 n=4 edges=012 field=gf2"]
    frozen = {"conn-depth": workloads.freeze_report("conn-depth", _summary(labels, "sm"))}
    reseeded = ["line n=1 field=gf2", "random trial=0 n=5 edges=123 field=gf2"]
    check = workloads.check_verify
    assert check({"conn-depth": _summary(reseeded, "sm")}, frozen, seeded=True)[:2] == (2, 0)
    skipped = _summary(reseeded, "ss", {1: "complete hypergraph: connectivity is infinite"})
    assert check({"conn-depth": skipped}, frozen, seeded=True)[:2] == (2, 0)
    assert check({"conn-depth": _summary(reseeded, "sx")}, frozen, seeded=True)[:2] == (2, 1)
    assert check({"conn-depth": _summary(reseeded, "mm")}, frozen, seeded=True)[:2] == (2, 1)
