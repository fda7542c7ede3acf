"""The benchmark's workloads: their inputs, one pass over them, and the
checks on every output.

Each pass runs in a fresh interpreter (see ``child.py``) as a closed loop with
one client: one operation at a time, each waiting for the previous one.

* ``betti-cli`` sends ``hyperbetti betti`` requests through ``cli.main`` in
  process: the line, cycle and star families at six (n, d, alpha) points, on
  the edge and clique routes, over GF(2), GF(3) and Q, plus seeded random
  hypergraphs in which every edge keeps a private vertex.  Each request runs
  once as a cache miss and once more as a cache hit.  No option beyond the
  route and the field is passed, so the run gets the CLI defaults.
* ``verify-betti`` runs ``run_check`` on checks made of many small
  restriction sums.
* ``verify-chordal`` runs ``run_check`` on checks made of tiny instances
  dominated by complex construction, quotient search and chordality tests.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

from hostclock import HostClock

WORKLOADS = ("betti-cli", "verify-betti", "verify-chordal")

FAMILIES = ("line", "cycle", "star")
FAMILY_PARAMS = ((5, 3, 1), (6, 3, 1), (4, 4, 1), (5, 4, 1), (6, 4, 2), (10, 2, 1))
ROUTES = ("independence", "clique")
FIELDS = ("gf2", "gf3", "q")
RANDOM_HYPERGRAPHS = 4

VERIFY_CHECKS = {
    "verify-betti": ("P", "b1", "star", "u", "conn-depth", "homconn",
                     "cm-froberg", "rsequence", "lin-quot"),
    "verify-chordal": ("graph-corollary", "AdRd", "dquot-dshell"),
}
# The only checks of these workloads whose grids read a ``seed`` key.
SEEDED_CHECKS = ("u", "conn-depth", "homconn")
DEFAULT_SEED = 0

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
# Scratch space for inputs, caches and traces, inside the checkout.
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench"

STATUS_CODES = {"match": "m", "skipped": "s", "mismatch": "x"}


# -- betti-cli --------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    key: str
    argv: tuple[str, ...]
    family: tuple | None  # (kind, n, d, alpha) for a family instance
    edges: tuple[int, ...] | None  # edge masks of a random instance
    n_vertices: int


def _random_free_vertex(rng: random.Random) -> tuple[int, tuple[int, ...]]:
    """A hypergraph whose every edge owns one vertex no other edge has."""
    d = rng.randrange(2, 5)
    base = rng.randrange(max(2, d - 1), 6)
    n_edges = rng.randrange(2, 6)
    edges = []
    for k in range(n_edges):
        core = sum(1 << v for v in rng.sample(range(base), min(d - 1, base)))
        edges.append(core | 1 << (base + k))
    return base + n_edges, tuple(sorted(edges))


def betti_cli_requests(seed: int, inputs: Path) -> list[Request]:
    """Write every request's input file under ``inputs`` and list the
    requests: the fixed family set, then the seeded random instances."""
    from hyperbetti.hypergraph import FamilySpec, Hypergraph, canonical_json
    from hyperbetti.hypergraph import make_cycle, make_line, make_star_overlap

    makers = {"line": make_line, "cycle": make_cycle, "star": make_star_overlap}
    inputs.mkdir(parents=True, exist_ok=True)
    requests = []

    def add(key, obj, family, edges, n_vertices):
        path = inputs / f"{len(requests):03d}.json"
        path.write_text(canonical_json(obj), encoding="utf-8")
        route, field = key.split(" ")[-2:]
        argv = ("betti", str(path), "--field", field, "--complex", route)
        requests.append(Request(key, argv, family, edges, n_vertices))

    for kind in FAMILIES:
        for n, d, alpha in FAMILY_PARAMS:
            h = makers[kind](n, d, alpha)
            obj = h.to_json_obj()
            obj["family"] = FamilySpec(kind, n=n, d=d, alpha=alpha).to_json_obj()
            for route in ROUTES:
                for field in FIELDS:
                    key = f"{kind} n={n} d={d} alpha={alpha} {route} {field}"
                    add(key, obj, (kind, n, d, alpha), None, h.n_vertices)
    rng = random.Random(seed)
    for trial in range(RANDOM_HYPERGRAPHS):
        n_vertices, edges = _random_free_vertex(rng)
        obj = Hypergraph(n_vertices, frozenset(edges)).to_json_obj()
        for field in FIELDS:
            add(f"random trial={trial} independence {field}", obj, None, edges, n_vertices)
    return requests


@dataclass
class CliOutcome:
    code: object  # exit code, or the name of the exception raised
    stdout: str
    stderr: str
    seconds: float


def _call_cli(cli, argv, clock: HostClock) -> CliOutcome:
    out, err = io.StringIO(), io.StringIO()
    spent0 = clock.spent
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is one failed request, not a dead pass
        code = type(exc).__name__
    seconds = time.perf_counter() - t0 - (clock.spent - spent0)
    return CliOutcome(code, out.getvalue(), err.getvalue(), seconds)


def run_betti_cli(requests: list[Request], tracer=None, clock: HostClock | None = None):
    """Each request once as a miss, then once as a hit; returns the pass
    wall time and the (miss, hit) outcome pairs.  ``clock`` samples the
    host's speed from a timer while the requests run, except in a traced
    pass, where the samples would land inside spans."""
    import hyperbetti.cli as cli

    clock = clock or HostClock()
    pairs = []
    clock.begin()
    with clock.sampling_timer() if tracer is None else nullcontext():
        for request in requests:
            pair = []
            for _ in ("miss", "hit"):
                if tracer is not None:
                    tracer.begin_request()
                pair.append(_call_cli(cli, request.argv, clock))
            pairs.append(tuple(pair))
    return clock.end(), pairs


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _expected_table(request: Request):
    """The independent answer for a request, or None when only the frozen
    digest applies (clique-route family requests)."""
    from hyperbetti import betti
    from hyperbetti.hypergraph import Hypergraph

    if request.edges is not None:
        h = Hypergraph(request.n_vertices, frozenset(request.edges))
        return betti.taylor_betti_free_vertex(h)
    kind, n, d, alpha = request.family
    if "independence" not in request.argv:
        return None
    if kind == "star":
        return betti.star_betti_closed_form(n, d, alpha)
    if kind == "line":
        if d == 2 * alpha:
            return betti.line_betti_degenerate(n, alpha)
        return betti.line_betti_closed_form(n, d, alpha)
    if d == 2 * alpha:
        return betti.cycle_betti_degenerate(n, alpha)
    return betti.cycle_betti_closed_form(n, d, alpha)


def check_betti_cli(requests, pairs, digests: dict[str, str]) -> list[str]:
    """One line per failed operation (a miss or a hit): a non-zero exit, a
    crash, a changed digest, a table off its closed form, or a hit that is
    not reported as one or replays different bytes."""
    from hyperbetti.betti import BettiTable

    failures = []
    for request, (miss, hit) in zip(requests, pairs):
        flaw = None
        if miss.code != 0:
            flaw = f"exit {miss.code}"
        elif request.family is not None and digests.get(request.key) != digest(miss.stdout):
            flaw = "stdout digest differs from the frozen one"
        else:
            expected = _expected_table(request)
            if expected is not None:
                try:
                    table = BettiTable.from_json(miss.stdout)
                except (ValueError, KeyError, TypeError) as exc:
                    table = f"unreadable table ({exc})"
                if table != expected:
                    flaw = "table differs from the independent route"
        if flaw:
            failures.append(f"{request.key} miss: {flaw}")
        if hit.code != 0:
            failures.append(f"{request.key} hit: exit {hit.code}")
        elif "[cache] hit" not in hit.stderr or hit.stdout != miss.stdout:
            failures.append(f"{request.key} hit: not a byte-identical cache replay")
    if len(pairs) != len(requests):
        failures.append(f"{len(requests) - len(pairs)} requests never ran")
    return failures


# -- verify workloads -------------------------------------------------------


def verify_grids(workload: str, seed: int) -> dict[str, str | None]:
    """Grid string per check: registry defaults, except that a seed other
    than the default replaces the ``seed`` key of the checks that read one."""
    return {
        check: f"seed={seed}" if check in SEEDED_CHECKS and seed != DEFAULT_SEED else None
        for check in VERIFY_CHECKS[workload]
    }


def run_verify(workload: str, grids: dict, tracer=None, clock: HostClock | None = None):
    """Every check of the workload once; returns the pass wall time and a
    report summary per check (or the exception's name if it raised).
    ``clock`` samples the host's speed from a timer while the checks run,
    except in a traced pass, where the samples would land inside spans."""
    import hyperbetti.verify as verify

    clock = clock or HostClock()
    summaries = {}
    clock.begin()
    with clock.sampling_timer() if tracer is None else nullcontext():
        for check, grid in grids.items():
            if tracer is not None:
                tracer.begin_request()
            try:
                summaries[check] = verify.run_check(check, grid)
            except Exception as exc:  # counted as failing every expected instance
                summaries[check] = type(exc).__name__
    return clock.end(), summaries


def summarize_report(report) -> dict:
    """Labels, one status letter per instance, and the skipped details."""
    return {
        "labels": [r.instance for r in report.results],
        "status": "".join(STATUS_CODES.get(r.status, "?") for r in report.results),
        "skip_details": {k: r.details for k, r in enumerate(report.results)
                         if r.status == "skipped"},
    }


def _labels_digest(labels) -> str:
    return digest("\n".join(labels))


def freeze_report(check: str, summary: dict) -> dict:
    """The frozen record of one check on its default grid."""
    record = {
        "count": len(summary["labels"]),
        "labels_sha256": _labels_digest(summary["labels"]),
        "status": summary["status"],
    }
    if check in SEEDED_CHECKS:
        fixed = [k for k, label in enumerate(summary["labels"]) if not label.startswith("random")]
        record["fixed_labels_sha256"] = _labels_digest(summary["labels"][k] for k in fixed)
        record["fixed_status"] = "".join(summary["status"][k] for k in fixed)
    return record


def check_verify(summaries: dict, frozen: dict, seeded: bool) -> tuple[int, int, list[str]]:
    """Compare each instance's label and status with the frozen record.

    Returns (attempted, failed, messages).  With ``seeded`` set the random
    instances of the seeded checks differ from the frozen run: each must
    then match, or be skipped as a complete hypergraph, and their number
    must not change.  A check whose labels differ fails every instance.
    """
    attempted = failed = 0
    messages = []
    for check, summary in summaries.items():
        record = frozen[check]
        attempted += record["count"]
        if isinstance(summary, str):
            failed += record["count"]
            messages.append(f"{check}: raised {summary}")
            continue
        labels, status = summary["labels"], summary["status"]
        randoms = []
        if seeded and check in SEEDED_CHECKS:
            randoms = [k for k, label in enumerate(labels) if label.startswith("random")]
            fixed = sorted(set(range(len(labels))) - set(randoms))
            want_labels, want_status = record["fixed_labels_sha256"], record["fixed_status"]
            got_labels = _labels_digest(labels[k] for k in fixed)
            got_status = "".join(status[k] for k in fixed)
        else:
            want_labels, want_status = record["labels_sha256"], record["status"]
            got_labels, got_status = _labels_digest(labels), status
        if len(labels) != record["count"] or got_labels != want_labels:
            failed += record["count"]
            messages.append(f"{check}: the instance labels differ from the frozen list")
            continue
        flips = [k for k, (a, b) in enumerate(zip(got_status, want_status)) if a != b]
        for k in randoms:
            detail = summary["skip_details"].get(k, "")
            if status[k] != "m" and not (status[k] == "s" and "complete hypergraph" in detail):
                flips.append(k)
        failed += len(flips)
        messages.extend(f"{check}: instance {k} has a changed verdict" for k in flips[:5])
    return attempted, failed, messages


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED_DIR / f"{name}.json").read_text(encoding="utf-8"))
