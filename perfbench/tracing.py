"""Span recorder for the traced benchmark pass.

The recorder wraps public entry points of the ``hyperbetti`` modules from
outside: no file of the package changes.  Each wrapped call becomes a span
with an id, the id of the span that caused it, and the id of the request it
belongs to.  Every thread keeps its own span stack.  A thread whose stack is
empty (a worker of the CLI's thread pool) attaches its spans to the innermost
open span of the thread that runs the current request, which is the sweep
that handed it work.

Spans stay in memory, one set of flat arrays per thread, and are written out
when the run ends.  A span's self time is its duration minus the union of its
children's intervals, so children running at once on two threads are not
subtracted twice.
"""

from __future__ import annotations

import array
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

_FIELD_NAMES = {None: "q", 2: "gf2", 3: "gf3"}


class Tracer:
    """Thread-safe in-memory span and counter store."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[tuple[int, dict, Counter]] = []
        self._names: list[str] = []
        self._name_index: dict[str, int] = {}
        self._root: list = []
        self.request_id = 0
        self.missing: list[str] = []

    # -- recording ------------------------------------------------------

    def begin_request(self) -> None:
        """Start a new request on the calling thread; later spans of any
        thread without open spans of its own attach to this thread's stack."""
        self.request_id += 1
        self._root = self._thread_state()[0]

    def _thread_state(self) -> tuple[list, dict, Counter]:
        local = self._local
        try:
            return local.stack, local.columns, local.counts
        except AttributeError:
            pass
        columns = {
            "id": array.array("q"),
            "parent": array.array("q"),
            "request": array.array("q"),
            "name": array.array("l"),
            "t0": array.array("d"),
            "t1": array.array("d"),
        }
        counts: Counter = Counter()
        with self._lock:
            self._buffers.append((len(self._buffers), columns, counts))
        local.stack = []
        local.columns = columns
        local.counts = counts
        return local.stack, columns, counts

    def _name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            with self._lock:
                index = self._name_index.setdefault(name, len(self._names))
                if index == len(self._names):
                    self._names.append(name)
        return index

    def open(self, name: str) -> tuple:
        stack = self._thread_state()[0]
        if stack:
            parent = stack[-1]
        else:
            root = self._root
            parent = root[-1] if root else 0
        span_id = next(self._ids)
        stack.append(span_id)
        return (span_id, parent, self.request_id, self._name_id(name), time.perf_counter())

    def close(self, token: tuple) -> None:
        t1 = time.perf_counter()
        stack, columns, _ = self._thread_state()
        stack.pop()
        span_id, parent, request, name, t0 = token
        columns["id"].append(span_id)
        columns["parent"].append(parent)
        columns["request"].append(request)
        columns["name"].append(name)
        columns["t0"].append(t0)
        columns["t1"].append(t1)

    def count(self, key: str, amount: int = 1) -> None:
        self._thread_state()[2][key] += amount

    @property
    def counts(self) -> Counter:
        """Every thread's counts added up."""
        total: Counter = Counter()
        for _thread, _columns, counts in self._buffers:
            total.update(counts)
        return total

    # -- reading --------------------------------------------------------

    def __iter__(self):
        """Yield (id, parent, request, name, t0, t1, thread) per closed span."""
        names = self._names
        for thread, columns, _counts in self._buffers:
            yield from zip(
                columns["id"],
                columns["parent"],
                columns["request"],
                (names[k] for k in columns["name"]),
                columns["t0"],
                columns["t1"],
                itertools.repeat(thread),
            )

    def write(self, path) -> None:
        """Dump the counters and then every span, one JSON line each, gzipped."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write(json.dumps({"missing": self.missing, "counts": dict(self.counts)}) + "\n")
            for span in self:
                out.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[str, tuple[float, float, int]]:
    """Per span name: (total self time, total duration, span count).

    ``spans`` is re-iterable and yields (id, parent, request, name, t0, t1,
    thread).  Children recorded on one thread run one after another, so
    their durations add up; a parent with children on more than one thread
    has the union of their intervals taken instead.
    """
    covered: dict[int, float] = defaultdict(float)
    child_thread: dict[int, int] = {}
    mixed: set[int] = set()
    for _id, parent, _request, _name, t0, t1, thread in spans:
        if parent:
            covered[parent] += t1 - t0
            if child_thread.setdefault(parent, thread) != thread:
                mixed.add(parent)
    if mixed:
        intervals: dict[int, list] = defaultdict(list)
        for _id, parent, _request, _name, t0, t1, _thread in spans:
            if parent in mixed:
                intervals[parent].append((t0, t1))
        for parent, spans_of in intervals.items():
            covered[parent] = _union_length(spans_of)
    out: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
    for span_id, _parent, _request, name, t0, t1, _thread in spans:
        acc = out[name]
        acc[0] += t1 - t0 - covered.get(span_id, 0.0)
        acc[1] += t1 - t0
        acc[2] += 1
    return {name: tuple(acc) for name, acc in out.items()}


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > end:
            total += t1 - max(t0, end)
            end = t1
    return total


# -- wrapping the package ---------------------------------------------------


def _wrap(tracer: Tracer, name, fn, before=None, after=None):
    """A function that records a span around ``fn``.

    ``name`` is a span name, or a function of the call's (args, kwargs) that
    returns one.  ``before(args, kwargs)`` may rewrite the arguments outside
    the span; ``after(args, result)`` counts work once the call returned.
    """
    def traced(*args, **kwargs):
        if before is not None:
            args, kwargs = before(args, kwargs)
        token = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(token)
        if after is not None:
            after(args, result)
        return result

    traced.__wrapped__ = fn
    return traced


PACKAGE_MODULES = ("betti", "cache", "chordal", "cli", "complexes", "homology",
                   "hypergraph", "ideal", "verify")


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the ``hyperbetti`` package.

    Functions are imported by name across the package, so each wrapper is
    bound wherever the original object is bound.  A name the package no
    longer has is recorded in ``tracer.missing`` and skipped.
    """
    for sub in PACKAGE_MODULES:
        try:
            importlib.import_module(f"hyperbetti.{sub}")
        except ImportError:
            tracer.missing.append(f"hyperbetti.{sub}")
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "hyperbetti" or n.startswith("hyperbetti."))]

    def function(module_name: str, attr: str, name, before=None, after=None) -> None:
        module = sys.modules.get(f"hyperbetti.{module_name}")
        original = getattr(module, attr, None)
        if original is None:
            tracer.missing.append(f"{module_name}.{attr}")
            return
        wrapper = _wrap(tracer, name, original, before, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)

    def method(module_name: str, cls_name: str, attr: str, name, after=None) -> None:
        cls = getattr(sys.modules.get(f"hyperbetti.{module_name}"), cls_name, None)
        original = vars(cls).get(attr) if cls is not None else None
        if original is None:
            tracer.missing.append(f"{module_name}.{cls_name}.{attr}")
            return
        setattr(cls, attr, _wrap(tracer, name, original, after=after))

    # Boundary rows arrive as a generator; building them before the rank span
    # opens charges them to the caller (face enumeration or dispatch).
    def materialize(args, kwargs):
        return (list(args[0]),) + args[1:], kwargs

    def rank_name(args, kwargs):
        fld = args[1] if len(args) > 1 else kwargs.get("field")
        return "homology.rank[" + _FIELD_NAMES.get(getattr(fld, "p", None), "gfp") + "]"

    def ranked(args, rank):
        tracer.count("homology.rank_calls")
        tracer.count("homology.rows", len(args[0]))
        tracer.count("homology.nnz", sum(len(row) for row in args[0]))
        tracer.count("homology.rank_sum", rank)

    function("homology", "rank_over_field", rank_name, before=materialize, after=ranked)
    function("homology", "dims_from_faces", "homology.chain",
             after=lambda args, _dims: tracer.count(
                 "homology.faces", sum(len(f) for f in args[0].values())))

    def dispatched(_args, dims):
        tracer.count("betti.subsets")
        if dims:
            tracer.count("betti.subsets_nonzero")

    def planned(_args, closure):
        if closure is not None:
            tracer.count("betti.plan_subsets", len(closure))

    method("betti", "_RestrictionOracle", "dims_for", "betti.dispatch", after=dispatched)
    method("betti", "_RestrictionOracle", "union_closure", "betti.plan", after=planned)
    for attr in ("hochster_betti", "connectivity", "froberg_cm_witness"):
        function("betti", attr, "betti")
    for attr in ("independence_complex", "clique_complex", "minimal_nonfaces",
                 "minimal_transversals", "alexander_dual", "restrict", "link",
                 "strip_small_facets", "pad_facets"):
        function("complexes", attr, "complexes")
    for attr in ("search_d_quotients", "search_d_shelling",
                 "verify_d_quotients", "verify_d_shelling"):
        function("ideal", attr, "ideal")
    for attr in ("chordal_graph_recognize", "realization_search", "build_chordal",
                 "build_chordal_with_chunks", "enumerate_sequences"):
        function("chordal", attr, "chordal")
    function("verify", "run_check", lambda args, kwargs: f"verify[{args[0]}]",
             after=lambda _args, report: tracer.count("verify.instances", len(report.results)))
    function("cli", "main", "cli")
    function("cache", "load", "cache.load",
             after=lambda _args, hit: tracer.count("cache.misses" if hit is None else "cache.hits"))
    function("cache", "store", "cache.store")
    for attr in ("canonical_json", "canonical_hash"):
        function("hypergraph", attr, "hypergraph.serialize")


def layer_metrics(tracer: Tracer, checks) -> dict[str, float]:
    """Self time and work counts per layer, named after the modules.

    ``checks`` lists the check ids that get their own ``verify.<id>_s``
    (the inclusive time of their ``run_check`` call).
    """
    times = self_times(tracer)
    counts = tracer.counts

    def layer(name: str, field: int = 0) -> float:
        return sum(v[field] for key, v in times.items()
                   if key == name or key.startswith(name + "["))

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics = {
        "homology.rank_s": layer("homology.rank"),
        "homology.rank_gf2_s": layer("homology.rank[gf2]"),
        "homology.rank_gf3_s": layer("homology.rank[gf3]"),
        "homology.rank_q_s": layer("homology.rank[q]"),
        "homology.rank_calls": counts["homology.rank_calls"],
        "homology.rows": counts["homology.rows"],
        "homology.nnz": counts["homology.nnz"],
        "homology.pivot_ratio": ratio(counts["homology.rank_sum"], counts["homology.rows"]),
        "homology.chain_s": layer("homology.chain"),
        "homology.faces": counts["homology.faces"],
        "betti.dispatch_s": layer("betti.dispatch"),
        "betti.subsets": counts["betti.subsets"],
        "betti.subsets_nonzero": counts["betti.subsets_nonzero"],
        "betti.useful_ratio": ratio(counts["betti.subsets_nonzero"], counts["betti.subsets"]),
        "betti.plan_s": layer("betti.plan"),
        "betti.plan_subsets": counts["betti.plan_subsets"],
        "betti.self_s": layer("betti"),
        "complexes.build_s": layer("complexes"),
        "complexes.calls": layer("complexes", 2),
        "ideal.s": layer("ideal"),
        "ideal.calls": layer("ideal", 2),
        "chordal.s": layer("chordal"),
        "chordal.calls": layer("chordal", 2),
        "verify.self_s": layer("verify"),
        "verify.instances": counts["verify.instances"],
        "cli.self_s": layer("cli"),
        "cache.load_s": layer("cache.load"),
        "cache.store_s": layer("cache.store"),
        "cache.hits": counts["cache.hits"],
        "cache.misses": counts["cache.misses"],
        "hypergraph.serialize_s": layer("hypergraph.serialize"),
    }
    for check in checks:
        metrics[f"verify.{check}_s"] = layer(f"verify[{check}]", 1)
    return metrics
