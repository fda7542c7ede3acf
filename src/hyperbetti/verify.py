"""Registry of machine checks: every closed form against an independent route.

Each check walks a parameter grid and compares two computations that share
as little code as possible — a formula against the restriction-homology
oracle, a combinatorial recognizer against an algebraic search, a
classification against a from-scratch decision procedure.  The result is a
report with one record per instance, so a mismatch pinpoints the exact
parameters (and serialized objects) needed to replay it.

``REGISTRY``, at the end of the module, is the table of checks.  An entry
names the generator of the check's cases (a label, and a body that names
the flaw or returns None), the grid keys it reads and its report notes.
``run_check`` runs, times and records every body: one that raises
SkipInstance is skipped, and one that raises ParameterError,
PreconditionError or SizeBudgetError is an error, not an abort.
Checks that share a generator differ only in what they pass to it: a
family row names the maker, the regime of (d, alpha) pairs, the smallest
n, the expected table and the comparison; a connectivity row names the
comparison of the direct connectivity with the shape of the Betti table;
a counting row names the two counting functions.  The family and
free-vertex rows hold their formulas against ``edge_restriction_sum``,
the restriction sum itself, and ``free-split`` holds the splitting route
of ``edge_ideal_betti`` against that sum.

Two routes live only here, inside their checks: ``betti-splitting``
reads the colon ideals from the certificate of the ordering it found
and compares the splitting identities against the oracle, and
``two-gluing`` decides linear quotients of a glued pair by its
resolution and an ordering search (``_two_gluing_computed``).

Work is shared only within one run of a check.  The sequence checks
deduplicate their pools by the hypergraph each attachment sequence
builds, read from its pieces without listing an edge (``_build_key``),
and build only the sequences they keep, handing the built hypergraph
and pieces to their cases.  ``graph-corollary``
keeps a memo keyed by isomorphism class (``_graph_orbits``) for the
invariants of the ideal and checks every 97th repeat of a class against
a recomputation.

Grid strings are comma-separated ``key=value`` or ``key=lo..hi`` pairs,
e.g. ``"n=3..6,alpha=1..2"``.  A key the check does not read is refused.
Every check has usable defaults, so the grid argument is optional
throughout.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import cache, partial
from itertools import combinations, permutations
from math import comb
from typing import Callable, Iterable, Mapping

from .betti import (
    BettiTable,
    clique_ideal_betti,
    connectivity,
    count_cycle_subconfigs,
    count_line_subconfigs,
    cycle_betti_closed_form,
    cycle_betti_degenerate,
    edge_ideal_betti,
    edge_restriction_sum,
    enumerate_cycle_subconfigs,
    enumerate_line_subconfigs,
    froberg_cm_check,
    hochster_betti,
    ideal_betti,
    is_cohen_macaulay,
    knd_complement_betti,
    line_betti_closed_form,
    line_betti_degenerate,
    rsequence_betti_table,
    star_betti_closed_form,
    taylor_betti_free_vertex,
)
from .bitsets import bits_of, mask_of, min_antichain
from .chordal import (
    AttachmentSequence,
    AttachmentStep,
    build_chordal_with_chunks,
    chordal_graph_recognize,
    complement_diameter,
    enumerate_sequences,
    two_gluing_classification,
    two_gluing_hypergraph,
)
from .complexes import (
    SimplicialComplex,
    clique_complex,
    independence_complex,
    pad_facets,
    strip_small_facets,
)
from .errors import ParameterError, PreconditionError, SizeBudgetError
from .homology import GF2, GF3, QQ, FieldSpec
from .hypergraph import (
    MAX_VERTICES,
    OVERLAP_FAMILIES,
    Hypergraph,
    every_edge_has_free_vertex,
    make_cycle,
    make_line,
    make_star_overlap,
    non_edges,
)
from .ideal import (
    MonomialIdeal,
    QuotientRefusal,
    ShellingRefusal,
    duality_bridge,
    edge_ideal,
    extend_ring,
    rsequence_colon_profile,
    search_d_quotients,
    search_d_shelling,
    verify_d_quotients,
    verify_d_shelling,
)

FIELD_TRIPLE = (GF2, GF3, QQ)


# -- report types ------------------------------------------------------


@dataclass(frozen=True)
class InstanceResult:
    """One grid point: what was checked and how it went."""

    instance: str
    status: str  # "match" | "mismatch" | "skipped" | "error"
    details: str = ""
    elapsed_ms: int = 0


@dataclass(frozen=True)
class VerificationReport:
    theorem: str
    grid: str
    results: tuple[InstanceResult, ...]
    notes: tuple[str, ...] = ()
    total_ms: int = 0

    @property
    def matched(self) -> int:
        return sum(1 for r in self.results if r.status == "match")

    @property
    def mismatched(self) -> int:
        return sum(1 for r in self.results if r.status == "mismatch")

    @property
    def skipped(self) -> int:
        return sum(1 for r in self.results if r.status == "skipped")

    @property
    def errored(self) -> int:
        return sum(1 for r in self.results if r.status == "error")

    @property
    def ok(self) -> bool:
        return self.mismatched == 0 and self.errored == 0

    def summary_line(self) -> str:
        line = (
            f"theorem={self.theorem} instances={len(self.results)} "
            f"match={self.matched} mismatch={self.mismatched} skipped={self.skipped}"
        )
        return line + f" error={self.errored}" if self.errored else line

    def to_json_obj(self, include_timings: bool = False) -> dict:
        obj: dict = {
            "theorem": self.theorem,
            "grid": self.grid,
            "summary": {
                "instances": len(self.results),
                "match": self.matched,
                "mismatch": self.mismatched,
                "skipped": self.skipped,
            },
            "notes": list(self.notes),
            "results": [
                {"instance": r.instance, "status": r.status, "details": r.details}
                for r in self.results
            ],
        }
        if self.errored:
            obj["summary"]["error"] = self.errored
        if include_timings:
            obj["timings_ms"] = {
                "total": self.total_ms,
                "instances": [r.elapsed_ms for r in self.results],
            }
        return obj


class SkipInstance(Exception):
    """Raised inside a check body to mark the instance as skipped."""


# -- grid handling -----------------------------------------------------


def parse_grid(text: str | None) -> dict:
    """Parse ``key=value`` / ``key=lo..hi`` pairs."""
    if not text:
        return {}
    grid: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParameterError(f"grid entry {part!r} is not key=value")
        key, _, raw = part.partition("=")
        key = key.strip()
        raw = raw.strip()
        try:
            if ".." in raw:
                lo, _, hi = raw.partition("..")
                grid[key] = (int(lo), int(hi))
            else:
                v = int(raw)
                grid[key] = (v, v)
        except ValueError as exc:
            raise ParameterError(f"grid value {raw!r} for {key!r} is not integral") from exc
        lo, hi = grid[key]
        if lo > hi:
            raise ParameterError(f"grid range {raw!r} for {key!r} is empty: {lo} > {hi}")
    return grid


def _span(grid: Mapping, key: str, lo: int, hi: int) -> range:
    if key in grid:
        glo, ghi = grid[key]
        return range(glo, ghi + 1)
    return range(lo, hi + 1)


def _val(grid: Mapping, key: str, default: int) -> int:
    if key in grid:
        lo, hi = grid[key]
        if lo != hi:
            raise ParameterError(f"grid key {key!r} takes a single value")
        return lo
    return default


def _stride(items: list, cap: int) -> list:
    """Deterministic evenly spaced subsample when the pool overruns a cap."""
    if cap <= 0 or len(items) <= cap:
        return items
    step = len(items) / cap
    return [items[int(k * step)] for k in range(cap)]


# -- shared helpers ----------------------------------------------------

# The body of one instance: the flaw it finds, or None.
Body = Callable[[], str | None]
# One instance of a check: its label and its body.
Case = tuple[str, Body]
# A check's cases on one grid.
Cases = Callable[[Mapping], Iterable[Case]]
# The flaw between an expected value and an oracle table, or None.
Compare = Callable[[object, BettiTable], str | None]


def _instance(label: str, body: Body) -> InstanceResult:
    t0 = time.perf_counter()
    try:
        flaw = body()
        status = "match" if flaw is None else "mismatch"
    except SkipInstance as skip:
        status, flaw = "skipped", str(skip)
    except (ParameterError, PreconditionError, SizeBudgetError) as exc:
        status, flaw = "error", str(exc)
    ms = int(1000 * (time.perf_counter() - t0))
    return InstanceResult(label, status, flaw or "", ms)


def _table_diff(expected: BettiTable, actual: BettiTable) -> str | None:
    a = expected.as_quotient().entries
    b = actual.as_quotient().entries
    if a == b:
        return None
    cells = [
        f"(i={i},j={j}): expected {a.get((i, j), 0)} got {b.get((i, j), 0)}"
        for i, j in sorted(set(a) | set(b))
        if a.get((i, j), 0) != b.get((i, j), 0)
    ]
    return (
        "; ".join(cells)
        + f" || expected table {expected.to_json()} || actual table {actual.to_json()}"
    )


@cache
def _edge_name(m: int) -> str:
    """An edge's vertex labels, ascending, written side by side."""
    return "".join(map(str, bits_of(m)))


def _edges_label(h: Hypergraph) -> str:
    return "|".join(map(_edge_name, sorted(h.edges)))


_ABC = "abcdefghijklmnopqrstuvwxyz"


def _gens_label(ideal: MonomialIdeal) -> str:
    return ",".join("".join(_ABC[v] for v in bits_of(m)) for m in ideal.generators)


def _linear_quotients(ideal: MonomialIdeal) -> tuple[int, ...] | None:
    """A linear-quotient ordering of the generators, or None.  The search
    runs with a spare ring variable so the property depends on the
    generators alone (see extend_ring)."""
    return search_d_quotients(extend_ring(ideal), 1)


def _partitions(i: int, cap: int | None = None) -> Iterable[tuple[int, ...]]:
    cap = i if cap is None else cap
    if i == 0:
        yield ()
        return
    for first in range(min(i, cap), 0, -1):
        for rest in _partitions(i - first, first):
            yield (first,) + rest


def _free_vertex_pool(grid: Mapping) -> list[tuple[str, Hypergraph]]:
    """Hypergraphs in which every edge keeps a vertex of its own: the
    overlap families in their spread regimes plus seeded random ones
    padded with a dedicated fresh vertex per edge."""
    ns = _span(grid, "n", 1, 4)
    edge_ns = [n for n in ns if n >= 1]  # lines and stars need an edge
    cycle_ns = [n for n in ns if n >= 3]  # cycles need three
    pool: list[tuple[str, Hypergraph]] = []
    for d in _span(grid, "d", 2, 4):
        for alpha in _span(grid, "alpha", 1, 2):
            if d <= 2 * alpha:
                continue
            for n in edge_ns:
                pool.append((f"line n={n} d={d} alpha={alpha}", make_line(n, d, alpha)))
            for n in cycle_ns:
                pool.append((f"cycle n={n} d={d} alpha={alpha}", make_cycle(n, d, alpha)))
        for alpha in _span(grid, "alpha", 1, 2):
            if alpha < d:
                for n in edge_ns:
                    pool.append(
                        (f"star n={n} d={d} alpha={alpha}", make_star_overlap(n, d, alpha))
                    )
    for alpha in _span(grid, "alpha", 1, 2):
        pool.append((f"line n=2 d={2 * alpha} alpha={alpha}", make_line(2, 2 * alpha, alpha)))
    rng = random.Random(_val(grid, "seed", 11))
    for trial in range(_val(grid, "count", 8)):
        d = rng.randrange(2, 5)
        base = rng.randrange(max(2, d - 1), 5)
        n_edges = rng.randrange(1, 5)
        cores = [
            mask_of(rng.sample(range(base), min(d - 1, base)))
            for _ in range(n_edges)
        ]
        edges = frozenset(
            core | (1 << (base + idx)) for idx, core in enumerate(cores)
        )
        h = Hypergraph(base + n_edges, edges)
        assert every_edge_has_free_vertex(h)
        pool.append((f"random trial={trial} edges={_edges_label(h)}", h))
    return pool


# -- closed-form-versus-oracle checks ----------------------------------


def _against_oracle(
    tables: Callable[[Mapping], Iterable[tuple]], compare: Compare = _table_diff
) -> Cases:
    """The cases of every check that holds an expected table against the
    oracle: one instance per (label, table, expected) triple and field, in
    which ``compare(expected(), table(field))`` names the flaw or is None.
    Both are built inside the instance, so a case outside a closed form's
    domain can skip itself without aborting the report."""

    def cases(grid: Mapping):
        for label, table, expected in tables(grid):
            for fld in FIELD_TRIPLE:
                yield (
                    f"{label} field={fld.label}",
                    lambda t=table, e=expected, f=fld: compare(e(), t(f)),
                )

    return cases


def _top_row_diff(expected: dict, actual: BettiTable) -> str | None:
    """Compare only the row in the homological degree of the single
    expected entry."""
    ((top, _),) = expected
    row = {k: v for k, v in actual.entries.items() if k[0] == top}
    if row != expected:
        return f"top row expected {expected} got {row}"
    return None


def _totals_diff(expected: dict, actual: BettiTable) -> str | None:
    got = actual.totals()
    if got != expected:
        return f"totals expected {expected} got {got}"
    return None


def _free_vertex(
    expected: Callable[[Hypergraph], object], compare: Compare = _table_diff
) -> Cases:
    """``expected(h)`` against the oracle on the free-vertex pool."""
    return _against_oracle(
        lambda grid: (
            (label, partial(edge_restriction_sum, h), partial(expected, h))
            for label, h in _free_vertex_pool(grid)
        ),
        compare,
    )


def _split_pool(grid: Mapping) -> list[tuple[str, Hypergraph]]:
    """The line, cycle and star families for 1 <= n <= 8, at every (d,
    alpha) with 2 <= d <= 4 and alpha <= 2 where they are defined, and
    seeded random edge sets: on 3 to 11 vertices, the minimal ones among
    1 to 9 random sets of 2 to 4 vertices."""
    pool: list[tuple[str, Hypergraph]] = []
    for family, make in OVERLAP_FAMILIES.items():
        for d in _span(grid, "d", 2, 4):
            for alpha in _span(grid, "alpha", 1, 2):
                for n in _span(grid, "n", 1, 8):
                    try:
                        h = make(n, d, alpha)
                    except ParameterError:
                        continue
                    pool.append((f"{family} n={n} d={d} alpha={alpha}", h))
    rng = random.Random(_val(grid, "seed", 0))
    for trial in range(_val(grid, "count", 300)):
        n = rng.randrange(3, 12)
        sets = [
            mask_of(rng.sample(range(n), min(n, rng.randrange(2, 5))))
            for _ in range(rng.randrange(1, 10))
        ]
        h = Hypergraph(n, min_antichain(sets))
        # vertex lists, not _edges_label: past nine vertices its names run together
        pool.append((f"random trial={trial} n={n} edges={h.edge_list()}", h))
    return pool


# Edge-route inputs past the restriction sum's reach, with their closed forms.
_FAR_SPLITS = (
    ("line", 31, line_betti_closed_form),
    ("cycle", 30, cycle_betti_closed_form),
)


def check_free_split(grid: Mapping) -> Iterable[Case]:
    """The free-vertex splitting route of ``edge_ideal_betti`` against the
    restriction sum on the split pool, over every test field; then, past
    the sum's reach, against the closed forms of line(31,3,1) and
    cycle(30,3,1)."""
    for label, h in _split_pool(grid):
        for fld in FIELD_TRIPLE:
            yield f"{label} field={fld.label}", lambda h=h, f=fld: _table_diff(
                edge_restriction_sum(h, f, vertex_budget=MAX_VERTICES),
                edge_ideal_betti(h, f),
            )
    for family, n, closed in _FAR_SPLITS:
        h = OVERLAP_FAMILIES[family](n, 3, 1)
        for fld in FIELD_TRIPLE:
            yield f"{family} n={n} d=3 alpha=1 closed form field={fld.label}", (
                lambda h=h, f=fld, expected=closed(n, 3, 1): _table_diff(
                    expected, edge_ideal_betti(h, f)
                )
            )


def _regime_pairs(grid: Mapping, regime: str) -> list[tuple[int, int]]:
    """The (d, alpha) pairs of an overlap regime, in grid order: "spread"
    (d > 2 alpha), "tight" (d = 2 alpha, so the grid sets alpha only) or
    "core" (every edge holds a common core of alpha < d vertices)."""
    if regime == "tight":
        return [(2 * alpha, alpha) for alpha in _span(grid, "alpha", 1, 2)]
    pairs = [(d, alpha) for d in _span(grid, "d", 2, 4) for alpha in _span(grid, "alpha", 1, 2)]
    if regime == "spread":
        return [(d, alpha) for d, alpha in pairs if d > 2 * alpha]
    return [(d, alpha) for d, alpha in pairs if 1 <= alpha < d]


def _family(
    family: str,
    regime: str,
    nmin: int,
    expected: Callable[[int, int, int], object],
    compare: Compare = _table_diff,
) -> Cases:
    """``expected(n, d, alpha)`` against the oracle on the members of
    ``family`` for every (d, alpha) pair of ``regime`` and
    ``nmin <= n <= 6``."""

    def tables(grid: Mapping):
        for d, alpha in _regime_pairs(grid, regime):
            for n in _span(grid, "n", nmin, 6):
                member = partial(_in_domain, OVERLAP_FAMILIES[family], n, d, alpha)
                yield (
                    f"{family} n={n} d={d} alpha={alpha}",
                    lambda fld, member=member: edge_restriction_sum(member(), fld),
                    partial(_in_domain, expected, n, d, alpha),
                )

    return _against_oracle(tables, compare)


def _in_domain(make: Callable, *args):
    """``make(*args)``; arguments outside its domain skip the instance."""
    try:
        return make(*args)
    except ParameterError as exc:
        raise SkipInstance(str(exc)) from exc


def _knd_tables(grid: Mapping):
    """Skeleton-quotient tables of the edgeless hypergraph against the
    closed product of binomials."""
    for n in _span(grid, "n", 2, 6):
        for d in _span(grid, "d", 2, 6):
            if d <= n:
                table = partial(clique_ideal_betti, Hypergraph(n, frozenset()), d)
                expected = partial(_in_domain, knd_complement_betti, n, d)
                yield f"edgeless n={n} d={d}", table, expected


def _counting(prefix: str, nmin: int, closed_form: Callable, enumeration: Callable) -> Cases:
    """Run-placement counts: the closed form against full subset
    enumeration for every partition of 1..i cells and n >= nmin."""

    def cases(grid: Mapping):
        imax = _val(grid, "i", 6)
        for n in _span(grid, "n", nmin, 8):
            for i in range(1, min(imax, n) + 1):
                for part in _partitions(i):
                    def body(part=part, n=n):
                        a = closed_form(part, n)
                        b = enumeration(part, n)
                        if a != b:
                            return f"closed form {a} != enumeration {b}"
                        return None

                    yield f"{prefix} runs={list(part)} n={n}", body

    return cases


# -- connectivity, depth, Cohen-Macaulay -------------------------------


def _conn_pool(grid: Mapping) -> list[tuple[str, Hypergraph, int]]:
    """Family members small enough for full-subset scans, plus seeded
    random 3-uniform hypergraphs."""
    cap = _val(grid, "vcap", 11)
    pool: list[tuple[str, Hypergraph, int]] = []
    for d in _span(grid, "d", 2, 4):
        for alpha in _span(grid, "alpha", 1, 2):
            if 2 * alpha <= d:
                for n in _span(grid, "n", 1, 6):
                    h = make_line(n, d, alpha)
                    if h.num_vertices <= cap:
                        pool.append((f"line n={n} d={d} alpha={alpha}", h, d))
                for n in _span(grid, "n", 3, 6):
                    h = make_cycle(n, d, alpha)
                    if h.num_vertices <= cap:
                        pool.append((f"cycle n={n} d={d} alpha={alpha}", h, d))
            if alpha < d:
                for n in _span(grid, "n", 1, 6):
                    h = make_star_overlap(n, d, alpha)
                    if h.num_vertices <= cap:
                        pool.append((f"star n={n} d={d} alpha={alpha}", h, d))
    rng = random.Random(_val(grid, "seed", 7))
    for trial in range(_val(grid, "count", 200)):
        n = rng.randrange(4, 9)
        all_triples = [mask_of(c) for c in combinations(range(n), 3)]
        n_edges = rng.randrange(1, min(len(all_triples), 3 * n) + 1)
        h = Hypergraph(n, frozenset(rng.sample(all_triples, n_edges)))
        pool.append((f"random trial={trial} n={n} edges={_edges_label(h)}", h, 3))
    return pool


def _conn_fields(trial_label: str, index: int) -> tuple[FieldSpec, ...]:
    """Families run over all three fields; random instances run over GF(2)
    with every tenth re-run over the other two."""
    if trial_label.startswith("random") and index % 10:
        return (GF2,)
    return FIELD_TRIPLE


def _connectivity(compare: Callable[..., str | None]) -> Cases:
    """The cases shared by the connectivity checks.  On every pool
    instance but a complete one, the connectivity found by a removal scan
    and the one the clique-route table implies, n - d + 1 minus the length
    of its linear strand (None for an empty strand), go to ``compare``
    with the table and d; a flaw carries the table's shape."""

    def cases(grid: Mapping):
        for index, (label, h, d) in enumerate(_conn_pool(grid)):
            for fld in _conn_fields(label, index):
                def body(h=h, d=d, fld=fld):
                    if not non_edges(h, d):
                        raise SkipInstance(
                            "complete hypergraph: connectivity is infinite, "
                            "theorem does not apply"
                        )
                    try:
                        table = clique_ideal_betti(h, d, fld)
                        con = connectivity(h, fld, d)
                    except PreconditionError as exc:
                        raise SkipInstance(str(exc)) from exc
                    strand = table.linear_strand(d)
                    implied = None if strand == 0 else h.num_vertices - d + 1 - strand
                    flaw = compare(con, implied, table, d)
                    if flaw is None:
                        return None
                    return (
                        f"{flaw} (pd={table.projective_dimension} "
                        f"depth={table.depth} strand={strand})"
                    )

                yield f"{label} field={fld.label}", body

    return cases


def _strand_route_flaw(
    con: int | None, implied: int | None, table: BettiTable, d: int
) -> str | None:
    if con == implied:
        return None
    return f"direct connectivity {con} != strand route {implied}"


def _zero_route_flaw(
    con: int | None, implied: int | None, table: BettiTable, d: int
) -> str | None:
    """Zero connectivity against depth d - 1 with the linear strand as long
    as the resolution."""
    zero = table.depth == d - 1 and table.linear_strand(d) == table.projective_dimension
    if (con == 0) == zero:
        return None
    return f"connectivity {con} but resolution-shape route says zero={zero}"


def _cm_pool(grid: Mapping) -> list[tuple[str, SimplicialComplex]]:
    pool: list[tuple[str, SimplicialComplex]] = []
    cap = _val(grid, "vcap", 10)
    for d in (2, 3):
        for alpha in (1,):
            for n in range(1, 5):
                h = make_line(n, d, alpha)
                if h.num_vertices <= cap:
                    pool.append((f"clique line n={n} d={d}", clique_complex(h, d)))
            for n in range(3, 5):
                h = make_cycle(n, d, alpha)
                if h.num_vertices <= cap:
                    pool.append((f"clique cycle n={n} d={d}", clique_complex(h, d)))
    pool.append(("empty-face complex n=3", SimplicialComplex.from_faces(3, [0])))
    pool.append(("full simplex n=4", SimplicialComplex.from_faces(4, [0b1111])))
    pool.append(
        (
            "triangle boundary",
            SimplicialComplex.from_faces(3, [0b011, 0b101, 0b110]),
        )
    )
    pool.append(
        (
            "two disjoint segments",
            SimplicialComplex.from_faces(4, [0b0011, 0b1100]),
        )
    )
    rng = random.Random(_val(grid, "seed", 13))
    for trial in range(_val(grid, "count", 24)):
        n = rng.randrange(4, 8)
        all_triples = [mask_of(c) for c in combinations(range(n), 3)]
        n_edges = rng.randrange(1, len(all_triples) + 1)
        h = Hypergraph(n, frozenset(rng.sample(all_triples, n_edges)))
        kind = rng.choice(("independence", "clique"))
        c = independence_complex(h) if kind == "independence" else clique_complex(h, 3)
        pool.append((f"random {kind} trial={trial} edges={_edges_label(h)}", c))
    return pool


def check_cm_froberg(grid: Mapping) -> Iterable[Case]:
    """The restriction-vanishing criterion for Cohen-Macaulayness agrees
    with depth read off the full Betti table."""
    for label, c in _cm_pool(grid):
        for fld in FIELD_TRIPLE:
            def body(c=c, fld=fld):
                crit = froberg_cm_check(c, fld)
                depth_route = is_cohen_macaulay(c, fld)
                if crit == depth_route:
                    return None
                e = (c.dim if c.dim is not None else -1) + 1
                return (
                    f"vanishing criterion says {crit}, Betti-table depth "
                    f"{hochster_betti(c, fld).depth} vs dimension {e} says {depth_route}"
                )

            yield f"{label} field={fld.label}", body


# -- chordal structure checks ------------------------------------------


def _steps_label(steps: Iterable[AttachmentStep]) -> str:
    return ";".join(f"{s.size}+{sorted(s.glue)}" if s.glue else str(s.size) for s in steps)


# A built sequence: its label, its uniformity d, the hypergraph and the
# pieces as masks.
Build = tuple[str, int, Hypergraph, tuple[int, ...]]


def _build_key(seq: AttachmentSequence) -> int:
    """The labelled hypergraph a sequence builds, read from its pieces
    without listing an edge: its vertex count and, when some piece has at
    least d vertices, d and the inclusion-maximal such pieces, sorted,
    packed into one int of 64-bit fields.

    Every piece after the first has a fresh vertex, so each set of at
    least d vertices whose d-subsets are all edges lies inside one piece:
    the maximal pieces are the maximal cliques of the edge set, and the
    two determine each other.  With no such piece the build is edgeless
    whatever d is, so d is left out."""
    pieces = seq.pieces()
    n = pieces[-1].bit_length()
    pieces = [p for p in pieces if p.bit_count() >= seq.d]
    if not pieces:
        return n
    key = 0
    # a later piece holds a fresh vertex, so it never lies inside an earlier one
    for k, piece in sorted(enumerate(pieces), key=lambda kp: kp[1]):
        if not any(piece & ~later == 0 for later in pieces[k + 1:]):
            key = key << 64 | piece
    return (key << 64 | seq.d) << 64 | n


def _distinct_builds(pool: Iterable[tuple[str, AttachmentSequence]]) -> list[Build]:
    """The build of the first sequence of the pool for each labelled output
    hypergraph, told apart by ``_build_key``: only the sequences kept are
    built."""
    seen: set[int] = set()
    out = []
    for label, seq in pool:
        key = _build_key(seq)
        if key not in seen:
            seen.add(key)
            out.append((label, seq.d, *build_chordal_with_chunks(seq)))
    return out


def _sequence_pool(
    grid: Mapping, ds: Iterable[int], vmax: int, steps: int, cap: int
) -> list[Build]:
    """Deduplicated builds: every attachment sequence of each uniformity d
    in ``ds`` within the bounds, one representative per labeled output
    hypergraph."""
    pool = _distinct_builds(
        (f"d={d} steps={_steps_label(seq.steps)}", seq)
        for d in ds
        for seq in enumerate_sequences(d, _val(grid, "n", vmax), _val(grid, "steps", steps))
    )
    return _stride(pool, _val(grid, "count", cap))


def check_hypergraph(grid: Mapping) -> Iterable[Case]:
    """Every buildable hypergraph yields a nonface ideal with linear
    quotients (the algebraic shadow of being chordal)."""
    for label, d, h, _ in _sequence_pool(grid, _span(grid, "d", 2, 3), 7, 3, 400):
        def body(h=h, d=d):
            ideal = MonomialIdeal(h.n_vertices, tuple(non_edges(h, d)))
            if ideal.is_zero:
                raise SkipInstance("complete hypergraph: nonface ideal is zero")
            if _linear_quotients(ideal) is None:
                return (
                    f"no linear quotients for generators {_gens_label(ideal)} "
                    f"on {ideal.n_vertices} vertices"
                )
            return None

        yield label, body


def _graph_orbits(n: int, pairs: list[int]) -> list[int]:
    """The least code of each edge code's orbit under the n! relabellings
    of the vertices, bit k of a code standing for the pair ``pairs[k]``.
    Codes are visited in increasing order, so a code no earlier orbit
    reached is the least of its own, and only that one is permuted."""
    index = {p: k for k, p in enumerate(pairs)}
    images = [
        [index[mask_of(perm[v] for v in bits_of(p))] for p in pairs]
        for perm in permutations(range(n))
    ]
    least = [-1] * (1 << len(pairs))
    for code in range(len(least)):
        if least[code] < 0:
            bits = [k for k in range(len(pairs)) if code >> k & 1]
            for image in images:
                least[sum(1 << image[k] for k in bits)] = code
    return least


# One in this many graphs that repeat a class recomputes what the memo holds.
_MEMO_AUDIT_STRIDE = 97


def check_graph_corollary(grid: Mapping) -> Iterable[Case]:
    """Chordality of a graph is equivalent to linear quotients of its
    nonadjacency ideal — checked over every labeled graph in range.

    The GF(2) Betti table and the existence of a linear-quotient order are
    the same for isomorphic graphs, so each is computed once per class and
    read from a memo for the rest: the table on the class's first graph,
    the order search on the first graph whose verdict needs it.  The
    recognizer still runs on each labelled graph.  Every 97th graph that
    is not the first of its class recomputes the table, and the search if
    the class has an answer, and must agree with the memo.  A complete
    graph, whose nonadjacency ideal is zero, is skipped by its edge count.
    The ideal itself is built only where it is read: on a memo miss, on an
    audit and for the ordering quoted in a mismatch."""
    tables: dict[tuple[int, int], BettiTable] = {}
    quotients: dict[tuple[int, int], bool] = {}
    repeats = 0
    for n in _span(grid, "n", 1, 6):
        pairs = [mask_of(p) for p in combinations(range(n), 2)]
        least = _graph_orbits(n, pairs)
        for code in range(1 << len(pairs)):
            edges = frozenset([pairs[k] for k in bits_of(code)])
            g = Hypergraph(n, edges)
            key = (n, least[code])
            audit = False
            if least[code] != code:
                repeats += 1
                audit = repeats % _MEMO_AUDIT_STRIDE == 0

            def body(g=g, key=key, audit=audit, complete=len(edges) == len(pairs)):
                if complete:
                    raise SkipInstance("complete graph: nonface ideal is zero")
                built: MonomialIdeal | None = None

                def ideal() -> MonomialIdeal:
                    nonlocal built
                    if built is None:
                        built = MonomialIdeal(g.n_vertices, tuple(non_edges(g, 2)))
                    return built

                def class_has_quotients() -> bool:
                    if key not in quotients:
                        quotients[key] = _linear_quotients(ideal()) is not None
                    return quotients[key]

                if key not in tables:
                    tables[key] = ideal_betti(ideal(), GF2)
                elif audit and (
                    ideal_betti(ideal(), GF2) != tables[key]
                    or key in quotients
                    and (_linear_quotients(ideal()) is not None) != quotients[key]
                ):
                    return (
                        f"memo self-check: graph edges={_edges_label(g)} disagrees "
                        f"with the memo of its isomorphism class, least code {key[1]}"
                    )
                rep = chordal_graph_recognize(g)
                if rep.is_chordal:
                    if not class_has_quotients():
                        return "recognizer says chordal but no linear quotients exist"
                    return None
                if not tables[key].is_linear(2):
                    return None  # nonlinear resolution certifies absence
                ordering = _linear_quotients(ideal()) if class_has_quotients() else None
                if ordering is not None:
                    return (
                        f"chordless cycle {rep.chordless_cycle} found but the ideal "
                        f"has linear quotients under {ordering}"
                    )
                return None

            yield f"graph n={n} edges={_edges_label(g)}", body


def _td_sequences(grid: Mapping) -> list[Build]:
    """Sequences whose pieces all have one more vertex than their glue:
    a first complete piece, then one fresh vertex per step."""
    pool: list[tuple[str, AttachmentSequence]] = []
    vmax = _val(grid, "n", 10)
    extra = _val(grid, "steps", 3)
    for d in _span(grid, "d", 2, 3):
        for base in range(d - 1, 5):
            def grow(steps: tuple[AttachmentStep, ...], d: int = d, base: int = base) -> None:
                label = f"d={d} glue={base} steps={_steps_label(steps)}"
                seq = AttachmentSequence(d, steps)
                pool.append((label, seq))
                pieces = seq.pieces()
                if len(steps) > extra or pieces[-1].bit_length() >= vmax:
                    return
                glues = {g for c in pieces for g in combinations(bits_of(c), base)}
                for glue in sorted(glues):
                    grow(steps + (AttachmentStep(base + 1, glue),))

            grow((AttachmentStep(base + 1),))
    return _stride(_distinct_builds(pool), _val(grid, "count", 80))


def check_td_shellable(grid: Mapping) -> Iterable[Case]:
    """One-vertex-at-a-time builds: the complex spanned by the complete
    pieces is shelled by construction order and is Cohen-Macaulay."""
    for label, _, h, chunks in _td_sequences(grid):
        def body(h=h, chunks=chunks):
            distinct = tuple(dict.fromkeys(chunks))
            cc = SimplicialComplex.from_faces(h.n_vertices, distinct)
            sizes = {c.bit_count() for c in distinct}
            if len(sizes) != 1:
                return f"piece complex not pure: sizes {sorted(sizes)}"
            cert = verify_d_shelling(cc, distinct, 1)
            if isinstance(cert, ShellingRefusal):
                return f"construction order is not a 1-shelling: {cert.reason}"
            for fld in FIELD_TRIPLE:
                if not froberg_cm_check(cc, fld):
                    return f"piece complex not Cohen-Macaulay over {fld.label}"
            return None

        yield label, body


def _two_gluing_computed(m: int, i: int, j: int, d: int) -> bool:
    """Decide linear quotients for the gluing by computation alone.

    A non-linear resolution rules linear quotients out immediately; when
    the resolution is linear, exhaustive ordering search settles it.  The
    search gets a spare ring variable so the answer depends only on the
    edges, not on how tightly they fill the vertex set.
    """
    ideal = edge_ideal(two_gluing_hypergraph(m, i, j, d))
    if not ideal_betti(ideal).is_linear(d):
        return False
    return search_d_quotients(extend_ring(ideal), 1, node_budget=4_000_000) is not None


def check_two_gluing(grid: Mapping) -> Iterable[Case]:
    """The linear-quotients classification of two glued complete pieces
    against a from-scratch decision on the edge ideal."""
    nmax = _val(grid, "n", 9)
    for d in _span(grid, "d", 2, 3):
        for m in range(d, nmax + 1):
            for i in range(1, nmax + 1):
                for j in range(0, min(i, m + 1)):
                    if m + i - j > nmax or j >= i:
                        continue

                    def body(m=m, i=i, j=j, d=d):
                        predicted = two_gluing_classification(m, i, j, d)
                        observed = _two_gluing_computed(m, i, j, d)
                        if predicted != observed:
                            return f"classification {predicted} but computation {observed}"
                        return None

                    yield f"m={m} i={i} j={j} d={d}", body


def check_diameter(grid: Mapping) -> Iterable[Case]:
    """Complements of built chordal graphs are within three steps of
    every vertex whenever they are connected."""
    graphs = [(label, g) for label, _, g, _ in _sequence_pool(grid, (2,), 9, 3, 1200)]
    rng = random.Random(_val(grid, "seed", 5))
    for trial in range(_val(grid, "count2", 200)):
        steps = [AttachmentStep(rng.randrange(1, 5))]
        for _ in range(rng.randrange(1, 5)):
            pieces = AttachmentSequence(2, tuple(steps)).pieces()
            host_verts = bits_of(rng.choice(pieces))
            j = rng.randrange(0, len(host_verts) + 1)
            glue = tuple(sorted(rng.sample(host_verts, j)))
            size = j + rng.randrange(1, 4)
            if pieces[-1].bit_length() + size - j <= 9:
                steps.append(AttachmentStep(size, glue))
        g, _ = build_chordal_with_chunks(AttachmentSequence(2, tuple(steps)))
        graphs.append((f"random trial={trial}", g))
    for label, g in graphs:
        def body(g=g):
            diam = complement_diameter(g)
            if diam is None:
                raise SkipInstance("complement disconnected")
            if diam > 3:
                return f"complement diameter {diam} on edges {_edges_label(g)}"
            return None

        yield label, body


def check_adrd(grid: Mapping) -> Iterable[Case]:
    """Removing undersized facets and then restoring the small skeleton
    reproduces the original edge-span complex exactly."""
    for label, d, h, _ in _sequence_pool(grid, _span(grid, "d", 2, 4), 7, 3, 100000):
        def body(h=h, d=d):
            c = clique_complex(h, d)
            back = pad_facets(strip_small_facets(c, d), d)
            if back != c:
                return (
                    f"round trip changed the complex: facets {sorted(c.facets)} "
                    f"-> {sorted(back.facets)}"
                )
            return None

        yield label, body


# -- ideal-side checks -------------------------------------------------


def _ideal_pool(grid: Mapping, nmax: int, gmax: int) -> list[tuple[str, MonomialIdeal]]:
    """Every equigenerated squarefree ideal in the given ambient range."""
    pool = []
    for n in _span(grid, "n", 2, nmax):
        for degree in _span(grid, "degree", 2, 3):
            if degree > n:
                continue
            supports = [mask_of(c) for c in combinations(range(n), degree)]
            for count in range(1, _val(grid, "gens", gmax) + 1):
                for chosen in combinations(supports, count):
                    pool.append(
                        (
                            f"n={n}",
                            MonomialIdeal(n, tuple(sorted(chosen))),
                        )
                    )
    return pool


def check_dquot_dshell(grid: Mapping) -> Iterable[Case]:
    """Colon-degree orderings exist precisely when the complement-support
    complex is shellable at the matching codimension — both sides searched
    independently for every ideal in range."""
    for prefix, ideal in _ideal_pool(grid, 5, 4):
        for d in _span(grid, "dq", 1, 3):
            def body(ideal=ideal, d=d):
                q = search_d_quotients(ideal, d)
                s = search_d_shelling(
                    duality_bridge(ideal), d, max_facets=len(ideal.generators)
                )
                if (q is None) != (s is None):
                    return (
                        f"quotients {'found ' + str(q) if q is not None else 'absent'} "
                        f"but dual shelling {'found ' + str(s) if s is not None else 'absent'}"
                    )
                return None

            yield f"{prefix} gens={_gens_label(ideal)} d={d}", body


def check_betti_splitting(grid: Mapping) -> Iterable[Case]:
    """Whenever a colon-degree ordering exists, the quotient's Betti numbers
    split along it: for 2 <= i <= pd, each total and graded beta_i(R/I) is
    the sum over the steps of beta_{i-1} of R over the step's colon ideal,
    shifted by the generator degree, and no shifted colon entry in
    homological degree >= 2 meets the table of the step's prefix ideal."""
    showcase = [
        MonomialIdeal(6, (0b000111, 0b011100, 0b110010, 0b101001)),
        MonomialIdeal(9, (0b000000111, 0b000011100, 0b001100100, 0b110000100)),
    ]
    pool = [("showcase", i) for i in showcase] + _ideal_pool(grid, 5, 4)
    for prefix, ideal in pool:
        dprime = ideal.generator_degree
        if dprime is None:
            continue
        found: tuple[int, tuple[int, ...]] | None = None
        for d in _span(grid, "dq", 1, 3):
            ordering = search_d_quotients(ideal, d)
            if ordering is not None and len(ideal.generators) > 1:
                found = (d, ordering)
                break
        if found is None:
            continue
        d, ordering = found

        def body(ideal=ideal, ordering=ordering, d=d, dprime=dprime):
            cert = verify_d_quotients(ideal, ordering, d)
            if isinstance(cert, QuotientRefusal):
                raise PreconditionError(f"ordering has no uniform-degree quotients: {cert.reason}")
            n, order = ideal.n_vertices, cert.ordering
            full = ideal_betti(ideal, QQ)
            pd = full.projective_dimension
            colons = [ideal_betti(MonomialIdeal(n, gens), QQ) for gens in cert.colon_generators[1:]]
            prefixes = [
                ideal_betti(MonomialIdeal(n, tuple(ideal.generators[i] for i in order[:pos])), QQ)
                for pos in range(1, len(order))
            ]
            degrees = {j for (_, j) in full.entries} | {
                j + dprime for t in colons for (_, j) in t.entries
            }
            flaws = []
            if any(full.total(i) != sum(t.total(i - 1) for t in colons) for i in range(2, pd + 1)):
                flaws.append("total-sum identity fails")
            if any(
                full.beta(i, j) != sum(t.beta(i - 1, j - dprime) for t in colons)
                for i in range(2, pd + 1)
                for j in degrees
            ):
                flaws.append("graded identity fails")
            if any(
                {(i, j + dprime) for (i, j) in c.entries if i >= 2}
                & {(i, j) for (i, j) in p.entries if i >= 2}
                for c, p in zip(colons, prefixes)
            ):
                flaws.append("degree disjointness fails")
            if flaws:
                max_i = max([pd] + [t.projective_dimension + 1 for t in colons])
                totals = tuple(tuple(t.total(i) for i in range(1, max_i + 1)) for t in colons)
                return "; ".join(flaws) + f" (colon totals {totals})"
            return None

        yield f"{prefix} gens={_gens_label(ideal)} d={d}", body


def _rsequence_tables(grid: Mapping):
    """When every colon ideal is generated by a regular sequence, the full
    graded table follows from the colon sizes alone — compared against
    the oracle over all three fields."""
    pool: list[tuple[str, MonomialIdeal, int, tuple[int, ...]]] = []
    showcase = MonomialIdeal(
        9, (0b000000111, 0b000011100, 0b001100100, 0b110000100)
    )
    pool.append(
        (
            "one-core-three-petals",
            showcase,
            2,
            rsequence_colon_profile(showcase, (0, 1, 2, 3), 2),
        )
    )
    for dprime in _span(grid, "degree", 2, 4):
        for t in range(3, _val(grid, "gens", 4) + 1):
            n = 1 + t * (dprime - 1)
            gens = []
            for s in range(t):
                petal = mask_of(range(1 + s * (dprime - 1), 1 + (s + 1) * (dprime - 1)))
                gens.append(1 | petal)
            ideal = MonomialIdeal(n, tuple(gens))
            ordering = tuple(range(t))
            profile = rsequence_colon_profile(ideal, ordering, dprime - 1)
            pool.append((f"sunflower t={t} degree={dprime}", ideal, dprime - 1, profile))
    for prefix, ideal in _ideal_pool(grid, 5, 3):
        dprime = ideal.generator_degree
        if dprime is None or len(ideal.generators) < 2:
            continue
        placed = False
        for d in _span(grid, "dq", 1, 3):
            if placed:
                break
            ordering = search_d_quotients(ideal, d)
            if ordering is None:
                continue
            try:
                profile = rsequence_colon_profile(ideal, ordering, d)
            except PreconditionError:
                continue
            pool.append((f"{prefix} gens={_gens_label(ideal)}", ideal, d, profile))
            placed = True
    for label, ideal, d, profile in _stride(pool, _val(grid, "count", 160)):
        dprime = ideal.generator_degree
        expected = partial(rsequence_betti_table, profile, d, dprime, ideal.n_vertices)
        yield f"{label} d={d} profile={list(profile)}", partial(ideal_betti, ideal), expected


def check_lin_quot(grid: Mapping) -> Iterable[Case]:
    """Linear quotients force a linear resolution, over every test field."""
    pool: list[tuple[str, MonomialIdeal]] = []
    for label, d, h, _ in _sequence_pool(grid, _span(grid, "d", 2, 3), 6, 3, 60):
        ideal = MonomialIdeal(h.n_vertices, tuple(non_edges(h, d)))
        if not ideal.is_zero:
            pool.append((f"nonface ideal of {label}", ideal))
    pool.extend(
        (f"{p} gens={_gens_label(i)}", i) for p, i in _ideal_pool(grid, 5, 4)
    )
    pool = _stride(pool, _val(grid, "count", 500))
    for label, ideal in pool:
        def body(ideal=ideal):
            ordering = _linear_quotients(ideal)
            if ordering is None:
                raise SkipInstance("no linear quotients; statement does not apply")
            dprime = ideal.generator_degree
            for fld in FIELD_TRIPLE:
                table = ideal_betti(ideal, fld)
                if not table.is_linear(dprime):
                    return (
                        f"linear quotients under {ordering} but nonlinear entries "
                        f"over {fld.label}: {table.to_json()}"
                    )
            return None

        yield label, body


# -- registry ----------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One registry entry: the generator of the check's cases, every grid
    key it reads, and the notes of its report."""

    cases: Cases
    keys: tuple[str, ...]
    notes: tuple[str, ...] = ()


_POOL_KEYS = ("n", "d", "alpha", "seed", "count")
_CONN_KEYS = ("vcap", "d", "alpha", "n", "seed", "count")
_SEQUENCE_KEYS = ("d", "n", "steps", "count")
_IDEAL_KEYS = ("n", "degree", "gens", "dq")

REGISTRY: dict[str, Check] = {
    # total Betti numbers are edge-subset counts when every edge has a
    # free vertex
    "betti": Check(
        _free_vertex(
            lambda h: {i: comb(len(h.edges), i) for i in range(len(h.edges) + 1)}, _totals_diff
        ),
        _POOL_KEYS,
    ),
    # edge-subset resolution counting agrees with the oracle there
    "u": Check(_free_vertex(taylor_betti_free_vertex), _POOL_KEYS),
    # top row of spread lines: a single 1 in the degree that sums every edge
    "b1": Check(
        _family("line", "spread", 1, lambda n, d, a: {(n, n * (d - a) + a): 1}, _top_row_diff),
        ("d", "alpha", "n"),
    ),
    "l": Check(
        _counting("path", 1, count_line_subconfigs, enumerate_line_subconfigs), ("i", "n")
    ),
    "P": Check(_family("line", "spread", 1, line_betti_closed_form), ("d", "alpha", "n")),
    "PI": Check(
        _family("line", "tight", 1, lambda n, d, a: line_betti_degenerate(n, a)),
        ("alpha", "n"),
    ),
    # top row of spread cycles: a single 1 in the degree covering every vertex
    "b": Check(
        _family("cycle", "spread", 3, lambda n, d, a: {(n, n * (d - a)): 1}, _top_row_diff),
        ("d", "alpha", "n"),
    ),
    "k": Check(
        _counting("cycle", 3, count_cycle_subconfigs, enumerate_cycle_subconfigs), ("i", "n")
    ),
    "betti1": Check(
        _family("cycle", "spread", 3, cycle_betti_closed_form),
        ("d", "alpha", "n"),
        notes=(
            "run-index note: the entry formula is summed over 1 <= r <= i; an r = 0 "
            "term would carry the empty binomial C(i-1,-1) and contribute nothing, "
            "so the implemented range starts at 1 and the choice is recorded here.",
        ),
    ),
    # the tight cycle form has three residue-dependent top entries
    "to": Check(
        _family("cycle", "tight", 3, lambda n, d, a: cycle_betti_degenerate(n, a)),
        ("alpha", "n"),
    ),
    "star": Check(_family("star", "core", 1, star_betti_closed_form), ("d", "alpha", "n")),
    # the splitting route of the edge ideal against the restriction sum,
    # and against the closed forms past the sum's reach
    "free-split": Check(check_free_split, _POOL_KEYS),
    "hypergraph": Check(check_hypergraph, _SEQUENCE_KEYS),
    "graph-corollary": Check(
        check_graph_corollary,
        ("n",),
        notes=(
            "absence route: a mismatch on the non-chordal side requires linear "
            "quotients to exist; a nonlinear resolution over GF(2) rules that out "
            "immediately, and exhaustive ordering search settles the rest.",
        ),
    ),
    "Td-shellable": Check(check_td_shellable, _SEQUENCE_KEYS),
    "two-gluing": Check(check_two_gluing, ("d", "n")),
    # the sequence pool runs at d = 2 alone
    "diameter": Check(check_diameter, ("n", "steps", "count", "seed", "count2")),
    "AdRd": Check(check_adrd, _SEQUENCE_KEYS),
    # connectivity by direct removal scan equals the value implied by the
    # linear-strand length of the resolution
    "conn-depth": Check(
        _connectivity(_strand_route_flaw),
        _CONN_KEYS,
        notes=(
            "field policy: family instances run over GF(2), GF(3) and Q;"
            " random instances run over GF(2) with every tenth re-run over all three.",
        ),
    ),
    # zero connectivity holds exactly when the resolution is as long and as
    # linear as the vertex count allows
    "homconn": Check(_connectivity(_zero_route_flaw), _CONN_KEYS),
    "cm-froberg": Check(check_cm_froberg, ("vcap", "seed", "count")),
    "knd-complement": Check(_against_oracle(_knd_tables), ("n", "d")),
    "dquot-dshell": Check(check_dquot_dshell, _IDEAL_KEYS),
    "betti-splitting": Check(check_betti_splitting, _IDEAL_KEYS),
    "rsequence": Check(_against_oracle(_rsequence_tables), _IDEAL_KEYS + ("count",)),
    "lin-quot": Check(check_lin_quot, _SEQUENCE_KEYS + ("degree", "gens")),
}

THEOREM_IDS = tuple(REGISTRY)


def run_check(theorem: str, grid: str | None = None) -> VerificationReport:
    """Run one registered check over a grid string (or its defaults).

    A grid key that the check does not read is refused before any
    instance runs.  Each case's body is run, timed and recorded here; an
    error raised while the cases are built, such as a bad grid value,
    ends the run."""
    check = REGISTRY.get(theorem)
    if check is None:
        raise ParameterError(
            f"unknown theorem id {theorem!r}; known ids: {', '.join(THEOREM_IDS)}"
        )
    params = parse_grid(grid)
    unknown = [key for key in params if key not in check.keys]
    if unknown:
        raise ParameterError(
            f"check {theorem!r} reads no grid key {', '.join(map(repr, unknown))}; "
            f"its keys are {', '.join(check.keys)}"
        )
    t0 = time.perf_counter()
    results = [_instance(label, body) for label, body in check.cases(params)]
    total_ms = int(1000 * (time.perf_counter() - t0))
    return VerificationReport(
        theorem=theorem,
        grid=grid if grid else "default",
        results=tuple(results),
        notes=check.notes,
        total_ms=total_ms,
    )
