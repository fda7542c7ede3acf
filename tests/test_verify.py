"""The registered cross-checks and their grid/report plumbing."""

from __future__ import annotations

import inspect
import json
import time
import weakref
from itertools import combinations, islice, permutations
from math import comb
from typing import Mapping

import pytest

from hyperbetti import (
    THEOREM_IDS,
    Hypergraph,
    MonomialIdeal,
    ParameterError,
    SizeBudgetError,
    betti,
    chordal,
    chordal_graph_recognize,
    recognize_adjacency,
    run_check,
    verify,
)
from hyperbetti.betti import BettiTable
from hyperbetti.bitsets import bits_of
from hyperbetti.chordal import build_chordal
from hyperbetti.verify import REGISTRY, parse_grid


def test_registry_lists_twenty_six_checks():
    assert len(THEOREM_IDS) == 26
    assert len(set(THEOREM_IDS)) == 26


def test_parse_grid_forms():
    assert parse_grid(None) == {}
    assert parse_grid("") == {}
    assert parse_grid("n=3..5, d=3") == {"n": (3, 5), "d": (3, 3)}
    with pytest.raises(ParameterError, match="grid entry 'smoke' is not key=value"):
        parse_grid("smoke")


def test_parse_grid_rejects_junk():
    with pytest.raises(ParameterError):
        parse_grid("n=a..b")
    with pytest.raises(ParameterError, match="grid range '3..2' for 'd' is empty"):
        parse_grid("n=3..5, d=3..2")


def test_unknown_theorem_id():
    with pytest.raises(ParameterError):
        run_check("nope")


def test_unknown_grid_keys_are_refused():
    """A key the check does not read stops the run before any instance."""
    with pytest.raises(ParameterError, match="'nn', 'alhpa'; its keys are d, alpha, n"):
        run_check("P", "nn=3,alhpa=9")
    with pytest.raises(ParameterError, match="grid entry 'smoke' is not key=value"):
        run_check("P", "smoke")


@pytest.mark.parametrize(
    ("theorem", "grid", "message"),
    [
        ("to", "n=2..3", "need n >= 3 and alpha >= 1"),
        ("P", "alpha=0..1,n=1..2", "need d >= 2 and 1 <= alpha <= d/2"),
    ],
)
def test_grid_points_outside_a_family_are_skipped(theorem, grid, message):
    """A point outside the closed form's domain skips only its instances."""
    rep = run_check(theorem, grid)
    skipped = [r for r in rep.results if r.status == "skipped"]
    assert skipped and all(r.details == message for r in skipped)
    assert rep.ok and rep.matched


def test_closed_form_check_small_grid():
    rep = run_check("P", "n=3..4,d=3..3,alpha=1..1")
    assert rep.ok
    assert rep.grid == "n=3..4,d=3..3,alpha=1..1"
    summary = rep.summary_line()
    assert "theorem=P" in summary and "mismatch=0" in summary


def test_star_check_small_grid():
    rep = run_check("star", "n=2..3,d=3..3,alpha=1..2")
    assert rep.ok


def test_report_json_is_canonical():
    rep = run_check("knd-complement", "n=3..4,d=2..3")
    obj = rep.to_json_obj()
    text = json.dumps(obj, sort_keys=True)
    assert json.loads(text) == obj
    assert {"theorem", "grid", "summary", "results", "notes"} <= set(obj)
    assert all(r["status"] in {"match", "mismatch", "skipped", "error"} for r in obj["results"])


def test_timings_are_opt_in():
    rep = run_check("b", "n=4..5")
    assert "timings_ms" not in rep.to_json_obj()
    assert "timings_ms" in rep.to_json_obj(include_timings=True)


def test_mismatch_flips_ok():
    """A report with zero mismatches is ok; the flag follows the tally."""
    rep = run_check("u", "n=3..3,d=3..3,alpha=1..1")
    assert rep.ok == (rep.to_json_obj()["summary"]["mismatch"] == 0)
    assert rep.ok


def test_a_table_mismatch_names_each_differing_cell_and_both_tables():
    """Cells are compared on the quotient convention, in (i, j) order, and
    the details quote both tables as given."""
    expected = BettiTable("quotient", 3, {(0, 0): 1, (1, 2): 2, (2, 3): 1})
    actual = BettiTable("quotient", 3, {(0, 0): 1, (1, 2): 3}).as_ideal()
    assert verify._table_diff(expected, actual) == (
        "(i=1,j=2): expected 2 got 3; (i=2,j=3): expected 1 got 0"
        f" || expected table {expected.to_json()} || actual table {actual.to_json()}"
    )
    assert verify._table_diff(expected, expected.as_ideal()) is None


@pytest.mark.parametrize("theorem", ["betti", "u"])
def test_free_vertex_checks_take_a_range_of_n(theorem):
    """``n`` is a range for the free-vertex pool as for every family
    check; a single value ``n=k`` means n = k alone, and members outside
    a family's domain (cycles below three edges) are left out."""
    ranged = run_check(theorem, "n=2..3,count=0")
    labels = [r.instance for r in ranged.results]
    assert ranged.ok and ranged.matched
    assert any(label.startswith("line n=2 d=3 ") for label in labels)
    assert any(label.startswith("cycle n=3 ") for label in labels)
    assert not any(label.startswith(("line n=1 ", "cycle n=2 ", "star n=4 ")) for label in labels)
    single = run_check(theorem, "n=3,count=0")
    # the tight line n=2 d=2alpha is in every pool, whatever the grid
    assert {r.instance.split()[1] for r in single.results} == {"n=2", "n=3"}
    assert not any(r.instance.startswith("line n=2 d=3 ") for r in single.results)


def test_an_instance_over_budget_is_an_error_not_an_abort():
    """A body that raises a package error is recorded against its own
    instance; the rest of the grid still runs and ``ok`` turns false."""
    rep = run_check("P", "n=3..12,alpha=1..1,d=3..3")
    assert len(rep.results) == 30
    assert [r.status for r in rep.results] == ["match"] * 21 + ["error"] * 9
    assert [r.instance.split()[1] for r in rep.results] == [
        f"n={n}" for n in range(3, 13) for _field in range(3)
    ]
    assert {r.details for r in rep.results if r.status == "error"} == {
        "restriction sum over 21 vertices exceeds the vertex budget 20",
        "restriction sum over 23 vertices exceeds the vertex budget 20",
        "restriction sum over 25 vertices exceeds the vertex budget 20",
    }
    assert not rep.ok
    assert rep.summary_line().endswith("mismatch=0 skipped=0 error=9")
    assert rep.to_json_obj()["summary"] == {
        "instances": 30, "match": 21, "mismatch": 0, "skipped": 0, "error": 9,
    }


def test_errors_raised_while_building_cases_end_the_run():
    with pytest.raises(ParameterError, match="grid entry 'nope' is not key=value"):
        run_check("dquot-dshell", "nope")
    with pytest.raises(ParameterError, match="grid key 'i' takes a single value"):
        run_check("l", "i=2..3")


class _KeysRead(Mapping):
    """An empty grid that records every key a check looks up."""

    def __init__(self) -> None:
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        raise KeyError(key)

    def __contains__(self, key) -> bool:
        self.read.add(key)
        return False

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0


@pytest.mark.parametrize("theorem", THEOREM_IDS)
def test_each_check_reads_exactly_the_keys_it_declares(theorem):
    """Building the cases of the default grid, without running a body,
    looks up every declared key and no other: a key the check reads but
    does not declare would be refused, and a declared key it never reads
    would be accepted and ignored."""
    check = REGISTRY[theorem]
    grid = _KeysRead()
    for _label, _body in check.cases(grid):
        pass
    assert sorted(grid.read) == sorted(check.keys)
    assert len(set(check.keys)) == len(check.keys)


def _pair_masks(n: int) -> list[int]:
    return [(1 << a) | (1 << b) for a, b in combinations(range(n), 2)]


def test_graph_orbits_count_the_isomorphism_classes():
    """One representative per unlabelled graph on n vertices (OEIS A000088)."""
    counts = [len(set(verify._graph_orbits(n, _pair_masks(n)))) for n in range(1, 7)]
    assert counts == [1, 2, 4, 11, 34, 156]


@pytest.mark.parametrize("n", range(1, 6))
def test_graph_orbits_give_the_least_relabelled_code(n):
    """Each code's representative is the least code over all n! relabellings."""
    pairs = _pair_masks(n)
    index = {p: k for k, p in enumerate(pairs)}
    relabel = [
        [index[(1 << perm[a]) | (1 << perm[b])] for a, b in combinations(range(n), 2)]
        for perm in permutations(range(n))
    ]
    least = verify._graph_orbits(n, pairs)
    for code in range(1 << len(pairs)):
        images = [
            sum(1 << image[k] for k in range(len(pairs)) if code >> k & 1) for image in relabel
        ]
        assert least[code] == min(images)


def test_graph_orbits_at_six_vertices_are_least_and_closed_under_transpositions():
    """On every code at n = 6, the representative is at most the code, is
    its own representative, and is shared by the code's image under each
    adjacent transposition, found by relabelling the pairs."""
    n = 6
    pairs = _pair_masks(n)
    index = {p: k for k, p in enumerate(pairs)}
    swaps = []
    for v in range(n - 1):
        perm = list(range(n))
        perm[v], perm[v + 1] = v + 1, v
        swaps.append([index[(1 << perm[a]) | (1 << perm[b])] for a, b in combinations(range(n), 2)])
    least = verify._graph_orbits(n, pairs)
    for code in range(1 << len(pairs)):
        assert least[code] <= code
        assert least[least[code]] == least[code]
        bits = [k for k in range(len(pairs)) if code >> k & 1]
        for swap in swaps:
            assert least[sum(1 << swap[k] for k in bits)] == least[code]


def _carried(body) -> dict:
    """The values a case's body carries, by parameter name."""
    return {name: p.default for name, p in inspect.signature(body).parameters.items()}


def test_graph_corollary_labels_and_edges_at_seven_vertices(monkeypatch):
    """No digest covers n = 7: on a strided sample of its 2^21 codes, a
    case's label lists its graph's edges, the edges are the pairs of the
    code's bits, and the neighbour masks the case carries are the graph's,
    with the recognizer's report on them.  The orbits are stubbed, since
    they are not read here and take most of a full walk; each sampled
    case's edges, read off its body, are built into a ``Hypergraph``."""
    monkeypatch.setattr(verify, "_graph_orbits", lambda n, pairs: [0] * (1 << len(pairs)))
    pairs = _pair_masks(7)
    cases = REGISTRY["graph-corollary"].cases({"n": (7, 7)})
    stride = 4099
    sample = 0
    for k, (label, body) in enumerate(islice(cases, 0, None, stride)):
        code = k * stride
        carried = _carried(body)
        n = carried["n"]
        g = Hypergraph(n, frozenset(carried["edges"]))
        assert n == 7
        assert g.edges == frozenset(pairs[bit] for bit in bits_of(code))
        assert label == f"graph n=7 edges={verify._edges_label(g)}"
        assert carried["adj"] == chordal._adjacency(g)
        assert recognize_adjacency(carried["adj"]) == chordal_graph_recognize(g)
        sample += 1
    assert sample == -(-(1 << 21) // stride)


@pytest.mark.parametrize("n", range(1, 7))
def test_graph_corollary_reads_each_adjacency_off_its_half_tables(monkeypatch, n):
    """Every code on at most six vertices (n = 7 is sampled with the
    labels): the neighbour masks a case carries, or'ed from the two half
    tables, are those of the code's graph, and the recognizer reports on
    them what it reports on the graph.  The orbits are stubbed, as they
    are not read here."""
    monkeypatch.setattr(verify, "_graph_orbits", lambda n, pairs: [0] * (1 << len(pairs)))
    pairs = _pair_masks(n)
    cases = REGISTRY["graph-corollary"].cases({"n": (n, n)})
    for code, (_label, body) in enumerate(cases):
        g = Hypergraph(n, frozenset(pairs[bit] for bit in bits_of(code)))
        adj = _carried(body)["adj"]
        assert adj == chordal._adjacency(g)
        assert recognize_adjacency(adj) == chordal_graph_recognize(g)
    assert code == (1 << len(pairs)) - 1


def test_graph_corollary_memo_is_checked_against_a_recomputation(monkeypatch):
    """With every graph sent to one class, the memo answers for graphs it
    does not describe; the every-97th recomputation must report it."""
    assert run_check("graph-corollary", "n=4..5").ok
    monkeypatch.setattr(verify, "_graph_orbits", lambda n, pairs: [0] * (1 << len(pairs)))
    rep = run_check("graph-corollary", "n=4..5")
    assert not rep.ok
    flagged = [r for r in rep.results if r.status == "mismatch"]
    assert flagged and all(
        r.details.startswith("memo self-check: graph edges=")
        and r.details.endswith("disagrees with the memo of its isomorphism class, least code 0")
        for r in flagged
    )
    assert rep.notes == REGISTRY["graph-corollary"].notes


def test_graph_corollary_builds_an_ideal_only_where_one_is_read(monkeypatch):
    """The first graph of each class fills the memo and every audited
    repeat recomputes it; no other graph builds its nonadjacency ideal."""
    classes = repeats = 0
    for n in (4, 5):
        least = verify._graph_orbits(n, _pair_masks(n))
        classes += len(set(least))
        repeats += len(least) - len(set(least))
    built = []

    def counted(n, gens):
        built.append(gens)
        return MonomialIdeal(n, gens)

    monkeypatch.setattr(verify, "MonomialIdeal", counted)
    rep = run_check("graph-corollary", "n=4..5")
    assert rep.ok and len(rep.results) == 64 + 1024
    assert 0 < len(built) <= classes + repeats // verify._MEMO_AUDIT_STRIDE


def test_graph_corollary_builds_a_graph_only_where_an_ideal_is_read(monkeypatch):
    """The recognizer reads each graph's neighbour masks off the half
    tables, so a ``Hypergraph`` is built only for an ideal (or for a graph
    quoted in a mismatch, and this run has none)."""
    graphs, ideals = [], []

    def counted_graph(*args):
        graphs.append(args)
        return Hypergraph(*args)

    def counted_ideal(*args):
        ideals.append(args)
        return MonomialIdeal(*args)

    monkeypatch.setattr(verify, "Hypergraph", counted_graph)
    monkeypatch.setattr(verify, "MonomialIdeal", counted_ideal)
    rep = run_check("graph-corollary", "n=4..5")
    assert rep.ok and len(rep.results) == 64 + 1024
    assert 0 < len(graphs) <= len(ideals)


# The first showcase ideal abc, cde, bef, adf on six variables has the
# 2-quotient ordering abc, adf, bef, cde: its first colon ideal is (bc),
# and the prefix before its last step is (abc, adf, bef).
@pytest.mark.parametrize(
    "gens, changed, details",
    [
        (
            (0b000110,),
            {(1, 2): 2},
            "total-sum identity fails; graded identity fails"
            " (colon totals ((2, 0, 0), (2, 1, 0), (3, 2, 0)))",
        ),
        (
            (0b000110,),
            {(1, 2): 0, (1, 3): 1},
            "graded identity fails (colon totals ((1, 0, 0), (2, 1, 0), (3, 2, 0)))",
        ),
        (
            (0b000111, 0b101001, 0b110010),
            {(2, 6): 1},
            "degree disjointness fails (colon totals ((1, 0, 0), (2, 1, 0), (3, 2, 0)))",
        ),
    ],
)
def test_betti_splitting_reports_the_identity_a_wrong_table_breaks(
    monkeypatch, gens, changed, details
):
    """An oracle that is off by one on one step's table makes that
    showcase instance a mismatch naming the identity it breaks, with the
    colon totals; every other instance still matches."""
    target = MonomialIdeal(6, gens)
    oracle = verify.ideal_betti

    def off_by_one(ideal, fld):
        table = oracle(ideal, fld)
        if ideal != target:
            return table
        return BettiTable(table.convention, table.n, {**table.entries, **changed})

    monkeypatch.setattr(verify, "ideal_betti", off_by_one)
    rep = run_check("betti-splitting", "n=2..2")
    assert [(r.instance, r.status, r.details) for r in rep.results] == [
        ("showcase gens=abc,cde,bef,adf d=2", "mismatch", details),
        ("showcase gens=abc,cde,cfg,chi d=2", "match", ""),
    ]



@pytest.mark.parametrize(
    "theorem, d, wrong, details",
    [
        (
            "conn-depth",
            2,
            lambda con: con + 1,
            "direct connectivity 2 != strand route 1 (pd=2 depth=2 strand=2)",
        ),
        (
            "homconn",
            2,
            lambda con: 0,
            "connectivity 0 but resolution-shape route says zero=False "
            "(pd=2 depth=2 strand=2)",
        ),
        (
            "homconn",
            3,
            lambda con: 1,
            "connectivity 1 but resolution-shape route says zero=True "
            "(pd=5 depth=2 strand=5)",
        ),
    ],
    ids=["conn-depth", "homconn-forced-zero", "homconn-forced-one"],
)
def test_connectivity_checks_report_a_wrong_connectivity(monkeypatch, theorem, d, wrong, details):
    """A removal scan that answers wrongly makes the line a mismatch naming
    the comparison and the table's shape; a complete hypergraph is still
    skipped."""
    scan = verify._removal_scan
    monkeypatch.setattr(verify, "_removal_scan", lambda h, fld, d: wrong(scan(h, fld, d)))
    rep = run_check(theorem, f"d={d}..{d},alpha=1..1,n=3..3,count=0")
    first = rep.results[0]
    assert (first.instance, first.status, first.details) == (
        f"line n=3 d={d} alpha=1 field=gf2", "mismatch", details
    )
    assert {r.details for r in rep.results if r.status == "skipped"} <= {
        "complete hypergraph: connectivity is infinite, theorem does not apply"
    }


@pytest.mark.parametrize("theorem", ["conn-depth", "homconn"])
def test_each_connectivity_instance_builds_one_clique_table(monkeypatch, theorem):
    """The strand route reads the one clique table its case builds, and the
    removal scan builds none: no table comes through ``betti.connectivity``."""
    calls = []
    table = betti.clique_ideal_betti

    def counted(*args, **kwargs):
        calls.append(args)
        return table(*args, **kwargs)

    monkeypatch.setattr(verify, "clique_ideal_betti", counted)
    monkeypatch.setattr(betti, "clique_ideal_betti", counted)
    rep = run_check(theorem, "d=2..3,alpha=1..1,n=3..4,count=5")
    computed = [r for r in rep.results if r.status != "skipped"]
    assert computed and {r.status for r in computed} == {"match"}
    assert len(calls) == len(computed)


@pytest.mark.parametrize(
    "theorem, kept",
    [("hypergraph", 5807), ("diameter", 52913), ("AdRd", 6713), ("lin-quot", 1281),
     ("Td-shellable", None)],
)
def test_the_build_key_keeps_what_building_keeps(monkeypatch, theorem, kept):
    """On each default sequence pool, deduplicating by the key read from
    the steps keeps the same sequences, in the same order, as building
    every sequence and keeping the first of each (vertex count, edge
    set).  The stride then picks among them, and only the sequences it
    keeps are built, in its order: the builds are drained from the
    generator to see them."""
    pools, calls, strides, built = [], [], [], []
    distinct_builds, stride = verify._distinct_builds, verify._stride
    build = verify.build_from_pieces

    def recorded(pool, cap):
        pools.append(list(pool))
        strides.clear()
        built.clear()
        out = list(distinct_builds(pools[-1], cap))
        calls.append((list(strides), list(built), out))
        return iter(out)

    def strided(items, cap):
        kept = stride(items, cap)
        strides.append((list(items), list(kept)))
        return kept

    def counted(d, pieces):
        built.append((d, pieces))
        return build(d, pieces)

    monkeypatch.setattr(verify, "_distinct_builds", recorded)
    monkeypatch.setattr(verify, "_stride", strided)
    monkeypatch.setattr(verify, "build_from_pieces", counted)
    next(iter(REGISTRY[theorem].cases({})))
    [pool], [([(distinct, chosen)], made, out)] = pools, calls
    seen, by_build = set(), []
    for label, seq in pool:
        h = build_chordal(seq)
        if (h.n_vertices, h.edges) not in seen:
            seen.add((h.n_vertices, h.edges))
            by_build.append(label)
    assert [label for label, *_ in distinct] == by_build
    assert kept is None or len(by_build) == kept
    assert made == [(d, pieces) for _, d, pieces in chosen]
    assert [label for label, *_ in out] == [label for label, *_ in chosen]


def test_a_sequence_pool_holds_one_build_at_a_time():
    """Once the next case is drawn and the first is dropped, nothing holds
    the first case's hypergraph any more."""
    cases = iter(REGISTRY["AdRd"].cases({}))
    _label, body = next(cases)
    first = weakref.ref(body.__defaults__[0])
    assert isinstance(first(), Hypergraph)
    next(cases)
    del body
    assert first() is None


def test_instance_results_have_no_instance_dict():
    assert not hasattr(verify.InstanceResult("x", "match"), "__dict__")


@pytest.mark.parametrize(
    "theorem, grid",
    [("AdRd", ""), ("hypergraph", ""), ("Td-shellable", ""), ("diameter", "count2=0"),
     ("lin-quot", ""), ("rsequence", "")],
)
def test_a_zero_count_keeps_no_strided_instance(theorem, grid):
    """``count=0`` strides a pool down to nothing, as it draws no random
    trial; a negative count is refused."""
    rep = run_check(theorem, ",".join(filter(None, ["count=0", grid])))
    assert rep.results == ()
    for key in ("count", "count2") if theorem == "diameter" else ("count",):
        with pytest.raises(ParameterError, match=f"grid key '{key}' is a count and cannot be "
                           "negative, got -1"):
            run_check(theorem, f"{key}=-1")


@pytest.mark.parametrize("theorem", ["betti", "free-split", "conn-depth", "cm-froberg"])
def test_a_negative_trial_count_is_refused(theorem):
    with pytest.raises(ParameterError, match="grid key 'count' is a count and cannot be"):
        run_check(theorem, "count=-1")


def test_graph_corollary_admits_n_7_and_refuses_n_8(monkeypatch):
    """A grid reaching 2^C(8,2) labelled graphs is refused before any is
    listed; n = 7, with 2^21, is within the face budget (its classes are
    not computed here)."""
    with pytest.raises(SizeBudgetError, match="at n=8 would list"):
        run_check("graph-corollary", "n=7..8")
    monkeypatch.setattr(verify, "_graph_orbits", lambda n, pairs: [0] * (1 << len(pairs)))
    assert next(iter(REGISTRY["graph-corollary"].cases({"n": (7, 7)})))[0] == "graph n=7 edges="


@pytest.mark.parametrize(
    "theorem, grid", [("l", "n=1..8,i=6"), ("k", "n=3..8,i=6"), ("l", "n=5..9,i=4")]
)
def test_a_counting_grid_is_priced_by_the_subsets_it_walks(monkeypatch, theorem, grid):
    """The enumerations of a counting grid walk C(n, i) subsets per
    partition of i: a face budget of exactly that many admits the grid,
    and one less refuses it, naming the walk."""
    (lo, hi), (imax, _) = parse_grid(grid)["n"], parse_grid(grid)["i"]
    walk = sum(
        comb(n, sum(part))
        for n in range(lo, hi + 1)
        for i in range(1, min(imax, n) + 1)
        for part in verify._partitions(i)
    )
    monkeypatch.setattr(verify, "FACE_BUDGET", walk)
    assert run_check(theorem, grid).ok
    monkeypatch.setattr(verify, "FACE_BUDGET", walk - 1)
    with pytest.raises(SizeBudgetError, match=f"walk {walk} subsets and more, over the face "
                                              f"budget {walk - 1}$"):
        run_check(theorem, grid)


@pytest.mark.parametrize("grid", ["", "n=4..6,degree=3,gens=2", "n=3,degree=0..4,gens=9"])
def test_the_ideal_pool_is_priced_by_the_ideals_it_holds(monkeypatch, grid):
    """A listing budget of exactly the pool's size admits it, and one less
    refuses it, naming the size, before any ideal is built."""
    pool = verify._ideal_pool(parse_grid(grid), 5, 4)
    monkeypatch.setattr(verify, "MAX_LISTED_EDGES", len(pool))
    assert verify._ideal_pool(parse_grid(grid), 5, 4) == pool
    monkeypatch.setattr(verify, "MAX_LISTED_EDGES", len(pool) - 1)
    monkeypatch.setattr(verify, "MonomialIdeal", lambda *args: pytest.fail("an ideal was built"))
    with pytest.raises(SizeBudgetError, match=f"holds {len(pool)} ideals and more, over the "
                                              f"listing budget {len(pool) - 1}$"):
        verify._ideal_pool(parse_grid(grid), 5, 4)


@pytest.mark.parametrize(
    "grid", ["n=2..100000000,degree=200000000", "n=2..100000,gens=0", "n=2..100000000,degree=-3..-1"]
)
def test_an_ideal_grid_that_lists_nothing_is_not_walked(monkeypatch, grid):
    """No count reaches 1, or no n reaches a degree the grid names: the
    pool is empty, no (n, degree) pair is priced or listed and no span is
    walked value by value, so the check reports no instance at once."""
    spans = []
    span = verify._span

    def counted(*args):
        spans.append(args)
        if len(spans) > 4:  # the n and degree spans of each of two pools
            pytest.fail("a span was walked value by value")
        return span(*args)

    monkeypatch.setattr(verify, "_span", counted)
    monkeypatch.setattr(verify, "comb", lambda *args: pytest.fail("a shape was priced"))
    monkeypatch.setattr(verify, "combinations", lambda *args: pytest.fail("a shape was listed"))
    assert verify._ideal_pool(parse_grid(grid), 5, 4) == []
    assert run_check("dquot-dshell", grid).results == ()


def test_a_sunflower_span_with_fewer_than_three_petals_is_not_walked():
    """A sunflower has at least three petals, so at gens=2 the rsequence
    check lists none of any degree: a span of 10^8 degrees reports at
    once what degrees 2..4 report."""
    start = time.perf_counter()
    wide = run_check("rsequence", "degree=2..100000000,gens=2")
    assert time.perf_counter() - start < 1
    assert wide.results == run_check("rsequence", "degree=2..4,gens=2").results
    assert wide.results


def test_a_negative_degree_adds_no_ideal_to_the_pool():
    """No ideal has generators of negative degree, as none has generators
    of degree above n."""
    assert verify._ideal_pool(parse_grid("degree=-2..2"), 5, 4) == verify._ideal_pool(
        parse_grid("degree=0..2"), 5, 4
    )


@pytest.mark.parametrize(
    "theorem, grid",
    [("P", "n=2..3"), ("free-split", "count=2"), ("conn-depth", "count=12"),
     ("cm-froberg", "count=2")],
)
def test_each_field_case_runs_over_the_field_it_names(monkeypatch, theorem, grid):
    """Each case of a field sweep hands its body the field its label
    names: the route the body runs first is stubbed to record its field."""
    seen = []

    def stub(*args, **kwargs):
        seen.append(args[-1])
        raise verify.SkipInstance("stub")

    for name in ("edge_restriction_sum", "edge_ideal_betti", "clique_ideal_betti",
                 "froberg_cm_check"):
        monkeypatch.setattr(verify, name, stub)
    report = run_check(theorem, grid)
    named = [r.instance.rsplit(" field=", 1)[1] for r in report.results if r.details == "stub"]
    assert len(named) == len(seen) > 3
    assert named == [fld.label for fld in seen]
    assert len(set(named)) == 3
