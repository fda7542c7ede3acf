"""Betti tables: the restriction-homology route against every other route."""

from __future__ import annotations

import random
import re
import time
from collections import Counter
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hyperbetti import (
    GF2,
    GF3,
    QQ,
    BettiTable,
    Hypergraph,
    MonomialIdeal,
    PreconditionError,
    SimplicialComplex,
    SizeBudgetError,
    clique_complex,
    clique_ideal_betti,
    connectivity,
    cycle_betti_closed_form,
    cycle_betti_degenerate,
    edge_ideal_betti,
    edge_restriction_sum,
    hochster_betti,
    ideal_betti,
    independence_complex,
    is_cohen_macaulay,
    knd_complement_betti,
    line_betti_closed_form,
    line_betti_degenerate,
    make_complete,
    make_cycle,
    make_line,
    make_multipartite,
    make_star_overlap,
    minimal_nonfaces,
    reduced_homology_dims,
    star_betti_closed_form,
    taylor_betti_free_vertex,
)
from hyperbetti import betti
from hyperbetti.betti import (
    BIG_FACE_CAP,
    CLOSURE_MAX_NONFACES,
    VERTEX_BUDGET,
    _count_by_big_faces,
    _dims_direct,
    _dims_nerve,
    _RestrictionOracle,
)
from hyperbetti.bitsets import contains, k_submasks, mask_of, min_antichain, submasks
from hyperbetti.complexes import FACE_BUDGET, grow_faces, restrict
from hyperbetti.hypergraph import non_edges
from hyperbetti.ideal import sr_complex


# Reference tables frozen from the restriction-homology sum over the
# rationals; every closed-form route below must land on them exactly.
LINE_3_3_1 = {(0, 0): 1, (1, 3): 3, (2, 5): 2, (2, 6): 1, (3, 7): 1}
CYCLE_4_3_1 = {(0, 0): 1, (1, 3): 4, (2, 5): 4, (2, 6): 2, (3, 7): 4, (4, 8): 1}
STAR_3_3_2 = {(0, 0): 1, (1, 3): 3, (2, 4): 3, (3, 5): 1}
LINE_4_2_1 = {(0, 0): 1, (1, 2): 4, (2, 3): 3, (2, 4): 1, (3, 5): 1}
KND_5_3 = {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}


def test_line_restriction_sum_matches_frozen_table():
    assert edge_ideal_betti(make_line(3, 3, 1), QQ).entries == LINE_3_3_1


def test_line_closed_form_matches_frozen_table():
    assert line_betti_closed_form(3, 3, 1).entries == LINE_3_3_1


def test_cycle_both_routes_match_frozen_table():
    assert edge_ideal_betti(make_cycle(4, 3, 1), QQ).entries == CYCLE_4_3_1
    assert cycle_betti_closed_form(4, 3, 1).entries == CYCLE_4_3_1


def test_star_both_routes_match_frozen_table():
    assert edge_ideal_betti(make_star_overlap(3, 3, 2), QQ).entries == STAR_3_3_2
    assert star_betti_closed_form(3, 3, 2).entries == STAR_3_3_2


def test_degenerate_line_is_the_graph_path_case():
    """Edge size exactly twice the overlap routes through its own formula."""
    assert edge_ideal_betti(make_line(4, 2, 1), QQ).entries == LINE_4_2_1
    assert line_betti_degenerate(4, 1).entries == LINE_4_2_1


def test_complete_complement_closed_form():
    """Non-edge ideal of the complete 3-uniform hypergraph on 5 vertices."""
    assert knd_complement_betti(5, 3).entries == KND_5_3


def test_table_is_field_independent_on_small_lines():
    h = make_line(3, 3, 1)
    assert (
        edge_ideal_betti(h, QQ).entries
        == edge_ideal_betti(h, GF2).entries
        == edge_ideal_betti(h, GF3).entries
    )


def test_taylor_bound_is_exact_for_generic_overlaps():
    """Generator supports with a free vertex each resolve without cancellation."""
    h = Hypergraph(4, frozenset({0b0111, 0b1110}))
    assert taylor_betti_free_vertex(h).entries == edge_ideal_betti(h, QQ).entries


def test_characteristic_can_change_the_table():
    """An edge set carving out a closed surface feels the coefficient field."""
    from hyperbetti import SimplicialComplex, minimal_nonfaces

    rp2 = [
        [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
        [1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5],
    ]
    surface = SimplicialComplex.from_faces(6, rp2)
    h = Hypergraph(6, minimal_nonfaces(surface))
    assert independence_complex(h) == surface
    over_q = edge_ideal_betti(h, QQ)
    over_2 = edge_ideal_betti(h, GF2)
    assert over_q.entries != over_2.entries
    assert over_2.beta(3, 6) == over_q.beta(3, 6) + 1


def test_vertex_budget_is_enforced():
    """cycle(5,2,1) has no free vertex, so its one restriction sum runs
    over all five vertices."""
    with pytest.raises(SizeBudgetError, match="restriction sum over 5 vertices"):
        edge_ideal_betti(make_cycle(5, 2, 1), QQ, vertex_budget=4)


def test_a_nerve_past_the_face_budget_is_refused():
    """The 23 windows of 10 consecutive vertices mod 30 form one component
    with too many faces to grow and a nerve of 2^23 faces: refused at
    once, naming the budget."""
    windows = [sum(1 << (i + k) % 30 for k in range(10)) for i in range(23)]
    with pytest.raises(
        SizeBudgetError,
        match="^restriction nerve size 8388608 exceeds the face budget 4194304$",
    ):
        _RestrictionOracle(windows, GF2).dims_for((1 << 30) - 1)


def test_quotient_ideal_conventions_shift_by_one():
    t = edge_ideal_betti(make_line(3, 3, 1), QQ)
    ideal_view = t.as_ideal()
    assert ideal_view.beta(0, 3) == t.beta(1, 3)
    assert ideal_view.as_quotient().entries == t.entries


def test_table_json_and_csv_roundtrip():
    t = edge_ideal_betti(make_line(2, 3, 1), QQ)
    assert BettiTable.from_json(t.to_json()).entries == t.entries
    lines = t.to_csv().strip().splitlines()
    assert lines[0] == "i,j,beta"
    assert len(lines) == len(t.entries) + 1


def test_projective_dimension_and_regularity():
    t = edge_ideal_betti(make_line(3, 3, 1), QQ)
    assert t.projective_dimension == 3
    assert t.regularity == 4


def test_connectivity_of_near_complete():
    """Dropping one edge from the complete hypergraph keeps connectivity high."""
    h = make_complete(5, 3)
    edges = set(h.edges)
    edges.discard(mask_of([0, 1, 2]))
    assert connectivity(Hypergraph(5, frozenset(edges)), QQ, 3) == 2


def test_connectivity_none_for_complete():
    assert connectivity(make_complete(4, 3), QQ, 3) is None


def test_connectivity_refuses_too_many_non_edges_to_list():
    """The edgeless hypergraph on 40 vertices has C(40, 10), about 8.5e8,
    non-edge 10-sets: they are refused before any is listed."""
    started = time.perf_counter()
    with pytest.raises(SizeBudgetError, match="more than 262144 non-edge 10-sets to list"):
        connectivity(Hypergraph(40, frozenset()), GF2, 10)
    assert time.perf_counter() - started < 1.0


def test_conn_depth_equivalence_on_a_line():
    """Connectivity is n - d + 1 minus the linear strand; here it is zero,
    and depth is d - 1 with a linear strand as long as the resolution."""
    h = make_line(3, 3, 1)
    table = clique_ideal_betti(h, 3, QQ)
    con = connectivity(h, QQ, 3)
    assert con == h.num_vertices - 3 + 1 - table.linear_strand(3) == 0
    assert table.depth == 3 - 1
    assert table.linear_strand(3) == table.projective_dimension


def test_cohen_macaulay_examples():
    """A simplex boundary is CM; two far-apart edges are not."""
    from hyperbetti import SimplicialComplex

    sphere = SimplicialComplex.from_faces(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    assert is_cohen_macaulay(sphere, QQ)
    broken = SimplicialComplex.from_faces(4, [[0, 1], [2, 3]])
    assert not is_cohen_macaulay(broken, QQ)


def test_resolution_stats_depth():
    t = edge_ideal_betti(make_line(3, 3, 1), QQ)
    assert t.projective_dimension == 3
    assert t.depth == 7 - 3


@pytest.mark.parametrize(
    "table, d, strand, linear",
    [
        # three triples in a line, overlap 1: the strand stops at step 1
        (edge_ideal_betti(make_line(3, 3, 1), QQ), 3, 1, False),
        # the edge ideal of a 5-cycle: linear to step 2, then beta(3, 5)
        (edge_ideal_betti(make_cycle(5, 2, 1), QQ), 2, 2, False),
        # the complete graph's nonface ideal is zero: nothing past step 0
        (BettiTable("quotient", 4, {(0, 0): 1}), 2, 0, True),
        # the ideal (x, y, z) of all three variables: linear throughout
        (ideal_betti(MonomialIdeal(3, (1, 2, 4)), QQ), 1, 3, True),
    ],
)
def test_resolution_shape_readings_agree_on_both_conventions(table, d, strand, linear):
    """depth, linear_strand and is_linear read the same off a table and
    off its ideal form."""
    for form in (table, table.as_ideal(), table.as_ideal().as_quotient()):
        assert form.depth == table.n - table.as_quotient().projective_dimension
        assert form.linear_strand(d) == strand
        assert form.is_linear(d) is linear


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 7), st.data())
def test_restriction_routes_agree_subset_by_subset(n, data):
    """Grown faces and the nonface nerve give the restriction homology of
    the facet-based induced subcomplex wherever the cone filters let a
    subset through, whichever route the measured cost rule would pick."""
    faces = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    c = SimplicialComplex.from_faces(n, faces)
    for fld in (GF2, GF3, QQ):
        oracle = _RestrictionOracle(minimal_nonfaces(c), fld)
        for vmask in submasks(c.vertices):
            relevant = [M for M in oracle.mnf if contains(vmask, M)]
            covered = 0
            for M in relevant:
                covered |= M
            if not relevant or covered != vmask:
                continue
            m = vmask.bit_count()
            expected = reduced_homology_dims(restrict(c, vmask), fld)
            assert _dims_direct(vmask, relevant, FACE_BUDGET, fld) == expected
            assert _dims_nerve(vmask, m, relevant, fld) == expected
            assert oracle.dims_for(vmask) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.data())
def test_each_presentation_hands_the_sum_its_minimal_nonfaces(n, data):
    """The edge, clique and ideal routes pass their nonfaces straight to
    the restriction sum; each must give the table of the complex whose
    own nonfaces are dualized from its facets, on the full vertex range
    or a smaller ground set."""
    full = (1 << n) - 1
    ground = data.draw(st.one_of(st.just(full), st.integers(0, full)), label="vertices")
    present = [m for m in submasks(ground) if m.bit_count() >= 2]
    drawn = data.draw(st.lists(st.sampled_from(present), max_size=6)) if present else []
    h = Hypergraph(n, min_antichain(drawn), ground)
    d = data.draw(st.integers(2, 3), label="d")
    subsets = list(k_submasks(ground, d))
    picked = data.draw(st.lists(st.sampled_from(subsets), max_size=8)) if subsets else []
    u = Hypergraph(n, frozenset(picked), ground)
    gens = data.draw(st.lists(st.integers(1, full), max_size=5), label="generators")
    ideal = MonomialIdeal(n, tuple(min_antichain(gens)))
    assert minimal_nonfaces(clique_complex(u, d)) == set(non_edges(u, d))
    for fld in (GF2, GF3, QQ):
        assert edge_ideal_betti(h, fld) == hochster_betti(independence_complex(h), fld)
        assert clique_ideal_betti(u, d, fld) == hochster_betti(clique_complex(u, d), fld)
        assert ideal_betti(ideal, fld) == hochster_betti(sr_complex(ideal), fld)


def test_ideal_betti_refuses_a_non_minimal_generating_set():
    with pytest.raises(PreconditionError, match="minimal generating set"):
        ideal_betti(MonomialIdeal(3, (0b011, 0b111)), GF2)


# The 4-cycle's independence complex: facets {0,2} and {1,3}, minimal
# nonfaces the four edges of the cycle.
SQUARE = SimplicialComplex(4, frozenset({0b0101, 0b1010}))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2), st.data())
def test_hochster_betti_equals_the_facet_based_sum(k, cones, data):
    """The table of a complex whose faces all hold the same cone vertices,
    so its minimal nonfaces miss them, against the sum over every subset
    of the ground set of the homology of the induced subcomplex, each
    built from the facets."""
    n = k + cones
    apex = mask_of(range(k, n))
    faces = data.draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=6))
    c = SimplicialComplex.from_faces(n, [f | apex for f in faces])
    for fld in (GF2, GF3, QQ):
        entries: dict[tuple[int, int], int] = {}
        for vmask in submasks(c.vertices):
            j = vmask.bit_count()
            for degree, dim in reduced_homology_dims(restrict(c, vmask), fld).items():
                key = (j - 1 - degree, j)
                entries[key] = entries.get(key, 0) + dim
        assert hochster_betti(c, fld) == BettiTable("quotient", n, entries)


@pytest.mark.parametrize("n, a, d", [(12, 8, 2), (15, 7, 3), (16, 8, 2), (20, 7, 3)])
def test_the_sum_runs_over_the_support_of_the_non_edges(n, a, d):
    """Every d-set except those inside the first a vertices is an edge, so
    the non-edges live on a vertices and every other vertex is a cone
    apex: the table is that of all d-subsets of an a-set, on n variables."""
    inside = (1 << a) - 1
    edges = frozenset(
        m for m in map(mask_of, combinations(range(n), d)) if not contains(inside, m)
    )
    h = Hypergraph(n, edges)
    for fld in (GF2, GF3, QQ):
        table = clique_ideal_betti(h, d, fld)
        assert table.n == n
        assert table.entries == knd_complement_betti(a, d).entries


def test_the_closure_answers_a_small_support_with_no_skeleton():
    """K(3,10) and two isolated vertices on the edge route: 30 edges, more
    than the closure takes on their count alone, and 1,017 independent
    sets of size >= 2, too many for the skeleton strategy.  The 13-vertex
    support lets the union closure answer anyway.  Complete bipartite
    edge ideals have a linear resolution, with beta(i, i+1) the sum of
    C(3, p) C(10, q) over p + q = i + 1, p, q >= 1."""
    edges = frozenset(mask_of([i, 3 + j]) for i in range(3) for j in range(10))
    expected = {(0, 0): 1}
    for j in range(2, 14):
        expected[(j - 1, j)] = sum(comb(3, p) * comb(10, j - p) for p in range(1, j))
    table = edge_ideal_betti(Hypergraph(15, edges), GF2)
    assert table.n == 15
    assert table.entries == expected


def test_restriction_sum_on_a_smaller_ground_set():
    """A complex whose ground set leaves out an ambient vertex gives the
    table of the same complex on the smaller ambient range."""
    c = SimplicialComplex(5, frozenset({0b00101, 0b01010}), 0b01111)
    assert hochster_betti(c, GF2) == hochster_betti(SQUARE, GF2)


def test_the_edge_route_reaches_the_paper_lines():
    """31 vertices: past the default vertex budget, but the sum reads only
    the ten edges and never builds the independence complex."""
    table = edge_ideal_betti(make_line(10, 4, 1), GF2, vertex_budget=40)
    assert table == line_betti_closed_form(10, 4, 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(7, 9), st.integers(2, 3), st.data())
def test_skeleton_sweep_equals_the_per_subset_sum(n, d, data):
    """The grouped count of the skeleton sweep gives the table of the
    per-subset restriction sum, which answers each subset by its
    components, on full and gapped ground sets."""
    full = (1 << n) - 1
    ground = full ^ data.draw(st.sampled_from([0] + [1 << i for i in range(n)]), label="gap")
    subsets = list(k_submasks(ground, d))
    most = max(0, len(subsets) - CLOSURE_MAX_NONFACES - 1)  # more non-edges than that
    picked = data.draw(st.lists(st.sampled_from(subsets), max_size=most))
    h = Hypergraph(n, frozenset(picked), ground)
    nonfaces = non_edges(h, d)
    assume(len(nonfaces) > CLOSURE_MAX_NONFACES)
    support = 0
    for M in nonfaces:
        support |= M
    assume(grow_faces(support, nonfaces, d, BIG_FACE_CAP) is not None)  # the sweep runs
    for fld in (GF2, GF3, QQ):
        oracle = _RestrictionOracle(nonfaces, fld)
        entries: dict[tuple[int, int], int] = {}
        for vmask in submasks(ground):
            j = vmask.bit_count()
            for degree, dim in oracle.dims_for(vmask).items():
                key = (j - 1 - degree, j)
                entries[key] = entries.get(key, 0) + dim
        assert clique_ideal_betti(h, d, fld) == BettiTable("quotient", ground.bit_count(), entries)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, (1 << 9) - 1), st.lists(st.integers(1, (1 << 9) - 1), max_size=7))
@example(0b110111011, [0b000000011, 0b000011010, 0b110000010])  # gaps, free vertices
@example(0b1111, [0b1111])  # one big face is the whole ground set
@example(0b101101, [])  # no big faces
@example(0, [])
def test_big_face_counts_match_a_brute_force_tally(ground, faces):
    """Subsets counted by size and the big faces they contain."""
    big = sorted({f & ground for f in faces})
    expected = Counter(
        (v.bit_count(), tuple(f for f in big if f & ~v == 0)) for v in submasks(ground)
    )
    counts = Counter(
        {(m, S): c for S, sizes in _count_by_big_faces(ground, big, 1 << 9)[1].items()
         for m, c in enumerate(sizes) if c}
    )
    assert counts == expected
    assert sum(counts.values()) == 1 << ground.bit_count()


def test_the_skeleton_sweep_answers_no_subset_one_by_one(monkeypatch, cold_memos):
    """line(5,4,1) on the clique route is a 16-vertex skeleton sweep: it
    must group its 2^16 subsets, and rank each family of big faces once."""
    dims_calls = []
    families: Counter[tuple[int, ...]] = Counter()
    dims_for = _RestrictionOracle.dims_for
    ranks_by_size = betti.ranks_by_size

    def counted_dims_for(self, vmask):
        dims_calls.append(vmask)
        return dims_for(self, vmask)

    def counted_ranks(faces_by_size, fld):
        families[tuple(sorted(f for fs in faces_by_size.values() for f in fs))] += 1
        return ranks_by_size(faces_by_size, fld)

    monkeypatch.setattr(_RestrictionOracle, "dims_for", counted_dims_for)
    monkeypatch.setattr(betti, "ranks_by_size", counted_ranks)
    table = clique_ideal_betti(make_line(5, 4, 1), 4, GF2)
    assert table.n == 16 and table.beta(0, 0) == 1
    assert not dims_calls
    assert families and max(families.values()) == 1


@pytest.mark.parametrize("fld", [GF2, GF3, QQ], ids=["gf2", "gf3", "q"])
def test_the_clique_route_reaches_line_11_3_1(fld):
    """The clique route of line(11,3,1) has 23 vertices and 1,760 non-edge
    triples; its skeleton-sweep search has 236,196 leaves, inside the plan
    budget.  The faces are every set of at most two vertices and the 11
    edges, so the table satisfies the K-polynomial identity
    sum (-1)^i beta_ij t^j = sum over faces F of t^|F| (1-t)^(n-|F|)."""
    n = 23
    table = clique_ideal_betti(make_line(11, 3, 1), 3, fld, vertex_budget=40)
    assert table.n == n and table.beta(1, 3) == comb(n, 3) - 11
    difference: Counter[int] = Counter()
    for (i, j), b in table.entries.items():
        difference[j] += (-1) ** i * b
    for size, faces in {0: 1, 1: n, 2: comb(n, 2), 3: 11}.items():
        for k in range(n - size + 1):
            difference[size + k] -= faces * (-1) ** k * comb(n - size, k)
    assert not any(difference.values())


@pytest.mark.parametrize("a, b", [(3, 3), (4, 5), (4, 7), (3, 8)])
def test_the_clique_route_of_a_complete_bipartite_graph(cold_memos, a, b):
    """The non-edges of K(a,b) are the pairs inside each part: two disjoint
    cliques, so the table is the product of the tables of all pairs on a
    and on b vertices.  With three or more vertices in each part no vertex
    is free, so the split tree is one leaf, the whole restriction sum.
    The first two take the union closure, the last two (more than 26
    non-edges) the skeleton sweep; from an empty memo, one plan serves
    all three fields."""
    h = make_multipartite([a, b], 2)
    sweeps = b >= 7  # K(4,7) and K(3,8)
    plans: Counter[str] = Counter()
    union_closure = _RestrictionOracle.union_closure
    count_by_big_faces = betti._count_by_big_faces

    def counted_closure(self, budget):
        plans["closure"] += 1
        return union_closure(self, budget)

    def counted_search(ground, big_faces, budget):
        plans["sweep"] += 1
        return count_by_big_faces(ground, big_faces, budget)

    with mock.patch.object(_RestrictionOracle, "union_closure", counted_closure), \
            mock.patch.object(betti, "_count_by_big_faces", counted_search):
        for fld in (GF2, GF3, QQ):
            expected = _product_table(knd_complement_betti(a, 2), knd_complement_betti(b, 2))
            assert clique_ideal_betti(h, 2, fld).entries == expected
    assert plans == Counter({"sweep" if sweeps else "closure": 1})


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, (1 << 8) - 1), min_size=1, max_size=7))
def test_the_closure_is_refused_exactly_past_the_plan_budget(family):
    """The union closure is priced at its size times the number of
    nonfaces: it is built at that budget, and refused one below it."""
    nonfaces = sorted(min_antichain(family))
    unions = set()
    for r in range(len(nonfaces) + 1):
        for chosen in combinations(nonfaces, r):
            union = 0
            for M in chosen:
                union |= M
            unions.add(union)
    oracle = _RestrictionOracle(nonfaces, GF2)
    pairs = len(nonfaces) * len(unions)
    assert oracle.union_closure(pairs) == sorted(unions)
    assert oracle.union_closure(pairs - 1) is None


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.integers(0, 2))
def test_the_search_is_refused_exactly_past_the_plan_budget(sizes, gap):
    """Big faces on disjoint vertex sets of sizes s_1, s_2, ... give the
    search one leaf per way of keeping a prefix of each face, prod(s_i + 1)
    leaves: the subsets are counted at that budget and refused one below."""
    faces, shift, leaves = [], 0, 1
    for size in sizes:
        faces.append(((1 << size) - 1) << shift)
        shift += size + gap
        leaves *= size + 1
    ground = (1 << shift) - 1
    visited, counts = _count_by_big_faces(ground, faces, leaves)
    assert visited == leaves and sum(map(sum, counts.values())) == 1 << shift
    assert _count_by_big_faces(ground, faces, leaves - 1) is None


_BLOCK = st.tuples(st.integers(0, 1), st.lists(st.integers(1, 15), min_size=1, max_size=4))


@settings(max_examples=100, deadline=None)
@given(st.lists(_BLOCK, min_size=1, max_size=3))
@example([(0, [0b0011, 0b0110, 0b1100]), (0, [0b11])])  # an acyclic path, joined
@example([(0, [0b0101, 0b1010]), (1, [0b1, 0b110])])  # interleaved components
def test_the_join_split_equals_the_unsplit_routes(blocks):
    """Nonfaces drawn as a disjoint union of small families, each on its
    own block of vertices after an optional gap, so many subsets split
    into several components: on every subset the cone filters let
    through, the split answer equals the direct and the nerve routes run
    on the whole, unsplit subset."""
    nonfaces: list[int] = []
    shift = 0
    for gap, family in blocks:
        shift += gap
        nonfaces += [M << shift for M in min_antichain(family)]
        shift += max(family).bit_length()
    for fld in (GF2, GF3, QQ):
        oracle = _RestrictionOracle(nonfaces, fld)
        for vmask in oracle.union_closure(betti.PLAN_BUDGET):
            relevant = [M for M in oracle.mnf if contains(vmask, M)]
            if not relevant:
                continue
            m = vmask.bit_count()
            expected = _dims_direct(vmask, relevant, FACE_BUDGET, fld)
            assert _dims_nerve(vmask, m, relevant, fld) == expected
            assert oracle.dims_for(vmask) == expected


@pytest.mark.parametrize(
    "family, degenerate, most",
    [(make_line, line_betti_degenerate, 10), (make_cycle, cycle_betti_degenerate, 44)],
    ids=["line-10-2-1", "cycle-10-2-1"],
)
def test_skeleton_oracles_rank_each_component_shape_once(
    monkeypatch, cold_memos, family, degenerate, most
):
    """The restriction sums of line(10,2,1) and cycle(10,2,1) have few
    enough big faces for a skeleton, and take the union closure, whose
    members mostly split into runs: each run shape is ranked once by its
    direct route, not each whole subset (341 and 267 ranks when every
    subset took the whole-V skeleton lookup).  The edge route splits the
    line at its free vertices down to single edges, and ranks nothing."""
    h = family(10, 2, 1)
    assert grow_faces(h.vertices, h.edges, 2, BIG_FACE_CAP) is not None
    calls = []
    ranks_by_size = betti.ranks_by_size

    def counted(faces_by_size, fld):
        calls.append(fld)
        return ranks_by_size(faces_by_size, fld)

    monkeypatch.setattr(betti, "ranks_by_size", counted)
    assert edge_restriction_sum(h, GF2) == degenerate(10, 1)
    assert 0 < len(calls) <= most
    if family is make_line:
        calls.clear()
        cold_memos()
        assert edge_ideal_betti(h, GF2) == degenerate(10, 1)
        assert not calls


def test_the_cone_filter_answers_before_any_route(monkeypatch):
    """A subset holding no nonface is a simplex and a subset with a vertex
    no nonface inside it covers is a cone: the cone filter answers both {}
    before any route runs."""

    def no_route(*args):
        raise AssertionError("a route ran on a subset the cone filter answers")

    for name in ("_shape_dims", "_dims_direct", "_dims_nerve"):
        monkeypatch.setattr(betti, name, no_route)
    # the path 0-1-2-3 and the vertex 4, which lies in no nonface
    c = independence_complex(Hypergraph(5, frozenset({0b00011, 0b00110, 0b01100})))
    oracle = _RestrictionOracle(minimal_nonfaces(c), GF2)
    for vmask in (0b00101, 0b10101, 0b01001):  # no nonface inside
        assert oracle.dims_for(vmask) == {} == reduced_homology_dims(restrict(c, vmask), GF2)
    for vmask in (0b10011, 0b11100, 0b01011):  # a vertex no nonface inside covers
        assert oracle.dims_for(vmask) == {} == reduced_homology_dims(restrict(c, vmask), GF2)


def test_connectivity_reaches_the_cone_filter_without_a_skeleton(monkeypatch, cold_memos):
    """K(12) minus the edge {0, 1} has the single nonface {0, 1}, so the
    one disconnected induced subgraph is on {0, 1}: every other subset the
    scan visits lacks 0 or 1 (no nonface inside) or holds another vertex
    (a cone), and the cone filter answers it without a route."""
    h = Hypergraph(12, make_complete(12, 2).edges - {0b11})
    seen: Counter[str] = Counter()
    dims_for = _RestrictionOracle.dims_for
    shape_dims = betti._shape_dims

    def counted_dims_for(self, vmask):
        seen["no nonface" if vmask & 0b11 != 0b11 else "cone" if vmask != 0b11 else "pair"] += 1
        return dims_for(self, vmask)

    def counted_shape(key, fld):
        seen["route"] += 1
        return shape_dims(key, fld)

    monkeypatch.setattr(_RestrictionOracle, "dims_for", counted_dims_for)
    monkeypatch.setattr(betti, "_shape_dims", counted_shape)
    assert connectivity(h, GF2) == 10
    assert seen["pair"] == seen["route"] == 1
    assert seen["no nonface"] and seen["cone"]


def test_only_the_sweep_plan_grows_the_big_faces(monkeypatch, cold_memos):
    """The faces up to BIG_FACE_CAP are the sweep's plan, not part of the
    oracle: building an oracle, the connectivity scan and a closure sum
    whose subsets split into components grow faces only for the direct
    route of each component shape, capped at its nerve size."""
    caps = []
    grow = betti.grow_faces

    def counted(ground, nonfaces, start, cap):
        caps.append(cap)
        return grow(ground, nonfaces, start, cap)

    monkeypatch.setattr(betti, "grow_faces", counted)
    h = make_line(10, 2, 1)
    _RestrictionOracle(h.edges, GF2)
    assert connectivity(make_cycle(6, 2, 1), GF2) == 2
    assert edge_ideal_betti(h, GF2) == line_betti_degenerate(10, 1)
    assert caps and BIG_FACE_CAP not in caps


def _product_table(a: BettiTable, b: BettiTable) -> dict[tuple[int, int], int]:
    entries: Counter[tuple[int, int]] = Counter()
    for (i1, j1), x in a.entries.items():
        for (i2, j2), y in b.entries.items():
            entries[(i1 + i2, j1 + j2)] += x * y
    return dict(entries)


_SIX = [m for m in range(1 << 6) if 2 <= m.bit_count() <= 3]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(_SIX), max_size=4), st.lists(st.sampled_from(_SIX), max_size=4)
)
@example([0b000011, 0b000110, 0b001100], [0b000011])  # P4: an acyclic complex
def test_a_disjoint_union_has_the_product_table(e1, e2):
    """The resolution of R/(I1 + I2) on disjoint variables is the tensor
    product of the two resolutions, so the table of H1 and H2 side by
    side on 12 vertices, summed over joins of components, is the product
    of their tables."""
    h1, h2 = Hypergraph(6, min_antichain(e1)), Hypergraph(6, min_antichain(e2))
    both = Hypergraph(12, h1.edges | {M << 6 for M in h2.edges})
    for fld in (GF2, GF3, QQ):
        expected = _product_table(edge_ideal_betti(h1, fld), edge_ideal_betti(h2, fld))
        assert edge_ideal_betti(both, fld).entries == expected


_NINE = [m for m in range(1 << 9) if 2 <= m.bit_count() <= 4]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(_NINE), min_size=1, max_size=9))
@example([0b101, 0b1010, 0b1100, 0b10010, 0b1000001, 0b1000100, 0b1001000])  # two leaves
@example([0b000000011, 0b000000110, 0b000001100, 0b000011000, 0b000010001])  # C5: no split
def test_the_splitting_route_equals_the_restriction_sum(sets):
    """The free-vertex splitting route of the edge ideal gives the
    restriction sum's table over every field."""
    h = Hypergraph(9, min_antichain(sets))
    for fld in (GF2, GF3, QQ):
        assert edge_ideal_betti(h, fld) == edge_restriction_sum(h, fld)


# Vertex 4 is free; the split tree of these seven edges has two leaves.
_TWO_LEAVES = Hypergraph(7, frozenset(map(mask_of, ([0, 2], [1, 3], [2, 3], [1, 4], [0, 6],
                                                      [2, 6], [3, 6]))))


def test_the_split_tree_is_planned_before_any_rank(monkeypatch, cold_memos):
    """Every leaf's restriction sum is planned before the first rank runs,
    and the splits themselves rank nothing."""
    log = []
    terms, ranks_by_size = betti._restriction_terms, betti.ranks_by_size

    def planned(*args):
        log.append("plan")
        return terms(*args)

    def ranked(faces_by_size, fld):
        log.append("rank")
        return ranks_by_size(faces_by_size, fld)

    monkeypatch.setattr(betti, "_restriction_terms", planned)
    monkeypatch.setattr(betti, "ranks_by_size", ranked)
    assert edge_ideal_betti(_TWO_LEAVES, GF2) == edge_restriction_sum(_TWO_LEAVES, GF2)
    leaf_plans = log[: log.index("rank")]
    assert leaf_plans == ["plan", "plan"]


def test_the_split_tree_is_refused_exactly_past_the_plan_budget(monkeypatch):
    """The tree's distinct nodes and its leaves' plan visits share one plan
    budget, each leaf's plan getting what is left of it, so a leaf may take
    a cheaper plan under a lower budget.  Lowered one at a time, the budget
    still plans the tree down to a least budget, where the nodes and
    visits add up to exactly that budget; one below it the tree is
    refused, and the tree's own refusal is the route's."""
    key = betti._shape_of(_TWO_LEAVES.edges)
    terms, visits = betti._restriction_terms, []

    def planned(*args):
        plan = terms(*args)
        visits.append(plan[0])
        return plan

    def spent_at(budget):
        visits.clear()
        with mock.patch.object(betti, "PLAN_BUDGET", budget):
            splits, leaves = betti._split_plan(key, VERTEX_BUDGET)
        assert len(leaves) == len(visits) == 2
        return len(splits) + len(leaves) + sum(visits)

    monkeypatch.setattr(betti, "_restriction_terms", planned)
    least = spent_at(betti.PLAN_BUDGET)
    while True:
        try:
            spent_at(least - 1)
        except SizeBudgetError:
            break
        least -= 1
    assert spent_at(least) == least
    with mock.patch.object(betti, "PLAN_BUDGET", least - 1):
        with pytest.raises(SizeBudgetError, match="split tree and its leaf plans") as tree:
            betti._split_plan(key, VERTEX_BUDGET)
        with pytest.raises(SizeBudgetError, match=re.escape(str(tree.value))):
            edge_ideal_betti(_TWO_LEAVES, GF2)


def test_the_vertex_budget_bounds_each_leaf_not_the_input():
    """A pendant edge {4, 5} on the 5-cycle frees vertex 5: the split
    tree answers the six vertices at a vertex budget of 5, since no leaf's
    sum runs over more, and refuses at 4, where the 5-cycle's leaf is over
    it."""
    h = Hypergraph(6, make_cycle(5, 2, 1).edges | {0b110000})
    assert edge_ideal_betti(h, GF2, vertex_budget=5) == edge_restriction_sum(h, GF2)
    with pytest.raises(SizeBudgetError, match="restriction sum over 5 vertices"):
        edge_ideal_betti(h, GF2, vertex_budget=4)


def test_a_node_answered_before_is_held_to_the_vertex_budget(cold_memos):
    """The split tree keeps no node between calls, so each call holds its
    whole tree to the vertex budget: in one process, in either order, the
    5-cycle plus a pendant edge is answered at a budget of 5 and refused
    at 4 with the message of a fresh process."""
    h = Hypergraph(6, make_cycle(5, 2, 1).edges | {0b110000})
    expected = edge_restriction_sum(h, GF2)
    refusal = "restriction sum over 5 vertices exceeds the vertex budget 4"
    for budgets in ((5, 4, 5), (4, 5, 4)):
        cold_memos()
        for vertex_budget in budgets:
            if vertex_budget == 5:
                assert edge_ideal_betti(h, GF2, vertex_budget=5) == expected
            else:
                with pytest.raises(SizeBudgetError, match=f"^{refusal}$"):
                    edge_ideal_betti(h, GF2, vertex_budget=4)


def test_a_tree_answered_before_is_held_to_the_plan_budget(cold_memos):
    """The split tree keeps no node between calls, so each call prices its
    whole tree: answered at the default plan budget, the two-leaf tree is
    refused under a plan budget of 20 in the same process, with the
    message it gets from empty memos."""
    refusal = re.escape("the split tree and its leaf plans visit more than 20 (the plan budget)")
    with mock.patch.object(betti, "PLAN_BUDGET", 20):
        with pytest.raises(SizeBudgetError, match=f"^{refusal}$"):
            edge_ideal_betti(_TWO_LEAVES, GF2)
    cold_memos()
    assert edge_ideal_betti(_TWO_LEAVES, GF2) == edge_restriction_sum(_TWO_LEAVES, GF2)
    with mock.patch.object(betti, "PLAN_BUDGET", 20):
        with pytest.raises(SizeBudgetError, match=f"^{refusal}$"):
            edge_ideal_betti(_TWO_LEAVES, GF2)


def test_the_cold_memo_fixture_empties_every_memo_of_betti(cold_memos):
    """Each module-level dict of ``betti`` and each of its functions with a
    ``cache_clear`` is a memo for the process: a split tree and a sweep
    fill every one of them, and the fixture empties them all."""
    edge_ideal_betti(_TWO_LEAVES, GF2)
    clique_ideal_betti(make_multipartite([4, 7], 2), 2, GF2)  # a sweep
    found = {name: value for name, value in vars(betti).items() if not name.startswith("__")}
    dicts = {name: value for name, value in found.items() if isinstance(value, dict)}
    caches = {name: value for name, value in found.items() if hasattr(value, "cache_clear")}
    assert {"_plans", "_plan_keys"} <= dicts.keys()
    assert {"_shape_dims", "_family_ranks"} <= caches.keys()
    assert all(dicts.values()) and all(c.cache_info().currsize for c in caches.values())
    cold_memos()
    assert not any(dicts.values()) and not any(c.cache_info().currsize for c in caches.values())


def test_the_clique_route_refuses_a_wide_root_before_listing(monkeypatch):
    """Every vertex of the edgeless hypergraph on 50 vertices lies in
    C(49, 3) non-edge 4-sets, so no vertex is free and the root is the
    only leaf: it is refused by its 50-vertex support before a non-edge
    is listed.  Past the listing cap (63 vertices) the listing rule still
    refuses first, and an input with a free vertex still lists."""
    listed = []

    def counted(h, d):
        listed.append(d)
        return non_edges(h, d)

    monkeypatch.setattr(betti, "non_edges", counted)
    with pytest.raises(SizeBudgetError, match="^restriction sum over 50 vertices exceeds "
                                              "the vertex budget 20$"):
        clique_ideal_betti(Hypergraph(50, frozenset()), 4, GF2)
    assert not listed
    with pytest.raises(SizeBudgetError, match="more than 262144 non-edge 4-sets to list"):
        clique_ideal_betti(Hypergraph(63, frozenset()), 4, GF2, vertex_budget=63)
    missing = {0b0111, 0b1110}  # vertices 0 and 3 are free
    h = Hypergraph(4, frozenset(k_submasks(0b1111, 3)) - missing)
    assert clique_ideal_betti(h, 3, GF2) == taylor_betti_free_vertex(Hypergraph(4, missing))
    assert listed == [3]


_FIELD_ORDERS = st.permutations([GF2, GF3, QQ])


def _memo_family(data) -> Hypergraph:
    """A hypergraph whose restriction sum takes either plan: up to 8 sets
    of 2 to 4 of 9 vertices (the union closure), or the non-edge d-sets of
    a random d-uniform hypergraph on 6 or 7 vertices, often more than 26
    (the skeleton sweep)."""
    if data.draw(st.booleans(), label="non-edges"):
        n, d = data.draw(st.integers(6, 7), label="n"), data.draw(st.integers(2, 3), label="d")
        subsets = list(k_submasks((1 << n) - 1, d))
        edges = data.draw(st.lists(st.sampled_from(subsets), unique=True), label="edges")
        return Hypergraph(n, frozenset(set(subsets) - set(edges)))
    sets = data.draw(st.lists(st.sampled_from(_NINE), min_size=1, max_size=8), label="sets")
    return Hypergraph(9, min_antichain(sets))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_warm_memo_gives_the_tables_of_a_cold_one(cold_memos, data):
    """Each field's table from empty memos equals the table answered after
    other fields and other routes have filled them, in any field order,
    on both the whole restriction sum and the split tree."""
    h = _memo_family(data)
    cold = {}
    for fld in (GF2, GF3, QQ):
        cold_memos()
        cold[fld, "sum"] = edge_restriction_sum(h, fld)
        cold_memos()
        cold[fld, "tree"] = edge_ideal_betti(h, fld)
    cold_memos()
    for fld in data.draw(_FIELD_ORDERS, label="first") + data.draw(_FIELD_ORDERS, label="then"):
        for route in data.draw(st.permutations(["sum", "tree"]), label="routes"):
            table = (edge_restriction_sum if route == "sum" else edge_ideal_betti)(h, fld)
            assert table == cold[fld, route]


def _plan_outcome(call):
    try:
        return call()
    except SizeBudgetError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_warm_memo_plans_and_refuses_as_a_cold_one(cold_memos, data):
    """Under a lowered plan budget, a restriction sum's plan, a split tree
    and its table, found with the memos filled at other budgets, visit and
    refuse exactly as from empty memos: a kept plan, first the one planned
    at the full budget, is reused only at a budget no larger than its own
    that its visits fit, and the tree keeps no node between calls."""
    h = _memo_family(data)
    key = betti._shape_of(h.edges)
    full = _plan_outcome(lambda: betti._restriction_terms(key, betti.PLAN_BUDGET))
    top = full[0] if isinstance(full, tuple) else betti.PLAN_BUDGET
    budgets = data.draw(st.lists(st.integers(1, top + 1), min_size=1, max_size=4), label="budgets")
    for budget in budgets:
        with mock.patch.object(betti, "PLAN_BUDGET", budget):
            warm = [
                _plan_outcome(lambda: betti._restriction_terms(key, budget)),
                _plan_outcome(lambda: betti._split_plan(key, VERTEX_BUDGET)),
                _plan_outcome(lambda: edge_ideal_betti(h, GF2)),
            ]
            kept = dict(betti._plans)
            cold = []
            for call in (
                lambda: betti._restriction_terms(key, budget),
                lambda: betti._split_plan(key, VERTEX_BUDGET),
                lambda: edge_ideal_betti(h, GF2),
            ):
                cold_memos()
                cold.append(_plan_outcome(call))
        assert warm == cold
        betti._plans.update(kept)


def _private_vertex_family(rng: random.Random, d: int | None, count: int) -> list[int]:
    """``count`` sets over a shared core of 2 to 8 vertices, each with one to
    three vertices of its own: of size d, or of sizes 2 to 5 when d is
    None."""
    core = rng.randrange(2, 9)
    top, family = core, []
    for _ in range(count):
        size = d or rng.randrange(2, 6)
        own = rng.randrange(max(1, size - core), min(size, 3) + 1)
        shared = sum(1 << v for v in rng.sample(range(core), size - own))
        family.append(shared | ((1 << own) - 1) << top)
        top += own
    return family


def test_the_split_tree_equals_the_subset_count_on_private_vertex_edges():
    """Edge sets in which every edge keeps a private vertex, many past the
    default vertex budget: at the default flags the split tree answers
    each, with the subset count's table."""
    rng = random.Random(27)
    pool = [_private_vertex_family(rng, None, rng.randrange(1, 13)) for _ in range(60)]
    hypergraphs = [Hypergraph(max(f).bit_length(), frozenset(f)) for f in pool]
    assert sum(h.num_vertices > VERTEX_BUDGET for h in hypergraphs) >= 15
    for h in hypergraphs:
        expected = taylor_betti_free_vertex(h)
        assert edge_ideal_betti(h, GF2) == expected
        assert edge_ideal_betti(h, QQ) == expected


def test_the_clique_route_equals_the_subset_count_of_private_vertex_non_edges():
    """d-uniform hypergraphs whose non-edges keep private vertices, on up to
    33 vertices: the clique route's split tree answers each at the default
    flags, with the subset count of the non-edges."""
    rng = random.Random(2027)
    for _ in range(40):
        d = rng.choice((2, 3))
        missing = _private_vertex_family(rng, d, rng.randrange(1, 11))
        n = max(missing).bit_length() + rng.randrange(4)
        edges = frozenset(k_submasks((1 << n) - 1, d)) - set(missing)
        expected = taylor_betti_free_vertex(Hypergraph(n, frozenset(missing)))
        assert clique_ideal_betti(Hypergraph(n, edges), d, GF2) == expected


def test_each_component_shape_is_answered_once(monkeypatch, cold_memos):
    """On the edge route every subset of a star is one star-shaped
    component and every subset of a line splits into runs, so the direct
    route runs once per shape, 10 star sizes and 12 run lengths, and the
    nerve only where the direct route gave up."""
    calls: Counter[str] = Counter()

    def counted_direct(vmask, relevant, cap, fld):
        calls["direct"] += 1
        return _dims_direct(vmask, relevant, cap, fld)

    def counted_nerve(vmask, m, relevant, fld):
        calls["nerve"] += 1
        return _dims_nerve(vmask, m, relevant, fld)

    monkeypatch.setattr(betti, "_dims_direct", counted_direct)
    monkeypatch.setattr(betti, "_dims_nerve", counted_nerve)
    assert edge_ideal_betti(make_star_overlap(10, 2, 1), GF2) == star_betti_closed_form(10, 2, 1)
    assert calls["direct"] <= 10 and calls["nerve"] <= calls["direct"]
    calls.clear()
    table = edge_ideal_betti(make_line(12, 3, 1), GF2, vertex_budget=40)
    assert table == line_betti_closed_form(12, 3, 1)
    assert calls["direct"] <= 12 and calls["nerve"] <= calls["direct"]


def test_a_longer_line_grows_only_its_new_run_length(monkeypatch, cold_memos):
    """Component shapes outlive the sum that met them: once line(12,3,1)
    is answered, every subset of line(13,3,1) splits into runs of lengths
    already answered but the one run of all 13 edges."""
    edge_ideal_betti(make_line(12, 3, 1), GF2, vertex_budget=40)
    calls = []

    def counted_direct(vmask, relevant, cap, fld):
        calls.append(vmask)
        return _dims_direct(vmask, relevant, cap, fld)

    monkeypatch.setattr(betti, "_dims_direct", counted_direct)
    table = edge_ideal_betti(make_line(13, 3, 1), GF2, vertex_budget=40)
    assert table == line_betti_closed_form(13, 3, 1)
    assert len(calls) <= 1


def test_changing_an_answer_changes_no_later_answer():
    """Every oracle of the process shares the component answers, so a
    caller that changes the dict ``dims_for`` returned, on one component
    (the 4-cycle) or a join of two (with the edge {4, 5}), changes no
    later answer."""
    h = Hypergraph(6, frozenset({0b000011, 0b000110, 0b001100, 0b001001, 0b110000}))
    c = independence_complex(h)
    for vmask in (0b001111, 0b111111):
        expected = reduced_homology_dims(restrict(c, vmask), GF2)
        answer = _RestrictionOracle(h.edges, GF2).dims_for(vmask)
        assert answer == expected and answer
        for degree in answer:
            answer[degree] += 1
        answer[7] = 1
        assert _RestrictionOracle(h.edges, GF2).dims_for(vmask) == expected


@pytest.mark.parametrize("fld", [GF2, QQ], ids=["gf2", "q"])
@pytest.mark.parametrize(
    "family, n, d, closed_form",
    [
        (make_line, 12, 3, line_betti_closed_form),
        (make_cycle, 12, 3, cycle_betti_closed_form),
        (make_line, 11, 4, line_betti_closed_form),
    ],
    ids=["line-12-3-1", "cycle-12-3-1", "line-11-4-1"],
)
def test_the_edge_route_reaches_the_frontier_families(family, n, d, closed_form, fld):
    """24 to 34 vertices on the edge route, each equal to its closed form."""
    table = edge_ideal_betti(family(n, d, 1), fld, vertex_budget=40)
    assert table == closed_form(n, d, 1)
