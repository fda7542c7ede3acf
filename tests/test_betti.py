"""Betti tables: the restriction-homology route against every other route."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
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
    check_conn_depth_theorem,
    clique_complex,
    clique_ideal_betti,
    connectivity,
    cycle_betti_closed_form,
    edge_ideal_betti,
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
    make_star_overlap,
    minimal_nonfaces,
    reduced_homology_dims,
    star_betti_closed_form,
    taylor_betti_free_vertex,
)
from hyperbetti.betti import _RestrictionOracle, resolution_stats
from hyperbetti.bitsets import contains, k_submasks, mask_of, min_antichain, submasks
from hyperbetti.complexes import FACE_BUDGET, restrict
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
    with pytest.raises(SizeBudgetError):
        edge_ideal_betti(make_line(3, 3, 1), QQ, vertex_budget=5)


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


def test_conn_depth_equivalence_on_a_line():
    rep = check_conn_depth_theorem(make_line(3, 3, 1))
    assert rep.matches and rep.equivalence_holds


def test_cohen_macaulay_examples():
    """A simplex boundary is CM; two far-apart edges are not."""
    from hyperbetti import SimplicialComplex

    sphere = SimplicialComplex.from_faces(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    assert is_cohen_macaulay(sphere, QQ)
    broken = SimplicialComplex.from_faces(4, [[0, 1], [2, 3]])
    assert not is_cohen_macaulay(broken, QQ)


def test_resolution_stats_depth():
    t = edge_ideal_betti(make_line(3, 3, 1), QQ)
    stats = resolution_stats(t, 3)
    assert stats.projective_dimension == 3
    assert stats.depth == 7 - 3


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 7), st.data())
def test_restriction_routes_agree_subset_by_subset(n, data):
    """Grown faces, the nonface nerve and the sparse skeleton give the
    restriction homology of the facet-based induced subcomplex wherever
    the cone filters let a subset through, whichever route the measured
    cost rule would pick."""
    faces = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    c = SimplicialComplex.from_faces(n, faces)
    for fld in (GF2, GF3, QQ):
        oracle = _RestrictionOracle(c.vertices, minimal_nonfaces(c), fld)
        for vmask in submasks(c.vertices):
            relevant = [M for M in oracle.mnf if contains(vmask, M)]
            covered = 0
            for M in relevant:
                covered |= M
            if not relevant or covered != vmask:
                continue
            m = vmask.bit_count()
            expected = reduced_homology_dims(restrict(c, vmask), fld)
            assert oracle._dims_direct(vmask, relevant, FACE_BUDGET) == expected
            assert oracle._dims_nerve(vmask, m, relevant) == expected
            if oracle.big_faces is not None:
                assert oracle._dims_skeleton(vmask, m) == expected
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
