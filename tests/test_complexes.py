"""Simplicial complexes: construction, duality, nonfaces, links."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbetti import (
    Hypergraph,
    ParameterError,
    SimplicialComplex,
    alexander_dual,
    clique_complex,
    independence_complex,
    link,
    make_complete,
    minimal_nonfaces,
    restrict,
)
from hyperbetti.bitsets import bits_of, k_submasks, mask_of, max_antichain, submasks
from hyperbetti.complexes import (
    enumerate_faces,
    grow_faces,
    minimal_transversals,
    pad_facets,
)


def test_facets_must_form_antichain():
    with pytest.raises(ParameterError):
        SimplicialComplex(3, frozenset({0b011, 0b111}))


def test_void_versus_empty_complex():
    """The void complex has no faces at all; {} still has the empty face."""
    void = SimplicialComplex(3, frozenset())
    empty = SimplicialComplex(3, frozenset({0}))
    assert void.is_void and not empty.is_void
    assert empty.has_face(0) and not void.has_face(0)
    assert SimplicialComplex.from_json(void.to_json()) == void
    assert SimplicialComplex.from_json(empty.to_json()) == empty
    revived = SimplicialComplex.from_json_obj({"n": 3, "facets": [], "void": False})
    assert revived == empty


def test_from_faces_keeps_maximal_only():
    c = SimplicialComplex.from_faces(4, [[0, 1], [1], [1, 2, 3], [2, 3]])
    assert c.facets == frozenset({0b0011, 0b1110})


def test_independence_complex_of_a_path():
    g = Hypergraph(3, frozenset({0b011, 0b110}))
    c = independence_complex(g)
    assert c.facets == frozenset({0b101, 0b010})


def test_clique_complex_fills_low_dimensions():
    """Sets smaller than the uniformity are faces for free."""
    h = Hypergraph(4, frozenset({mask_of([0, 1, 2])}))
    c = clique_complex(h, 3)
    assert c.has_face(mask_of([0, 3]))
    assert c.has_face(mask_of([0, 1, 2]))
    assert not c.has_face(mask_of([1, 2, 3]))


def test_minimal_nonfaces_of_independence_complex_are_edges():
    h = Hypergraph(5, frozenset({0b00111, 0b11100}))
    assert minimal_nonfaces(independence_complex(h)) == h.edges


def test_minimal_transversals_square():
    """Transversals of the two diagonals of a 4-cycle are the sides."""
    hits = minimal_transversals([0b0101, 0b1010])
    assert hits == frozenset({0b0011, 0b0110, 0b1100, 0b1001})


def test_alexander_dual_of_hollow_square():
    c = SimplicialComplex.from_faces(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
    d = alexander_dual(c)
    assert d.facets == frozenset({0b0101, 0b1010})


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.data())
def test_alexander_dual_is_an_involution(n, data):
    """Dualizing twice gives back the original complex."""
    universe = list(range(1, 1 << n))
    facets = data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=4))
    c = SimplicialComplex.from_faces(n, facets)
    assert alexander_dual(alexander_dual(c)) == c


def test_restrict_drops_outside_vertices():
    c = SimplicialComplex.from_faces(4, [[0, 1, 2], [2, 3]])
    r = restrict(c, mask_of([0, 1, 3]))
    assert r.facets == frozenset({0b0011, 0b1000})


def test_link_of_a_vertex():
    c = SimplicialComplex.from_faces(4, [[0, 1, 2], [2, 3]])
    lk = link(c, mask_of([2]))
    assert lk.facets == frozenset({0b0011, 0b1000})


def test_pad_facets_restores_dimension():
    """Small facets get padded up toward the uniform dimension."""
    c = SimplicialComplex.from_faces(5, [[0, 1, 2], [3]])
    p = pad_facets(c, 3)
    assert all(f.bit_count() >= 2 for f in p.facets)


def test_clique_complex_of_complete_is_a_simplex():
    h = make_complete(4, 3)
    c = clique_complex(h, 3)
    assert c.facets == frozenset({0b1111})


@pytest.mark.parametrize(
    "n, facets, vertices, message",
    [
        (3, {0b011, 0b111}, -1, "facets must be mutually incomparable"),
        (4, {0b0011, 0b0110, 0b0010}, -1, "facets must be mutually incomparable"),
        (3, {0b001, 0}, -1, "facets must be mutually incomparable"),
        (3, {0b101}, 0b011, "facet uses a vertex outside the ground set"),
        (4, {0b0011, 0b1100}, 0b0111, "facet uses a vertex outside the ground set"),
    ],
)
def test_facet_refusals(n, facets, vertices, message):
    with pytest.raises(ParameterError) as exc:
        SimplicialComplex(n, frozenset(facets), vertices)
    assert str(exc.value) == message


def _brute_minimal_transversals(n: int, family: list[int]) -> set[int]:
    """Minimal elements among all 2^n subsets meeting every mask.  The
    subsets meeting every mask are closed upward, so a set is minimal
    among them exactly when dropping any one of its vertices loses it."""
    meets = {t for t in range(1 << n) if all(t & m for m in family)}
    return {t for t in meets if not any(t & ~(1 << v) in meets for v in bits_of(t))}


def test_minimal_transversals_edge_cases():
    assert minimal_transversals([]) == {0}
    assert minimal_transversals([0b011, 0]) == frozenset()
    assert minimal_transversals([0b011, 0b011]) == {0b001, 0b010}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.data())
def test_minimal_transversals_match_brute_force(n, data):
    family = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    assert minimal_transversals(family) == _brute_minimal_transversals(n, family)


def _as_sets(faces: dict[int, list[int]]) -> dict[int, set[int]]:
    return {size: set(level) for size, level in faces.items() if level}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.data())
def test_grown_faces_match_the_facet_enumeration(n, data):
    """On every vertex subset V, the faces grown from the minimal nonfaces
    inside V are the faces of the facets cut down to V, from any start
    size up to the smallest nonface; the grower gives up exactly when
    their count passes the cap."""
    drawn = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8))
    start_pick = data.draw(st.integers(0, n), label="start")
    slack = data.draw(st.integers(-3, 1), label="cap minus face count")
    c = SimplicialComplex.from_faces(n, drawn)
    nonfaces = minimal_nonfaces(c)
    for vmask in submasks(c.vertices):
        inside = [m for m in nonfaces if m & ~vmask == 0]
        smallest = min((m.bit_count() for m in inside), default=vmask.bit_count() + 1)
        start = min(start_pick, smallest)
        expected = enumerate_faces(max_antichain(f & vmask for f in c.facets))
        wanted = {size: set(fs) for size, fs in expected.items() if size >= start}
        count = sum(len(fs) for fs in wanted.values())
        cap = max(0, count + slack)
        grown = grow_faces(vmask, inside, start, cap)
        if count > cap:
            assert grown is None
        else:
            assert grown is not None and _as_sets(grown) == wanted


def _brute_clique_facets(h: Hypergraph, d: int) -> frozenset[int]:
    """Maximal vertex sets whose d-subsets are all edges, together with
    the (d-1)-sets that lie in no edge, straight from the definition."""
    cliques = [
        m for m in submasks(h.vertices)
        if m.bit_count() >= d and all(e in h.edges for e in k_submasks(m, d))
    ]
    uncovered = [
        m for m in k_submasks(h.vertices, d - 1)
        if not any(m & ~e == 0 for e in h.edges)
    ]
    return max_antichain(cliques + uncovered)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(0, 8), st.data())
def test_clique_complex_matches_the_definition(d, n, data):
    subsets = list(k_submasks((1 << n) - 1, d))
    edges = data.draw(st.lists(st.sampled_from(subsets), max_size=12)) if subsets else []
    h = Hypergraph(n, frozenset(edges))
    if n < d:
        assert clique_complex(h, d).facets == {h.vertices}
    else:
        assert clique_complex(h, d).facets == _brute_clique_facets(h, d)
