"""Simplicial complexes: construction, duality, nonfaces, links."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbetti import (
    Hypergraph,
    ParameterError,
    SimplicialComplex,
    SizeBudgetError,
    alexander_dual,
    clique_complex,
    independence_complex,
    link,
    make_complete,
    minimal_nonfaces,
    restrict,
)
from hyperbetti.bitsets import (
    bits_of,
    contains,
    k_submasks,
    mask_of,
    max_antichain,
    min_antichain,
    submasks,
)
from hyperbetti import complexes
from hyperbetti.complexes import (
    TABLE_WIDTH,
    enumerate_faces,
    grow_faces,
    minimal_transversals,
    nonface_complex,
    pad_facets,
)
from hyperbetti.hypergraph import MAX_LISTED_EDGES


def _has_face(c, face):
    return any(contains(f, face) for f in c.facets)


def test_facets_must_form_antichain():
    with pytest.raises(ParameterError):
        SimplicialComplex(3, frozenset({0b011, 0b111}))


def test_void_versus_empty_complex():
    """The void complex has no faces at all; {} still has the empty face."""
    void = SimplicialComplex(3, frozenset())
    empty = SimplicialComplex(3, frozenset({0}))
    assert void.is_void and not empty.is_void
    assert _has_face(empty, 0) and not _has_face(void, 0)
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
    assert _has_face(c, mask_of([0, 3]))
    assert _has_face(c, mask_of([0, 1, 2]))
    assert not _has_face(c, mask_of([1, 2, 3]))


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


def _table(masks, cap=MAX_LISTED_EDGES):
    family = set(masks)
    return complexes._table_transversals(family, max(family, default=0).bit_length(), cap)


def _fold(masks, cap=MAX_LISTED_EDGES):
    return complexes._fold_transversals(set(masks), cap)


# The dualization's entry point, and each of its two paths called directly.
EVERY_PATH = (minimal_transversals, _table, _fold)


def test_minimal_transversals_edge_cases():
    """On every path, the empty family has one transversal, the empty set,
    refused only at cap 0; a family with the empty mask has none, even at
    cap 0."""
    for dualize in EVERY_PATH:
        assert dualize([]) == {0}
        assert dualize([0]) == dualize([0b011, 0]) == frozenset()
        assert dualize([0], 0) == dualize([0b011, 0], 0) == frozenset()
        assert dualize([0b011, 0b011]) == {0b001, 0b010}
        for family in ([], [0b1]):
            with pytest.raises(SizeBudgetError, match="more than 0 sets"):
                dualize(family, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.data())
def test_minimal_transversals_match_brute_force(n, data):
    family = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    full = _brute_minimal_transversals(n, family)
    for dualize in EVERY_PATH:
        assert dualize(family) == full


def _refuses_exactly_past(cap: int, family: list[int], full: set[int]) -> None:
    """Every path refuses the family exactly when it has more than cap
    minimal transversals, and lists them in full otherwise."""
    for dualize in EVERY_PATH:
        if len(full) > cap:
            with pytest.raises(SizeBudgetError, match=f"more than {cap} sets"):
                dualize(family, cap)
        else:
            assert dualize(family, cap) == full


def test_a_capped_dualization_counts_only_finished_prefixes():
    """{1,2} and {0,3} have four minimal transversals; with {1,3} added
    the family has three, which a cap of three admits.  The fold stops at
    the end of a prefix of masks only, so it answers here."""
    family = [0b0110, 0b1001, 0b1010]
    assert _fold(family, 3) == _brute_minimal_transversals(4, family)
    with pytest.raises(SizeBudgetError, match="more than 2 sets"):
        _fold(family, 2)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.data())
def test_a_capped_dualization_refuses_exactly_past_its_cap(n, data):
    """A family, empty or not, is refused exactly when it has more minimal
    transversals than the cap, and answered in full otherwise."""
    family = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=0, max_size=8))
    cap = data.draw(st.integers(0, 20))
    _refuses_exactly_past(cap, family, _brute_minimal_transversals(n, family))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([TABLE_WIDTH, TABLE_WIDTH + 1]), st.data())
def test_both_paths_agree_at_the_table_width(width, data):
    """Families whose support reaches the widest table, or one vertex past
    it, meet the same exact cap on every path."""
    family = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=6))
    family[0] |= 1 << (width - 1)
    cap = data.draw(st.integers(0, 40))
    _refuses_exactly_past(cap, family, _brute_minimal_transversals(width, family))


@pytest.mark.parametrize(
    "width, path",
    [(TABLE_WIDTH, "_table_transversals"), (TABLE_WIDTH + 1, "_fold_transversals")],
)
def test_the_support_width_picks_the_path(monkeypatch, width, path):
    """Supports up to TABLE_WIDTH bits are tabulated, wider ones folded."""
    called = []
    for name in ("_table_transversals", "_fold_transversals"):
        real = getattr(complexes, name)
        monkeypatch.setattr(
            complexes, name, lambda *args, real=real, name=name: called.append(name) or real(*args)
        )
    family = [0b11, 1 << (width - 1) | 1]
    assert minimal_transversals(family) == _brute_minimal_transversals(width, family)
    assert called == [path]


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


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.integers(0, 8), st.data())
def test_a_capped_clique_complex_refuses_exactly_past_its_cap(d, n, data):
    """The clique complex is refused exactly when it has more facets than
    the cap, and built in full otherwise; the ground set may be partial.
    The cap is at least one: with no non-edge there is nothing to fold,
    and the one facet is never refused."""
    ground = data.draw(st.integers(0, (1 << n) - 1), label="ground set")
    subsets = list(k_submasks(ground, d))
    edges = data.draw(st.lists(st.sampled_from(subsets), max_size=12)) if subsets else []
    cap = data.draw(st.integers(1, 12), label="cap")
    h = Hypergraph(n, frozenset(edges), ground)
    full = {ground} if ground.bit_count() < d else _brute_clique_facets(h, d)
    if len(full) > cap:
        with pytest.raises(SizeBudgetError, match=f"more than {cap} sets"):
            clique_complex(h, d, cap)
    else:
        assert clique_complex(h, d, cap).facets == full


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 8), st.data())
def test_the_nonface_complex_has_exactly_the_given_minimal_nonfaces(n, data):
    """For an antichain N inside a ground set V, the complex built from N
    has N as its minimal nonfaces, and its facets are the maximal subsets
    of V containing no member of N."""
    ground = data.draw(st.integers(0, (1 << n) - 1), label="ground set")
    inside = list(submasks(ground))
    nonfaces = min_antichain(data.draw(st.lists(st.sampled_from(inside), max_size=6)))
    c = nonface_complex(n, nonfaces, ground)
    assert c.vertices == ground
    assert minimal_nonfaces(c) == nonfaces
    faces = [s for s in inside if not any(m & ~s == 0 for m in nonfaces)]
    assert c.facets == max_antichain(faces)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 7), st.data())
def test_alexander_dual_complements_the_minimal_nonfaces(n, data):
    """The dual's facets are the ground-set complements of the minimal
    nonfaces, on any ground set and for the void and empty complexes
    too, and dualizing twice gives the complex back."""
    ground = data.draw(st.integers(0, (1 << n) - 1), label="ground set")
    drawn = data.draw(st.lists(st.sampled_from(list(submasks(ground))), max_size=5))
    c = SimplicialComplex(n, max_antichain(drawn), ground)
    reference = frozenset(ground & ~m for m in minimal_nonfaces(c))
    dual = alexander_dual(c)
    assert (dual.vertices, dual.facets) == (ground, reference)
    assert alexander_dual(dual) == c
