"""Hypergraph container, stock families, and serialization."""

from __future__ import annotations

import pytest

from hyperbetti import (
    FamilySpec,
    Hypergraph,
    ParameterError,
    canonical_hash,
    canonical_json,
    make_complete,
    make_cycle,
    make_line,
    make_multipartite,
    make_star_overlap,
)
from hyperbetti.bitsets import bits_of, mask_of


def test_edges_must_fit_ambient():
    """An edge outside the vertex range is rejected."""
    with pytest.raises(ParameterError):
        Hypergraph(3, frozenset({0b1001}))


def test_single_vertex_edges_rejected():
    with pytest.raises(ParameterError):
        Hypergraph(3, frozenset({0b100}))


def test_uniform_degree_mixed_is_none():
    h = Hypergraph(4, frozenset({0b0011, 0b1110}))
    assert h.uniform_degree is None
    assert not h.is_uniform(2)


def test_induced_vertex_mask_roundtrip():
    """A hypergraph on a sub-ground-set keeps its labels through JSON."""
    h = Hypergraph(5, frozenset({0b01010}), 0b11010)
    obj = h.to_json_obj()
    assert obj["vertices"] == [1, 3, 4]
    assert Hypergraph.from_json_obj(obj) == h


def test_canonical_json_is_sorted_and_compact():
    h = make_line(2, 3, 1)
    text = canonical_json(h.to_json_obj())
    assert text == '{"edges":[[0,1,2],[2,3,4]],"n":5}'


def test_canonical_hash_is_stable_under_key_order():
    h = make_cycle(3, 3, 1)
    again = Hypergraph.from_json_obj(h.to_json_obj())
    assert canonical_hash(h) == canonical_hash(again)


def test_line_family_shape():
    """n edges in a row overlapping in alpha vertices each."""
    h = make_line(3, 3, 1)
    assert h.n_vertices == 7
    assert sorted(bits_of(e) for e in h.edges) == [[0, 1, 2], [2, 3, 4], [4, 5, 6]]


def test_cycle_family_wraps_around():
    h = make_cycle(4, 3, 1)
    assert h.n_vertices == 8
    assert mask_of([0, 6, 7]) in h.edges


def test_cycle_rejects_too_few_edges():
    with pytest.raises(ParameterError):
        make_cycle(2, 3, 1)


def test_star_family_has_common_core():
    h = make_star_overlap(3, 4, 2)
    core = mask_of([0, 1])
    assert all(e & core == core for e in h.edges)
    assert h.n_vertices == 2 + 3 * 2


def test_alpha_bounds_are_enforced():
    with pytest.raises(ParameterError):
        make_line(3, 3, 5)
    with pytest.raises(ParameterError):
        make_star_overlap(3, 3, 3)


def test_complete_below_degree_is_isolated_vertices():
    h = make_complete(3, 4)
    assert h.n_vertices == 3
    assert h.edges == frozenset()


def test_complete_counts_subsets():
    assert len(make_complete(5, 3).edges) == 10


def test_multipartite_excludes_within_part_sets():
    """Edges are the d-sets meeting at least two vertex classes."""
    h = make_multipartite((3, 3), 3)
    assert h.n_vertices == 6
    assert len(h.edges) == 18
    assert mask_of([0, 1, 2]) not in h.edges
    assert mask_of([3, 4, 5]) not in h.edges


def test_family_spec_roundtrip():
    spec = FamilySpec("multipartite", d=3, parts=(2, 1, 2))
    assert FamilySpec.from_json_obj(spec.to_json_obj()) == spec


def test_family_tag_survives_hypergraph_parse():
    """Extra keys on a hypergraph object are ignored, not rejected."""
    h = make_star_overlap(2, 3, 1)
    obj = h.to_json_obj()
    obj["family"] = FamilySpec("star", n=2, d=3, alpha=1).to_json_obj()
    assert Hypergraph.from_json_obj(obj) == h


def test_nested_edges_are_refused():
    with pytest.raises(ParameterError) as exc:
        Hypergraph(3, frozenset({0b011, 0b111}))
    assert str(exc.value) == "edges must form an antichain (simple hypergraph)"
