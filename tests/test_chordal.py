"""Build recipes, chordality recognition, and the bounded realization search."""

from __future__ import annotations

import itertools

import pytest

from hyperbetti import (
    AttachmentSequence,
    AttachmentStep,
    Hypergraph,
    ParameterError,
    PreconditionError,
    build_chordal,
    chordal_graph_recognize,
    enumerate_sequences,
    make_complete,
    make_cycle,
    make_line,
    make_star_overlap,
    realization_search,
)
from hyperbetti.bitsets import bits_of, mask_of
from hyperbetti.chordal import (
    auto_glue,
    build_chordal_with_chunks,
    complement_diameter,
    hypergraph_sequence_from_graph,
    sequence_for_line,
    two_gluing_classification,
    two_gluing_hypergraph,
)


def _cycle_graph(n):
    edges = frozenset(mask_of([i, (i + 1) % n]) for i in range(n))
    return Hypergraph(n, edges)


def test_a_graph_with_no_vertices_has_no_recipe():
    """The refusal names the graph, not the recipe steps it would need."""
    with pytest.raises(PreconditionError, match="no vertices"):
        hypergraph_sequence_from_graph(Hypergraph(0, frozenset()), 2)


def test_first_step_cannot_glue():
    with pytest.raises(ParameterError):
        AttachmentSequence(3, (AttachmentStep(3, (0,)),))


def test_glue_must_be_proper():
    with pytest.raises(ParameterError):
        AttachmentStep(2, (0, 1))


def test_build_two_overlapping_triples():
    seq = AttachmentSequence(3, (AttachmentStep(4, ()), AttachmentStep(3, (0, 1))))
    h, chunks = build_chordal_with_chunks(seq)
    assert h.n_vertices == 5
    assert len(h.edges) == 5
    assert chunks == (0b01111, 0b10011)


def test_small_pieces_deposit_isolated_vertices():
    seq = AttachmentSequence(3, (AttachmentStep(2, ()),))
    h = build_chordal(seq)
    assert h.n_vertices == 2 and h.edges == frozenset()


def test_sequence_json_roundtrip():
    seq = sequence_for_line(3, 3, 1)
    assert AttachmentSequence.from_json_obj(seq.to_json_obj()) == seq
    assert build_chordal(seq).edges == make_line(3, 3, 1).edges


def test_auto_glue_prefers_lexicographic():
    assert auto_glue((0b0111,), 3, 2) == (0, 1)
    with pytest.raises(ParameterError):
        auto_glue((0b0011,), 2, 3)


def test_enumerate_sequences_are_distinct_and_bounded():
    seqs = list(enumerate_sequences(3, 6, 2))
    assert len(seqs) == len(set(seqs))
    assert all(sum(step.size - len(step.glue) for step in s.steps) <= 6 for s in seqs)


def test_chordal_recognizer_on_graphs():
    """A 4-cycle fails, its chorded version passes."""
    rep = chordal_graph_recognize(_cycle_graph(4))
    assert not rep.is_chordal
    assert rep.chordless_cycle is not None and len(rep.chordless_cycle) == 4
    edges = set(_cycle_graph(4).edges) | {mask_of([0, 2])}
    rep2 = chordal_graph_recognize(Hypergraph(4, frozenset(edges)))
    assert rep2.is_chordal and rep2.elimination_order is not None


def test_two_gluing_hypergraph_counts():
    h = two_gluing_hypergraph(4, 3, 2, 3)
    assert h.n_vertices == 5
    assert len(h.edges) == 5


def test_two_gluing_classification_boundary():
    """The shared block must reach within one vertex of a piece."""
    assert two_gluing_classification(4, 3, 2, 3)
    assert two_gluing_classification(4, 2, 1, 3)
    assert not two_gluing_classification(5, 4, 2, 3)


def test_complement_diameter_values():
    assert complement_diameter(_cycle_graph(5)) == 2
    assert complement_diameter(make_complete(3, 2)) is None


def test_realization_search_agrees_with_cycle_route():
    """Cycle arrangements are decided by the general search: the ring of
    four triples is not chordal, three 4-sets sharing single vertices are."""
    rep = realization_search(make_cycle(4, 3, 1), 3)
    assert rep.outcome == "not_chordal"
    rep2 = realization_search(make_cycle(3, 4, 1), 4)
    assert rep2.outcome == "chordal" and rep2.witness is not None


def test_realization_search_families():
    assert realization_search(make_complete(5, 3), 3).outcome == "chordal"
    assert realization_search(make_line(3, 3, 1), 3).outcome == "chordal"
    assert realization_search(make_star_overlap(3, 3, 1), 3).outcome == "chordal"
    assert realization_search(Hypergraph(4, frozenset()), 3).outcome == "chordal"
    assert realization_search(_cycle_graph(4), 2).outcome == "not_chordal"
    # with no vertices the verdict does not depend on the uniformity
    for d in (2, 3):
        rep = realization_search(Hypergraph(0, frozenset()), d)
        assert (rep.outcome, rep.witness, rep.states_explored) == ("chordal", None, 0)


def test_realization_witness_replays_up_to_relabelling():
    """Witnesses rebuild the input exactly, modulo the fresh-label order."""

    def isomorphic(a, b):
        if a.num_vertices != b.num_vertices or len(a.edges) != len(b.edges):
            return False
        va, vb = bits_of(a.vertices), bits_of(b.vertices)
        for perm in itertools.permutations(vb):
            relabel = dict(zip(va, perm))
            mapped = frozenset(
                mask_of(relabel[v] for v in bits_of(e)) for e in a.edges
            )
            if mapped == b.edges:
                return True
        return False

    for seq in itertools.islice(enumerate_sequences(3, 6, 2), 0, None, 5):
        h = build_chordal(seq)
        rep = realization_search(h, 3)
        assert rep.outcome == "chordal"
        assert isomorphic(build_chordal(rep.witness), h)
    # every labelled graph on one to five vertices: the chordal ones come
    # with the witness the elimination order derives
    chordal = 0
    for n in range(1, 6):
        pairs = [mask_of(p) for p in itertools.combinations(range(n), 2)]
        for bits in range(1 << len(pairs)):
            g = Hypergraph(n, frozenset(e for k, e in enumerate(pairs) if bits >> k & 1))
            rep = realization_search(g, 2)
            if rep.outcome == "chordal":
                chordal += 1
                assert isomorphic(build_chordal(rep.witness), g)
            else:
                assert rep.outcome == "not_chordal"
    assert chordal == 894


def test_realization_budget_reports_inconclusive():
    rep = realization_search(make_cycle(4, 3, 1), 3, node_budget=50)
    assert rep.outcome == "inconclusive"
    assert rep.witness is None


def test_negative_node_budget_is_refused():
    with pytest.raises(ParameterError, match="node budget must be nonnegative"):
        realization_search(make_cycle(4, 3, 1), 3, node_budget=-5)


def test_exported_names_resolve():
    """Every name the package and its chordal module export exists, so a
    deletion cannot leave a stale entry in ``__all__``."""
    import hyperbetti
    import hyperbetti.chordal

    for module in (hyperbetti, hyperbetti.chordal):
        for name in module.__all__:
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"

