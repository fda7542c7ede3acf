"""Build recipes, chordality recognition, and the bounded realization search."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from hyperbetti import chordal
from hyperbetti.bitsets import bits_of, contains, mask_of
from hyperbetti.chordal import (
    ChordalityReport,
    _find_chordless_cycle,
    auto_glue,
    build_chordal_with_chunks,
    complement_diameter,
    hypergraph_sequence_from_graph,
    sequence_for_line,
    two_gluing_classification,
    two_gluing_hypergraph,
)
from hyperbetti.ideal import search_order


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


def test_a_recipe_is_checked_when_it_is_made():
    """A glue vertex not built yet, or a glue across two pieces, is
    refused by the constructor, with the step it failed at."""
    with pytest.raises(ParameterError, match="step 1: glue vertex 3 does not exist yet"):
        AttachmentSequence(3, (AttachmentStep(3), AttachmentStep(2, (3,))))
    with pytest.raises(ParameterError, match="step 2: glue does not lie inside any complete piece"):
        AttachmentSequence(
            2, (AttachmentStep(2), AttachmentStep(2, (1,)), AttachmentStep(3, (0, 2)))
        )
    # the same pieces as masks: {0, 2} lies in neither earlier piece
    with pytest.raises(ParameterError, match="step 2: glue does not lie inside any complete piece"):
        AttachmentSequence.from_pieces(2, (0b0011, 0b0110, 0b1101))


def _reference_enumerate(d, max_vertices, max_steps):
    """Every attachment sequence within the bounds, depth-first, with the
    pieces tracked beside the steps."""

    def extend(steps, n, chunks):
        yield AttachmentSequence(d, tuple(steps)), tuple(chunks)
        if len(steps) >= max_steps:
            return
        glue_masks = {0}
        for c in chunks:
            for size in range(1, c.bit_count() + 1):
                glue_masks.update(mask_of(g) for g in itertools.combinations(bits_of(c), size))
        for gmask in sorted(glue_masks):
            j = gmask.bit_count()
            for size in range(j + 1, max_vertices + 1):
                fresh = size - j
                if n + fresh > max_vertices:
                    break
                step = AttachmentStep(size, tuple(bits_of(gmask)))
                chunk = gmask | (((1 << fresh) - 1) << n)
                yield from extend(steps + [step], n + fresh, chunks + [chunk])

    for first in range(1, max_vertices + 1):
        yield from extend([AttachmentStep(first)], first, [(1 << first) - 1])


@pytest.mark.parametrize("d", [2, 3, 4])
def test_enumerated_sequences_match_the_piece_tracking_enumerator(d):
    """The sequences come in the same order, with the pieces the
    enumerator tracked, at every bound up to 7 vertices and 3 steps."""
    for max_vertices in range(1, 8):
        for max_steps in range(1, 4):
            assert [
                (seq, seq.pieces()) for seq in enumerate_sequences(d, max_vertices, max_steps)
            ] == list(_reference_enumerate(d, max_vertices, max_steps))


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
    assert auto_glue((0b0111,), 2) == (0, 1)
    with pytest.raises(ParameterError):
        auto_glue((0b0011,), 3)


def _reference_auto_glue(pieces, n, j):
    """The least valid glue by walking every j-tuple of labels in order;
    None when no j-tuple lies inside a piece."""
    if j < 0:
        return None
    for cand in itertools.combinations(range(n), j):
        if any(contains(c, mask_of(cand)) for c in pieces):
            return cand
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 255), min_size=1, max_size=5), st.integers(-1, 9))
def test_auto_glue_is_the_least_tuple_of_the_label_walk(pieces, j):
    expected = _reference_auto_glue(pieces, max(p.bit_length() for p in pieces), j)
    if expected is None:
        with pytest.raises(ParameterError, match=f"no valid glue of size {j} exists"):
            auto_glue(pieces, j)
    else:
        assert auto_glue(pieces, j) == expected


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


def _reference_recognize(g):
    """Maximum-cardinality search, then a separate elimination check over
    the reversed order: the two-pass recognizer the one-pass one must
    agree with, report for report."""
    adj = {v: 0 for v in bits_of(g.vertices)}
    for e in g.edges:
        a, b = bits_of(e)
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    verts = list(adj)
    weight = {v: 0 for v in verts}
    seen = set()
    order_rev = []
    for _ in verts:
        v = max((u for u in verts if u not in seen), key=lambda u: (weight[u], -u))
        seen.add(v)
        order_rev.append(v)
        for u in bits_of(adj[v]):
            if u not in seen:
                weight[u] += 1
    order = tuple(reversed(order_rev))
    pos = {v: k for k, v in enumerate(order)}
    for v in order:
        later = [u for u in bits_of(adj[v]) if pos[u] > pos[v]]
        if not later:
            continue
        anchor = min(later, key=lambda u: pos[u])
        if mask_of(u for u in later if u != anchor) & ~adj[anchor]:
            return ChordalityReport(False, None, _find_chordless_cycle(adj))
    return ChordalityReport(True, order, None)


def _adjacent(g, a, b):
    return mask_of([a, b]) in g.edges


def _has_long_induced_cycle(g):
    """Brute force: some vertex set of four or more induces a connected
    graph in which every vertex has exactly two neighbours."""
    for sub in range(1 << g.n_vertices):
        if sub & ~g.vertices or sub.bit_count() < 4:
            continue
        verts = bits_of(sub)
        if any(sum(_adjacent(g, v, u) for u in verts) != 2 for v in verts):
            continue
        reached, frontier = {verts[0]}, [verts[0]]
        while frontier:
            v = frontier.pop()
            for u in verts:
                if u not in reached and _adjacent(g, v, u):
                    reached.add(u)
                    frontier.append(u)
        if len(reached) == len(verts):
            return True
    return False


def _assert_report_holds(g, rep):
    """The order is a perfect elimination order of the present vertices,
    or the cycle is induced and has four or more vertices."""
    if rep.is_chordal:
        order = rep.elimination_order
        assert rep.chordless_cycle is None and sorted(order) == bits_of(g.vertices)
        for k, v in enumerate(order):
            later = [u for u in order[k + 1 :] if _adjacent(g, v, u)]
            assert all(_adjacent(g, a, b) for a, b in itertools.combinations(later, 2))
    else:
        cycle = rep.chordless_cycle
        assert rep.elimination_order is None
        assert len(cycle) >= 4 and len(set(cycle)) == len(cycle)
        for s, t in itertools.combinations(range(len(cycle)), 2):
            consecutive = t - s == 1 or (s, t) == (0, len(cycle) - 1)
            assert _adjacent(g, cycle[s], cycle[t]) == consecutive


def _labelled_graphs(n):
    pairs = [mask_of(p) for p in itertools.combinations(range(n), 2)]
    for code in range(1 << len(pairs)):
        yield Hypergraph(n, frozenset(e for k, e in enumerate(pairs) if code >> k & 1))


@st.composite
def _graphs_on_a_vertex_mask(draw, most):
    n = draw(st.integers(0, most))
    vertices = draw(st.integers(0, (1 << n) - 1))
    pairs = [mask_of(p) for p in itertools.combinations(bits_of(vertices), 2)]
    code = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Hypergraph(n, frozenset(e for k, e in enumerate(pairs) if code >> k & 1), vertices)


# SHA-256 of every report on one to six vertices, one line per graph in
# code order: the cycle finder's discovery order is pinned with it, since
# the two-pass reference shares the finder.
_SMALL_GRAPH_REPORTS = "95a62b40d7056dd536d4aa3752602d9f0b9c7c5453971401ffb47a457ac282f7"


def test_the_recognizer_agrees_with_the_two_pass_reference_on_small_graphs():
    """Every labelled graph on one to six vertices: the same report as the
    two-pass reference, and an order or a cycle that holds; the reports,
    cycles included, are the pinned ones."""
    digest = hashlib.sha256()
    for n in range(1, 7):
        for g in _labelled_graphs(n):
            rep = chordal_graph_recognize(g)
            assert rep == _reference_recognize(g)
            _assert_report_holds(g, rep)
            digest.update(f"{rep.elimination_order}|{rep.chordless_cycle}\n".encode())
    assert digest.hexdigest() == _SMALL_GRAPH_REPORTS


@settings(max_examples=300, deadline=None)
@given(_graphs_on_a_vertex_mask(16))
def test_the_recognizer_agrees_with_the_two_pass_reference(g):
    rep = chordal_graph_recognize(g)
    assert rep == _reference_recognize(g)
    _assert_report_holds(g, rep)


@settings(max_examples=300, deadline=None)
@given(_graphs_on_a_vertex_mask(7))
def test_chordal_exactly_when_no_long_induced_cycle(g):
    rep = chordal_graph_recognize(g)
    assert rep.is_chordal == (not _has_long_induced_cycle(g))
    _assert_report_holds(g, rep)


def test_chordal_on_five_vertices_exactly_when_no_long_induced_cycle():
    """Every labelled graph on one to five vertices, against brute force."""
    for n in range(1, 6):
        for g in _labelled_graphs(n):
            assert chordal_graph_recognize(g).is_chordal == (not _has_long_induced_cycle(g))


def test_a_hypergraph_with_a_larger_edge_is_not_a_graph():
    h = Hypergraph(4, frozenset({0b0011, 0b1110}))
    for call in (chordal_graph_recognize, lambda g: hypergraph_sequence_from_graph(g, 2)):
        with pytest.raises(PreconditionError) as info:
            call(h)
        assert str(info.value) == "expected a graph (all edges of size 2)"


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


def _reference_graph_recipe(g, d):
    """The recipe of a chordal graph by relabelling its maximal cliques,
    taken in reverse elimination order, vertex by vertex, latest
    eliminated first."""
    order = chordal_graph_recognize(g).elimination_order
    pos = {v: k for k, v in enumerate(order)}
    adj = dict.fromkeys(order, 0)
    for e in g.edges:
        a, b = bits_of(e)
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    cliques = []
    for v in order:
        cand = (1 << v) | mask_of(u for u in bits_of(adj[v]) if pos[u] > pos[v])
        if not any(contains(c, cand) for c in cliques):
            cliques.append(cand)
    label, steps = {}, []
    for c in reversed(cliques):
        members = sorted(bits_of(c), key=lambda u: pos[u], reverse=True)
        glue = tuple(sorted(label[u] for u in members if u in label))
        for u in members:
            label.setdefault(u, len(label))
        steps.append(AttachmentStep(len(members), glue))
    return AttachmentSequence(max(d, 2), tuple(steps))


def _reference_chunk_recipe(chunks, d):
    """The recipe of a list of pieces, relabelled vertex by vertex in
    increasing order."""
    label, steps = {}, []
    for c in chunks:
        members = bits_of(c)
        glue = tuple(sorted(label[v] for v in members if v in label))
        for v in members:
            label.setdefault(v, len(label))
        steps.append(AttachmentStep(len(members), glue))
    return AttachmentSequence(d, tuple(steps))


def test_recipes_from_pieces_equal_the_vertex_by_vertex_relabelling(monkeypatch):
    """On seeded random graphs, the recipe and the realization witness are
    the ones the clique relabelling gives; on 3-uniform builds, the
    witness is the relabelling of the pieces the search found."""
    rng = random.Random(2323)
    for _ in range(400):
        n = rng.randrange(1, 12)
        density = rng.random()
        pairs = [mask_of(p) for p in itertools.combinations(range(n), 2)]
        g = Hypergraph(n, frozenset(e for e in pairs if rng.random() < density))
        if not chordal_graph_recognize(g).is_chordal:
            continue
        for d in (2, 3):
            assert hypergraph_sequence_from_graph(g, d) == _reference_graph_recipe(g, d)
        assert realization_search(g, 2).witness == _reference_graph_recipe(g, 2)
    found = []

    def recorded(*args):
        result = search_order(*args)
        found.append(result[0])
        return result

    monkeypatch.setattr(chordal, "search_order", recorded)
    for seq in itertools.islice(enumerate_sequences(3, 6, 3), 0, None, 37):
        found.clear()
        rep = realization_search(build_chordal(seq), 3)
        assert rep.witness == _reference_chunk_recipe(found[-1], 3)


def test_the_graph_search_recognizes_the_graph_once(monkeypatch):
    """For d = 2 the recognizer runs once, and its elimination order gives
    the witness that ``hypergraph_sequence_from_graph`` gives."""
    recognize = chordal.chordal_graph_recognize
    # two triangles on the edge {1, 2}, with a pendant vertex 4 on 3
    edges = ([0, 1], [0, 2], [1, 2], [1, 3], [2, 3], [3, 4])
    g = Hypergraph(5, frozenset(mask_of(e) for e in edges))
    witness = hypergraph_sequence_from_graph(g, 2)
    calls = []

    def counted(h):
        calls.append(h)
        return recognize(h)

    monkeypatch.setattr(chordal, "chordal_graph_recognize", counted)
    assert realization_search(g, 2) == chordal.RealizationReport(2, "chordal", witness, 0)
    assert calls == [g]
    calls.clear()
    assert realization_search(_cycle_graph(4), 2).outcome == "not_chordal"
    assert len(calls) == 1


def _reference_doomed(m, bigs, smalls):
    """The trim rule vertex by vertex: some vertex of m lies in no overlap
    of two or more vertices with a big piece or another small one."""
    for v in bits_of(m):
        bit = 1 << v
        if not any(
            other & bit and (other & m).bit_count() >= 2 for other in bigs
        ) and not any(
            other != m and other & bit and (other & m).bit_count() >= 2 for other in smalls
        ):
            return True
    return False


def _reference_hunted(m, bigs):
    """The hunt rule: the overlaps of two or more vertices with big pieces
    cover m."""
    covered = 0
    for b in bigs:
        part = m & b
        if part.bit_count() >= 2:
            covered |= part
    return covered == m


@settings(max_examples=300, deadline=None)
@given(
    st.integers(3, 255).filter(lambda m: m.bit_count() >= 2),
    st.lists(st.integers(1, 255), max_size=8),
    st.lists(st.integers(3, 255).filter(lambda m: m.bit_count() >= 2), max_size=8),
)
def test_the_overlap_rule_is_the_trim_and_the_hunt_rule(m, bigs, smalls):
    """The realization search's one coverage rule decides both its trim
    of the small pieces and its hunt pool as the two loops it replaced."""
    others = itertools.chain(bigs, (o for o in smalls if o != m))
    assert chordal._overlap_covered(m, others) == (not _reference_doomed(m, bigs, smalls))
    assert chordal._overlap_covered(m, bigs) == _reference_hunted(m, bigs)


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

