"""Inductively built hypergraphs from complete pieces, and their graph shadows.

The builder grows a hypergraph by repeatedly gluing a complete d-uniform
piece onto vertices of the part built so far.  A glue is accepted only when
its image lies inside a single previously added piece; identification along
scattered vertices is rejected.  For gluings of at least d vertices this is
the same as requiring the image to induce a complete sub-hypergraph, but for
smaller gluings it is strictly stronger, and it is the reading under which
the whole battery of structure results holds (with scattered gluings, cyclic
edge arrangements slip into the class).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable

from .bitsets import bits_of, contains, k_submasks, mask_of, submasks
from .errors import ParameterError, PreconditionError, SizeBudgetError
from .hypergraph import MAX_LISTED_EDGES, MAX_VERTICES, Hypergraph
from .hypergraph import json_field, json_int, json_vertex_set
from .ideal import search_order

__all__ = [
    "AttachmentStep",
    "AttachmentSequence",
    "build_chordal",
    "build_chordal_with_chunks",
    "auto_glue",
    "sequence_for_line",
    "enumerate_sequences",
    "hypergraph_sequence_from_graph",
    "ChordalityReport",
    "chordal_graph_recognize",
    "two_gluing_hypergraph",
    "two_gluing_classification",
    "complement_diameter",
    "RealizationReport",
    "realization_search",
]

# -- attachment sequences ---------------------------------------------


@dataclass(frozen=True)
class AttachmentStep:
    """One gluing: a complete piece on ``size`` vertices, identified with
    the existing hypergraph along the labelled ``glue`` vertices."""

    size: int
    glue: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "glue", tuple(self.glue))
        if self.size < 1:
            raise ParameterError("attached piece needs at least one vertex")
        if len(set(self.glue)) != len(self.glue):
            raise ParameterError("glue labels repeat")
        if len(self.glue) >= self.size:
            raise ParameterError("glue must be a proper subset of the piece")


@dataclass(frozen=True)
class AttachmentSequence:
    """A build recipe: the uniformity d plus the ordered gluing steps."""

    d: int
    steps: tuple[AttachmentStep, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        if self.d < 2:
            raise ParameterError("uniformity must be at least 2")
        if not self.steps:
            raise ParameterError("need at least one step")
        if self.steps[0].glue:
            raise ParameterError("the first step cannot glue onto anything")

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "steps": [
                {"i": s.size, "j": len(s.glue), "glue": list(s.glue)}
                for s in self.steps
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "AttachmentSequence":
        """Read a recipe: an integer ``d`` and a list of steps, each with an
        integer piece size ``i``, an optional list of ``glue`` labels and
        an optional glue size ``j`` that must match it."""
        raw_steps = json_field(obj, "steps", "attachment sequence")
        if not isinstance(raw_steps, list):
            raise ParameterError("malformed attachment sequence: 'steps' must be a list")
        steps = []
        for raw in raw_steps:
            size = json_int(raw, "i", "attachment step")
            glue = raw.get("glue", [])
            json_vertex_set(glue, "attachment step glue")
            if "j" in raw and json_int(raw, "j", "attachment step") != len(glue):
                raise ParameterError(
                    f"declared glue size {raw['j']} does not match {len(glue)} labels"
                )
            steps.append(AttachmentStep(size, tuple(glue)))
        return cls(json_int(obj, "d", "attachment sequence"), tuple(steps))

    @classmethod
    def from_json(cls, text: str) -> "AttachmentSequence":
        return cls.from_json_obj(json.loads(text))

    @classmethod
    def from_pieces(cls, d: int, pieces: Iterable[int]) -> "AttachmentSequence":
        """The recipe that glues these pieces, given as vertex masks, in
        this order: a piece's vertices new to the build take the next free
        labels in increasing order, and its glue is its part inside the
        earlier pieces, which must lie in a single one of them."""
        label: dict[int, int] = {}
        earlier: list[int] = []
        seen = 0
        steps = []
        for piece in pieces:
            glue = piece & seen
            if glue and not any(contains(c, glue) for c in earlier):
                raise PreconditionError(
                    "the pieces lost the running-intersection property"
                )
            glue_labels = tuple(sorted(label[v] for v in bits_of(glue)))
            for v in bits_of(piece & ~seen):
                label[v] = len(label)
            steps.append(AttachmentStep(piece.bit_count(), glue_labels))
            earlier.append(piece)
            seen |= piece
        return cls(d, tuple(steps))

    def pieces(self) -> tuple[int, ...]:
        """The pieces as vertex masks, in step order.

        New vertices get the next free labels, in order, so the same recipe
        always yields the same pieces.  Every step adds a vertex, so the
        last piece holds the highest label: its bit length is the vertex
        count.  Each step is checked when it is reached: its glue vertices
        exist, the glue lies inside one earlier piece, the build keeps
        within MAX_VERTICES vertices, and its pieces of at least d vertices
        list at most MAX_LISTED_EDGES d-subsets in all."""
        n = listed = 0
        pieces: list[int] = []
        for pos, step in enumerate(self.steps):
            gmask = 0
            for v in step.glue:
                if not 0 <= v < n:
                    raise ParameterError(
                        f"step {pos}: glue vertex {v} does not exist yet"
                    )
                gmask |= 1 << v
            if gmask:
                for c in pieces:
                    if contains(c, gmask):
                        break
                else:
                    raise ParameterError(
                        f"step {pos}: glue does not lie inside any complete piece"
                    )
            fresh = step.size - len(step.glue)
            if n + fresh > MAX_VERTICES:
                raise ParameterError(
                    f"step {pos}: the recipe needs more than {MAX_VERTICES} vertices"
                )
            if step.size >= self.d:
                listed += comb(step.size, self.d)
                if listed > MAX_LISTED_EDGES:
                    raise SizeBudgetError(
                        f"step {pos}: the recipe lists more than {MAX_LISTED_EDGES} edges"
                    )
            pieces.append(gmask | ((1 << fresh) - 1) << n)
            n += fresh
        return tuple(pieces)


def build_chordal_with_chunks(
    seq: AttachmentSequence,
) -> tuple[Hypergraph, tuple[int, ...]]:
    """Run the recipe, returning the hypergraph and its pieces as masks.
    Pieces smaller than d contribute no edges and just deposit isolated
    vertices (which later steps may glue onto)."""
    pieces = seq.pieces()
    edges = {e for p in pieces if p.bit_count() >= seq.d for e in k_submasks(p, seq.d)}
    return Hypergraph(pieces[-1].bit_length(), frozenset(edges)), pieces


def build_chordal(seq: AttachmentSequence) -> Hypergraph:
    """Run the recipe and return just the hypergraph."""
    return build_chordal_with_chunks(seq)[0]


def auto_glue(pieces: Iterable[int], j: int) -> tuple[int, ...]:
    """Lexicographically least j-tuple of existing labels that is a valid
    glue (inside a single piece); used by the CLI's "auto" mode.  Any
    valid j-tuple lies in some piece, whose j least vertices come no
    later, so the least is the least over the pieces of their j least."""
    fits = [tuple(bits_of(p)[:j]) for p in pieces if p.bit_count() >= j >= 0]
    if not fits:
        raise ParameterError(f"no valid glue of size {j} exists")
    return min(fits)


def sequence_for_line(n: int, d: int, alpha: int) -> AttachmentSequence:
    """n overlapping d-pieces in a row: each new piece glues onto the last
    alpha vertices of the previous one."""
    if n < 1 or d < 2 or not 1 <= alpha < d:
        raise ParameterError("need n >= 1, d >= 2, 1 <= alpha < d")
    steps = [AttachmentStep(d)]
    top = d
    for _ in range(n - 1):
        steps.append(AttachmentStep(d, tuple(range(top - alpha, top))))
        top += d - alpha
    return AttachmentSequence(d, tuple(steps))


def enumerate_sequences(d: int, max_vertices: int, max_steps: int):
    """Yield every attachment sequence within the size bounds, depth-first.

    Glues are enumerated as subsets of single existing pieces, deduplicated
    by mask at each step.  Different sequences can still build the same
    labelled hypergraph (for d = 2, 9 vertices and 3 steps, 58,961
    sequences build 52,913 distinct hypergraphs); ``verify._build_key``
    tells the builds apart from the steps alone, so the check pools keep
    one sequence per build and build only the sequences they keep.
    """

    def extend(steps: list[AttachmentStep], n: int, chunks: list[int]):
        seq = AttachmentSequence(d, tuple(steps))
        yield seq
        if len(steps) >= max_steps:
            return
        glue_masks: set[int] = {0}
        for c in chunks:
            for size in range(1, c.bit_count() + 1):
                glue_masks.update(k_submasks(c, size))
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
        yield from extend(
            [AttachmentStep(first)], first, [(1 << first) - 1]
        )


# -- graph shadows -----------------------------------------------------


def hypergraph_sequence_from_graph(g: Hypergraph, d: int) -> AttachmentSequence:
    """Derive a build recipe for the d-uniform hypergraph whose edges are
    the d-cliques of a chordal graph.

    Maximal cliques are taken in reverse elimination order, which gives the
    running-intersection property: each clique meets the union of the
    earlier ones inside a single earlier clique, so every glue validates.
    A graph with no vertices has no clique to start a recipe from.
    """
    if not g.vertices:
        raise PreconditionError("the graph has no vertices, so it has no build recipe")
    rep = chordal_graph_recognize(g)
    if not rep.is_chordal:
        raise PreconditionError("input graph is not chordal")
    order = rep.elimination_order
    assert order is not None
    # label the vertices latest-eliminated first, so that the recipe gives
    # each clique's new vertices their labels in that order
    rank = {v: len(order) - 1 - k for k, v in enumerate(order)}
    adj = _adjacency(g)
    cliques: list[int] = []
    for v in order:
        cand = mask_of(rank[u] for u in bits_of(adj[v]) if rank[u] < rank[v]) | 1 << rank[v]
        if not any(contains(c, cand) for c in cliques):
            cliques.append(cand)
    cliques.reverse()
    return AttachmentSequence.from_pieces(max(d, 2), cliques)


# -- graph chordality --------------------------------------------------


def _adjacency(g: Hypergraph) -> dict[int, int]:
    """Each present vertex's neighbours as a mask, each edge split into its
    low and high bit."""
    adj = dict.fromkeys(bits_of(g.vertices), 0)
    for e in g.edges:
        if e.bit_count() != 2:
            raise PreconditionError("expected a graph (all edges of size 2)")
        lo = e & -e
        hi = e ^ lo
        adj[lo.bit_length() - 1] |= hi
        adj[hi.bit_length() - 1] |= lo
    return adj


@dataclass(frozen=True)
class ChordalityReport:
    """Either an elimination order or an induced cycle with no shortcut."""

    is_chordal: bool
    elimination_order: tuple[int, ...] | None
    chordless_cycle: tuple[int, ...] | None


def chordal_graph_recognize(g: Hypergraph) -> ChordalityReport:
    """Maximum-cardinality search with the elimination check in the same
    pass (Tarjan and Yannakakis, 1984).

    The next vertex is the unpicked one with the most picked neighbours,
    the lowest label among equals.  When v is picked, its picked
    neighbours are its later neighbours in the elimination order (the
    reverse of the picking order), and the one picked most recently is
    the anchor: the order is perfect exactly when, for every v, the
    anchor is adjacent to the others.  On success the order lists
    vertices so that each one's later neighbours form a clique.  On
    failure, an induced cycle of length at least four is located and
    double-checked before being reported.
    """
    adj = _adjacency(g)
    unseen = list(adj)
    seen = 0
    picked: list[int] = []
    while unseen:
        v, best = unseen[0], -1
        for u in unseen:
            weight = (adj[u] & seen).bit_count()
            if weight > best:
                v, best = u, weight
        unseen.remove(v)
        later = adj[v] & seen
        if later:
            for anchor in reversed(picked):
                if later >> anchor & 1:
                    break
            if later & ~(1 << anchor) & ~adj[anchor]:
                cycle = _find_chordless_cycle(adj)
                if cycle is None:
                    raise RuntimeError(
                        "elimination check failed but no chordless cycle was found"
                    )
                return ChordalityReport(False, None, cycle)
        seen |= 1 << v
        picked.append(v)
    picked.reverse()
    return ChordalityReport(True, tuple(picked), None)


def _find_chordless_cycle(adj: dict[int, int]) -> tuple[int, ...] | None:
    """A shortest detour between two non-adjacent neighbours of some
    vertex, avoiding the rest of its neighbourhood, closes up chordlessly."""
    for v, nb in adj.items():
        nbs = bits_of(nb)
        for a, b in combinations(nbs, 2):
            if adj[a] & (1 << b):
                continue
            banned = (nb | (1 << v)) & ~(1 << a) & ~(1 << b)
            path = _shortest_path(adj, a, b, banned)
            if path is None:
                continue
            cycle = (v, *path)
            if _is_chordless(adj, cycle):
                return cycle
    return None


def _shortest_path(
    adj: dict[int, int], src: int, dst: int, banned: int
) -> tuple[int, ...] | None:
    prev: dict[int, int | None] = {src: None}
    frontier = [src]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for w in bits_of(adj[u]):
                if w in prev or banned & (1 << w):
                    continue
                prev[w] = u
                if w == dst:
                    path = [w]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return tuple(reversed(path))
                nxt.append(w)
        frontier = nxt
    return None


def _is_chordless(adj: dict[int, int], cycle: tuple[int, ...]) -> bool:
    k = len(cycle)
    if k < 4:
        return False
    for s in range(k):
        if not adj[cycle[s]] & (1 << cycle[(s + 1) % k]):
            return False
    for s in range(k):
        for t in range(s + 2, k):
            if s == 0 and t == k - 1:
                continue
            if adj[cycle[s]] & (1 << cycle[t]):
                return False
    return True


# -- gluing two complete pieces ----------------------------------------


def two_gluing_hypergraph(m: int, i: int, j: int, d: int) -> Hypergraph:
    """Complete pieces on m and i vertices sharing j identified vertices.

    The shared block is the tail of the first piece, so the result is
    canonical for fixed parameters.
    """
    _check_two_gluing(m, i, j, d)
    n = m + i - j
    first = (1 << m) - 1
    second = (((1 << (i - j)) - 1) << m) | (((1 << j) - 1) << (m - j))
    edges: set[int] = set(k_submasks(first, d))
    if i >= d:
        edges.update(k_submasks(second, d))
    return Hypergraph(n, frozenset(edges))


def _check_two_gluing(m: int, i: int, j: int, d: int) -> None:
    if d < 2:
        raise ParameterError("uniformity must be at least 2")
    if m < d:
        raise ParameterError("the first piece must have at least d vertices")
    if not 0 <= j < i:
        raise ParameterError("need 0 <= j < i")
    if j > m:
        raise ParameterError("the shared block cannot exceed the first piece")


def two_gluing_classification(m: int, i: int, j: int, d: int) -> bool:
    """Whether the edge ideal of the two-piece gluing has linear quotients.

    True when the second piece brings no edges, when it swallows the first
    piece whole (the union is then a single complete hypergraph), and
    otherwise exactly when the shared block misses just one vertex of
    either piece.
    """
    _check_two_gluing(m, i, j, d)
    if i < d:
        return True
    if j == m:
        return True
    return j == m - 1 or j == i - 1


# -- complement diameter -----------------------------------------------


def complement_diameter(g: Hypergraph) -> int | None:
    """Largest breadth-first distance in the complement graph, or None
    when the complement is disconnected."""
    adj = _adjacency(g)
    verts = list(adj)
    if len(verts) <= 1:
        return 0
    vmask = g.vertices
    cadj = {v: vmask & ~adj[v] & ~(1 << v) for v in verts}
    best = 0
    for src in verts:
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for w in bits_of(cadj[u]):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        if len(dist) != len(verts):
            return None
        best = max(best, max(dist.values()))
    return best


@dataclass(frozen=True)
class RealizationReport:
    """Outcome of the bounded build-recipe search for one hypergraph."""

    d: int
    outcome: str  # "chordal" | "not_chordal" | "inconclusive"
    witness: AttachmentSequence | None
    states_explored: int


# Most vertices the build-recipe search takes.
REALIZATION_MAX_VERTICES = 13


def realization_search(
    h: Hypergraph, d: int, *, node_budget: int = 500_000
) -> RealizationReport:
    """Decide whether a d-uniform hypergraph arises from gluing complete
    pieces, by exhausting a finite pool of candidate pieces.

    A piece on at least d vertices spans only edges, so the big
    candidates are exactly the vertex sets all of whose d-subsets are
    edges.  Small pieces are trimmed to a provably sufficient pool: a
    one-vertex piece is only ever needed for a vertex lying in no edge
    (any other singleton deletes from a valid recipe — a later glue
    through it either empties out or keeps another host), and a larger
    sub-edge piece earns its keep only by hosting glues of size at
    least two for later pieces (one-vertex glues always have another
    host, and a vertex of the piece serving no later glue deletes the
    same way), so each vertex of a surviving small piece must sit in a
    two-or-larger overlap with another pool member; pieces with an
    uncovered vertex are discarded, to a fixpoint.

    The search runs in two phases, each within the node budget: a
    witness hunt over the heuristically tighter pool of small pieces
    covered by their two-or-larger overlaps with big pieces, then the
    exhaustion of the full trimmed pool.  A witness from either phase
    is a verdict: replaying it rebuilds the hypergraph up to a
    relabelling of the vertices (build recipes always assign fresh
    labels in order).  Absence is a verdict only when the second phase
    exhausts, and running out of budget is reported as inconclusive,
    never as a verdict.  The hypergraph with no vertices is chordal with
    no witness, at any uniformity.  Uniformity two skips the search
    entirely: the elimination-order recognizer decides it at any size.
    """
    if not h.is_uniform(d):
        raise PreconditionError(f"expected a {d}-uniform hypergraph")
    n = h.num_vertices
    if n == 0:
        return RealizationReport(d, "chordal", None, 0)
    if d == 2:
        rep = chordal_graph_recognize(h)
        if not rep.is_chordal:
            return RealizationReport(2, "not_chordal", None, 0)
        return RealizationReport(
            2, "chordal", hypergraph_sequence_from_graph(h, 2), 0
        )
    if n > REALIZATION_MAX_VERTICES:
        raise SizeBudgetError(
            f"{n} vertices exceeds the realization-search bound {REALIZATION_MAX_VERTICES}"
        )
    verts = h.vertices
    covered_by_edges = 0
    for e in h.edges:
        covered_by_edges |= e
    singles: list[int] = []
    bigs: list[int] = []
    smalls: set[int] = set()
    for m in submasks(verts):
        size = m.bit_count()
        if size == 0:
            continue
        if size == 1:
            if not m & covered_by_edges:
                singles.append(m)
            continue
        if size >= d:
            if all(sub in h.edges for sub in k_submasks(m, d)):
                bigs.append(m)
            continue
        smalls.add(m)
    while True:
        doomed = []
        for m in smalls:
            for v in bits_of(m):
                bit = 1 << v
                if not any(
                    other & bit and (other & m).bit_count() >= 2 for other in bigs
                ) and not any(
                    other != m and other & bit and (other & m).bit_count() >= 2
                    for other in smalls
                ):
                    doomed.append(m)
                    break
        if not doomed:
            break
        smalls.difference_update(doomed)
    hunt_smalls = []
    for m in smalls:
        covered = 0
        for b in bigs:
            part = m & b
            if part.bit_count() >= 2:
                covered |= part
        if covered == m:
            hunt_smalls.append(m)

    def order(masks) -> list[int]:
        return sorted(masks, key=lambda m: (-m.bit_count(), m))

    def done(_chunks, state):
        return state[0] == verts and not state[1]

    states = 0
    for pool, conclusive in (
        (order(bigs) + order(hunt_smalls) + singles, False),
        (order(bigs) + order(smalls) + singles, True),
    ):
        def children(chunks, placed, state):
            used, remaining = state
            for cand in pool:
                if cand in placed or not cand & ~used:
                    continue
                glue = cand & used
                if glue and not any(contains(c, glue) for c in chunks):
                    continue
                yield cand, (used | cand, frozenset(e for e in remaining if not contains(cand, e)))

        try:
            found, nodes = search_order((0, frozenset(h.edges)), children, done, node_budget)
        except SizeBudgetError:
            states += node_budget + 1
            if conclusive:
                return RealizationReport(d, "inconclusive", None, states)
            continue
        states += nodes
        if found is not None:
            return RealizationReport(
                d, "chordal", AttachmentSequence.from_pieces(d, found), states
            )
        if conclusive:
            return RealizationReport(d, "not_chordal", None, states)
    raise AssertionError("unreachable: the conclusive phase always returns")
