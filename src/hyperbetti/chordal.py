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


def build_chordal_with_chunks(
    seq: AttachmentSequence,
) -> tuple[Hypergraph, tuple[int, ...]]:
    """Run the recipe, returning the hypergraph and the pieces as masks.

    New vertices get the next free labels, in order, so rebuilding the same
    sequence is byte-stable.  Pieces smaller than d contribute no edges and
    just deposit isolated vertices (which later steps may glue onto).
    """
    n = listed = 0
    chunks: list[int] = []
    edges: set[int] = set()
    for pos, step in enumerate(seq.steps):
        gmask = 0
        for v in step.glue:
            if not 0 <= v < n:
                raise ParameterError(
                    f"step {pos}: glue vertex {v} does not exist yet"
                )
            gmask |= 1 << v
        if gmask and not any(contains(c, gmask) for c in chunks):
            raise ParameterError(
                f"step {pos}: glue does not lie inside any complete piece"
            )
        fresh = step.size - len(step.glue)
        if n + fresh > MAX_VERTICES:
            raise ParameterError(
                f"step {pos}: the recipe needs more than {MAX_VERTICES} vertices"
            )
        chunk = gmask | (((1 << fresh) - 1) << n)
        n += fresh
        chunks.append(chunk)
        if step.size >= seq.d:
            listed += comb(step.size, seq.d)
            if listed > MAX_LISTED_EDGES:
                raise SizeBudgetError(
                    f"step {pos}: the recipe lists more than {MAX_LISTED_EDGES} edges"
                )
            edges.update(k_submasks(chunk, seq.d))
    return Hypergraph(n, frozenset(edges)), tuple(chunks)


def build_chordal(seq: AttachmentSequence) -> Hypergraph:
    """Run the recipe and return just the hypergraph."""
    return build_chordal_with_chunks(seq)[0]


def auto_glue(chunks: tuple[int, ...], n: int, j: int) -> tuple[int, ...]:
    """Lexicographically least j-tuple of existing labels that is a valid
    glue (inside a single piece); used by the CLI's "auto" mode."""
    if j == 0:
        return ()
    for cand in combinations(range(n), j):
        m = mask_of(cand)
        if any(contains(c, m) for c in chunks):
            return cand
    raise ParameterError(f"no valid glue of size {j} exists")


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
    sequences build 52,913 distinct hypergraphs); ``verify._distinct_builds``
    keeps one sequence per build.
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
    pos = {v: k for k, v in enumerate(order)}
    adj = _adjacency(g)
    cliques: list[int] = []
    for v in order:
        later = [u for u in bits_of(adj[v]) if pos[u] > pos[v]]
        cand = (1 << v) | mask_of(later)
        if not any(contains(c, cand) for c in cliques):
            cliques.append(cand)
    cliques.reverse()
    steps: list[AttachmentStep] = []
    label_of: dict[int, int] = {}
    chunks: list[int] = []
    for c in cliques:
        members = sorted(bits_of(c), key=lambda u: pos[u], reverse=True)
        old = [u for u in members if u in label_of]
        glue = tuple(sorted(label_of[u] for u in old))
        nxt = len(label_of)
        for u in members:
            if u not in label_of:
                label_of[u] = nxt
                nxt += 1
        steps.append(AttachmentStep(len(members), glue))
        chunks.append(mask_of(label_of[u] for u in members))
        if glue and not any(
            contains(ch, mask_of(glue)) for ch in chunks[:-1]
        ):
            raise PreconditionError(
                "clique ordering lost the running-intersection property"
            )
    return AttachmentSequence(max(d, 2), tuple(steps))


# -- graph chordality --------------------------------------------------


def _adjacency(g: Hypergraph) -> dict[int, int]:
    if not g.is_uniform(2):
        raise PreconditionError("expected a graph (all edges of size 2)")
    adj = {v: 0 for v in bits_of(g.vertices)}
    for e in g.edges:
        a, b = bits_of(e)
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


@dataclass(frozen=True)
class ChordalityReport:
    """Either an elimination order or an induced cycle with no shortcut."""

    is_chordal: bool
    elimination_order: tuple[int, ...] | None
    chordless_cycle: tuple[int, ...] | None


def chordal_graph_recognize(g: Hypergraph) -> ChordalityReport:
    """Maximum-cardinality search plus an elimination check.

    On success the returned order lists vertices so that each one's later
    neighbours form a clique.  On failure, an induced cycle of length at
    least four is located and double-checked before being reported.
    """
    adj = _adjacency(g)
    verts = list(adj)
    weight = {v: 0 for v in verts}
    seen: set[int] = set()
    order_rev: list[int] = []
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
        rest = mask_of(u for u in later if u != anchor)
        if rest & ~adj[anchor]:
            cycle = _find_chordless_cycle(adj)
            if cycle is None:
                raise RuntimeError(
                    "elimination check failed but no chordless cycle was found"
                )
            return ChordalityReport(False, None, cycle)
    return ChordalityReport(True, order, None)


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
                d, "chordal", _sequence_from_chunks(found, d), states
            )
        if conclusive:
            return RealizationReport(d, "not_chordal", None, states)
    raise AssertionError("unreachable: the conclusive phase always returns")


def _sequence_from_chunks(chunks: tuple[int, ...], d: int) -> AttachmentSequence:
    """Relabel a concrete chunk list into a buildable sequence."""
    label: dict[int, int] = {}
    steps = []
    for c in chunks:
        members = bits_of(c)
        glue = tuple(sorted(label[v] for v in members if v in label))
        for v in members:
            if v not in label:
                label[v] = len(label)
        steps.append(AttachmentStep(len(members), glue))
    return AttachmentSequence(d, tuple(steps))
