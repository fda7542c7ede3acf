"""Simple hypergraphs on bitmask vertex sets, plus the stock families.

A hypergraph here is *simple*: no edge contains another and every edge
has at least two vertices.  Vertices are labeled ``0..n_vertices-1`` and
every vertex set (edges included) is an int bitmask.  Instances are
immutable; all operations return new values.

An induced subhypergraph keeps the ambient labeling and records which
vertices are actually present in ``vertices``; for ordinary hypergraphs
that mask is simply all of ``0..n_vertices-1``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .bitsets import bits_of, contains, k_submasks, mask_of, min_antichain
from .errors import ParameterError, SizeBudgetError

MAX_VERTICES = 63
# Family makers and build recipes listing more d-subsets than this
# (repeats counted) are refused before any is listed: more edges than
# any hypergraph on 20 vertices has (C(20, 10) = 184,756), the default
# vertex budget of the Betti routes.
MAX_LISTED_EDGES = 1 << 18


@dataclass(frozen=True)
class Hypergraph:
    """A simple hypergraph with an explicit ambient vertex set."""

    n_vertices: int
    edges: frozenset[int]
    vertices: int = -1  # bitmask of present vertices; -1 means all of them

    def __post_init__(self) -> None:
        if not 0 <= self.n_vertices <= MAX_VERTICES:
            raise ParameterError(
                f"vertex count must be between 0 and {MAX_VERTICES}, got {self.n_vertices}"
            )
        full = (1 << self.n_vertices) - 1
        if self.vertices == -1:
            object.__setattr__(self, "vertices", full)
        if self.vertices & ~full:
            raise ParameterError("vertex mask uses labels outside the ambient range")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        sizes = set()
        for e in self.edges:
            if e & ~self.vertices:
                raise ParameterError("edge uses a vertex not present in the hypergraph")
            if e.bit_count() < 2:
                raise ParameterError("edges need at least two vertices")
            sizes.add(e.bit_count())
        # distinct sets of one size never contain each other
        if len(sizes) > 1 and len(min_antichain(self.edges)) != len(self.edges):
            raise ParameterError("edges must form an antichain (simple hypergraph)")

    # -- basic views --------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices actually present (not the ambient width)."""
        return self.vertices.bit_count()

    @property
    def uniform_degree(self) -> int | None:
        """Common edge size if the hypergraph is uniform, else None."""
        sizes = {e.bit_count() for e in self.edges}
        if len(sizes) == 1:
            return sizes.pop()
        return None

    def is_uniform(self, d: int) -> bool:
        """True when every edge has exactly d vertices (vacuous if edgeless)."""
        return all(e.bit_count() == d for e in self.edges)

    def edge_list(self) -> list[tuple[int, ...]]:
        """Edges as sorted vertex tuples, in lexicographic order."""
        return sorted(tuple(bits_of(e)) for e in self.edges)

    def vertex_list(self) -> list[int]:
        return bits_of(self.vertices)

    # -- serialization ------------------------------------------------

    def to_json_obj(self) -> dict:
        obj: dict = {"n": self.n_vertices, "edges": [list(t) for t in self.edge_list()]}
        if self.vertices != (1 << self.n_vertices) - 1:
            obj["vertices"] = self.vertex_list()
        return obj

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Hypergraph":
        n = json_int(obj, "n", "hypergraph")
        edges = frozenset(json_vertex_sets(obj, "edges", "hypergraph", "edge"))
        vertices = -1
        if "vertices" in obj:
            vertices = json_vertex_set(obj["vertices"], "hypergraph vertex list")
        return cls(n, edges, vertices)

    @classmethod
    def from_json(cls, text: str) -> "Hypergraph":
        return cls.from_json_obj(json.loads(text))


# -- JSON readers -----------------------------------------------------
#
# Every JSON object the package reads turns its vertex-label lists into
# bitmasks here, and malformed input of any shape ends in ParameterError
# (exit 2 in the CLI) instead of a negative shift, a huge mask or a
# TypeError.


def json_field(obj, key: str, kind: str):
    """``obj[key]`` of a JSON object that should describe a ``kind``."""
    if not isinstance(obj, dict):
        raise ParameterError(f"malformed {kind}: not a JSON object")
    if key not in obj:
        raise ParameterError(f"malformed {kind}: missing {key!r}")
    return obj[key]


def json_int(obj, key: str, kind: str) -> int:
    value = json_field(obj, key, kind)
    if type(value) is not int:  # a JSON boolean is not a count
        raise ParameterError(f"malformed {kind}: {key!r} must be an integer")
    return value


def json_vertex_set(value, what: str) -> int:
    """Bitmask of a list of vertex labels, integers from 0 to MAX_VERTICES - 1."""
    if isinstance(value, (list, tuple)) and all(
        type(v) is int and 0 <= v < MAX_VERTICES for v in value
    ):
        return mask_of(value)
    raise ParameterError(
        f"malformed {what}: expected a list of integer vertex labels "
        f"from 0 to {MAX_VERTICES - 1}"
    )


def json_vertex_sets(obj, key: str, kind: str, item: str) -> list[int]:
    """Bitmasks of the list of vertex-label lists under ``obj[key]``."""
    value = json_field(obj, key, kind)
    if not isinstance(value, (list, tuple)):
        raise ParameterError(f"malformed {kind}: {key!r} must be a list")
    return [json_vertex_set(v, f"{kind} {item}") for v in value]


def canonical_json(obj) -> str:
    """Serialize with sorted keys and no whitespace; byte-stable."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def canonical_hash(h: Hypergraph) -> str:
    """SHA-256 of the canonical serialization; stable across runs."""
    return hashlib.sha256(h.to_json().encode("ascii")).hexdigest()


@dataclass(frozen=True)
class FamilySpec:
    """Which stock family an instance came from, for closed-form routing."""

    kind: str  # complete | line | cycle | star | multipartite
    n: int | None = None
    d: int | None = None
    alpha: int | None = None
    parts: tuple[int, ...] | None = None

    def to_json_obj(self) -> dict:
        obj: dict = {"kind": self.kind}
        for key in ("n", "d", "alpha"):
            if getattr(self, key) is not None:
                obj[key] = getattr(self, key)
        if self.parts is not None:
            obj["parts"] = list(self.parts)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FamilySpec":
        """Read a family tag; its parameters are integers from 0 to
        MAX_VERTICES, as no larger one describes a member."""
        kind = json_field(obj, "kind", "family tag")
        if not isinstance(kind, str):
            raise ParameterError("malformed family tag: 'kind' must be a string")
        params = {key: obj.get(key) for key in ("n", "d", "alpha")}
        parts = obj.get("parts")
        if parts is not None:
            if not isinstance(parts, list):
                raise ParameterError("malformed family tag: 'parts' must be a list")
            parts = tuple(parts)
        for value in [*params.values(), *(parts or ())]:
            if value is not None and not (type(value) is int and 0 <= value <= MAX_VERTICES):
                raise ParameterError(
                    f"malformed family tag: parameters must be integers from 0 to {MAX_VERTICES}"
                )
        return cls(kind=kind, parts=parts, **params)


# -- families ---------------------------------------------------------


def make_complete(n: int, d: int) -> Hypergraph:
    """All d-subsets of n vertices; with n < d just n isolated vertices."""
    if d < 2:
        raise ParameterError("edge size d must be at least 2")
    if n < 0:
        raise ParameterError("vertex count must be nonnegative")
    _check_listing(n, d)
    edges = frozenset(mask_of(c) for c in combinations(range(n), d))
    return Hypergraph(n, edges)


def make_line(n: int, d: int, alpha: int) -> Hypergraph:
    """n edges of size d in a row, consecutive edges sharing alpha vertices.

    Edge k (1-based) occupies positions [(k-1)(d-alpha), (k-1)(d-alpha)+d);
    the total vertex count is n(d-alpha)+alpha.  Requires 2*alpha <= d so
    that non-consecutive edges are disjoint.
    """
    _check_overlap_params(n, d, alpha, min_edges=1)
    step = d - alpha
    edges = frozenset(mask_of(range(k * step, k * step + d)) for k in range(n))
    return Hypergraph(n * step + alpha, edges)


def make_cycle(n: int, d: int, alpha: int) -> Hypergraph:
    """n edges of size d arranged cyclically, adjacent overlap alpha.

    The last edge wraps around to share its final alpha vertices with the
    first edge; the total vertex count is n(d-alpha).
    """
    _check_overlap_params(n, d, alpha, min_edges=3)
    step = d - alpha
    total = n * step
    edges = frozenset(
        mask_of((k * step + t) % total for t in range(d)) for k in range(n)
    )
    return Hypergraph(total, edges)


def make_star_overlap(n: int, d: int, alpha: int) -> Hypergraph:
    """n edges of size d through one common core of alpha vertices.

    Pairwise intersections all equal the core, and d > alpha keeps a free
    vertex in every edge.  Total vertex count: alpha + n(d-alpha).
    """
    if n < 1:
        raise ParameterError("need at least one edge")
    if d < 2:
        raise ParameterError("edge size d must be at least 2")
    if not 1 <= alpha < d:
        raise ParameterError("core size alpha must satisfy 1 <= alpha < d")
    core = mask_of(range(alpha))
    step = d - alpha
    edges = frozenset(
        core | mask_of(range(alpha + k * step, alpha + (k + 1) * step))
        for k in range(n)
    )
    return Hypergraph(alpha + n * step, edges)


# The makers of the families with an overlap, each called as (n, d, alpha).
OVERLAP_FAMILIES = {"line": make_line, "cycle": make_cycle, "star": make_star_overlap}


def make_multipartite(parts: tuple[int, ...] | list[int], d: int) -> Hypergraph:
    """Complete multipartite: d-subsets meeting at least two vertex classes."""
    if d < 2:
        raise ParameterError("edge size d must be at least 2")
    parts = tuple(parts)
    if not parts or any(p < 1 for p in parts):
        raise ParameterError("each part needs at least one vertex")
    n = sum(parts)
    _check_listing(n, d)
    part_masks = []
    start = 0
    for p in parts:
        part_masks.append(mask_of(range(start, start + p)))
        start += p
    edges = set()
    for c in combinations(range(n), d):
        m = mask_of(c)
        if not any(contains(pm, m) for pm in part_masks):
            edges.add(m)
    return Hypergraph(n, frozenset(edges))


def _check_listing(n: int, d: int) -> None:
    if comb(n, d) > MAX_LISTED_EDGES:
        raise SizeBudgetError(
            f"the family lists more than {MAX_LISTED_EDGES} {d}-subsets of {n} vertices"
        )


def _check_overlap_params(n: int, d: int, alpha: int, min_edges: int) -> None:
    if n < min_edges:
        raise ParameterError(f"need at least {min_edges} edges, got {n}")
    if d < 2:
        raise ParameterError("edge size d must be at least 2")
    if alpha < 1:
        raise ParameterError("overlap alpha must be at least 1")
    if 2 * alpha > d:
        raise ParameterError("overlap must satisfy 2*alpha <= d")


# -- operations -------------------------------------------------------


def non_edges(h: Hypergraph, d: int) -> list[int]:
    """The d-subsets of the present vertices that are not edges, in
    vertex order.  For d-uniform h these are the minimal nonfaces of the
    clique-style complex (a d-set is a face exactly when it is an edge,
    and every smaller set is a face)."""
    return [m for m in k_submasks(h.vertices, d) if m not in h.edges]


def free_vertices(h: Hypergraph) -> dict[int, int]:
    """Map each edge to the mask of its vertices lying in no other edge."""
    out = {}
    for e in h.edges:
        others = 0
        for f in h.edges:
            if f != e:
                others |= f
        out[e] = e & ~others
    return out


def every_edge_has_free_vertex(h: Hypergraph) -> bool:
    return all(m != 0 for m in free_vertices(h).values())
