"""Simplicial complexes as facet lists over bitmask ground sets.

The two constructions used throughout are the independence complex of a
hypergraph (faces = sets containing no edge) and, for d-uniform input,
the clique-style complex whose faces are the sets all of whose
d-subsets are edges.  Everything is exact and pure Python.

Conventions: a complex with no faces at all is *void* (``facets`` is
empty); the complex whose only face is the empty set has ``facets ==
{0}``.  The ground set is carried explicitly so restriction and
Alexander duality are unambiguous.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

from .bitsets import bits_of, contains, k_submasks, mask_of, max_antichain, min_antichain, submasks
from .errors import ParameterError, PreconditionError, SizeBudgetError
from .hypergraph import MAX_LISTED_EDGES, Hypergraph, canonical_json, json_int
from .hypergraph import json_vertex_set, json_vertex_sets, non_edges


@dataclass(frozen=True)
class SimplicialComplex:
    n_vertices: int
    facets: frozenset[int]
    vertices: int = -1  # ground-set mask; -1 means all ambient vertices

    def __post_init__(self) -> None:
        if not 0 <= self.n_vertices <= 63:
            raise ParameterError("vertex count must be between 0 and 63")
        full = (1 << self.n_vertices) - 1
        if self.vertices == -1:
            object.__setattr__(self, "vertices", full)
        if self.vertices & ~full:
            raise ParameterError("ground-set mask outside ambient range")
        if not isinstance(self.facets, frozenset):
            object.__setattr__(self, "facets", frozenset(self.facets))
        if any(f & ~self.vertices for f in self.facets):
            raise ParameterError("facet uses a vertex outside the ground set")
        if len(min_antichain(self.facets)) != len(self.facets):
            raise ParameterError("facets must be mutually incomparable")

    # -- structure ----------------------------------------------------

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int | None:
        """Dimension, or None for the void complex.  Empty complex: -1."""
        if self.is_void:
            return None
        return max(f.bit_count() for f in self.facets) - 1

    def facet_list(self) -> list[tuple[int, ...]]:
        return sorted(tuple(bits_of(f)) for f in self.facets)

    # -- serialization ------------------------------------------------

    def to_json_obj(self) -> dict:
        obj: dict = {
            "n": self.n_vertices,
            "facets": [list(t) for t in self.facet_list()],
            "void": self.is_void,
        }
        if self.vertices != (1 << self.n_vertices) - 1:
            obj["vertices"] = bits_of(self.vertices)
        return obj

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SimplicialComplex":
        n = json_int(obj, "n", "complex")
        facets = frozenset(json_vertex_sets(obj, "facets", "complex", "facet"))
        if not facets and obj.get("void") is False:
            facets = frozenset({0})
        vertices = -1
        if "vertices" in obj:
            vertices = json_vertex_set(obj["vertices"], "complex vertex list")
        return cls(n, facets, vertices)

    @classmethod
    def from_json(cls, text: str) -> "SimplicialComplex":
        return cls.from_json_obj(json.loads(text))

    @classmethod
    def from_faces(cls, n: int, faces, vertices: int = -1) -> "SimplicialComplex":
        """Build from any generating family of faces (maximal ones kept)."""
        masks = [f if isinstance(f, int) else mask_of(f) for f in faces]
        return cls(n, max_antichain(masks), vertices)


# -- transversals and nonfaces ---------------------------------------


def minimal_transversals(masks, cap: int = MAX_LISTED_EDGES) -> frozenset[int]:
    """All minimal sets meeting every mask in the family.

    Incremental dualization: fold one mask m in at a time.  The minimal
    transversals that already meet m stay as they are; each one t that
    misses m is replaced by the candidates t | v, v in m, and a candidate
    is kept unless a transversal that meets m lies inside it.  No other
    test is needed.  If t | v lies inside t' | v', then t lies inside t'
    (t misses m), so t = t' and v = v': candidates never contain one
    another.  Nor can a candidate lie inside (or equal) a transversal h
    that meets m, since t would then lie strictly inside h.  And h can
    lie inside t | v only when h meets m in v alone, so only those h are
    tried.  An empty family has the empty set as its unique transversal;
    a family containing the empty mask has none.

    The masks go in increasing order, so the fold of the last mask inside
    the vertices 0..k ends with the minimal transversals of the masks
    inside 0..k.  Each of those, with the vertices above k added and then
    trimmed above k, becomes a minimal transversal of the whole family
    that meets 0..k in it, so the family has at least as many.  Once that
    fold holds more than cap of them, it stops and refuses with
    SizeBudgetError.
    """
    trans: list[int] = [0]
    ordered = sorted(set(masks))
    for m, after in zip(ordered, ordered[1:] + [None]):
        if m == 0:
            return frozenset()
        grown = [t for t in trans if t & m]
        meets_only: dict[int, list[int]] = {}
        for h in grown:
            if (h & m).bit_count() == 1:
                meets_only.setdefault(h & m, []).append(h)
        ends_group = after is None or after.bit_length() > m.bit_length()
        for t in trans:
            if ends_group and len(grown) > cap:
                break
            if t & m:
                continue
            mm = m
            while mm:
                low = mm & -mm
                mm ^= low
                cand = t | low
                for h in meets_only.get(low, ()):
                    if h & ~cand == 0:
                        break
                else:
                    grown.append(cand)
        trans = grown
        if ends_group and len(trans) > cap:
            raise SizeBudgetError(f"the dualization yields more than {cap} sets")
    return frozenset(trans)


def minimal_nonfaces(c: SimplicialComplex) -> frozenset[int]:
    """Minimal subsets of the ground set that are not faces.

    A set misses every facet exactly when it meets every facet
    complement, so these are the minimal transversals of the
    complemented facet family.
    """
    return minimal_transversals(c.vertices & ~f for f in c.facets)


def independence_complex(h: Hypergraph, cap: int = MAX_LISTED_EDGES) -> SimplicialComplex:
    """Faces are the sets containing no edge of h; refused past cap facets."""
    facets = frozenset(
        h.vertices & ~t for t in minimal_transversals(h.edges, cap)
    )
    return SimplicialComplex(h.n_vertices, facets, h.vertices)


def clique_complex(h: Hypergraph, d: int) -> SimplicialComplex:
    """Faces are the vertex sets all of whose d-subsets are edges.

    Sets with fewer than d vertices are faces unconditionally, so the
    minimal nonfaces are the non-edge d-sets, and the facets are the
    maximal grown faces together with any (d-1)-set lying in no edge.
    """
    if d < 2:
        raise ParameterError("edge size d must be at least 2")
    if not h.is_uniform(d):
        raise PreconditionError(f"clique-style complex needs {d}-uniform input")
    m = h.vertices.bit_count()
    if m < d:
        return SimplicialComplex(h.n_vertices, frozenset({h.vertices}), h.vertices)
    if comb(m, d) - len(h.edges) > MAX_LISTED_EDGES:
        raise SizeBudgetError(
            f"the clique complex has more than {MAX_LISTED_EDGES} non-edge {d}-sets to list"
        )
    # no complex on m vertices has more than 2^m faces, so the growth finishes
    cliques = grow_faces(h.vertices, non_edges(h, d), d, 1 << m)
    # the (d-1)-sets inside some edge: each edge with one vertex dropped
    in_edges = {e ^ (1 << v) for e in h.edges for v in bits_of(e)}
    small = [s for s in k_submasks(h.vertices, d - 1) if s not in in_edges]
    grown = [f for faces in cliques.values() for f in faces]
    return SimplicialComplex(h.n_vertices, max_antichain(grown + small), h.vertices)


# -- operations -------------------------------------------------------


def restrict(c: SimplicialComplex, vmask: int) -> SimplicialComplex:
    """Induced subcomplex on a subset of the ground set (labels kept)."""
    if vmask & ~c.vertices:
        raise ParameterError("restriction set must lie inside the ground set")
    return SimplicialComplex(
        c.n_vertices, max_antichain(f & vmask for f in c.facets), vmask
    )


def link(c: SimplicialComplex, face: int) -> SimplicialComplex:
    """Link of a face: what can be added to it.  Void if face is absent."""
    carriers = [f for f in c.facets if contains(f, face)]
    return SimplicialComplex(
        c.n_vertices,
        max_antichain(f & ~face for f in carriers),
        c.vertices & ~face,
    )


def alexander_dual(c: SimplicialComplex) -> SimplicialComplex:
    """Complex whose faces are complements of the nonfaces of c.

    Its facets are the ground-set complements of the minimal nonfaces.
    The double dual returns the original complex.
    """
    facets = frozenset(c.vertices & ~m for m in minimal_nonfaces(c))
    return SimplicialComplex(c.n_vertices, facets, c.vertices)


# Most faces one enumeration may list.
FACE_BUDGET = 1 << 22


def enumerate_faces(facets) -> dict[int, list[int]]:
    """All faces of the complex with these facet masks, grouped by size.
    Raises when the submask count Σ 2^|F| over the facets exceeds the
    face budget (the enumeration cost bound)."""
    cost = sum(1 << f.bit_count() for f in facets)
    if cost > FACE_BUDGET:
        raise SizeBudgetError(
            f"face enumeration cost {cost} exceeds the face budget {FACE_BUDGET}"
        )
    seen: set[int] = set()
    for f in facets:
        for sub in submasks(f):
            if sub in seen:
                continue
            seen.add(sub)
    by_size: dict[int, list[int]] = {}
    for face in seen:
        by_size.setdefault(face.bit_count(), []).append(face)
    return by_size


def grow_faces(ground: int, nonfaces, start: int, cap: int) -> dict[int, list[int]] | None:
    """The faces of size >= start of the complex on ``ground`` with these
    minimal nonfaces, grouped by size; None once there are more than
    ``cap`` of them.

    Every set smaller than ``start`` must be a face.  Up to the smallest
    nonface size s the count is known before anything is listed: every
    smaller set is a face, and a set of size s is one unless it is a
    nonface.  Above that, a set is a face exactly when all its
    one-smaller subsets are faces and it is not itself a minimal
    nonface.  Each candidate is a face with one vertex added above its
    top vertex, so it is built once.
    """
    nonfaces = set(nonfaces)
    n = ground.bit_count()
    s = min((m.bit_count() for m in nonfaces), default=n + 1)
    at_s = sum(1 for m in nonfaces if m.bit_count() == s)
    if sum(comb(n, t) for t in range(start, s + 1)) - at_s > cap:
        return None
    level = [m for m in k_submasks(ground, start) if m not in nonfaces]
    count = len(level)
    faces: dict[int, list[int]] = {}
    while level:
        faces[start] = level
        start += 1
        known = set(level)
        grown = []
        for f in level:
            above = ground >> f.bit_length() << f.bit_length()
            while above:
                v = above & -above
                above ^= v
                cand = f | v
                if cand in nonfaces:
                    continue
                rest = f
                while rest:
                    low = rest & -rest
                    if cand ^ low not in known:
                        break
                    rest ^= low
                else:
                    grown.append(cand)
                    count += 1
                    if count > cap:
                        return None
        level = grown
    return faces


# -- skeleton strip / pad ---------------------------------------------


def strip_small_facets(c: SimplicialComplex, d: int) -> SimplicialComplex:
    """Drop facets smaller than d, keeping every vertex as a face.

    Inverse to pad_facets on clique-style complexes: the small facets
    thrown away there are exactly the (d-1)-sets the padding restores.
    """
    kept = [f for f in c.facets if f.bit_count() >= d]
    singles = [1 << v for v in bits_of(c.vertices)]
    base = max_antichain(kept + singles)
    if not base and not c.is_void:
        base = frozenset({0})
    return SimplicialComplex(c.n_vertices, base, c.vertices)


def pad_facets(c: SimplicialComplex, d: int) -> SimplicialComplex:
    """Adjoin the full (d-2)-skeleton of the ground simplex.

    Every set of fewer than d vertices becomes a face; larger faces are
    untouched.
    """
    m = c.vertices.bit_count()
    k = min(d - 1, m)
    fill = list(k_submasks(c.vertices, k))
    return SimplicialComplex(
        c.n_vertices, max_antichain(list(c.facets) + fill), c.vertices
    )
