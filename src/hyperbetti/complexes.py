"""Simplicial complexes as facet lists over bitmask ground sets.

Each complex built here is given by its minimal nonfaces, and
``nonface_complex`` dualizes them into facets: the independence complex
of a hypergraph (the edges), the clique-style complex of d-uniform input,
whose faces are the sets all of whose d-subsets are edges (the non-edge
d-sets), and the Alexander dual (the facet complements).  Everything is
exact and pure Python.

The dualization (``minimal_transversals``) has two paths, chosen by the
bit length L of the family's support.  Up to ``TABLE_WIDTH`` bits it
works on truth tables over the 2^L subsets, each one 2^L-bit int, in a
fixed number of whole-table operations; wider families are folded in
one mask at a time.  Both refuse exactly when the family has more
minimal transversals than the cap: the table counts them before listing
any, and the fold stops once a finished prefix of the masks has more.

Conventions: a complex with no faces at all is *void* (``facets`` is
empty); the complex whose only face is the empty set has ``facets ==
{0}``.  The ground set is carried explicitly so restriction and
Alexander duality are unambiguous.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from math import comb

from .bitsets import bits_of, contains, k_submasks, mask_of, max_antichain, min_antichain, submasks
from .errors import ParameterError, PreconditionError, SizeBudgetError
from .hypergraph import MAX_LISTED_EDGES, Hypergraph, canonical_json, json_int
from .hypergraph import check_vertex_count, json_vertex_set, json_vertex_sets, non_edges


@dataclass(frozen=True)
class SimplicialComplex:
    n_vertices: int
    facets: frozenset[int]
    vertices: int = -1  # ground-set mask; -1 means all ambient vertices

    def __post_init__(self) -> None:
        check_vertex_count(self.n_vertices)
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


# Widest support, in bits, that ``minimal_transversals`` dualizes by truth
# table; a wider family is folded.  The table costs a fixed number of
# operations on 2^L-bit ints, while the fold's work grows with the masks
# and their transversals: at 12 bits, a few masks fold 2-3 times faster
# and a hundred 3-sets tabulate over 10 times faster (CHANGES.md has the
# crossover table).
TABLE_WIDTH = 12


def minimal_transversals(masks, cap: int = MAX_LISTED_EDGES) -> frozenset[int]:
    """All minimal sets meeting every mask in the family; refused with
    SizeBudgetError exactly when there are more than cap of them.

    An empty family has the empty set as its unique transversal, so it is
    refused below cap 1; a family containing the empty mask has none.  A
    family whose support fits in the vertices below ``TABLE_WIDTH`` is
    dualized by truth table (``_table_transversals``), which counts the
    transversals before listing any; a wider one by the incremental fold
    (``_fold_transversals``).  Both give the same sets and refusals.
    """
    family = set(masks)
    width = max(family, default=0).bit_length()
    if width <= TABLE_WIDTH:
        return _table_transversals(family, width, cap)
    return _fold_transversals(family, cap)


def _past_cap(cap: int) -> SizeBudgetError:
    return SizeBudgetError(f"the dualization yields more than {cap} sets")


@functools.cache
def _vertex_patterns(width: int) -> tuple[int, ...]:
    """For each vertex v below width, the truth table of "contains v" over
    the subsets of the vertices below width: bit S is set exactly when the
    subset S holds v.  Runs of 2^v clear bits and 2^v set bits alternate."""
    patterns = []
    for v in range(width):
        pattern, period = ((1 << (1 << v)) - 1) << (1 << v), 2 << v
        while period < 1 << width:
            pattern |= pattern << period
            period <<= 1
        patterns.append(pattern)
    return tuple(patterns)


def _table_transversals(family, width: int, cap: int) -> frozenset[int]:
    """The minimal transversals of a family of masks below 2^width, by
    truth tables over the subsets of the vertices below width: each table
    is one 2^width-bit int whose bit S stands for the subset S.

    A set of vertices below width is a transversal exactly when its
    complement there contains no mask, so the minimal transversals are
    the complements of the maximal sets S containing no mask.  Such an S
    holds every vertex that no mask holds, so its complement lies in the
    support.  The sets containing a mask are the masks closed upward, one
    vertex v at a time: shifting by 2^v adds v to the subsets without it.
    The other subsets are the faces, and a face is maximal when no vertex
    v can be added to it: shifting the faces that hold v down by 2^v marks
    the faces that can take v.  The maximal faces are counted before any
    is listed.
    """
    patterns = _vertex_patterns(width)
    nonfaces = 0
    for m in family:
        nonfaces |= 1 << m
    for v, pattern in enumerate(patterns):
        nonfaces |= (nonfaces << (1 << v)) & pattern
    faces = ((1 << (1 << width)) - 1) ^ nonfaces
    grows = 0
    for v, pattern in enumerate(patterns):
        grows |= (faces & pattern) >> (1 << v)
    maximal = faces & ~grows
    if maximal.bit_count() > cap:
        raise _past_cap(cap)
    trans = []
    ground = (1 << width) - 1
    while maximal:
        low = maximal & -maximal
        trans.append(ground ^ (low.bit_length() - 1))
        maximal ^= low
    return frozenset(trans)


def _fold_transversals(family, cap: int) -> frozenset[int]:
    """The minimal transversals of a family of masks, by incremental
    dualization: fold one mask m in at a time.  The minimal
    transversals that already meet m stay as they are; each one t that
    misses m is replaced by the candidates t | v, v in m, and a candidate
    is kept unless a transversal that meets m lies inside it.  No other
    test is needed.  If t | v lies inside t' | v', then t lies inside t'
    (t misses m), so t = t' and v = v': candidates never contain one
    another.  Nor can a candidate lie inside (or equal) a transversal h
    that meets m, since t would then lie strictly inside h.  And h can
    lie inside t | v only when h meets m in v alone, so only those h are
    tried.

    The masks go in increasing order, so the fold of the last mask inside
    the vertices 0..k ends with the minimal transversals of the masks
    inside 0..k.  Each of those, with the vertices above k added and then
    trimmed above k, becomes a minimal transversal of the whole family
    that meets 0..k in it, so the family has at least as many.  Once that
    fold holds more than cap of them, it stops and refuses with
    SizeBudgetError, as an empty family does below cap 1.
    """
    trans: list[int] = [0]
    ordered = sorted(family)
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
            break
    if len(trans) > cap:
        raise _past_cap(cap)
    return frozenset(trans)


def minimal_nonfaces(c: SimplicialComplex) -> frozenset[int]:
    """Minimal subsets of the ground set that are not faces.

    A set misses every facet exactly when it meets every facet
    complement, so these are the minimal transversals of the
    complemented facet family.
    """
    return minimal_transversals(c.vertices & ~f for f in c.facets)


def nonface_complex(
    n: int, nonfaces, vertices: int = -1, cap: int = MAX_LISTED_EDGES
) -> SimplicialComplex:
    """The complex on the ground set whose minimal nonfaces are these
    masks: a set is a face when its complement meets them all, so the
    facets are the complements of their minimal transversals.  Refused
    past cap facets."""
    check_vertex_count(n)
    ground = vertices & ((1 << n) - 1)
    facets = frozenset(ground & ~t for t in minimal_transversals(nonfaces, cap))
    return SimplicialComplex(n, facets, vertices)


def independence_complex(h: Hypergraph, cap: int = MAX_LISTED_EDGES) -> SimplicialComplex:
    """Faces are the sets containing no edge of h; refused past cap facets."""
    return nonface_complex(h.n_vertices, h.edges, h.vertices, cap)


def clique_complex(h: Hypergraph, d: int, cap: int = MAX_LISTED_EDGES) -> SimplicialComplex:
    """Faces are the vertex sets all of whose d-subsets are edges; refused
    past cap facets.

    Sets with fewer than d vertices are faces unconditionally, so the
    minimal nonfaces are the non-edge d-sets.
    """
    if d < 2:
        raise ParameterError("edge size d must be at least 2")
    if not h.is_uniform(d):
        raise PreconditionError(f"clique-style complex needs {d}-uniform input")
    return nonface_complex(h.n_vertices, non_edges(h, d), h.vertices, cap)


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

    Its minimal nonfaces are the ground-set complements of the facets of c.
    The double dual returns the original complex.
    """
    return nonface_complex(c.n_vertices, (c.vertices & ~f for f in c.facets), c.vertices)


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
