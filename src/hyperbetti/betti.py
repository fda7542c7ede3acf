"""Graded Betti numbers of square-free monomial quotients, exactly.

The workhorse is the restriction formula: the (i, j) Betti number of
R/I over a field k is the sum, over vertex subsets V of size j, of the
dimension of the reduced homology of the induced subcomplex on V in
degree j - i - 1.  Everything else in this module is either a fast
evaluation strategy for those restriction homologies or a closed-form
table for a structured family, checked against that oracle in tests.

The sum reads only the ground set and the minimal nonfaces, which are
the minimal generators of I: ``edge_restriction_sum`` passes the edges,
``ideal_betti`` the generators, and ``hochster_betti`` dualizes the
facets of its complex.  No route builds a facet list.
``complexes.grow_faces`` lists faces level by level from the nonfaces,
up to a cap, wherever a route needs them.

``edge_ideal_betti`` (on the edges) and ``clique_ideal_betti`` (on the
non-edge d-sets) take the splitting route, with the sum only at its
leaves.  A vertex x in exactly one generator e makes I = (e) + K a Betti
splitting (Francisco, Ha and Van Tuyl, Proc. AMS 2009, Cor. 2.7), where
K holds the other generators; its correction term is K : e, shifted by
|e|.  K and K : e have fewer generators, so the route recurses at the
lowest free vertex, down to single generators and to leaves with no
free vertex, which the sum answers.  The tree is built and every leaf's
sum planned before any rank runs: the tree's nodes and its leaves' plan
visits share one plan budget, and the vertex budget bounds each leaf's
support.  Over either, or when a leaf refuses, the route refuses.  The
tree keeps nothing between calls: each call walks and prices its whole
tree, so its answer or refusal depends only on its input and budgets.

Subsets that induce a cone contribute nothing, so the sum runs over the
support U, the union of the minimal nonfaces, and has two plans:

* union closure - the unions of the minimal nonfaces hold every subset
  with nonzero homology, and each is split into its components one by
  one.  This is the plan when there are few nonfaces.
* skeleton sweep - when every set smaller than s (the minimal nonface
  size) is a face, the homology on V depends only on |V| and the faces
  of size >= s inside V.  When those faces are few enough to grow, the
  sweep does not visit the 2^|U| subsets one by one: it counts them per
  such pair.  It is tried when there are many nonfaces, and when the
  closure is over budget.

One plan budget bounds both by a count taken before any rank runs: for
the closure, its sets times its nonfaces, since each set is scanned
against every nonface and the build scans no more; for the sweep, the
leaves of its search.  A closure past it gives way to the sweep when
the faces fit; a sweep past it, or a closure past it when they do not,
is refused.

A plan reads no field, and a tally answers it once per field.  The
closure's sets are split into their nonface components and counted by
size and component shapes, and the tally joins the shapes' answers once
per group; the sweep's subsets are counted by size and by the family of
big faces inside them, relabelled, and the tally ranks each family once
per field for the process.  A plan is a function of the relabelled
nonfaces and the budget alone, and is cached on both for the process;
a refused plan raises, so it is never cached.  A tally is a function of
the plan and the field alone, and is cached on both for the process.

``connectivity`` and ``is_cohen_macaulay`` read the split tree's table.
Every subset of the closure, and every subset ``restriction_witness``,
the reference scan, answers one by one, takes one route:

* cone filter - V adds nothing when it holds no nonface (a simplex) or
  when a vertex of V lies in none of the nonfaces inside V (a cone);
* join split and shape memo - with no field yet, the minimal nonfaces
  inside V fall into components, two nonfaces being joined when they
  share a vertex.  The components' supports partition V, and the
  subcomplex on V is the join of the subcomplexes on those supports, so
  by the Kunneth formula for joins its homology is the product of
  theirs, H~_{p+q+1}(A*B) = sum of H~_p(A) (x) H~_q(B).  Each component is relabelled onto the vertices
  0..m-1 in order, a simplicial isomorphism, and its sorted relabelled
  nonfaces with the field are the key of one memo for the process:
  every shape is answered once per field, whichever sum or scan meets it;
* the splitting - a component of two or more minimal nonfaces, one of
  them, e, holding a vertex in no other, has the homology of the complex
  on its vertices outside e whose minimal nonfaces are the colon of the
  others by e, shifted up by |e| - 1: the top column of the free-vertex
  Betti splitting.  That complex is a cone, or falls into components,
  which take this route in turn;
* direct, else the nerve - for a component with k minimal nonfaces and
  no such vertex, or with one nonface, the faces of size >= s (s the
  smallest of their sizes, so every smaller set is a face) are grown up
  to the nerve size 2^k, or up to the face budget if 2^k is over it.
  The cost is measured, not estimated: if the growth finishes, those
  faces answer by ``homology.dims_above``; otherwise the nerve of the k
  nonfaces answers, which has complementary homology and 2^k faces (the
  crosscut complex of the LCM lattice), and it refuses with
  SizeBudgetError when 2^k is over the face budget.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cache, reduce
from itertools import combinations
from math import comb, factorial
from operator import or_
from typing import Collection, Iterable, Sequence

from .bitsets import colon, exactly_once, k_submasks, subfamily_unions
from .complexes import FACE_BUDGET, SimplicialComplex, grow_faces, minimal_nonfaces
from .errors import ParameterError, PreconditionError, SizeBudgetError
from .homology import QQ, FieldSpec, dims_above, dims_from_faces, ranks_by_size
from .hypergraph import (
    Hypergraph,
    canonical_json,
    every_edge_has_free_vertex,
    non_edge_support,
    non_edges,
)
from .ideal import MonomialIdeal


def safe_binom(a: int, b: int) -> int:
    """Binomial coefficient extended by zero outside 0 <= b <= a."""
    if a < 0 or b < 0 or b > a:
        return 0
    return comb(a, b)


# -- graded tables ----------------------------------------------------


@dataclass(frozen=True, eq=True)
class BettiTable:
    """Sparse table of graded Betti numbers.

    ``convention`` records whether entry (i, j) refers to the i-th step
    of the resolution of the quotient ring ("quotient", so (0, 0) -> 1)
    or of the ideal itself ("ideal", one step lower).  ``n`` is the
    number of ring variables, used for depth.
    """

    convention: str
    n: int
    entries: dict

    def __post_init__(self) -> None:
        if self.convention not in ("quotient", "ideal"):
            raise ParameterError("convention must be 'quotient' or 'ideal'")
        clean = {}
        for (i, j), b in dict(self.entries).items():
            if b < 0:
                raise ParameterError("Betti numbers cannot be negative")
            if b:
                clean[(int(i), int(j))] = int(b)
        object.__setattr__(self, "entries", clean)

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def total(self, i: int) -> int:
        return sum(b for (ii, _), b in self.entries.items() if ii == i)

    def totals(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for (i, _), b in self.entries.items():
            out[i] = out.get(i, 0) + b
        return dict(sorted(out.items()))

    @property
    def projective_dimension(self) -> int:
        """Length of the resolution the table describes."""
        if not self.entries:
            return 0
        return max(i for i, _ in self.entries)

    @property
    def regularity(self) -> int:
        if not self.entries:
            return 0
        return max(j - i for i, j in self.entries)

    # The resolution-shape readings below are taken on the quotient form,
    # so a table and its ideal form agree on them.

    @property
    def depth(self) -> int:
        """The number of variables minus the quotient's projective dimension."""
        t = self.as_quotient()
        return t.n - t.projective_dimension

    def linear_strand(self, gen_degree: int) -> int:
        """Last step i >= 1 of the quotient's resolution with an entry in
        degree i + gen_degree - 1 (the linear strand of an ideal generated
        in ``gen_degree``), or 0 if there is none."""
        return max(
            (i for i, j in self.as_quotient().entries if i >= 1 and j == i + gen_degree - 1),
            default=0,
        )

    def connectivity(self, gen_degree: int) -> int | None:
        """n - d + 1 minus the length of the linear strand of generators of
        degree d = ``gen_degree``, or None for an empty one: the connectivity,
        as step i of the strand sums dim H~_{d-2} over the (i + d - 1)-sets."""
        strand = self.linear_strand(gen_degree)
        return self.n - gen_degree + 1 - strand if strand else None

    def is_linear(self, gen_degree: int) -> bool:
        """Every entry past step 0 of the quotient's resolution lies on the
        linear strand of an ideal generated in ``gen_degree``."""
        return all(j == i + gen_degree - 1 for i, j in self.as_quotient().entries if i >= 1)

    def as_quotient(self) -> "BettiTable":
        if self.convention == "quotient":
            return self
        ent = {(i + 1, j): b for (i, j), b in self.entries.items()}
        ent[(0, 0)] = 1
        return BettiTable("quotient", self.n, ent)

    def as_ideal(self) -> "BettiTable":
        if self.convention == "ideal":
            return self
        ent = {(i - 1, j): b for (i, j), b in self.entries.items() if i >= 1}
        return BettiTable("ideal", self.n, ent)

    def to_json_obj(self) -> dict:
        rows = [
            {"i": i, "j": j, "beta": b}
            for (i, j), b in sorted(self.entries.items())
        ]
        return {"convention": self.convention, "n": self.n, "entries": rows}

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    @classmethod
    def from_json_obj(cls, obj: dict) -> "BettiTable":
        entries = {(row["i"], row["j"]): row["beta"] for row in obj["entries"]}
        return cls(obj["convention"], int(obj["n"]), entries)

    @classmethod
    def from_json(cls, text: str) -> "BettiTable":
        return cls.from_json_obj(json.loads(text))

    def to_csv(self) -> str:
        lines = ["i,j,beta"]
        for (i, j), b in sorted(self.entries.items()):
            lines.append(f"{i},{j},{b}")
        return "\n".join(lines) + "\n"


# -- the restriction oracle -------------------------------------------

# Most vertices a restriction sum runs over, unless the caller says otherwise.
VERTEX_BUDGET = 20
# Most faces of size >= s the skeleton sweep lists.
BIG_FACE_CAP = 600
# Most minimal nonfaces for which the sum runs over their union closure
# before it tries the skeleton sweep.
CLOSURE_MAX_NONFACES = 26
# Most a plan of the restriction sum visits before any rank runs: the
# (set, nonface) pairs of the union closure, or the leaves of the grouped
# skeleton search.
PLAN_BUDGET = 1 << 18


class _RestrictionOracle:
    """Engine answering 'reduced homology of the induced subcomplex on V'
    for many V.  It reads the minimal nonfaces of one complex and answers
    every V by one route: the cone filter and the split into nonface
    components, which need no field, then ``_shape_dims``, which answers
    each component's shape once per process and field.  The field is
    needed only by ``dims_for``."""

    def __init__(self, nonfaces: Iterable[int], fld: FieldSpec | None = None) -> None:
        self.mnf = sorted(set(nonfaces))
        if 0 in self.mnf:
            raise PreconditionError("restriction homology needs a nonvoid complex")
        self.fld = fld

    # -- public -------------------------------------------------------

    def shapes_for(self, vmask: int) -> list[tuple[int, ...]] | None:
        """The shapes of the nonface components inside V, or None when V
        is a simplex or a cone; none for the empty set.

        One pass over the minimal nonfaces keeps those inside V, their
        union and their components, two nonfaces joining when they share
        a vertex.  V is a simplex when it holds no nonface, and a cone when
        the nonfaces miss a vertex of it.  Otherwise the subcomplex is the
        join of the subcomplexes on the components' supports, and each
        component is given by its ``_relabelled`` nonfaces.
        """
        out = ~vmask
        inside = []
        covered = 0
        supports: list[int] = []  # of the components so far, disjoint
        for M in self.mnf:
            if M & out:
                continue
            inside.append(M)
            if not M & covered:
                supports.append(M)
            elif len(supports) == 1:
                supports[0] |= M
            else:  # M joins every component it meets
                joined, apart = M, []
                for P in supports:
                    if P & M:
                        joined |= P
                    else:
                        apart.append(P)
                apart.append(joined)
                supports = apart
            covered |= M
        if covered != vmask:
            return None  # a simplex if V holds no nonface, else a cone on any uncovered vertex
        return [_relabelled(P, [M for M in inside if M & P]) for P in supports]

    def dims_for(self, vmask: int) -> dict[int, int]:
        """Nonzero reduced homology dims of the induced subcomplex: the
        join of its ``shapes_for`` components, in a new dict, which the
        caller owns; {} for a simplex or a cone."""
        shapes = self.shapes_for(vmask)
        return {} if shapes is None else _joined(shapes, self.fld)

    # -- subset iteration ---------------------------------------------

    def union_closure(self, budget: int) -> list[int] | None:
        """All unions of minimal-nonface subfamilies, or None once the plan
        visits more than the budget.

        Induced subcomplexes on any other vertex set are cones, so the
        restriction sum may run over this family alone.  The plan visits
        each (set, nonface) pair: ``shapes_for`` scans every nonface for each
        set, and each step of the build scans the sets so far.  The
        closure only grows, so the count is checked after each step.
        """
        closure: set[int] = {0}
        for M in self.mnf:
            closure |= {c | M for c in closure}
            if len(self.mnf) * len(closure) > budget:
                return None
        return sorted(closure)


@cache
def _shape_dims(key: tuple[int, ...], fld: FieldSpec) -> tuple[tuple[int, int], ...]:
    """Homology of one nonface component from its shape, its ``_relabelled``
    nonfaces covering 0..m-1 = V, as (degree, dim) pairs: computed once per
    process and field and kept as a tuple, so no caller can change it, and
    every acyclic shape shares the one empty tuple.

    A shape of two or more nonfaces with a vertex in exactly one of them,
    e (``_free_generator``), is answered by the top column of the
    free-vertex Betti splitting: H~_p(Delta_V) is H~_{p-|e|+1}(Delta'),
    Delta' being the complex on V - e whose minimal nonfaces are the
    colon of the others by e.  Delta' is a cone, and V acyclic, when they
    miss a vertex of V - e; otherwise its components recurse here.  Any
    other shape has k nonfaces and a nerve of 2^k faces: the faces no
    smaller than them are grown up to that many (or the face budget), and
    answer if the growth finishes; the nerve answers otherwise."""
    m = key[-1].bit_length()  # the top vertex lies in some nonface
    full = (1 << m) - 1
    e = _free_generator(key) if len(key) > 1 else None
    if e is not None:
        shapes = _RestrictionOracle(colon((g for g in key if g != e), e)).shapes_for(full & ~e)
        shift = e.bit_count() - 1
        return () if shapes is None else tuple(
            (p + shift, dim) for p, dim in _joined(shapes, fld).items()
        )
    dims = _dims_direct(full, key, min(1 << len(key), FACE_BUDGET), fld)
    return tuple((_dims_nerve(full, m, key, fld) if dims is None else dims).items())


def _dims_direct(
    vmask: int, relevant: Sequence[int], cap: int, fld: FieldSpec
) -> dict[int, int] | None:
    """Homology from the faces of size >= s (the smallest nonface size
    inside V) of the subcomplex; None when there are more than cap."""
    s = min(M.bit_count() for M in relevant)
    faces = grow_faces(vmask, relevant, s, cap)
    if faces is None:
        return None
    return dims_above(vmask.bit_count(), s, *ranks_by_size(faces, fld))


def _dims_nerve(vmask: int, m: int, relevant: Sequence[int], fld: FieldSpec) -> dict[int, int]:
    """Homology through the nerve of the minimal nonfaces inside V.

    The nerve's faces are the index sets whose nonface union misses
    part of V; its degree-t homology equals the subcomplex homology
    in degree m - t - 3.
    """
    size = 1 << len(relevant)
    if size > FACE_BUDGET:
        raise SizeBudgetError(f"restriction nerve size {size} exceeds the face budget {FACE_BUDGET}")
    by_size: dict[int, list[int]] = {0: [0]}
    for S, union in enumerate(subfamily_unions(relevant)):
        if S and union != vmask:
            by_size.setdefault(S.bit_count(), []).append(S)
    nerve_dims = dims_from_faces(by_size, fld)
    return {m - 3 - t: dim for t, dim in nerve_dims.items()}


def _count_by_big_faces(
    ground: int, big_faces: Sequence[int], budget: int
) -> tuple[int, dict[tuple[int, ...], list[int]]] | None:
    """The subsets V of the ground set grouped by the big faces inside V:
    the search's leaves, and for each tuple S of them (in the given order)
    that occurs, the number of such V of each size, as a list indexed by
    size; None once the search has more leaves than the budget.

    A depth-first search decides the vertices that some surviving face
    meets, lowest bit first: excluding a vertex drops every face through
    it, and including one keeps them all, so each call walks its run of
    inclusions in a loop and recurses only on the exclusions.  Once no
    surviving face meets an undecided vertex, the search is at a leaf: the
    surviving faces are exactly S for every way of completing the subset,
    and the r undecided vertices give C(r, j) subsets of each extra size j.
    """
    n = ground.bit_count()
    binomials = [[comb(r, j) for j in range(r + 1)] for r in range(n + 1)]
    counts: dict[tuple[int, ...], list[int]] = {}
    leaves = 0

    def visit(undecided: int, k: int, alive: tuple[int, ...]) -> bool:
        nonlocal leaves
        touched = reduce(or_, alive, 0) & undecided
        while touched:
            v = touched & -touched
            touched ^= v
            undecided ^= v
            if not visit(undecided, k, tuple(f for f in alive if not f & v)):
                return False
            k += 1
        leaves += 1
        if leaves > budget:
            return False
        sizes = counts.get(alive)
        if sizes is None:
            counts[alive] = sizes = [0] * (n + 1)
        for j, c in enumerate(binomials[undecided.bit_count()]):
            sizes[k + j] += c
        return True

    return (leaves, counts) if visit(ground, 0, tuple(big_faces)) else None


def _relabelled(support: int, masks: Iterable[int]) -> tuple[int, ...]:
    """The masks, subsets of the support, with the support's vertices
    relabelled 0..m-1 in increasing order, sorted.

    Each maximal run of vertices missing from the support, from the top
    down, is closed by shifting the bits above it down over it.
    """
    low = (support & -support).bit_length() - 1
    support >>= low
    out = [M >> low for M in masks]
    gaps = ~support & ((1 << support.bit_length()) - 1)
    while gaps:
        hi = gaps.bit_length()  # the run of gaps ends at bit hi - 1
        lo = (support & ((1 << hi) - 1)).bit_length()  # and starts at bit lo
        keep = (1 << lo) - 1
        out = [(M & keep) | (M >> (hi - lo) & ~keep) for M in out]
        gaps &= keep
    out.sort()
    return tuple(out)


def _join_dims(a: dict[int, int], b: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Reduced homology of the join of two complexes over a field, from
    the dims of A and the (degree, dim) pairs of B, into a new dict:
    H~_{p+q+1}(A*B) is the sum of H~_p(A) (x) H~_q(B)."""
    out: dict[int, int] = {}
    for p, x in a.items():
        for q, y in b:
            out[p + q + 1] = out.get(p + q + 1, 0) + x * y
    return out


def _joined(shapes: Iterable[tuple[int, ...]], fld: FieldSpec) -> dict[int, int]:
    """Reduced homology of the join of the components of these shapes, in
    a new dict: {-1: 1}, the empty complex, for none, and {} as soon as a
    component is acyclic."""
    dims = {-1: 1}
    for key in shapes:
        part = _shape_dims(key, fld)
        if not part:
            return {}
        dims = _join_dims(dims, part)
    return dims


def _check_vertex_budget(ground: int, vertex_budget: int) -> None:
    n = ground.bit_count()
    if n > vertex_budget:
        raise SizeBudgetError(
            f"restriction sum over {n} vertices exceeds the vertex budget {vertex_budget}"
        )


# A plan of the restriction sum, as read by ``_tally``, in flat tuples, since
# plans are kept for the process: the smallest nonface size s; the join
# groups, as runs of (subset size, sorted component shapes, number of
# subsets); and the sweep families, as runs of (relabelled big faces, their
# subset sizes and numbers of subsets, in pairs, only the nonzero ones).
_Plan = tuple[int, tuple, tuple]

# One shared object for each component shape, join of shapes and sweep
# family that the cached plans hold.
_plan_keys: dict[tuple, tuple] = {}


@cache
def _restriction_terms(key: tuple[int, ...], budget: int) -> tuple[int, _Plan]:
    """The plan of the restriction sum of R/I, where I is generated by the
    minimal nonfaces of this ``_shape_of`` key, and its visits.  The plan
    reads no field: its terms are grouped by what their homology depends
    on, and ``_tally`` answers each group once per field.

    The sum runs over the support U, the union of the minimal nonfaces:
    a subset holding any other vertex induces a cone.  Its nonzero terms
    lie in the union closure of the nonfaces, which is the plan when there
    are few nonfaces; each set of it is split into its components, and
    the sets are counted by their size and component shapes.  Otherwise,
    and when the closure passes the plan budget, the faces of size >= s
    (the smallest nonface size) are grown up to BIG_FACE_CAP; if they fit,
    the skeleton sweep counts the subsets of U of each size by the family
    of those faces inside them, relabelled, and if they do not, a closure
    not yet tried is.  Each plan stops once its visits pass the budget:
    the closure's (set, nonface) pairs, which bound both its build and the
    scan that splits each set, or the leaves of the sweep's search.  A
    plan stopped there with no plan to give way to is refused, naming the
    plan, before any rank runs.  Plans are cached by key and budget for the
    process; a refusal raises, so it is not cached.
    """
    oracle = _RestrictionOracle(key)
    support = reduce(or_, key, 0)
    few = len(oracle.mnf) <= CLOSURE_MAX_NONFACES
    closure = oracle.union_closure(budget) if few else None
    s = min((M.bit_count() for M in oracle.mnf), default=0)
    big = None if closure is not None else grow_faces(support, oracle.mnf, s, BIG_FACE_CAP)
    if big is None and not few:
        closure = oracle.union_closure(budget)
    if closure is not None:
        groups: dict[tuple[int, tuple[tuple[int, ...], ...]], int] = {}
        for v in closure:
            shapes = oracle.shapes_for(v)
            if shapes is not None:
                shapes.sort()
                group = v.bit_count(), tuple(shapes)
                groups[group] = groups.get(group, 0) + 1
        joins: list = []
        for (j, shapes), n in groups.items():
            shared = tuple(_plan_keys.setdefault(k, k) for k in shapes)
            joins += (j, _plan_keys.setdefault(shared, shared), n)
        visits = len(oracle.mnf) * len(closure)
        plan: _Plan = (s, tuple(joins), ())
    elif big is None:
        raise SizeBudgetError(
            f"the union-closure plan visits more than {budget} (set, nonface) "
            "pairs (the plan budget), and there is no skeleton strategy"
        )
    else:
        swept = _count_by_big_faces(support, sorted(f for fs in big.values() for f in fs), budget)
        if swept is None:
            raise SizeBudgetError(
                f"the skeleton-sweep plan visits more than {budget} search leaves (the plan budget)"
            )
        visits, by_family = swept
        families: dict[tuple[int, ...], list[int]] = {}
        for S, sizes in by_family.items():
            family = _shape_of(S)
            total = families.setdefault(_plan_keys.setdefault(family, family), [0] * len(sizes))
            for m in range(s, len(sizes)):
                total[m] += sizes[m]
        # the empty set has dims {-1: 1}; any other V smaller than s is a simplex
        plan = (s, (0, (), 1), tuple(
            x for family, sizes in families.items()
            for x in (family, tuple(y for m, n in enumerate(sizes) if n for y in (m, n)))
        ))
    return visits, plan


@cache
def _tally(plan: _Plan, fld: FieldSpec) -> tuple[int, ...]:
    """The quotient-convention entries of a planned restriction sum over the
    field, as flat (i, j, beta) triples (read by ``_triples``): a subset of
    size j with homology in degree t adds to (j - 1 - t, j).  A tally reads
    only the plan and the field, so it is computed once per process for
    each, and kept as a tuple, which no caller can change.

    Each join group is answered by joining the ``_shape_dims`` of its
    components, and each sweep family of big faces is ranked once: every
    set smaller than s is a face, so a subset of m >= s vertices is
    answered from m and those ranks alone.
    """
    s, joins, sweeps = plan
    entries: dict[tuple[int, int], int] = {}

    def add(j: int, dims: dict[int, int], count: int) -> None:
        for degree, dim in dims.items():
            key = (j - 1 - degree, j)
            entries[key] = entries.get(key, 0) + dim * count

    for j, shapes, count in _triples(joins):
        add(j, _joined(shapes, fld), count)
    for family, pairs in zip(sweeps[::2], sweeps[1::2]):
        ranked = _family_ranks(family, fld)
        sizes = ranked[::3]
        counts, ranks = dict(zip(sizes, ranked[1::3])), dict(zip(sizes, ranked[2::3]))
        for m, count in zip(pairs[::2], pairs[1::2]):
            add(m, dims_above(m, s, counts, ranks), count)
    return tuple(x for (i, j), b in entries.items() for x in (i, j, b))


def _triples(flat: tuple) -> Iterable[tuple]:
    """The consecutive triples of a flat tuple."""
    return zip(flat[::3], flat[1::3], flat[2::3])


@cache
def _family_ranks(family: tuple[int, ...], fld: FieldSpec) -> tuple[int, ...]:
    """The face count and boundary rank at each size of a sweep family of
    big faces, ``_relabelled``, as flat (size, count, rank) triples:
    computed once per process and field."""
    by_size: dict[int, list[int]] = {}
    for f in family:
        by_size.setdefault(f.bit_count(), []).append(f)
    counts, ranks = ranks_by_size(by_size, fld)
    return tuple(x for t in sorted(counts) for x in (t, counts[t], ranks[t]))


def _restriction_sum(ground: int, nonfaces: Collection[int], fld: FieldSpec) -> BettiTable:
    """Graded Betti numbers of R/I, where I is generated by these minimal
    nonfaces of a complex on the ground set: the plan of
    ``_restriction_terms``, then its tally over the field.  The caller
    checks the vertex budget."""
    plan = _restriction_terms(_shape_of(nonfaces), PLAN_BUDGET)[1]
    entries = {(i, j): b for i, j, b in _triples(_tally(plan, fld))}
    return BettiTable("quotient", ground.bit_count(), entries)


# -- the splitting route ----------------------------------------------


def _shape_of(gens: Collection[int]) -> tuple[int, ...]:
    """The generators relabelled onto 0..m-1 over their support; () for none,
    and the generators as given when their support is empty (only the
    unit ideal, which the restriction oracle refuses)."""
    support = reduce(or_, gens, 0)
    return _relabelled(support, gens) if support else tuple(gens)


def _free_generator(gens: Sequence[int]) -> int | None:
    """The generator holding the lowest vertex that lies in exactly one
    generator, or None when no vertex does: the e of the free-vertex
    splitting, for the split tree's nodes and for ``_shape_dims``."""
    free = exactly_once(gens)
    if not free:
        return None
    x = free & -free
    return next(g for g in gens if g & x)


def _split(key: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...]] | None:
    """The free-vertex splitting of the ideal with these generators, or None
    when no vertex lies in exactly one generator.

    The lowest such vertex x lies in one generator e; K holds the others
    and K : e is generated by the minimal sets among g - e, g in K.  The
    splitting is |e| and the shapes of K and K : e, both with fewer
    generators, and both () when e is the only one.
    """
    e = _free_generator(key)
    if e is None:
        return None
    rest = [g for g in key if g != e]
    return e.bit_count(), _shape_of(rest), _shape_of(colon(rest, e))


def _split_plan(
    key: tuple[int, ...], vertex_budget: int
) -> tuple[dict[tuple[int, ...], tuple], dict[tuple[int, ...], _Plan]]:
    """The split tree below these generators, built before any rank runs:
    every distinct node, as its splitting or, at a leaf with no free
    vertex, the plan of its restriction sum.  The nodes and the leaves'
    plan visits share the plan budget, each leaf's plan getting what is
    left.  Raises SizeBudgetError when a leaf's support is over the vertex
    budget, or once they pass the plan budget.  The tree reads no field."""
    splits: dict[tuple[int, ...], tuple] = {}
    leaves: dict[tuple[int, ...], _Plan] = {}
    spent = 0
    todo = [key]
    while todo:
        key = todo.pop()
        if not key or key in splits or key in leaves:
            continue
        spent += 1
        node = _split(key)
        if node is not None:
            splits[key] = node
            todo += node[1:]
        else:
            _check_vertex_budget(reduce(or_, key), vertex_budget)
            try:
                visits, leaves[key] = _restriction_terms(key, PLAN_BUDGET - spent)
            except SizeBudgetError:  # no plan within what is left
                visits = PLAN_BUDGET
            spent += visits
        if spent > PLAN_BUDGET:
            raise SizeBudgetError(
                f"the split tree and its leaf plans visit more than {PLAN_BUDGET} (the plan budget)"
            )
    return splits, leaves


def _split_betti(
    ground: int, gens: Collection[int], fld: FieldSpec, vertex_budget: int
) -> BettiTable:
    """Betti table of R/I, where I is generated by these minimal nonfaces
    of a complex on the ground set, from its split tree.  I = (e) + K is a
    Betti splitting when a vertex of e lies in no other generator
    (Francisco, Ha and Van Tuyl, Proc. AMS 2009, Cor. 2.7), and (e) meets
    K in e times K : e, so

        beta_{i,j}(I) = [i = 0, j = |e|] + beta_{i,j}(K) + beta_{i-1,j-|e|}(K : e).

    A root with no free vertex is the tree's only leaf: its restriction sum
    runs on the generators as given.  Otherwise the ideal-convention tables
    of the tree's nodes are kept for this call only: the leaves' first, by
    their restriction sums, then every split's in order of its generator
    count, from its two parts."""
    if not exactly_once(gens):
        _check_vertex_budget(reduce(or_, gens, 0), vertex_budget)
        return _restriction_sum(ground, gens, fld)
    key = _shape_of(gens)
    splits, leaves = _split_plan(key, vertex_budget)
    tables: dict[tuple[int, ...], dict[tuple[int, int], int]] = {(): {}}
    for leaf, plan in leaves.items():
        tables[leaf] = {(i - 1, j): b for i, j, b in _triples(_tally(plan, fld)) if i}
    for node in sorted(splits, key=len):
        size, rest, colon = splits[node]
        entries = dict(tables[rest])
        entries[0, size] = entries.get((0, size), 0) + 1
        for (i, j), b in tables[colon].items():
            entries[i + 1, j + size] = entries.get((i + 1, j + size), 0) + b
        tables[node] = entries
    return BettiTable("ideal", ground.bit_count(), tables[key]).as_quotient()


def hochster_betti(
    c: SimplicialComplex, fld: FieldSpec = QQ, *, vertex_budget: int = VERTEX_BUDGET
) -> BettiTable:
    """Graded Betti numbers of R/I for the face ideal of the complex,
    exact over the requested field; the facets are dualized to the
    minimal nonfaces once the ground set is known to be within budget."""
    _check_vertex_budget(c.vertices, vertex_budget)
    return _restriction_sum(c.vertices, minimal_nonfaces(c), fld)


def edge_ideal_betti(
    h: Hypergraph, fld: FieldSpec = QQ, *, vertex_budget: int = VERTEX_BUDGET
) -> BettiTable:
    """Betti table of R/I(H) by free-vertex Betti splittings, with the
    restriction sum at the leaves.

    An edge set with no free vertex is a tree of one leaf.  The route
    refuses with SizeBudgetError when a leaf's sum is over the vertex
    budget, or when the tree and its leaves' plans are over the plan budget."""
    return _split_betti(h.vertices, h.edges, fld, vertex_budget)


def edge_restriction_sum(
    h: Hypergraph, fld: FieldSpec = QQ, *, vertex_budget: int = VERTEX_BUDGET
) -> BettiTable:
    """Betti table of R/I(H) by the restriction sum alone: the edges are
    the minimal nonfaces of the independence complex."""
    _check_vertex_budget(h.vertices, vertex_budget)
    return _restriction_sum(h.vertices, h.edges, fld)


def clique_ideal_betti(
    h: Hypergraph, d: int, fld: FieldSpec = QQ, *, vertex_budget: int = VERTEX_BUDGET
) -> BettiTable:
    """Betti table of R/I for the face ideal of the clique-style complex
    of a d-uniform hypergraph, by the split tree on its minimal nonfaces,
    the non-edge d-sets, as ``edge_ideal_betti`` on the edges.  When no
    vertex lies in exactly one non-edge, the root is the tree's only leaf,
    and its support is checked against the vertex budget before the
    non-edges are listed."""
    if d < 2:
        raise ParameterError("edge size d must be at least 2")
    if not h.is_uniform(d):
        raise PreconditionError(f"clique-style complex needs {d}-uniform input")
    support, free = non_edge_support(h, d)
    if not free:
        _check_vertex_budget(support, vertex_budget)
    return _split_betti(h.vertices, non_edges(h, d), fld, vertex_budget)


def ideal_betti(ideal: MonomialIdeal, fld: FieldSpec = QQ) -> BettiTable:
    """Betti table of R/I for a squarefree monomial ideal given by its
    minimal generators, which are the minimal nonfaces of its complex."""
    if not ideal.is_minimal:
        raise PreconditionError("generators must be a minimal generating set")
    _check_vertex_budget(ideal.ring_mask, VERTEX_BUDGET)
    return _restriction_sum(ideal.ring_mask, ideal.generators, fld)


# -- closed-form families ---------------------------------------------


def taylor_betti_free_vertex(h: Hypergraph) -> BettiTable:
    """Subset-counting Betti table for edge sets where every edge keeps
    a private vertex: entry (i, j) counts the i-subsets of edges whose
    union has j vertices.  Characteristic-free; refused past FACE_BUDGET
    subfamilies, before any is listed."""
    if not every_edge_has_free_vertex(h):
        raise PreconditionError("needs a private vertex in every edge")
    if len(h.edges) >= FACE_BUDGET.bit_length():  # 2^k is over the budget
        raise SizeBudgetError(
            f"the subset count over {len(h.edges)} generators has more than "
            f"{FACE_BUDGET} subfamilies (the face budget)"
        )
    entries: dict[tuple[int, int], int] = {}
    for S, union in enumerate(subfamily_unions(sorted(h.edges))):
        key = (S.bit_count(), union.bit_count())
        entries[key] = entries.get(key, 0) + 1
    return BettiTable("quotient", h.num_vertices, entries)


def _check_overlap_family(n: int, d: int, alpha: int, min_n: int) -> None:
    if n < min_n:
        raise ParameterError(f"need n >= {min_n}")
    if d < 2 or alpha < 1 or 2 * alpha > d:
        raise ParameterError("need d >= 2 and 1 <= alpha <= d/2")


def line_betti_closed_form(n: int, d: int, alpha: int) -> BettiTable:
    """Closed-form table for a path of n consecutively overlapping d-edges.

    Requires overlap strictly below half the edge size, so that every edge
    keeps a private vertex.  Beyond the generator rows the (i, j) support is
    j = i*d - alpha*(i - r), weighted by run-placement binomials; a single
    top entry sits at the full vertex count.
    """
    _check_overlap_family(n, d, alpha, 1)
    if d == 2 * alpha:
        raise ParameterError("overlap is half the edge size; use line_betti_degenerate")
    nvars = n * (d - alpha) + alpha
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for i in range(1, n):
        for r in range(1, i + 1):
            v = comb(i - 1, r - 1) * comb(n - i + 1, r)
            if v:
                key = (i, i * d - alpha * (i - r))
                entries[key] = entries.get(key, 0) + v
    entries[(n, nvars)] = 1
    return BettiTable("quotient", nvars, entries)


def line_betti_degenerate(n: int, alpha: int) -> BettiTable:
    """Table for the half-overlap path (edge size exactly twice the overlap).

    The alpha = 1 case is an ordinary path graph; general alpha rescales all
    degrees by alpha.  Binomials with out-of-range arguments vanish.
    """
    if n < 1 or alpha < 1:
        raise ParameterError("need n >= 1 and alpha >= 1")
    nvars = n * alpha + alpha
    entries: dict[tuple[int, int], int] = {}
    for i in range(0, n + 2):
        for j in range(0, n + 2):
            v = safe_binom(j - i, 2 * i - j) * safe_binom(
                n + 1 - 2 * j + 2 * i, j - i
            ) + safe_binom(j - i - 1, 2 * i - j) * safe_binom(
                n + 1 - 2 * j + 2 * i, j - i - 1
            )
            if v:
                key = (i, j * alpha)
                entries[key] = entries.get(key, 0) + v
    return BettiTable("quotient", nvars, entries)


def cycle_betti_closed_form(n: int, d: int, alpha: int) -> BettiTable:
    """Closed-form table for n d-edges glued in a cycle, free-vertex case.

    The per-(i, r) weight n/r * C(i-1, r-1) * C(n-i-1, r-1) is always an
    integer; the division is asserted rather than trusted.
    """
    _check_overlap_family(n, d, alpha, 3)
    if d == 2 * alpha:
        raise ParameterError("overlap is half the edge size; use cycle_betti_degenerate")
    nvars = n * (d - alpha)
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for i in range(1, n):
        for r in range(1, i + 1):
            num = n * comb(i - 1, r - 1) * comb(n - i - 1, r - 1)
            if num == 0:
                continue
            if num % r:
                raise ArithmeticError(f"non-integral cycle count at n={n} i={i} r={r}")
            key = (i, i * d - alpha * (i - r))
            entries[key] = entries.get(key, 0) + num // r
    entries[(n, nvars)] = 1
    return BettiTable("quotient", nvars, entries)


def cycle_betti_degenerate(n: int, alpha: int) -> BettiTable:
    """Table for the half-overlap cycle, including the three top-degree cases
    split by n mod 3."""
    if n < 3 or alpha < 1:
        raise ParameterError("need n >= 3 and alpha >= 1")
    nvars = n * alpha
    entries: dict[tuple[int, int], int] = {}
    for j in range(0, n):
        for i in range(0, j + 1):
            denom = n - 2 * (j - i)
            if denom <= 0:
                continue
            num = n * safe_binom(j - i, 2 * i - j) * safe_binom(n - 2 * (j - i), j - i)
            if num == 0:
                continue
            if num % denom:
                raise ArithmeticError(f"non-integral cycle count at n={n} i={i} j={j}")
            key = (i, alpha * j)
            entries[key] = entries.get(key, 0) + num // denom
    rem = n % 3
    if rem == 1:
        entries[((2 * n + 1) // 3, alpha * n)] = 1
    elif rem == 2:
        entries[((2 * n - 1) // 3, alpha * n)] = 1
    else:
        entries[((2 * n) // 3, alpha * n)] = 2
    return BettiTable("quotient", nvars, entries)


def star_betti_closed_form(n: int, d: int, alpha: int) -> BettiTable:
    """n d-edges through one alpha-core: binomial column at each step."""
    if n < 1 or d < 2 or not 1 <= alpha < d:
        raise ParameterError("need n >= 1, d >= 2, 1 <= alpha < d")
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for i in range(1, n + 1):
        entries[(i, i * d - alpha * (i - 1))] = comb(n, i)
    return BettiTable("quotient", alpha + n * (d - alpha), entries)


def knd_complement_betti(n: int, d: int) -> BettiTable:
    """Table for the ideal of all d-subsets of n vertices: a single linear
    strand with entries C(n, j) * C(j-1, d-1) at j = i + d - 1."""
    if not 2 <= d <= n:
        raise ParameterError("need 2 <= d <= n")
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    for j in range(d, n + 1):
        i = j - d + 1
        entries[(i, j)] = comb(n, j) * comb(j - 1, d - 1)
    return BettiTable("quotient", n, entries)


# -- interval-pattern counts ------------------------------------------


def _runs(sizes: Sequence[int]) -> tuple[tuple[int, ...], int, int, int]:
    """The run lengths as a tuple, their number r, their sum i, and the
    product of the factorials of their multiplicities."""
    sizes = tuple(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ParameterError("run lengths must be positive")
    mult = 1
    for ccount in Counter(sizes).values():
        mult *= factorial(ccount)
    return sizes, len(sizes), sum(sizes), mult


def count_line_subconfigs(sizes: Sequence[int], n: int) -> int:
    """Number of ways to place disjoint, non-adjacent runs of consecutive
    edges with the given multiset of lengths along a path of n edges."""
    _, r, i, mult = _runs(sizes)
    return factorial(r) * safe_binom(n - i + 1, r) // mult


def count_cycle_subconfigs(sizes: Sequence[int], n: int) -> int:
    """Same count around a cycle of n edges (no run may close the loop)."""
    sizes, r, i, mult = _runs(sizes)
    total = n * factorial(r - 1) * safe_binom(n - i - 1, r - 1)
    if total % mult:
        raise ArithmeticError(f"non-integral run count for sizes={sizes} n={n}")
    return total // mult


def enumerate_line_subconfigs(sizes: Sequence[int], n: int) -> int:
    """Brute-force companion to count_line_subconfigs.

    Walks every subset of the n path positions and keeps those whose
    maximal runs of consecutive positions realize exactly the requested
    length multiset.
    """
    target = Counter(sizes)
    i = sum(sizes)
    if i > n:
        return 0
    hits = 0
    for combo in combinations(range(n), i):
        runs: Counter[int] = Counter()
        run = 1
        for a, b in zip(combo, combo[1:]):
            if b == a + 1:
                run += 1
            else:
                runs[run] += 1
                run = 1
        runs[run] += 1
        if runs == target:
            hits += 1
    return hits


def enumerate_cycle_subconfigs(sizes: Sequence[int], n: int) -> int:
    """Brute-force companion to count_cycle_subconfigs.

    Runs are maximal arcs of consecutive positions modulo n; choosing
    every position closes the loop into something that is not an arc
    arrangement at all, so that subset never counts.
    """
    target = Counter(sizes)
    i = sum(sizes)
    if i >= n:
        return 0
    hits = 0
    for combo in combinations(range(n), i):
        chosen = set(combo)
        start = next(p for p in range(n) if p not in chosen)
        runs: Counter[int] = Counter()
        run = 0
        for off in range(1, n + 1):
            if (start + off) % n in chosen:
                run += 1
            elif run:
                runs[run] += 1
                run = 0
        if runs == target:
            hits += 1
    return hits


def rsequence_betti_table(
    colon_sizes: Sequence[int],
    d: int,
    gen_degree: int,
    n_vars: int,
) -> BettiTable:
    """Betti table implied by a colon-ideal size profile.

    When successive colon ideals are generated by r_s degree-d monomials
    on disjoint supports, step i of the resolution collects C(r_s, i-1)
    from each, concentrated in the single degree
    i + gen_degree - 1 + (i - 1)(d - 1).
    """
    sizes = list(colon_sizes)
    if any(r < 1 for r in sizes):
        raise ParameterError("colon sizes must be positive")
    entries: dict[tuple[int, int], int] = {(0, 0): 1, (1, gen_degree): len(sizes) + 1}
    top = max(sizes, default=0) + 1
    for i in range(2, top + 1):
        b = sum(comb(r, i - 1) for r in sizes)
        if b:
            entries[(i, i + gen_degree - 1 + (i - 1) * (d - 1))] = b
    return BettiTable("quotient", n_vars, entries)


# -- connectivity and Cohen-Macaulay ---------------------------------


def connectivity(
    h: Hypergraph,
    fld: FieldSpec = QQ,
    d: int | None = None,
) -> int | None:
    """Fewest vertices whose removal leaves top-dimension-below-d homology
    in the clique-style complex; None when no removal ever does (the
    complete hypergraph).  Read off the clique-route table's linear strand
    (``BettiTable.connectivity``), refused as the split tree refuses."""
    if d is None:
        d = h.uniform_degree
        if d is None:
            raise PreconditionError("connectivity needs a uniform hypergraph")
    elif not h.is_uniform(d):
        raise PreconditionError(f"connectivity needs {d}-uniform input")
    return clique_ideal_betti(h, d, fld).connectivity(d)


def is_cohen_macaulay(c: SimplicialComplex, fld: FieldSpec = QQ) -> bool:
    """Depth of the face ring equals dimension, read off the split tree's
    table on the minimal nonfaces."""
    if c.is_void:
        raise PreconditionError("void complex has no face ring")
    return _split_betti(c.vertices, minimal_nonfaces(c), fld, VERTEX_BUDGET).depth == c.dim + 1


def restriction_witness(
    ground: int, nonfaces: Collection[int], bands: Iterable[tuple[int, int]], fld: FieldSpec
) -> tuple[int, int] | None:
    """The first (degree, V), over the (degree, size) bands in the order
    given and the size-subsets V of the ground set in ``k_submasks`` order,
    with H~_degree of the subcomplex on V nonzero; None if there is none.
    The reference scan: each V is answered one by one, with no budget."""
    oracle = _RestrictionOracle(nonfaces, fld)
    for degree, size in bands:
        for vmask in k_submasks(ground, size):
            if oracle.dims_for(vmask).get(degree):
                return degree, vmask
    return None


def froberg_cm_witness(
    c: SimplicialComplex, fld: FieldSpec = QQ
) -> tuple[int, int] | None:
    """First violation of the vanishing band that characterizes
    Cohen-Macaulayness, or None when the face ring is Cohen-Macaulay.

    With n present vertices and Krull dimension e of the face ring, the
    ring is Cohen-Macaulay exactly when the induced subcomplex on every
    vertex subset V of size n - e + i + 2 has zero reduced homology in
    degree i.  Only the single band of sizes matters: the first Betti
    column past n - e is nonzero precisely when some such restriction
    has homology, and a minimal resolution has no gaps.  Returns the
    violating (i, V-mask) pair, smallest degree first.
    """
    if c.is_void:
        raise PreconditionError("void complex has no face ring")
    n, e = c.vertices.bit_count(), c.dim + 1
    bands = [(i, n - e + i + 2) for i in range(-1, e - 1)]
    return restriction_witness(c.vertices, minimal_nonfaces(c), bands, fld)


def froberg_cm_check(c: SimplicialComplex, fld: FieldSpec = QQ) -> bool:
    """Cohen-Macaulayness via the single-band restriction criterion."""
    return froberg_cm_witness(c, fld) is None
