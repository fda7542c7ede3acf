"""Squarefree monomial ideals: colon quotients, degree-d quotient orders,
d-shellability of facet orders, and the dual bridge between the two.

Supports are vertex bitmasks throughout, matching the rest of the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .bitsets import bits_of, colon, mask_of, max_antichain, min_antichain
from .complexes import SimplicialComplex, minimal_nonfaces, nonface_complex
from .errors import ParameterError, PreconditionError, SizeBudgetError
from .hypergraph import (
    Hypergraph,
    canonical_json,
    check_vertex_count,
    json_field,
    json_int,
    json_vertex_set,
)


@dataclass(frozen=True)
class MonomialIdeal:
    """A squarefree monomial ideal, kept as an ordered tuple of support masks.

    The zero ideal has no generators; a generator mask of 0 stands for the
    monomial 1, i.e. the unit ideal (which only ever shows up as a colon
    result, never as user input).
    """

    n_vertices: int
    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        check_vertex_count(self.n_vertices)
        gens = tuple(int(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        ring = self.ring_mask
        for g in gens:
            if g & ~ring:
                raise ParameterError(f"generator {g:b} uses variables beyond x{self.n_vertices}")
        if len(set(gens)) != len(gens):
            raise ParameterError("repeated generator support")

    @property
    def ring_mask(self) -> int:
        return (1 << self.n_vertices) - 1

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_minimal(self) -> bool:
        """Whether the stored generators form the unique minimal generating set."""
        return min_antichain(self.generators) == frozenset(self.generators)

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({g.bit_count() for g in self.generators}))

    @property
    def generator_degree(self) -> int | None:
        """Common generator degree, or None if mixed or zero."""
        degs = self.degrees
        return degs[0] if len(degs) == 1 else None

    def minimalize(self) -> "MonomialIdeal":
        keep = min_antichain(self.generators)
        return MonomialIdeal(self.n_vertices, tuple(g for g in self.generators if g in keep))

    @staticmethod
    def from_supports(n: int, supports: Iterable) -> "MonomialIdeal":
        gens = []
        for s in supports:
            gens.append(int(s) if isinstance(s, int) else mask_of(s))
        return MonomialIdeal(n, tuple(gens))

    def to_json_obj(self) -> dict:
        return {"n": self.n_vertices, "generators": [bits_of(g) for g in self.generators]}

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    @staticmethod
    def from_json_obj(obj: dict) -> "MonomialIdeal":
        """Generators are vertex-label lists, or support masks as integers."""
        raw = json_field(obj, "generators", "ideal")
        if not isinstance(raw, list):
            raise ParameterError("malformed ideal: 'generators' must be a list")
        gens = [g if type(g) is int else json_vertex_set(g, "ideal generator") for g in raw]
        return MonomialIdeal(json_int(obj, "n", "ideal"), tuple(gens))

    @staticmethod
    def from_json(text: str) -> "MonomialIdeal":
        return MonomialIdeal.from_json_obj(json.loads(text))

    def export_text(self) -> str:
        """One generator per line as a product of variable names x1..xn."""
        lines = []
        for g in self.generators:
            lines.append("1" if g == 0 else "*".join(f"x{v + 1}" for v in bits_of(g)))
        return "\n".join(lines)


def edge_ideal(h: Hypergraph) -> MonomialIdeal:
    """The ideal generated by the edge supports, in sorted vertex order."""
    gens = sorted(h.edges, key=bits_of)
    return MonomialIdeal(h.n_vertices, tuple(gens))


def stanley_reisner_ideal(c: SimplicialComplex) -> MonomialIdeal:
    """Generators = minimal nonfaces; absent ground vertices contribute singletons."""
    if c.is_void:
        raise PreconditionError("void complex has no Stanley-Reisner presentation")
    gens = set(minimal_nonfaces(c))
    ring = (1 << c.n_vertices) - 1
    for v in bits_of(ring & ~c.vertices):
        gens.add(1 << v)
    return MonomialIdeal(c.n_vertices, tuple(sorted(gens, key=bits_of)))


def sr_complex(ideal: MonomialIdeal) -> SimplicialComplex:
    """The complex whose nonfaces are exactly the supports in the ideal."""
    return nonface_complex(ideal.n_vertices, ideal.generators)


def colon_by_generator(prefix: MonomialIdeal, m: int) -> MonomialIdeal:
    """Minimal generators of (prefix : x^m) for a squarefree support m.

    An empty prefix gives the zero ideal; a prefix member dividing x^m gives
    the unit ideal.
    """
    keep = colon(prefix.generators, m)
    return MonomialIdeal(prefix.n_vertices, tuple(sorted(keep, key=bits_of)))


# --------------------------------------------------------------------------
# d-quotients


@dataclass(frozen=True)
class QuotientCertificate:
    """Witness that an ordering realizes d-quotients: the per-step colon generators."""

    d: int
    ordering: tuple[int, ...]
    colon_generators: tuple[tuple[int, ...], ...]

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "ordering": list(self.ordering),
            "colon_generators": [[bits_of(g) for g in step] for step in self.colon_generators],
        }


@dataclass(frozen=True)
class QuotientRefusal:
    step: int
    offending: int
    reason: str


def _check_ordering(length: int, ordering: Sequence[int]) -> tuple[int, ...]:
    order = tuple(int(i) for i in ordering)
    if sorted(order) != list(range(length)):
        raise ParameterError("ordering is not a permutation of the generators")
    return order


def _colon_step_flaw(ideal: MonomialIdeal, used: Sequence[int], s: int, d: int):
    """First offending colon generator at the step appending generator s, if any.

    Returns (colon gens, offending mask or None, reason).  A colon generator b
    with b | m_s covering the whole ring marks a generator sharing no variable
    with m_s; that step is refused so the dual facet ordering is refused at the
    matching point (its intersection with the earlier facets would be empty).
    """
    gens = ideal.generators
    m = gens[s]
    step = tuple(sorted(colon((gens[i] for i in used), m), key=bits_of))
    for b in step:
        if b.bit_count() != d:
            return step, b, f"colon generator of degree {b.bit_count()}, expected {d}"
        if (b | m) == ideal.ring_mask:
            return (
                step,
                b,
                "every earlier generator covers all variables outside this one; "
                "the dual facet meets the earlier facets emptily",
            )
    return step, None, ""


def verify_d_quotients(
    ideal: MonomialIdeal, ordering: Sequence[int], d: int
) -> QuotientCertificate | QuotientRefusal:
    """Walk the ordering and accept iff every colon is minimally generated in degree d."""
    if not ideal.is_minimal:
        raise PreconditionError("generators must be a minimal generating set")
    if d < 1:
        raise ParameterError("d must be positive")
    order = _check_ordering(len(ideal.generators), ordering)
    steps: list[tuple[int, ...]] = []
    for pos in range(len(order)):
        gens, bad, reason = _colon_step_flaw(ideal, order[:pos], order[pos], d)
        if bad is not None:
            return QuotientRefusal(pos, bad, reason)
        steps.append(gens)
    return QuotientCertificate(d, order, tuple(steps))


def search_order(start, children, done, node_budget: int | None = None):
    """Depth-first search for an ordering of items, placed one at a time.

    Whether an item may follow must depend only on the *set* already
    placed, and so must the state threaded along the ordering; a set from
    which no ordering completes is then dead whichever way it was reached,
    and is never expanded twice.  ``children(order, placed, state)`` yields,
    in branching order, each item that may follow together with the state
    after it; ``done(order, state)`` says when the ordering is complete.

    Returns the ordering as a tuple (None if none exists) and the number of
    nodes expanded; expanding more than ``node_budget`` raises
    SizeBudgetError, and a negative budget is refused.
    """
    if node_budget is not None and node_budget < 0:
        raise ParameterError("node budget must be nonnegative")
    dead: set[frozenset] = set()
    nodes = 0
    # The nodes being expanded, each with its children still to try; an
    # explicit stack, as an ordering can be longer than the recursion limit.
    stack: list[tuple[tuple, frozenset, Iterator]] = []
    order, placed, state = (), frozenset(), start
    while True:
        if done(order, state):
            return order, nodes
        if placed not in dead:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise SizeBudgetError("search node budget exhausted")
            stack.append((order, placed, children(order, placed, state)))
        while stack:
            parent, parent_placed, pending = stack[-1]
            step = next(pending, None)
            if step is not None:
                item, state = step
                order, placed = parent + (item,), parent_placed | {item}
                break
            stack.pop()
            dead.add(parent_placed)
        else:
            return None, nodes


def search_d_quotients(
    ideal: MonomialIdeal, d: int, node_budget: int | None = None
) -> tuple[int, ...] | None:
    """Find an ordering with d-quotients, or prove that none exists.

    Whether a generator may be appended depends only on the set already
    placed, so ``search_order`` applies.  Branching follows sorted support
    order for reproducible witnesses.
    """
    if not ideal.is_minimal:
        raise PreconditionError("generators must be a minimal generating set")
    if d < 1:
        raise ParameterError("d must be positive")
    t = len(ideal.generators)
    branch = sorted(range(t), key=lambda i: bits_of(ideal.generators[i]))

    def children(used, placed, _state):
        for s in branch:
            if s in placed or _colon_step_flaw(ideal, used, s, d)[1] is not None:
                continue
            yield s, None

    return search_order(None, children, lambda order, _: len(order) == t, node_budget)[0]


# --------------------------------------------------------------------------
# d-shellings


@dataclass(frozen=True)
class ShellingCertificate:
    """Facet ordering plus, per step, the removable d-sets witnessing the order."""

    d: int
    ordering: tuple[int, ...]
    removed_sets: tuple[tuple[int, ...], ...]

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "ordering": [bits_of(f) for f in self.ordering],
            "removed_sets": [[bits_of(a) for a in step] for step in self.removed_sets],
        }


@dataclass(frozen=True)
class ShellingRefusal:
    step: int
    reason: str


def _purity_flaw(facet: int, earlier: Sequence[int], d: int) -> str:
    """Refusal reason for one step of the intersection-purity route, or ''.

    The boundary piece shared with the earlier facets must be generated by
    proper nonempty faces of dimension |F| - d - 1.
    """
    want = facet.bit_count() - d
    if want < 1:
        return f"facet of size {facet.bit_count()} leaves no room for proper degree-{d} removal"
    tops = max_antichain(facet & g for g in earlier)
    if tops == frozenset({0}):
        return "facet meets no earlier facet"
    for x in tops:
        if x.bit_count() != want:
            return f"shared boundary has a maximal face of size {x.bit_count()}, expected {want}"
    return ""


def _pairwise_step(facet: int, earlier: Sequence[int], d: int):
    """Witness d-sets for one step of the pairwise route, or a refusal reason.

    Candidate removals are the differences F \\ F_k of size exactly d; every
    earlier facet must avoid one of them entirely.
    """
    cands = sorted(
        {facet & ~g for g in earlier if (facet & ~g).bit_count() == d and (facet & ~g) != facet},
        key=bits_of,
    )
    for g in earlier:
        if not any(a & g == 0 for a in cands):
            return None, f"no removable d-set avoids the earlier facet {{{''.join(map(str, bits_of(g)))}}}"
    return tuple(cands), ""


def verify_d_shelling(
    c: SimplicialComplex, ordering: Sequence[int], d: int
) -> ShellingCertificate | ShellingRefusal:
    """Check a facet ordering for d-shellability.

    Runs the intersection-purity condition and the pairwise removable-set
    condition independently; the two are equivalent, and disagreement is an
    internal error.  The certificate carries the pairwise witnesses.
    """
    if c.is_void:
        raise PreconditionError("void complex has no facet ordering")
    if d < 1:
        raise ParameterError("d must be positive")
    order = tuple(int(f) for f in ordering)
    if frozenset(order) != c.facets or len(order) != len(c.facets):
        raise ParameterError("ordering must list every facet exactly once")
    steps: list[tuple[int, ...]] = []
    for pos in range(1, len(order)):
        reason_a = _purity_flaw(order[pos], order[:pos], d)
        witnesses, reason_b = _pairwise_step(order[pos], order[:pos], d)
        if bool(reason_a) != (witnesses is None):
            raise RuntimeError(
                f"internal disagreement between shelling routes at step {pos}: "
                f"{reason_a!r} vs {reason_b!r}"
            )
        if reason_a:
            return ShellingRefusal(pos, reason_a)
        steps.append(witnesses)
    return ShellingCertificate(d, order, ((),) + tuple(steps))


def search_d_shelling(
    c: SimplicialComplex, d: int, max_facets: int = 12, node_budget: int | None = None
) -> tuple[int, ...] | None:
    """Find a d-shelling order of the facets, or prove that none exists."""
    if c.is_void:
        raise PreconditionError("void complex has no facet ordering")
    if d < 1:
        raise ParameterError("d must be positive")
    facets = sorted(c.facets, key=bits_of)
    t = len(facets)
    if t > max_facets:
        raise SizeBudgetError(f"{t} facets exceeds the search bound {max_facets}")

    def children(used, placed, _state):
        for f in facets:
            if f in placed or used and _purity_flaw(f, used, d):
                continue
            yield f, None

    return search_order(None, children, lambda order, _: len(order) == t, node_budget)[0]


# --------------------------------------------------------------------------
# Alexander-dual bridge


def extend_ring(ideal: MonomialIdeal) -> MonomialIdeal:
    """The same generators inside a ring with one more, unused variable.

    Colon ideals are untouched, but the refusals for a colon generator
    covering everything outside its monomial can no longer fire, so
    quotient detection on the extension depends on the generators alone
    and not on the ambient ring.  On the dual side the extension is a
    cone, which removes the empty-intersection refusals the same way.
    """
    return MonomialIdeal(ideal.n_vertices + 1, ideal.generators)


def duality_bridge(ideal: MonomialIdeal) -> SimplicialComplex:
    """Complex whose facets are the ring-complements of the generators.

    d-quotient orders of the ideal and d-shellings of this complex are the
    same permutations, with identical witness sets.
    """
    if not ideal.is_minimal:
        raise PreconditionError("generators must be a minimal generating set")
    ring = ideal.ring_mask
    return SimplicialComplex(ideal.n_vertices, frozenset(ring & ~g for g in ideal.generators))


def shelling_order_from_quotient(ideal: MonomialIdeal, ordering: Sequence[int]) -> tuple[int, ...]:
    order = _check_ordering(len(ideal.generators), ordering)
    ring = ideal.ring_mask
    return tuple(ring & ~ideal.generators[i] for i in order)


def quotient_order_from_shelling(ideal: MonomialIdeal, facet_order: Sequence[int]) -> tuple[int, ...]:
    ring = ideal.ring_mask
    pos = {g: i for i, g in enumerate(ideal.generators)}
    try:
        return tuple(pos[ring & ~f] for f in facet_order)
    except KeyError:
        raise ParameterError("facet order does not match the ideal's dual complex") from None


def rsequence_colon_profile(
    ideal: MonomialIdeal, ordering: Sequence[int], d: int
) -> tuple[int, ...]:
    """Sizes of the per-step colon generating sets, after checking each is a
    regular sequence (pairwise-disjoint supports, all of degree d)."""
    cert = verify_d_quotients(ideal, ordering, d)
    if isinstance(cert, QuotientRefusal):
        raise PreconditionError(f"ordering does not give {d}-quotients: {cert.reason}")
    sizes = []
    for pos in range(1, len(cert.ordering)):
        gens = cert.colon_generators[pos]
        # the supports are disjoint exactly when no variable is counted twice
        if sum(map(int.bit_count, gens)) != reduce(or_, gens, 0).bit_count():
            raise PreconditionError(
                f"colon generators at step {pos} share variables; not a regular sequence"
            )
        sizes.append(len(gens))
    return tuple(sizes)
