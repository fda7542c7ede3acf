"""Graded Betti numbers of square-free monomial quotients, exactly.

The workhorse is the restriction formula: the (i, j) Betti number of
R/I over a field k is the sum, over vertex subsets V of size j, of the
dimension of the reduced homology of the induced subcomplex on V in
degree j - i - 1.  Everything else in this module is either a fast
evaluation strategy for those restriction homologies or a closed-form
table for a structured family, checked against that oracle in tests.

The sum reads only the ground set and the minimal nonfaces, which are
the minimal generators of I: ``edge_ideal_betti`` passes the edges,
``clique_ideal_betti`` the non-edge d-sets, ``ideal_betti`` the
generators, and ``hochster_betti`` dualizes the facets of its complex.
No route builds a facet list.  ``complexes.grow_faces`` lists faces
level by level from the nonfaces, up to a cap, wherever a route needs
them.

Subsets that induce a cone contribute nothing, so when the minimal
nonfaces are few the sum runs only over their unions.  Every other
subset is answered by one of three strategies:

* sparse skeleton - when every set smaller than s (the minimal nonface
  size) is a face, only the faces of size >= s carry information, and
  their boundary ranks depend on that face list alone, so they memoize
  across subsets (complexes with few large faces, e.g. clique-style
  complexes of sparse hypergraphs).  It answers every subset whenever
  those faces are few enough to grow;
* dual nerve - replace the subcomplex by the nerve of the k minimal
  nonfaces inside V, which has complementary homology and at most 2^k
  faces (the crosscut complex of the LCM lattice);
* direct - grow the faces of the induced subcomplex and compute
  boundary ranks.

Between the last two the cost is measured, not estimated: the faces on
V are grown up to the nerve's 2^k (or up to the face budget, if 2^k is
over it).  If the growth finishes the direct route answers; otherwise
the nerve runs, and refuses with SizeBudgetError when 2^k is over the
face budget.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial
from typing import Iterable, Sequence

from .bitsets import contains, k_submasks, submasks
from .complexes import FACE_BUDGET, SimplicialComplex, grow_faces, minimal_nonfaces
from .errors import ParameterError, PreconditionError, SizeBudgetError
from .homology import (
    QQ,
    FieldSpec,
    boundary_rows,
    dims_from_faces,
    rank_over_field,
)
from .hypergraph import Hypergraph, canonical_json, non_edges
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
# Most faces of size >= s the skeleton strategy lists.
BIG_FACE_CAP = 600
# Most minimal nonfaces for which the sum runs over their union closure.
CLOSURE_MAX_NONFACES = 26


class _RestrictionOracle:
    """Engine answering 'reduced homology of the induced subcomplex on V'
    for many V, with strategy dispatch and memoing.  It reads the ground
    set and the minimal nonfaces of one complex."""

    def __init__(self, ground: int, nonfaces: Iterable[int], fld: FieldSpec) -> None:
        self.mnf = sorted(set(nonfaces))
        if 0 in self.mnf:
            raise PreconditionError("restriction homology needs a nonvoid complex")
        self.fld = fld
        self.min_nonface_size = s = min((m.bit_count() for m in self.mnf), default=0)
        # the faces of size >= s, if there are few (none needed for a simplex)
        big = grow_faces(ground, self.mnf, s, BIG_FACE_CAP) if self.mnf else None
        self.big_faces = None if big is None else sorted(f for fs in big.values() for f in fs)
        self._rank_memo: dict[tuple[int, ...], tuple[dict, dict]] = {}

    # -- public -------------------------------------------------------

    def dims_for(self, vmask: int) -> dict[int, int]:
        """Nonzero reduced homology dims of the induced subcomplex.

        Cones are answered at once, and the skeleton strategy takes every
        subset when it exists.  Otherwise the k minimal nonfaces inside V
        give a nerve of 2^k faces: the faces of the subcomplex are grown
        up to that many (or up to the face budget), and answered directly
        when the growth finishes, through the nerve when it does not.
        """
        m = vmask.bit_count()
        if m == 0:
            return {-1: 1}
        if not self.mnf:
            return {}  # the whole complex is a simplex
        if self.big_faces is not None:
            return self._dims_skeleton(vmask, m)
        relevant = [M for M in self.mnf if contains(vmask, M)]
        if not relevant:
            return {}  # simplex on V
        covered = 0
        for M in relevant:
            covered |= M
        if covered != vmask:
            return {}  # any uncovered vertex is a cone apex
        dims = self._dims_direct(vmask, relevant, min(1 << len(relevant), FACE_BUDGET))
        if dims is None:
            return self._dims_nerve(vmask, m, relevant)
        return dims

    # -- strategies ---------------------------------------------------

    def _dims_direct(self, vmask: int, relevant: list[int], cap: int) -> dict[int, int] | None:
        """Homology from the faces of the subcomplex, grown from the
        minimal nonfaces inside V; None when it has more than cap faces."""
        faces = grow_faces(vmask, relevant, 0, cap)
        return None if faces is None else dims_from_faces(faces, self.fld)

    def _dims_nerve(self, vmask: int, m: int, relevant: list[int]) -> dict[int, int]:
        """Homology through the nerve of the minimal nonfaces inside V.

        The nerve's faces are the index sets whose nonface union misses
        part of V; its degree-t homology equals the subcomplex homology
        in degree m - t - 3.
        """
        size = 1 << len(relevant)
        if size > FACE_BUDGET:
            raise SizeBudgetError(
                f"restriction nerve size {size} exceeds the face budget"
            )
        unions = [0] * size
        for S in range(1, size):
            low = S & -S
            unions[S] = unions[S ^ low] | relevant[low.bit_length() - 1]
        by_size: dict[int, list[int]] = {0: [0]}
        for S in range(1, size):
            if unions[S] != vmask:
                by_size.setdefault(S.bit_count(), []).append(S)
        nerve_dims = dims_from_faces(by_size, self.fld)
        return {m - 3 - t: dim for t, dim in nerve_dims.items()}

    def _dims_skeleton(self, vmask: int, m: int) -> dict[int, int]:
        """All small sets are faces, so only faces of size >= s matter."""
        s = self.min_nonface_size
        if m < s:
            return {}  # V itself is a face: simplex
        assert self.big_faces is not None
        S = tuple(f for f in self.big_faces if contains(vmask, f))
        counts, ranks = self._skeleton_ranks(S)
        dims: dict[int, int] = {}
        h = comb(m - 1, s - 1) - ranks.get(s, 0)
        if h:
            dims[s - 2] = h
        top = max(counts) if counts else s - 1
        for t in range(s, top + 1):
            h = counts.get(t, 0) - ranks.get(t, 0) - ranks.get(t + 1, 0)
            if h:
                dims[t - 1] = h
        return dims

    def _skeleton_ranks(self, S: tuple[int, ...]) -> tuple[dict, dict]:
        """Boundary ranks of the size >= s part; depends only on S."""
        memo = self._rank_memo.get(S)
        if memo is not None:
            return memo
        by_size: dict[int, list[int]] = {}
        for f in S:
            by_size.setdefault(f.bit_count(), []).append(f)
        counts = {t: len(fs) for t, fs in by_size.items()}
        ranks = {
            t: rank_over_field(boundary_rows(fs), self.fld)
            for t, fs in by_size.items()
        }
        self._rank_memo[S] = (counts, ranks)
        return counts, ranks

    # -- subset iteration ---------------------------------------------

    def union_closure(self) -> list[int] | None:
        """All unions of minimal-nonface subfamilies, or None if huge.

        Induced subcomplexes on any other vertex set are cones, so the
        restriction sum may run over this family alone.
        """
        closure: set[int] = {0}
        for M in self.mnf:
            closure |= {c | M for c in closure}
            if len(closure) > 1 << 18:
                return None
        return sorted(closure)


def _check_vertex_budget(ground: int, vertex_budget: int) -> None:
    n = ground.bit_count()
    if n > vertex_budget:
        raise SizeBudgetError(
            f"restriction sum over {n} vertices exceeds the vertex budget {vertex_budget}"
        )


def _restriction_sum(
    ground: int, nonfaces: Iterable[int], fld: FieldSpec, vertex_budget: int
) -> BettiTable:
    """Graded Betti numbers of R/I, where I is generated by these minimal
    nonfaces of a complex on the ground set.

    The sum runs over the unions of minimal nonfaces when there are few
    enough of them, and over every vertex subset otherwise.
    """
    _check_vertex_budget(ground, vertex_budget)
    n = ground.bit_count()
    oracle = _RestrictionOracle(ground, nonfaces, fld)
    subsets: Iterable[int] | None = None
    if len(oracle.mnf) <= CLOSURE_MAX_NONFACES:
        subsets = oracle.union_closure()
    if subsets is None:
        # full sweep over 2^n subsets: needs the cheap per-subset strategy
        # unless the ground set is small enough to brute-force
        if oracle.big_faces is None and n > 14:
            raise SizeBudgetError(
                "too many minimal nonfaces for the union-closure sum and too "
                "many large faces for the skeleton strategy; no feasible plan"
            )
        subsets = submasks(ground)
    entries: dict[tuple[int, int], int] = {}
    for v in subsets:
        dims = oracle.dims_for(v)
        if not dims:
            continue
        j = v.bit_count()
        for degree, dim in dims.items():
            key = (j - 1 - degree, j)
            entries[key] = entries.get(key, 0) + dim
    return BettiTable("quotient", n, entries)


def hochster_betti(
    c: SimplicialComplex, fld: FieldSpec = QQ, *, vertex_budget: int = VERTEX_BUDGET
) -> BettiTable:
    """Graded Betti numbers of R/I for the face ideal of the complex,
    exact over the requested field; the facets are dualized to the
    minimal nonfaces once the ground set is known to be within budget."""
    _check_vertex_budget(c.vertices, vertex_budget)
    return _restriction_sum(c.vertices, minimal_nonfaces(c), fld, vertex_budget)


def edge_ideal_betti(
    h: Hypergraph, fld: FieldSpec = QQ, *, vertex_budget: int = VERTEX_BUDGET
) -> BettiTable:
    """Betti table of R/I(H): the edges are the minimal nonfaces of the
    independence complex."""
    return _restriction_sum(h.vertices, h.edges, fld, vertex_budget)


def clique_ideal_betti(
    h: Hypergraph, d: int, fld: FieldSpec = QQ, *, vertex_budget: int = VERTEX_BUDGET
) -> BettiTable:
    """Betti table of R/I for the face ideal of the clique-style complex
    of a d-uniform hypergraph; minimal nonfaces are the non-edge d-sets."""
    if d < 2:
        raise ParameterError("edge size d must be at least 2")
    if not h.is_uniform(d):
        raise PreconditionError(f"clique-style complex needs {d}-uniform input")
    _check_vertex_budget(h.vertices, vertex_budget)
    return _restriction_sum(h.vertices, non_edges(h, d), fld, vertex_budget)


def ideal_betti(ideal: MonomialIdeal, fld: FieldSpec = QQ) -> BettiTable:
    """Betti table of R/I for a squarefree monomial ideal given by its
    minimal generators, which are the minimal nonfaces of its complex."""
    if not ideal.is_minimal:
        raise PreconditionError("generators must be a minimal generating set")
    return _restriction_sum(ideal.ring_mask, ideal.generators, fld, VERTEX_BUDGET)


# -- closed-form families ---------------------------------------------


def taylor_betti_free_vertex(h: Hypergraph) -> BettiTable:
    """Subset-counting Betti table for edge sets where every edge keeps
    a private vertex: entry (i, j) counts the i-subsets of edges whose
    union has j vertices.  Characteristic-free."""
    from .hypergraph import every_edge_has_free_vertex

    if not every_edge_has_free_vertex(h):
        raise PreconditionError("needs a private vertex in every edge")
    edges = sorted(h.edges)
    t = len(edges)
    entries: dict[tuple[int, int], int] = {(0, 0): 1}
    unions = [0] * (1 << t)
    for S in range(1, 1 << t):
        low = S & -S
        unions[S] = unions[S ^ low] | edges[low.bit_length() - 1]
        key = (S.bit_count(), unions[S].bit_count())
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


def count_line_subconfigs(sizes: Sequence[int], n: int) -> int:
    """Number of ways to place disjoint, non-adjacent runs of consecutive
    edges with the given multiset of lengths along a path of n edges."""
    sizes = tuple(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ParameterError("run lengths must be positive")
    r = len(sizes)
    i = sum(sizes)
    mult = 1
    for ccount in Counter(sizes).values():
        mult *= factorial(ccount)
    total = factorial(r) * safe_binom(n - i + 1, r)
    return total // mult


def count_cycle_subconfigs(sizes: Sequence[int], n: int) -> int:
    """Same count around a cycle of n edges (no run may close the loop)."""
    sizes = tuple(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ParameterError("run lengths must be positive")
    r = len(sizes)
    i = sum(sizes)
    mult = 1
    for ccount in Counter(sizes).values():
        mult *= factorial(ccount)
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


# -- connectivity and resolution shape --------------------------------


@dataclass(frozen=True)
class ResolutionStats:
    projective_dimension: int
    depth: int
    regularity: int
    linear_strand_length: int
    has_linear_resolution: bool


def resolution_stats(table: BettiTable, gen_degree: int) -> ResolutionStats:
    """Shape summary of a quotient-convention table whose ideal is
    generated in the given degree."""
    t = table.as_quotient()
    pd = t.projective_dimension
    strand = 0
    linear = True
    for (i, j), b in t.entries.items():
        if i == 0:
            continue
        if j == i + gen_degree - 1:
            strand = max(strand, i)
        else:
            linear = False
    return ResolutionStats(
        projective_dimension=pd,
        depth=t.n - pd,
        regularity=t.regularity,
        linear_strand_length=strand,
        has_linear_resolution=linear and bool(t.entries),
    )


def connectivity(
    h: Hypergraph,
    fld: FieldSpec = QQ,
    d: int | None = None,
) -> int | None:
    """Fewest vertices whose removal leaves top-dimension-below-d homology
    in the clique-style complex; None when no removal ever does (the
    complete hypergraph).  Scans removal sets smallest-first.
    """
    if d is None:
        d = h.uniform_degree
        if d is None:
            raise PreconditionError("connectivity needs a uniform hypergraph")
    elif not h.is_uniform(d):
        raise PreconditionError(f"connectivity needs {d}-uniform input")
    nonfaces = non_edges(h, d)
    if not nonfaces:
        return None
    oracle = _RestrictionOracle(h.vertices, nonfaces, fld)
    verts = h.vertices
    n = verts.bit_count()
    for w in range(0, n - d + 1):
        for wmask in k_submasks(verts, w):
            if oracle.dims_for(verts ^ wmask).get(d - 2):
                return w
    return None


@dataclass(frozen=True)
class ConnectivityReport:
    """Both routes to connectivity plus the depth-based equivalences."""

    n: int
    d: int
    connectivity_direct: int | None
    linear_strand_length: int
    connectivity_from_strand: int | None
    matches: bool
    pd: int
    depth: int
    zero_connectivity: bool
    depth_route_zero: bool
    equivalence_holds: bool


def check_conn_depth_theorem(
    h: Hypergraph, fld: FieldSpec = QQ, d: int | None = None
) -> ConnectivityReport:
    """Check connectivity == n - d + 1 - (linear strand length), and the
    zero-connectivity characterization through depth, on one instance."""
    if d is None:
        d = h.uniform_degree
        if d is None:
            raise PreconditionError("needs a uniform hypergraph")
    if not non_edges(h, d):
        raise PreconditionError(
            "complete hypergraph: connectivity is infinite, theorem does not apply"
        )
    n = h.num_vertices
    table = clique_ideal_betti(h, d, fld)
    stats = resolution_stats(table, d)
    strand = stats.linear_strand_length
    con = connectivity(h, fld, d)
    expected = None if strand == 0 else n - d + 1 - strand
    zero = con == 0
    depth_zero = (
        stats.projective_dimension == n - d + 1
        and stats.depth == d - 1
        and strand == stats.projective_dimension
    )
    return ConnectivityReport(
        n=n,
        d=d,
        connectivity_direct=con,
        linear_strand_length=strand,
        connectivity_from_strand=expected,
        matches=con == expected,
        pd=stats.projective_dimension,
        depth=stats.depth,
        zero_connectivity=zero,
        depth_route_zero=depth_zero,
        equivalence_holds=zero == depth_zero,
    )


# -- Cohen-Macaulay checks --------------------------------------------


def is_cohen_macaulay(c: SimplicialComplex, fld: FieldSpec = QQ) -> bool:
    """Depth of the face ring equals dimension (via the restriction sum)."""
    if c.is_void:
        raise PreconditionError("void complex has no face ring")
    table = hochster_betti(c, fld)
    depth = c.vertices.bit_count() - table.projective_dimension
    return depth == (c.dim if c.dim is not None else -1) + 1


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
    n = c.vertices.bit_count()
    e = (c.dim if c.dim is not None else -1) + 1
    oracle = _RestrictionOracle(c.vertices, minimal_nonfaces(c), fld)
    for i in range(-1, e - 1):
        size = n - e + i + 2
        if not 0 < size <= n:
            continue
        for vmask in k_submasks(c.vertices, size):
            if oracle.dims_for(vmask).get(i):
                return (i, vmask)
    return None


def froberg_cm_check(c: SimplicialComplex, fld: FieldSpec = QQ) -> bool:
    """Cohen-Macaulayness via the single-band restriction criterion."""
    return froberg_cm_witness(c, fld) is None
