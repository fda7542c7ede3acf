"""Exact reduced simplicial homology over Q and prime fields.

Chain groups are indexed by faces-as-bitmasks and boundary matrices are
kept as sparse dicts, so ranks come from exact elimination with one
kernel per field: over GF(2) each matrix's columns are compacted to
0..c-1 and rows become int bitsets reduced by XOR; over Q unit pivots
reduce rows in place and other pivots take a fraction-free integer
step; over GF(p) for odd p rows are reduced with modular inverses.

The empty face is part of every chain complex here (augmented
convention): a single point has no reduced homology and the empty
complex {0} has one dimension in degree -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import ParameterError
from .complexes import SimplicialComplex, enumerate_faces


# The first twelve primes: as Miller-Rabin bases they decide primality
# of every integer below 3.3 * 10^24, so of every 64-bit one.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= p < 2^64."""
    if p < 2:
        return False
    for q in _WITNESSES:
        if p % q == 0:
            return p == q
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: GF(p) for prime p below 2^64, or Q when p is None."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if self.p >= 1 << 64:
                raise ParameterError(
                    f"field characteristic must be below 2^64, got {self.p}"
                )
            if not _is_prime(self.p):
                raise ParameterError(f"field characteristic must be prime, got {self.p}")

    @property
    def label(self) -> str:
        return "q" if self.p is None else f"gf{self.p}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return "Q" if self.p is None else f"GF({self.p})"


QQ = FieldSpec(None)
GF2 = FieldSpec(2)
GF3 = FieldSpec(3)


def parse_field(text: str) -> FieldSpec:
    """Accepts q, gf2, gf3, or gfP:<prime>."""
    t = text.strip().lower()
    if t in ("q", "qq", "rational", "rationals"):
        return QQ
    if t.startswith("gfp:"):
        tail = t.split(":", 1)[1]
        if not tail.isdigit():
            raise ParameterError(f"field characteristic must be an integer, got {tail!r}")
        return FieldSpec(int(tail))
    if t.startswith("gf") and t[2:].isdigit():
        return FieldSpec(int(t[2:]))
    raise ParameterError(f"unknown field {text!r}; use q, gf2, gf3, or gfP:<p>")


# -- sparse exact rank ------------------------------------------------


def rank_over_field(rows, field: FieldSpec) -> int:
    """Rank of a sparse matrix given as an iterable of {column: coefficient}
    dicts (columns are arbitrary ints).  Exact over every field; the rows
    passed in are never changed.

    Each field has its own elimination.  GF(2) relabels the matrix's
    columns 0..c-1 in the order they are first seen, packs each row into an
    int with a bit per odd entry and eliminates by XOR.  Q pivots in place
    on a leading entry of +-1 and takes a fraction-free step with content
    normalization on any other.  GF(p) for odd p pivots with modular
    inverses.
    """
    if field.p == 2:
        return _rank_gf2(rows)
    if field.p is None:
        return _rank_rational(rows)
    return _rank_modular(rows, field.p)


def _rank_gf2(rows) -> int:
    """XOR elimination on rows packed as ints, keyed on the top bit.

    Columns are relabelled densely because the labels are face masks: bit
    positions taken from the masks themselves would make every row as wide
    as the largest mask.
    """
    index: dict[int, int] = {}
    pivots: dict[int, int] = {}
    for raw in rows:
        bits = 0
        for c, v in raw.items():
            if v & 1:
                bits |= 1 << index.setdefault(c, len(index))
        while bits:
            top = bits.bit_length()
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = bits
                break
            bits ^= piv
    return len(pivots)


def _rank_modular(rows, p: int) -> int:
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for raw in rows:
        row = {c: v % p for c, v in raw.items() if v % p}
        while row:
            c = max(row)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(row[c], -1, p)
                pivots[c] = {k: (v * inv) % p for k, v in row.items()}
                rank += 1
                break
            f = row[c]
            for k, v in piv.items():
                nv = (row.get(k, 0) - f * v) % p
                if nv:
                    row[k] = nv
                elif k in row:
                    del row[k]
        # fully reduced to zero: contributes nothing
    return rank


def _rank_rational(rows) -> int:
    """Elimination on integer rows (rank over Q).

    A pivot whose leading entry is +-1 is stored with leading entry 1, and
    rows are reduced by it in place: the step needs no division, so it
    needs no scaling either.  Any other pivot is content-normalized and
    reduces by the fraction-free step a*row - b*pivot.
    """
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for raw in rows:
        row = {c: v for c, v in raw.items() if v}
        while row:
            c = max(row)
            piv = pivots.get(c)
            if piv is None:
                lead = row[c]
                if lead == -1:
                    row = {k: -v for k, v in row.items()}
                elif lead != 1:
                    row = _content_normalize(row)
                pivots[c] = row
                rank += 1
                break
            a, b = piv[c], row[c]
            if a == 1:
                for k, v in piv.items():
                    # row.get(k) is 0 only where the result is -b*v != 0,
                    # so a zero result always has a key to delete.
                    nv = row.get(k, 0) - b * v
                    if nv:
                        row[k] = nv
                    else:
                        del row[k]
                continue
            new = {}
            for k in row.keys() | piv.keys():
                nv = a * row.get(k, 0) - b * piv.get(k, 0)
                if nv:
                    new[k] = nv
            row = _content_normalize(new) if new else {}
    return rank


def _content_normalize(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return dict(row)


# -- boundary matrices and homology dims ------------------------------


def boundary_rows(faces: list[int]):
    """Boundary of each size-s face as a sparse row over size-(s-1) masks.

    Removing the k-th lowest vertex carries sign (-1)^k; for vertices the
    target is the empty-face column 0, which doubles as the augmentation.
    """
    for f in faces:
        row: dict[int, int] = {}
        sign = 1
        m = f
        while m:
            low = m & -m
            row[f ^ low] = sign
            sign = -sign
            m ^= low
        yield row


def dims_from_faces(faces_by_size: dict[int, list[int]], field: FieldSpec) -> dict[int, int]:
    """Nonzero reduced homology dimensions, keyed by degree.

    ``faces_by_size`` maps face cardinality to the list of face masks and
    must be closed under taking subsets (size 0 present unless void).
    """
    if not faces_by_size:
        return {}
    top = max(faces_by_size)
    ranks: dict[int, int] = {}
    for s in range(1, top + 1):
        faces = faces_by_size.get(s, [])
        if faces:
            ranks[s] = rank_over_field(boundary_rows(faces), field)
    dims: dict[int, int] = {}
    for s in range(0, top + 1):
        h = len(faces_by_size.get(s, ())) - ranks.get(s, 0) - ranks.get(s + 1, 0)
        if h:
            dims[s - 1] = h
    return dims


def reduced_homology_dims(c: SimplicialComplex, field: FieldSpec = QQ) -> dict[int, int]:
    """Reduced homology of a complex by direct face enumeration."""
    return dims_from_faces(enumerate_faces(c.facets), field)
