"""Bitmask helpers for vertex subsets.

Vertex sets live in Python ints: bit ``i`` set means vertex ``i`` is in
the set.  Everything here is a pure function on plain ints, which keeps
subset arithmetic (union, containment, enumeration) down to single
machine operations for the sizes this package supports.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, Sequence


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex labels into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> list[int]:
    """Unpack a bitmask into a sorted list of vertex labels."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def contains(outer: int, inner: int) -> bool:
    return inner & ~outer == 0


def submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask`` (including 0 and itself), descending."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def k_submasks(mask: int, k: int) -> Iterator[int]:
    """All size-``k`` submasks of ``mask``, in lexicographic label order.

    The bits of a combination are disjoint, so their sum is their union."""
    return map(sum, combinations([1 << v for v in bits_of(mask)], k))


def exactly_once(masks: Iterable[int]) -> int:
    """The bits set in exactly one of the masks."""
    once = twice = 0
    for m in masks:
        twice |= once & m
        once |= m
    return once & ~twice


def subfamily_unions(masks: Sequence[int]) -> list[int]:
    """The union of every subfamily of the masks, indexed by the subfamily's
    bitmask over their positions: the union at S adds the mask of S's
    lowest position to the union at S without it."""
    unions = [0] * (1 << len(masks))
    for S in range(1, len(unions)):
        low = S & -S
        unions[S] = unions[S ^ low] | masks[low.bit_length() - 1]
    return unions


def max_antichain(masks: Iterable[int]) -> frozenset[int]:
    """Inclusion-maximal elements of a family of masks.

    Size-class rule: two distinct masks of equal size never contain
    each other, so a mask is compared only against the kept masks of
    strictly larger size.
    """
    kept: list[int] = []
    larger: tuple[int, ...] = ()
    size = -1
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if m.bit_count() != size:
            size = m.bit_count()
            larger = tuple(kept)
        for big in larger:
            if m & ~big == 0:
                break
        else:
            kept.append(m)
    return frozenset(kept)


def min_antichain(masks: Iterable[int]) -> frozenset[int]:
    """Inclusion-minimal elements of a family of masks.

    Size-class rule: two distinct masks of equal size never contain
    each other, so a mask is compared only against the kept masks of
    strictly smaller size.
    """
    kept: list[int] = []
    smaller: tuple[int, ...] = ()
    size = -1
    for m in sorted(set(masks), key=int.bit_count):
        if m.bit_count() != size:
            size = m.bit_count()
            smaller = tuple(kept)
        for small in smaller:
            if small & ~m == 0:
                break
        else:
            kept.append(m)
    return frozenset(kept)
