"""Bitmask helpers for vertex subsets.

Vertex sets live in Python ints: bit ``i`` set means vertex ``i`` is in
the set.  Everything here is a pure function on plain ints, which keeps
subset arithmetic (union, containment, enumeration) down to single
machine operations for the sizes this package supports.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator


def mask_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex labels into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> list[int]:
    """Unpack a bitmask into a sorted list of vertex labels."""
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
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
    """All size-``k`` submasks of ``mask``, in lexicographic label order."""
    for combo in combinations(bits_of(mask), k):
        yield mask_of(combo)


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
