"""Bitmask kernels against plain pairwise references."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbetti.bitsets import (
    contains,
    exactly_once,
    max_antichain,
    min_antichain,
    subfamily_unions,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=24))
def test_antichains_match_the_pairwise_reference(masks):
    """The size-class rule keeps exactly the masks that the all-pairs
    comparison keeps."""
    family = set(masks)
    minimal = {m for m in family if not any(o != m and contains(m, o) for o in family)}
    maximal = {m for m in family if not any(o != m and contains(o, m) for o in family)}
    assert min_antichain(masks) == minimal
    assert max_antichain(masks) == maximal


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 255), max_size=8))
def test_set_counts_match_a_per_bit_reference(masks):
    """A bit is in ``exactly_once`` when one mask holds it, and the union at
    each subfamily index is the union of the masks at its set bits."""
    assert exactly_once(masks) == sum(
        1 << b for b in range(8) if sum(m >> b & 1 for m in masks) == 1
    )
    unions = subfamily_unions(masks)
    assert len(unions) == 1 << len(masks)
    for S, union in enumerate(unions):
        expected = 0
        for k, m in enumerate(masks):
            if S >> k & 1:
                expected |= m
        assert union == expected
