"""Bitmask kernels against plain pairwise references."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from hyperbetti.bitsets import contains, max_antichain, min_antichain


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
