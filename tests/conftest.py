"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from hyperbetti import betti


def _clear_betti_memos() -> None:
    """Empty every memo ``betti`` keeps for the process: each of its
    module-level dicts and each of its functions with a ``cache_clear``.
    A memo added to the module later is found the same way."""
    for name, value in vars(betti).items():
        if name.startswith("__"):
            continue
        if isinstance(value, dict):
            value.clear()
        elif callable(getattr(value, "cache_clear", None)):
            value.cache_clear()


@pytest.fixture
def cold_memos():
    """Start the test with every memo of ``betti`` empty, and hand it the
    function that empties them, for a test that must start cold again
    (once per Hypothesis example, say)."""
    _clear_betti_memos()
    return _clear_betti_memos
