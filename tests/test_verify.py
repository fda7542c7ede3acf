"""The registered cross-checks and their grid/report plumbing."""

from __future__ import annotations

import json

import pytest

from hyperbetti import THEOREM_IDS, ParameterError, run_check
from hyperbetti.verify import parse_grid


def test_registry_lists_twenty_five_checks():
    assert len(THEOREM_IDS) == 25
    assert len(set(THEOREM_IDS)) == 25


def test_parse_grid_forms():
    assert parse_grid(None) == {}
    assert parse_grid("") == {}
    assert parse_grid("smoke") == {"preset": "smoke"}
    assert parse_grid("n=3..5, d=3") == {"n": (3, 5), "d": (3, 3)}


def test_parse_grid_rejects_junk():
    with pytest.raises(ParameterError):
        parse_grid("n=a..b")


def test_unknown_theorem_id():
    with pytest.raises(ParameterError):
        run_check("nope")


def test_unknown_grid_keys_are_refused():
    """A key the check does not read stops the run before any instance."""
    with pytest.raises(ParameterError, match="'nn', 'alhpa'; its keys are d, alpha, n"):
        run_check("P", "nn=3,alhpa=9")
    with pytest.raises(ParameterError, match="'preset'"):
        run_check("P", "smoke")


@pytest.mark.parametrize(
    ("theorem", "grid", "message"),
    [
        ("to", "n=2..3", "need n >= 3 and alpha >= 1"),
        ("P", "alpha=0..1,n=1..2", "need d >= 2 and 1 <= alpha <= d/2"),
    ],
)
def test_grid_points_outside_a_family_are_skipped(theorem, grid, message):
    """A point outside the closed form's domain skips only its instances."""
    rep = run_check(theorem, grid)
    skipped = [r for r in rep.results if r.status == "skipped"]
    assert skipped and all(r.details == message for r in skipped)
    assert rep.ok and rep.matched


def test_closed_form_check_small_grid():
    rep = run_check("P", "n=3..4,d=3..3,alpha=1..1")
    assert rep.ok
    assert rep.grid == "n=3..4,d=3..3,alpha=1..1"
    summary = rep.summary_line()
    assert "theorem=P" in summary and "mismatch=0" in summary


def test_star_check_small_grid():
    rep = run_check("star", "n=2..3,d=3..3,alpha=1..2")
    assert rep.ok


def test_report_json_is_canonical():
    rep = run_check("knd-complement", "n=3..4,d=2..3")
    obj = rep.to_json_obj()
    text = json.dumps(obj, sort_keys=True)
    assert json.loads(text) == obj
    assert {"theorem", "grid", "summary", "results", "notes"} <= set(obj)
    assert all(r["status"] in {"match", "mismatch", "skipped"} for r in obj["results"])


def test_timings_are_opt_in():
    rep = run_check("b", "n=4..5")
    assert "timings_ms" not in rep.to_json_obj()
    assert "timings_ms" in rep.to_json_obj(include_timings=True)


def test_mismatch_flips_ok():
    """A report with zero mismatches is ok; the flag follows the tally."""
    rep = run_check("u", "n=3..3,d=3..3,alpha=1..1")
    assert rep.ok == (rep.to_json_obj()["summary"]["mismatch"] == 0)
    assert rep.ok


@pytest.mark.parametrize("theorem", ["betti", "u"])
def test_free_vertex_checks_take_a_range_of_n(theorem):
    """``n`` is a range for the free-vertex pool as for every family
    check; a single value ``n=k`` means n = k alone, and members outside
    a family's domain (cycles below three edges) are left out."""
    ranged = run_check(theorem, "n=2..3,count=0")
    labels = [r.instance for r in ranged.results]
    assert ranged.ok and ranged.matched
    assert any(label.startswith("line n=2 d=3 ") for label in labels)
    assert any(label.startswith("cycle n=3 ") for label in labels)
    assert not any(label.startswith(("line n=1 ", "cycle n=2 ", "star n=4 ")) for label in labels)
    single = run_check(theorem, "n=3,count=0")
    # the tight line n=2 d=2alpha is in every pool, whatever the grid
    assert {r.instance.split()[1] for r in single.results} == {"n=2", "n=3"}
    assert not any(r.instance.startswith("line n=2 d=3 ") for r in single.results)
