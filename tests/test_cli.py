"""End-to-end command behavior: exit codes, bytes, and the cache."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperbetti import BettiTable, cycle_betti_closed_form, line_betti_closed_form
from hyperbetti import star_betti_closed_form
from hyperbetti import make_complete, make_multipartite, make_star_overlap, verify
from hyperbetti.bitsets import mask_of
from hyperbetti.cli import main
from hyperbetti.complexes import SimplicialComplex
from hyperbetti.ideal import ShellingCertificate, verify_d_shelling

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERBETTI_CACHE_DIR", str(tmp_path / "cache"))


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits on --help and on bad flags
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_line_embeds_family_tag(capsys):
    code, out, _ = run(capsys, "gen", "--family", "line", "--n", "3", "--d", "3", "--alpha", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 7
    assert obj["family"] == {"alpha": 1, "d": 3, "kind": "line", "n": 3}


def test_gen_is_deterministic(capsys):
    args = ("gen", "--family", "cycle", "--n", "4", "--d", "3", "--alpha", "1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_calls_in_one_process_print_what_fresh_processes_print(capsys, tmp_path, monkeypatch):
    """``main`` builds its parser once per process.  Repeated calls in one
    process print the bytes that a fresh process prints, and a bad flag
    still exits 2 with the same message, without disturbing the calls
    after it."""
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the same width
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "cycle", "--n", "4", "--d", "3", "--alpha", "1"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv in (
        ("betti", path, "--complex", "clique", "--field", "q", "--format", "csv", "--no-cache"),
        ("betti", "--help"),
        ("betti", path, "--no-such-flag"),
    ):
        fresh = subprocess.run(
            [sys.executable, "-m", "hyperbetti", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        for _ in range(2):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (fresh.returncode, fresh.stdout)
            if code == 2:
                assert err == fresh.stderr
    assert fresh.returncode == 2 and "unrecognized arguments: --no-such-flag" in fresh.stderr


def test_gen_complete_below_degree(capsys):
    code, out, _ = run(capsys, "gen", "--family", "complete", "--n", "3", "--d", "4")
    assert code == 0
    assert json.loads(out)["edges"] == []


def test_gen_bad_overlap_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--family", "line", "--n", "3", "--d", "3", "--alpha", "9")
    assert code == 2
    assert "error:" in err


def test_gen_multipartite(capsys):
    code, out, _ = run(capsys, "gen", "--family", "multipartite", "--parts", "2,2", "--d", "2")
    assert code == 0
    assert len(json.loads(out)["edges"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ("--family", "complete", "--n", "40", "--d", "20"),
        ("--family", "multipartite", "--parts", "20,20", "--d", "20"),
    ],
)
def test_gen_listing_too_many_edges_is_refused(capsys, argv):
    """C(40, 20) d-subsets are refused as over budget before any is listed."""
    code, out, err = run(capsys, "gen", *argv)
    assert code == 3
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: the family lists more than 262144 20-subsets of 40 vertices"
    ]


_OVERLAP = ("--n", "30000000", "--d", "3", "--alpha", "1")


@pytest.mark.parametrize(
    "argv, vertices",
    [
        pytest.param(("line", *_OVERLAP), 60000001, id="line-60000001"),
        pytest.param(("cycle", *_OVERLAP), 60000000, id="cycle-60000000"),
        pytest.param(("star", *_OVERLAP), 60000001, id="star-60000001"),
        pytest.param(("complete", "--n", "1000", "--d", "2"), 1000, id="complete-1000"),
        pytest.param(("complete", "--n", "100", "--d", "2"), 100, id="complete-100"),
        pytest.param(("multipartite", "--parts", "900,100", "--d", "2"), 1000,
                     id="multipartite-1000"),
    ],
)
def test_gen_overlap_family_past_the_vertex_limit_is_refused(capsys, argv, vertices):
    """30,000,000 edges of size 3 in a row, a cycle or a star, and the
    complete and complete multipartite graphs on 100 or 1000 vertices,
    need more than 63 vertices: refused as a usage error before any edge
    is listed, whatever the listing budget would say."""
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", "--family", *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: vertex count must be between 0 and 63, got {vertices}"
    ]


def _gen_to_file(capsys, tmp_path, *argv):
    _, out, _ = run(capsys, *argv)
    path = tmp_path / "input.json"
    path.write_text(out)
    return str(path)


def test_betti_closed_form_matches_hochster(capsys, tmp_path):
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "star", "--n", "3", "--d", "3", "--alpha", "1"
    )
    code, closed, _ = run(capsys, "betti", path, "--method", "closed-form", "--no-cache")
    assert code == 0
    code2, summed, _ = run(capsys, "betti", path, "--method", "hochster", "--no-cache")
    assert code2 == 0
    assert closed == summed


def test_betti_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n":4,"edges":[[0,1,2],[1,2,3]]}'))
    code, out, _ = run(capsys, "betti", "-", "--no-cache")
    assert code == 0
    table = json.loads(out)
    assert {"i": 2, "j": 4, "beta": 1} in table["entries"]


def test_betti_csv_and_ideal_convention(capsys, tmp_path):
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "3", "--d", "3", "--alpha", "1"
    )
    code, out, _ = run(
        capsys, "betti", path, "--format", "csv", "--convention", "ideal", "--no-cache"
    )
    assert code == 0
    assert out.splitlines()[0] == "i,j,beta"
    assert "0,3,3" in out


def test_betti_cache_replays_bytes(capsys, tmp_path):
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "2", "--d", "3", "--alpha", "1"
    )
    code, first, err1 = run(capsys, "betti", path)
    code2, second, err2 = run(capsys, "betti", path)
    assert code == code2 == 0
    assert first == second
    assert "[cache] hit" not in err1
    assert "[cache] hit" in err2


def test_betti_cache_keys_include_flags(capsys, tmp_path):
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "2", "--d", "3", "--alpha", "1"
    )
    run(capsys, "betti", path)
    _, csv_out, err = run(capsys, "betti", path, "--format", "csv")
    assert "[cache] hit" not in err
    assert csv_out.startswith("i,j,beta")


def test_betti_rejects_composite_field(capsys, tmp_path):
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "2", "--d", "3", "--alpha", "1"
    )
    code, _, err = run(capsys, "betti", path, "--field", "gfP:6", "--no-cache")
    assert code == 2
    assert "prime" in err


def test_betti_field_characteristic_below_two_to_the_64(capsys, tmp_path):
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "2", "--d", "3", "--alpha", "1"
    )
    code, out, _ = run(capsys, "betti", path, "--field", f"gfp:{2**61 - 1}", "--no-cache")
    assert code == 0
    assert json.loads(out)["n"] == 5
    code, _, err = run(capsys, "betti", path, "--field", f"gfp:{2**64 + 13}", "--no-cache")
    assert code == 2
    assert "below 2^64" in err and "Traceback" not in err


def test_betti_cache_misses_entries_of_other_code(capsys, tmp_path, monkeypatch):
    """An entry stored by different package sources is never replayed."""
    from hyperbetti import cache

    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "2", "--d", "3", "--alpha", "1"
    )
    with monkeypatch.context() as m:
        m.setattr(cache, "code_digest", lambda: "0" * 64)
        run(capsys, "betti", path)
        _, _, err = run(capsys, "betti", path)
        assert "[cache] hit" in err
    _, _, err = run(capsys, "betti", path)
    assert "[cache] hit" not in err
    _, _, err = run(capsys, "betti", path)
    assert "[cache] hit" in err


def _damaged_entry_is_a_miss(capsys, tmp_path, damage: bytes) -> None:
    """Overwrite line(3,3,1)'s cache entry with ``damage``: the next call
    computes the table again, with no traceback, and its store replaces
    the entry, so the call after is a hit."""
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "3", "--d", "3", "--alpha", "1"
    )
    code, expected, _ = run(capsys, "betti", path)
    assert code == 0
    (entry,) = (tmp_path / "cache").iterdir()
    entry.write_bytes(damage)
    code, out, err = run(capsys, "betti", path)
    assert code == 0 and out == expected
    assert "[cache] hit" not in err and "Traceback" not in err
    assert BettiTable.from_json(out) == line_betti_closed_form(3, 3, 1)
    code, out, err = run(capsys, "betti", path)
    assert code == 0 and out == expected and "[cache] hit" in err


def test_betti_treats_an_undecodable_cache_entry_as_a_miss(capsys, tmp_path):
    """An entry that is not UTF-8 is a miss."""
    _damaged_entry_is_a_miss(capsys, tmp_path, b"\xff\xfe")


def test_betti_treats_a_damaged_cache_entry_as_a_miss(capsys, tmp_path):
    """An entry whose text no longer matches the digest stored with it is
    a miss."""
    _damaged_entry_is_a_miss(capsys, tmp_path, b"not a table")


def test_betti_closed_form_needs_family_tag(capsys, tmp_path):
    path = tmp_path / "raw.json"
    path.write_text('{"n":5,"edges":[[0,1,2],[2,3,4]]}')
    code, _, err = run(capsys, "betti", str(path), "--method", "closed-form", "--no-cache")
    assert code == 2
    assert "family" in err


def test_betti_closed_form_rejects_tampered_tag(capsys, tmp_path):
    obj = {
        "n": 5,
        "edges": [[0, 1, 2], [1, 2, 3]],
        "family": {"kind": "line", "n": 2, "d": 3, "alpha": 1},
    }
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "betti", str(path), "--method", "closed-form", "--no-cache")
    assert code == 2
    assert "does not match" in err


def test_betti_closed_form_other_families_are_usage_errors(capsys, tmp_path):
    path = _gen_to_file(capsys, tmp_path, "gen", "--family", "complete", "--n", "4", "--d", "3")
    code, _, err = run(capsys, "betti", str(path), "--method", "closed-form", "--no-cache")
    assert code == 2
    assert "closed-form" in err


def test_betti_vertex_budget_exit(capsys, tmp_path):
    """cycle(5,2,1) has no free vertex, so its one restriction sum runs
    over all five vertices, past a vertex budget of four."""
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "cycle", "--n", "5", "--d", "2", "--alpha", "1"
    )
    code, _, err = run(capsys, "betti", path, "--max-vertices", "4", "--no-cache")
    assert code == 3
    assert "budget" in err


def test_betti_has_no_subset_count_method(capsys, tmp_path):
    """The subset count over all 2^E subfamilies is not a CLI method: the
    split tree answers every input it answered.  Asking for it is a usage
    error."""
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "3", "--d", "3", "--alpha", "1"
    )
    for route in ("independence", "clique"):
        code, out, err = run(
            capsys, "betti", path, "--complex", route, "--method", "taylor", "--no-cache"
        )
        assert (code, out) == (2, "")
        assert "invalid choice: 'taylor'" in err


@pytest.mark.parametrize("route", ["independence", "clique"])
def test_betti_refuses_over_budget_before_building_a_complex(capsys, tmp_path, monkeypatch, route):
    """cycle(21,2,1) has 21 vertices and no free vertex, nor does its
    clique route's set of non-edges: on both routes the split tree is one
    leaf, whose restriction sum runs over all 21 vertices.  Both refuse at
    once at the default budget, before any complex or transversal is
    built."""
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "cycle", "--n", "21", "--d", "2", "--alpha", "1"
    )

    def built(*_args, **_kwargs):
        raise AssertionError("a complex was built")

    builders = ("independence_complex", "clique_complex", "sr_complex", "minimal_transversals")
    for name, module in list(sys.modules.items()):
        if name == "hyperbetti" or name.startswith("hyperbetti."):
            for attr in builders:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, built)
    code, out, err = run(capsys, "betti", path, "--complex", route, "--no-cache")
    assert code == 3
    assert out == ""
    assert err.splitlines()[0] == (
        "error: restriction sum over 21 vertices exceeds the vertex budget 20"
    )


def test_betti_refuses_a_full_sweep_over_the_face_budget(capsys, tmp_path):
    """At --max-vertices 40 the clique route of line(10,4,1) has 31,455
    non-edges, too many for the union closure, so the sum would sweep the
    subsets of 31 vertices grouped by their big faces; that search has
    1,310,720 leaves, and it is refused as it passes the plan budget,
    before any rank runs, instead of running for minutes."""
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "10", "--d", "4", "--alpha", "1"
    )
    assert _betti_refusal(tmp_path, path, "--complex", "clique", "--max-vertices", "40") == (
        "error: the skeleton-sweep plan visits more than 262144 search leaves (the plan budget)"
    )


def test_betti_refuses_the_clique_route_of_k10_10(capsys, tmp_path):
    """Within the default vertex budget, the clique route of K(10,10) has a
    skeleton-sweep search of 1,047,553 leaves (about 90 s to answer); it
    is refused once the search passes the plan budget."""
    path = _gen_to_file(capsys, tmp_path, "gen", "--family", "multipartite", "--parts", "10,10",
                        "--d", "2")
    assert _betti_refusal(tmp_path, path, "--complex", "clique") == (
        "error: the skeleton-sweep plan visits more than 262144 search leaves (the plan budget)"
    )


def _program(tmp_path, *argv):
    """Run ``hyperbetti`` as a program; it must print no traceback.
    Returns its exit code, its stdout, its stderr lines and the
    milliseconds it reports on its ``[time]`` line."""
    env = dict(os.environ, PYTHONPATH=SRC, HYPERBETTI_CACHE_DIR=str(tmp_path / "cache"))
    done = subprocess.run(
        [sys.executable, "-m", "hyperbetti", *argv],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    [ms] = [int(line.split()[-2]) for line in lines if line.startswith("[time]")]
    return done.returncode, done.stdout, lines, ms


def _refusal(tmp_path, *argv):
    """Run ``hyperbetti`` as a program; it must print nothing on stdout.
    Returns its exit code, its one error line and its milliseconds."""
    code, out, lines, ms = _program(tmp_path, *argv)
    assert out == ""
    [line] = [line for line in lines if line.startswith("error:")]
    return code, line, ms


def _betti_refusal(tmp_path, path, *flags):
    """Run ``hyperbetti betti`` as a program; it must exit 3.  Returns its
    one error line."""
    code, line, _ = _refusal(tmp_path, "betti", str(path), *flags, "--no-cache")
    assert code == 3
    return line


# 22 disjoint pairs: 2^22 minimal transversals, each pair's complement a facet
_PAIRS = [[2 * i, 2 * i + 1] for i in range(22)]
# 25 edges on 25 vertices whose split tree passes the plan budget
_BOTTLENECK = {
    "n": 25,
    "edges": [
        [0, 3, 16, 19, 24], [0, 5, 9, 12, 21], [0, 14, 15, 16, 19], [1, 4, 9, 21],
        [1, 7, 10, 17, 19], [2, 5, 14, 16], [2, 7, 15, 17, 19], [2, 10, 17, 19, 22],
        [2, 11, 12], [2, 11, 15, 17], [3, 4], [4, 10], [5, 7, 21, 22], [5, 16, 17, 20, 24],
        [6, 9, 10, 11, 13], [7, 16], [7, 23], [8, 15], [8, 18], [9, 16, 19, 22, 23],
        [10, 23], [13, 19], [14, 15, 22], [21, 22, 24], [23, 24],
    ],
}


@pytest.mark.parametrize(
    "argv, obj, code, message",
    [
        (
            ["chordal", "--build", "10,10,10,10,10,10,21:20", "--d", "2"], None, 2,
            "error: no valid glue of size 20 exists",
        ),
        (
            ["betti", "--complex", "clique", "--no-cache"], {"n": 63, "edges": [list(range(31))]},
            3, "error: there are more than 262144 non-edge 31-sets to list",
        ),
        (
            ["betti", "--no-cache"], _BOTTLENECK, 3,
            "error: the split tree and its leaf plans visit more than 262144 (the plan budget)",
        ),
        (
            ["betti", "--max-vertices", "63", "--no-cache"], _BOTTLENECK, 3,
            "error: the split tree and its leaf plans visit more than 262144 (the plan budget)",
        ),
        (
            ["shell", "--complex", "independence", "--d", "1"], {"n": 44, "edges": _PAIRS}, 3,
            "error: the dualization yields more than 12 sets",
        ),
        (
            ["shell", "--complex", "clique", "--d", "1"], {"n": 63, "edges": [list(range(31))]}, 3,
            "error: there are more than 262144 non-edge 31-sets to list",
        ),
        (
            ["shell", "--complex", "clique", "--d", "1"],
            make_multipartite([3] * 12, 2).to_json_obj(), 3,
            "error: the dualization yields more than 12 sets",
        ),
        (
            ["dual"],
            {"n": 44, "facets": [[v for v in range(44) if v not in p] for p in _PAIRS]}, 3,
            "error: the dualization yields more than 262144 sets",
        ),
    ],
    ids=[
        "chordal-glue", "betti-clique", "betti-bottleneck", "betti-bottleneck-63",
        "shell-independence", "shell-clique", "shell-clique-multipartite", "dual",
    ],
)
def test_unbounded_work_is_refused_before_it_starts(tmp_path, argv, obj, code, message):
    """Each input asks for work with no useful bound: a glue search over
    C(60, 20) tuples, a split tree past the plan budget (which ran for
    minutes when only the vertex budget bounded it), a dualization with
    2^22 or 3^12 sets, or C(63, 31) - 1 non-edges to list.  Each is
    refused within a second."""
    if obj is not None:
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        argv = [*argv, str(path)]
    returncode, line, ms = _refusal(tmp_path, *argv)
    assert (returncode, line) == (code, message)
    assert ms < 1000


def test_betti_answers_a_wide_star_at_the_default_flags(tmp_path):
    """star(26,2,1) has 27 vertices, past the default vertex budget, and
    2^26 edge subfamilies, past the face budget of a subset count; its
    split tree has no leaf over the vertex budget and answers within a
    second, with the closed form's table."""
    path = tmp_path / "star.json"
    path.write_text(make_star_overlap(26, 2, 1).to_json())
    code, out, _, ms = _program(tmp_path, "betti", str(path), "--no-cache")
    assert code == 0
    assert BettiTable.from_json(out) == star_betti_closed_form(26, 2, 1)
    assert ms < 1000


@pytest.mark.parametrize(
    "complex_kind, obj",
    [("clique", make_complete(16, 3).to_json_obj()), ("independence", {"n": 5, "edges": []})],
)
def test_a_facet_cap_of_zero_refuses_the_one_facet(tmp_path, complex_kind, obj):
    """The clique complex of a complete hypergraph and the independence
    complex of an edgeless one have no minimal nonface: the dualization
    yields the one facet, the ground set, and a cap of 0 refuses it as it
    refuses any other family."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    argv = ("shell", "--complex", complex_kind, "--d", "1", "--max-facets", "0", str(path))
    assert _refusal(tmp_path, *argv)[:2] == (3, "error: the dualization yields more than 0 sets")


def test_the_clique_complex_of_a_complete_hypergraph_is_built_at_once(tmp_path):
    """The clique complex of the complete 3-uniform hypergraph on 30
    vertices is one simplex: its one facet is found, and shelled, within
    a second."""
    path = tmp_path / "k30.json"
    path.write_text(make_complete(30, 3).to_json())
    code, out, _, ms = _program(tmp_path, "shell", "--complex", "clique", "--d", "1", str(path))
    assert code == 0
    assert json.loads(out) == {"d": 1, "ordering": [list(range(30))], "removed_sets": [[]]}
    assert ms < 1000


@pytest.mark.parametrize(
    "argv, obj",
    [
        (["dual"], {"n": 64, "facets": [[0, 1]], "void": False}),
        (["export"], {"n": 64, "generators": [[0, 1]]}),
    ],
    ids=["complex", "ideal"],
)
def test_complexes_and_ideals_share_the_vertex_count_rule(capsys, tmp_path, argv, obj):
    """A complex or an ideal on 64 vertices is refused with the one
    vertex-count line hypergraphs use."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: vertex count must be between 0 and 63, got 64"
    ]


def test_betti_answers_a_paper_line_at_a_raised_vertex_budget(capsys, tmp_path):
    """line(12,3,1) has 25 vertices: over the default budget, answered on
    the edge route at --max-vertices 40 with the closed form's bytes."""
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "12", "--d", "3", "--alpha", "1"
    )
    code, out, _ = run(capsys, "betti", path, "--max-vertices", "40", "--no-cache")
    assert code == 0
    code, closed, _ = run(capsys, "betti", path, "--method", "closed-form", "--no-cache")
    assert code == 0
    assert out == closed


@pytest.mark.parametrize(
    "family, n, closed_form",
    [("line", 31, line_betti_closed_form), ("cycle", 30, cycle_betti_closed_form)],
    ids=["line-31-3-1", "cycle-30-3-1"],
)
@pytest.mark.usefixtures("cold_memos")
def test_betti_splits_the_paper_families_past_the_restriction_sum(
    capsys, tmp_path, family, n, closed_form
):
    """line(31,3,1) has 63 vertices and cycle(30,3,1) 60, far past the
    restriction sum's plans; the edge route splits them at free vertices
    and answers at --max-vertices 63 in under a second, with no memo from
    earlier calls, with the closed form's table."""
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", family, "--n", str(n), "--d", "3", "--alpha", "1"
    )
    started = time.perf_counter()
    code, out, _ = run(capsys, "betti", path, "--max-vertices", "63", "--no-cache")
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert BettiTable.from_json(out) == closed_form(n, 3, 1)


def test_betti_refuses_when_no_plan_is_feasible(tmp_path):
    """The complete 3-uniform hypergraph on 15 vertices minus the 30 triples
    {i, i+1, i+3} and {i, i+2, i+7} (mod 15): the clique route has 30
    non-edges and too many large faces for the skeleton strategy, so the
    union closure is the only plan.  Its 10,790 sets, each scanned against
    the 30 nonfaces, pass the plan budget, and the sum is refused before
    any rank runs (answering it takes about 15 s)."""
    missing = {frozenset({i, (i + 1) % 15, (i + 3) % 15}) for i in range(15)}
    missing |= {frozenset({i, (i + 2) % 15, (i + 7) % 15}) for i in range(15)}
    edges = [list(t) for t in itertools.combinations(range(15), 3) if frozenset(t) not in missing]
    path = tmp_path / "sparse-complement.json"
    path.write_text(json.dumps({"n": 15, "edges": edges}))
    assert _betti_refusal(tmp_path, path, "--complex", "clique") == _NO_PLAN


def test_betti_refuses_a_closure_over_many_nonfaces_at_the_default_budget(tmp_path):
    """The 3-uniform hypergraph on 18 vertices whose edges are the triples
    of even sum: its clique route has 408 non-edges and 790 large faces,
    too many for the skeleton strategy.  The union closure of those
    non-edges would hold nearly all 2^18 subsets, each scanned against
    408 nonfaces, so it is refused as soon as its count passes the plan
    budget, within the default vertex budget."""
    edges = [list(t) for t in itertools.combinations(range(18), 3) if sum(t) % 2 == 0]
    path = tmp_path / "even-triples.json"
    path.write_text(json.dumps({"n": 18, "edges": edges}))
    assert _betti_refusal(tmp_path, path, "--complex", "clique") == _NO_PLAN


_NO_PLAN = (
    "error: the union-closure plan visits more than 262144 (set, nonface) pairs "
    "(the plan budget), and there is no skeleton strategy"
)


def test_betti_clique_route_needs_uniformity_hint_when_edgeless(capsys, tmp_path):
    path = tmp_path / "edgeless.json"
    path.write_text('{"n":3,"edges":[]}')
    code, _, err = run(capsys, "betti", str(path), "--complex", "clique", "--no-cache")
    assert code == 2
    code2, out, _ = run(
        capsys, "betti", str(path), "--complex", "clique", "--d", "2", "--no-cache"
    )
    assert code2 == 0
    assert json.loads(out)["entries"][0] == {"i": 0, "j": 0, "beta": 1}


def test_verify_round_trip(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "P", "--grid", "n=3..3,d=3..3")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["mismatch"] == 0
    assert "theorem=P" in err


def test_verify_reports_instances_out_of_budget_as_errors(capsys):
    """One instance out of budget fails the check (exit 1) but still
    prints the whole report, with one summary line."""
    grid = "n=9..10,alpha=1..1,d=3..3"
    code, out, err = run(capsys, "verify", "--theorem", "P", "--grid", grid)
    assert code == 1
    report = json.loads(out)
    assert [r["status"] for r in report["results"]] == ["match"] * 3 + ["error"] * 3
    assert report["summary"]["error"] == 3
    summaries = [line for line in err.splitlines() if line.startswith("theorem=")]
    assert summaries == ["theorem=P instances=6 match=3 mismatch=0 skipped=0 error=3"]
    assert "Traceback" not in err and "error:" not in err


def test_verify_unknown_grid_key_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "P", "--grid", "nn=3")
    assert code == 2
    assert out == ""
    assert err.splitlines()[0].startswith("error: check 'P' reads no grid key 'nn'")
    assert "Traceback" not in err


def test_verify_refuses_an_empty_grid_range(capsys):
    """A range with lo > hi is a usage error, not an empty report."""
    code, out, err = run(capsys, "verify", "--theorem", "P", "--grid", "n=5..1")
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == "error: grid range '5..1' for 'n' is empty: 5 > 1"
    assert "theorem=" not in err and "Traceback" not in err


def test_verify_refuses_graph_corollary_past_the_face_budget(capsys):
    """2^28 labelled graphs on 8 vertices are refused with exit 3 and one
    error line, before any graph is listed."""
    code, out, err = run(capsys, "verify", "--theorem", "graph-corollary", "--grid", "n=8")
    assert code == 3
    assert out == ""
    assert err.splitlines()[0] == (
        "error: graph-corollary at n=8 would list 2^28 labelled graphs, "
        "over the face budget 4194304"
    )
    assert "theorem=" not in err and "Traceback" not in err


def test_verify_refuses_a_sequence_pool_past_the_listing_budget(capsys, monkeypatch):
    """diameter at n = 11 walks about 812,000 sequences; the walk is refused
    with exit 3 and one error line once it passes MAX_LISTED_EDGES, before
    any sequence is built."""
    built = []
    monkeypatch.setattr(verify, "build_from_pieces", lambda d, pieces: built.append(pieces))
    code, out, err = run(capsys, "verify", "--theorem", "diameter", "--grid", "n=11")
    assert code == 3
    assert out == ""
    assert err.splitlines()[0] == (
        "error: the sequence pool walks 262145 sequences and more, "
        "over the listing budget 262144"
    )
    assert "theorem=" not in err and "Traceback" not in err
    assert built == []


@pytest.mark.parametrize(
    "theorem, grid, walk",
    [("l", "n=40..40,i=20", "path enumerations walk 5094246"),
     ("k", "n=30,i=15", "cycle enumerations walk 7679172")],
)
def test_verify_refuses_a_counting_grid_past_the_face_budget(capsys, monkeypatch, theorem, grid,
                                                              walk):
    """Each partition of i walks C(n, i) subsets, so these grids would walk
    billions; they are priced and refused with exit 3 and one error line
    before any case runs."""
    monkeypatch.setattr(verify, "_instance", lambda *args: pytest.fail("a case ran"))
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--grid", grid)
    assert code == 3
    assert out == ""
    assert err.splitlines()[0] == (
        f"error: the {walk} subsets and more, over the face budget 4194304"
    )
    assert "theorem=" not in err and "Traceback" not in err


@pytest.mark.parametrize("theorem", ["dquot-dshell", "betti-splitting", "rsequence", "lin-quot"])
def test_verify_refuses_an_ideal_pool_past_the_listing_budget(capsys, monkeypatch, theorem):
    """At n = 9 with up to 8 generators of degree 2 or 3 the ideal pool would
    hold about C(84, 8) ideals; it is priced and refused with exit 3 and
    one error line before any is listed, and before lin-quot walks its
    sequence pool."""
    drawn = []
    distinct_builds = verify._distinct_builds

    def counted(pool, cap):
        for build in distinct_builds(pool, cap):
            drawn.append(build[0])
            yield build

    monkeypatch.setattr(verify, "_distinct_builds", counted)
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--grid", "n=9..9,gens=8")
    assert code == 3
    assert out == ""
    assert err.splitlines()[0] == (
        "error: the ideal pool holds 443703 ideals and more, over the listing budget 262144"
    )
    assert "theorem=" not in err and "Traceback" not in err
    assert drawn == []


def test_verify_unknown_id(capsys):
    code, _, err = run(capsys, "verify", "--theorem", "zzz")
    assert code == 2
    assert "unknown theorem id" in err


def test_shell_finds_an_order(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"n":4,"edges":[[0,1,2],[1,2,3]]}')
    code, out, _ = run(capsys, "shell", str(path), "--d", "1")
    assert code == 0
    cert = json.loads(out)
    assert cert["d"] == 1
    assert len(cert["ordering"]) == 2


def test_shell_searches_past_the_recursion_limit(capsys, tmp_path):
    """The 1,225 edges of K50 as facets: the search places them one by one,
    deeper than the interpreter's recursion limit, and prints a shelling
    the verifier accepts."""
    edges = [list(pair) for pair in itertools.combinations(range(50), 2)]
    path = tmp_path / "k50.json"
    path.write_text(json.dumps({"n": 50, "edges": edges}))
    code, out, _ = run(capsys, "shell", str(path), "--d", "1", "--max-facets", "2000")
    assert code == 0
    cert = json.loads(out)
    assert len(cert["ordering"]) == len(edges)
    c = SimplicialComplex.from_faces(50, edges)
    ordering = tuple(mask_of(f) for f in cert["ordering"])
    assert isinstance(verify_d_shelling(c, ordering, 1), ShellingCertificate)


def test_shell_reports_absence(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"n":5,"edges":[[0,1,2],[2,3,4]]}')
    code, _, err = run(capsys, "shell", str(path), "--d", "1")
    assert code == 1
    assert "no 1-shelling" in err


def test_shell_certifies_an_explicit_order(capsys, tmp_path):
    """Indices into the sorted facet list that give a shelling print its
    certificate and exit 0."""
    path = tmp_path / "h.json"
    path.write_text('{"n":4,"edges":[[0,1,2],[1,2,3]]}')
    code, out, _ = run(capsys, "shell", str(path), "--d", "1", "--order", "1,0")
    assert code == 0
    assert out == '{"d":1,"ordering":[[1,2,3],[0,1,2]],"removed_sets":[[],[[0]]]}\n'


def test_shell_checks_an_explicit_order(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"n":5,"edges":[[0,1,2],[2,3,4]]}')
    code, _, err = run(capsys, "shell", str(path), "--d", "1", "--order", "0,1")
    assert code == 1
    assert "not a 1-shelling" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("shell", "--d", "0"), "error: d must be positive"),
        (("shell", "--d", "-1"), "error: d must be positive"),
        (("shell", "--d", "0", "--order", "0,1"), "error: d must be positive"),
        (("shell", "--d", "1", "--max-facets", "-1"), "error: --max-facets must be nonnegative"),
        (("betti", "--no-cache", "--max-vertices", "-1"),
         "error: --max-vertices must be nonnegative"),
        (("chordal", "--node-budget", "-5"), "error: --node-budget must be nonnegative"),
        (("chordal", "--build", "3,3:-1", "--d", "2"), "error: no valid glue of size -1 exists"),
    ],
)
def test_meaningless_search_parameters_are_usage_errors(capsys, tmp_path, argv, message):
    """A shelling of codimension below one, a negative budget or a negative
    glue size is a usage error with one error line, whether or not an
    order is given."""
    path = tmp_path / "h.json"
    path.write_text('{"n":5,"edges":[[0,1,2],[2,3,4]]}')
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [message]


def test_shell_budget_exit(capsys, tmp_path):
    path = tmp_path / "big.json"
    facets = [[i, j] for i in range(6) for j in range(i + 1, 6)]
    path.write_text(json.dumps({"n": 6, "facets": facets, "void": False}))
    code, _, err = run(capsys, "shell", str(path), "--d", "1", "--max-facets", "5")
    assert code == 3


def test_dual_is_an_involution(capsys, tmp_path):
    path = tmp_path / "cx.json"
    path.write_text('{"n":4,"facets":[[0,1],[1,2],[2,3]],"void":false}')
    _, once, _ = run(capsys, "dual", str(path))
    back = tmp_path / "dual.json"
    back.write_text(once)
    _, twice, _ = run(capsys, "dual", str(back))
    original = json.loads(path.read_text())
    assert json.loads(twice) == original
    # a second double application reproduces the file byte for byte
    twice_file = tmp_path / "twice.json"
    twice_file.write_text(twice)
    _, thrice, _ = run(capsys, "dual", str(twice_file))
    four = tmp_path / "thrice.json"
    four.write_text(thrice)
    _, fourth, _ = run(capsys, "dual", str(four))
    assert fourth == twice


def test_dual_rejects_hypergraph_input(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"n":4,"edges":[[0,1]]}')
    code, _, err = run(capsys, "dual", str(path))
    assert code == 2


def test_chordal_build_then_recognize(capsys, tmp_path):
    code, built, _ = run(capsys, "chordal", "--build", "4,3:2", "--d", "3")
    assert code == 0
    path = tmp_path / "built.json"
    path.write_text(built)
    code2, verdict, _ = run(capsys, "chordal", str(path))
    assert code2 == 0
    obj = json.loads(verdict)
    assert obj["chordal"] is True
    assert "witness" in obj


def test_chordal_recipe_json_input(capsys, tmp_path):
    recipe = {"d": 3, "steps": [{"i": 4, "j": 0, "glue": []}, {"i": 3, "j": 2, "glue": [0, 1]}]}
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    code, out, _ = run(capsys, "chordal", str(path))
    assert code == 0
    assert len(json.loads(out)["edges"]) == 5


def test_chordal_on_the_empty_hypergraph_does_not_depend_on_the_uniformity(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text('{"n":0,"edges":[]}')
    for d in ("2", "3"):
        code, out, _ = run(capsys, "chordal", str(path), "--d", d)
        assert (code, out) == (0, '{"chordal":true,"states":0}\n')


def test_chordal_negative_and_budget(capsys, tmp_path):
    path = tmp_path / "c4.json"
    path.write_text('{"n":4,"edges":[[0,1],[1,2],[2,3],[0,3]]}')
    code, out, _ = run(capsys, "chordal", str(path))
    assert code == 1
    assert json.loads(out) == {"chordal": False, "states": 0}
    cyc = tmp_path / "cyc.json"
    _, gen_out, _ = run(capsys, "gen", "--family", "cycle", "--n", "4", "--d", "3", "--alpha", "1")
    cyc.write_text(gen_out)
    code2, _, err = run(capsys, "chordal", str(cyc), "--node-budget", "40")
    assert code2 == 3
    assert "budget" in err


@pytest.mark.parametrize(
    "recipe, message",
    [
        (
            {"d": 3, "steps": [{"i": 100000}]},
            "error: step 0: the recipe needs more than 63 vertices",
        ),
        (
            {"d": 3, "steps": [{"i": 3}, {"i": 2, "glue": [0.5]}]},
            "error: malformed attachment step glue: expected a list of integer vertex labels "
            "from 0 to 62",
        ),
        ({"d": 3, "steps": [5]}, "error: malformed attachment step: not a JSON object"),
    ],
)
def test_malformed_recipes_are_usage_errors(capsys, tmp_path, recipe, message):
    """A piece too large to label, a fractional glue label or a step that
    is not an object ends in exit 2 with one error line, before any
    d-subset is listed."""
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps(recipe))
    code, out, err = run(capsys, "chordal", str(path))
    assert code == 2
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [message]


def test_recipe_listing_too_many_edges_is_refused(capsys, tmp_path):
    """A 63-vertex piece of uniformity 31 would list C(63, 31) edges; it
    is refused as over budget before any is built."""
    path = tmp_path / "recipe.json"
    path.write_text(json.dumps({"d": 31, "steps": [{"i": 63}]}))
    code, out, err = run(capsys, "chordal", str(path))
    assert code == 3
    assert out == ""
    assert err.splitlines()[0] == "error: step 0: the recipe lists more than 262144 edges"


def test_export_hypergraph_and_ideal_inputs(capsys, tmp_path):
    h = tmp_path / "h.json"
    h.write_text('{"n":4,"edges":[[0,1,2],[1,2,3]]}')
    code, out, _ = run(capsys, "export", str(h))
    assert code == 0
    assert out == "x1*x2*x3\nx2*x3*x4\n"
    ideal = tmp_path / "ideal.json"
    ideal.write_text('{"n":3,"generators":[[0],[1,2]]}')
    code2, out2, _ = run(capsys, "export", str(ideal))
    assert code2 == 0
    assert out2 == "x1\nx2*x3\n"


def test_malformed_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    code, _, err = run(capsys, "betti", str(path), "--no-cache")
    assert code == 2
    assert "not valid JSON" in err


def test_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "betti", str(tmp_path / "absent.json"), "--no-cache")
    assert code == 2
    assert "cannot read" in err


def test_timings_go_to_stderr_only(capsys, tmp_path):
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "2", "--d", "3", "--alpha", "1"
    )
    _, out, err = run(capsys, "betti", path, "--no-cache")
    assert "[time]" in err
    assert "[time]" not in out


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"n": 3, "facets": [[0, 1], [0, 1, 2]]}, "error: facets must be mutually incomparable"),
        (
            {"n": 3, "facets": [[0, 2]], "vertices": [0, 1]},
            "error: facet uses a vertex outside the ground set",
        ),
    ],
)
def test_dual_facet_refusals_are_usage_errors(capsys, tmp_path, obj, message):
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "dual", str(path))
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == message


@pytest.mark.parametrize(
    "argv, obj, message",
    [
        (
            ["betti", "--no-cache"],
            {"n": 3, "edges": [[0, -1]]},
            "error: malformed hypergraph edge: expected a list of integer vertex labels from 0 to 62",
        ),
        (
            ["betti", "--no-cache"],
            {"n": 3, "edges": [[0, 1]], "vertices": [0, -2]},
            "error: malformed hypergraph vertex list: expected a list of integer vertex labels "
            "from 0 to 62",
        ),
        (
            ["betti", "--no-cache"],
            {"n": "3", "edges": [[0, 1]]},
            "error: malformed hypergraph: 'n' must be an integer",
        ),
        (
            ["betti", "--no-cache"],
            {"n": 3, "edges": [[0, 1]], "family": [1]},
            "error: malformed family tag: not a JSON object",
        ),
        (["dual"], {"n": 3, "facets": "abc"}, "error: malformed complex: 'facets' must be a list"),
        (
            ["dual"],
            {"n": 3, "facets": [[0, True]]},
            "error: malformed complex facet: expected a list of integer vertex labels from 0 to 62",
        ),
        (
            ["export"],
            {"n": 3, "generators": [[0, 70]]},
            "error: malformed ideal generator: expected a list of integer vertex labels from 0 to 62",
        ),
        (["export"], {"n": 3}, "error: malformed hypergraph: missing 'edges'"),
    ],
)
def test_malformed_objects_are_usage_errors(capsys, tmp_path, argv, obj, message):
    """Malformed JSON objects end in exit 2 with a one-line message, not
    in a negative shift count or a TypeError."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == message


def test_malformed_input_never_shows_a_traceback(tmp_path):
    """Run as a program, the entry point reports malformed objects,
    nesting too deep to parse and over-long integers as usage errors."""
    env = dict(os.environ, PYTHONPATH=SRC, HYPERBETTI_CACHE_DIR=str(tmp_path / "cache"))
    for command, text in (
        ("betti", '{"n":3,"edges":[[0,-1]]}'),
        ("dual", '{"n":3,"facets":"abc"}'),
        ("betti", "[" * 100_000),
        ("betti", '{"n":' + "9" * 5000 + ',"edges":[]}'),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "hyperbetti", command],
            input=text, capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 2, done.stderr
        assert "Traceback" not in done.stderr
        assert done.stderr.startswith("error: ")


_LABEL = st.one_of(
    st.integers(-3, 9), st.integers(), st.booleans(), st.none(), st.text(max_size=2),
    st.floats(allow_nan=False, allow_infinity=False),
)
_LEAF = st.one_of(
    _LABEL, st.lists(_LABEL, max_size=3), st.dictionaries(st.text(max_size=2), _LABEL, max_size=2)
)
_SETS = st.one_of(st.lists(st.one_of(st.lists(_LABEL, max_size=4), _LABEL), max_size=5), _LEAF)
_FAMILY = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "kind": st.one_of(st.sampled_from(["line", "cycle", "star", "complete"]), _LABEL),
            "n": _LABEL, "d": _LABEL, "alpha": _LABEL, "parts": _LEAF,
        },
    ),
    _LEAF,
)
_STEPS = st.one_of(
    st.lists(
        st.one_of(
            st.fixed_dictionaries(
                {},
                optional={
                    "i": _LABEL, "j": _LABEL, "glue": st.one_of(st.lists(_LABEL, max_size=4), _LEAF)
                },
            ),
            _LABEL,
        ),
        max_size=4,
    ),
    _LEAF,
)
_OBJECT = st.one_of(
    st.fixed_dictionaries(
        {},
        optional={
            "n": st.one_of(st.integers(-1, 10), _LABEL, _LEAF),
            "edges": _SETS, "facets": _SETS, "generators": _SETS,
            "vertices": st.one_of(st.lists(_LABEL, max_size=10), _LEAF),
            "void": _LABEL, "family": _FAMILY, "d": _LABEL, "steps": _STEPS,
        },
    ),
    _LEAF,
)
_COMMANDS = [
    ["betti", "--no-cache"],
    ["betti", "--no-cache", "--method", "closed-form"],
    ["dual"],
    ["export"],
    ["shell", "--d", "2"],
    ["chordal", "--node-budget", "2000"],
]


# Build recipes for ``chordal``: always a ``d`` and a ``steps`` list, so
# that the fuzz reaches the recipe reader and the builder, not only the
# first missing-key refusal.
_RECIPE = st.fixed_dictionaries(
    {
        "d": st.one_of(st.integers(-1, 4), _LABEL),
        "steps": st.lists(
            st.one_of(
                st.fixed_dictionaries(
                    {"i": st.one_of(st.integers(-1, 8), _LABEL)},
                    optional={
                        "j": st.one_of(st.integers(-1, 4), _LABEL),
                        "glue": st.one_of(st.lists(st.integers(-1, 8), max_size=4), _LEAF),
                    },
                ),
                _LABEL,
            ),
            max_size=4,
        ),
    }
)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    st.one_of(
        st.tuples(st.sampled_from(_COMMANDS), _OBJECT),
        st.tuples(st.just(["chordal", "--node-budget", "2000"]), _RECIPE),
    )
)
def test_fuzzed_objects_end_in_a_documented_exit_code(command):
    """Whatever JSON value arrives, the command ends in exit 0, 1, 2 or
    3; an exception escaping ``main`` would be a traceback."""
    argv, obj = command
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(obj))):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error: ")
