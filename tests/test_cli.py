"""End-to-end command behavior: exit codes, bytes, and the cache."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hyperbetti.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERBETTI_CACHE_DIR", str(tmp_path / "cache"))


def run(capsys, *argv):
    code = main(list(argv))
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
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "3", "--d", "3", "--alpha", "1"
    )
    code, _, err = run(capsys, "betti", path, "--max-vertices", "4", "--no-cache")
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize("route", ["independence", "clique"])
def test_betti_refuses_over_budget_before_building_a_complex(capsys, tmp_path, monkeypatch, route):
    """line(10,4,1) has 31 vertices: both routes refuse at once at the
    default budget, before any complex or transversal is built."""
    path = _gen_to_file(
        capsys, tmp_path, "gen", "--family", "line", "--n", "10", "--d", "4", "--alpha", "1"
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
        "error: restriction sum over 31 vertices exceeds the vertex budget 20"
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


def test_verify_unknown_grid_key_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "P", "--grid", "nn=3")
    assert code == 2
    assert out == ""
    assert err.splitlines()[0].startswith("error: check 'P' reads no grid key 'nn'")
    assert "Traceback" not in err


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


def test_shell_reports_absence(capsys, tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"n":5,"edges":[[0,1,2],[2,3,4]]}')
    code, _, err = run(capsys, "shell", str(path), "--d", "1")
    assert code == 1
    assert "no 1-shelling" in err


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
    ],
)
def test_meaningless_search_parameters_are_usage_errors(capsys, tmp_path, argv, message):
    """A shelling of codimension below one, or a negative budget, is a
    usage error with one error line, whether or not an order is given."""
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
    ["betti", "--no-cache", "--method", "taylor"],
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
