"""Command-line front end.

Subcommands: ``gen`` prints stock-family hypergraphs as JSON, ``betti``
computes graded Betti tables, ``verify`` runs a registered machine check
over a parameter grid, ``shell`` searches or checks facet orderings,
``dual`` dualizes a complex, ``chordal`` recognizes or builds glued
hypergraphs, and ``export`` prints ideals in variable-product text form.

Every command is deterministic: the same input and flags produce
byte-identical standard output, with wall-clock timings on standard
error only.  JSON output is canonical (sorted keys, integers
throughout); tables can also be printed as CSV.  Exit codes: 0 success,
1 the queried property is absent (a mismatch, no ordering, not
chordal), 2 usage or precondition error, 3 a size budget was exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from math import comb

from . import cache
from .betti import (
    VERTEX_BUDGET,
    BettiTable,
    check_taylor_budget,
    clique_ideal_betti,
    cycle_betti_closed_form,
    cycle_betti_degenerate,
    edge_ideal_betti,
    line_betti_closed_form,
    line_betti_degenerate,
    star_betti_closed_form,
    taylor_betti_free_vertex,
)
from .bitsets import mask_of
from .chordal import (
    AttachmentSequence,
    AttachmentStep,
    auto_glue,
    build_chordal,
    realization_search,
)
from .complexes import SimplicialComplex, alexander_dual, clique_complex, independence_complex
from .errors import ParameterError, PreconditionError, SizeBudgetError
from .homology import parse_field
from .hypergraph import OVERLAP_FAMILIES, FamilySpec, Hypergraph, canonical_hash, canonical_json
from .hypergraph import MAX_LISTED_EDGES, make_complete, make_multipartite, non_edges
from .ideal import MonomialIdeal, ShellingRefusal, edge_ideal, search_d_shelling, verify_d_shelling
from .verify import run_check

EXIT_OK = 0
EXIT_ABSENT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(payload: str) -> None:
    if not payload.endswith("\n"):
        payload += "\n"
    sys.stdout.write(payload)


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc}") from exc


def _load_obj(path: str) -> dict:
    try:
        obj = json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:  # bad syntax, over-long integers, deep nesting
        raise ParameterError(f"input is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParameterError("input must be a JSON object")
    return obj


def _uniformity(h: Hypergraph, flag: int | None) -> int:
    if flag is not None:
        if flag < 2:
            raise ParameterError("--d must be at least 2")
        if not h.is_uniform(flag):
            raise PreconditionError(f"input is not {flag}-uniform")
        return flag
    d = h.uniform_degree
    if d is None:
        raise ParameterError(
            "cannot infer the uniformity (mixed edge sizes or no edges); pass --d"
        )
    return d


# -- gen ----------------------------------------------------------------


def _parse_parts(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ParameterError(f"--parts must be comma-separated integers: {exc}") from exc
    return parts


def _need(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ParameterError(
            f"--family {args.family} needs " + ", ".join("--" + n for n in missing)
        )


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family in OVERLAP_FAMILIES:
        _need(args, "n", "d", "alpha")
        h = OVERLAP_FAMILIES[args.family](args.n, args.d, args.alpha)
        spec = FamilySpec(args.family, n=args.n, d=args.d, alpha=args.alpha)
    elif args.family == "complete":
        _need(args, "n", "d")
        h = make_complete(args.n, args.d)
        spec = FamilySpec("complete", n=args.n, d=args.d)
    else:  # multipartite
        _need(args, "parts", "d")
        parts = _parse_parts(args.parts)
        h = make_multipartite(parts, args.d)
        spec = FamilySpec("multipartite", d=args.d, parts=parts)
    obj = h.to_json_obj()
    obj["family"] = spec.to_json_obj()
    _emit(canonical_json(obj))
    return EXIT_OK


# -- betti --------------------------------------------------------------


def _closed_form_table(h: Hypergraph, fam: FamilySpec | None, complex_kind: str) -> BettiTable:
    if fam is None:
        raise PreconditionError(
            "closed-form needs a family tag on the input; generate inputs with gen"
        )
    if complex_kind != "independence":
        raise PreconditionError(
            f"no closed-form table for the {complex_kind} complex route"
        )
    if fam.kind not in OVERLAP_FAMILIES:
        raise PreconditionError(f"no closed-form table for the {fam.kind} family")
    if fam.n is None or fam.d is None or fam.alpha is None:
        raise ParameterError("family tag is missing n, d, or alpha")
    n, d, alpha = fam.n, fam.d, fam.alpha
    if OVERLAP_FAMILIES[fam.kind](n, d, alpha).edges != h.edges:
        raise PreconditionError("family tag does not match the edges of the input")
    if fam.kind == "star":
        return star_betti_closed_form(n, d, alpha)
    if fam.kind == "line":
        return line_betti_degenerate(n, alpha) if d == 2 * alpha else line_betti_closed_form(n, d, alpha)
    return cycle_betti_degenerate(n, alpha) if d == 2 * alpha else cycle_betti_closed_form(n, d, alpha)


def _betti_table(args: argparse.Namespace, h: Hypergraph, fam: FamilySpec | None) -> BettiTable:
    fld = parse_field(args.field)
    if args.method == "closed-form":
        return _closed_form_table(h, fam, args.complex)
    if args.complex == "clique":
        d = _uniformity(h, args.d)
        if args.method == "taylor":
            count = comb(h.vertices.bit_count(), d) - len(h.edges)
            if count > MAX_LISTED_EDGES:  # too many to list, and far past the subset budget
                check_taylor_budget(count)
            complement = Hypergraph(h.n_vertices, frozenset(non_edges(h, d)), h.vertices)
            return taylor_betti_free_vertex(complement)
        return clique_ideal_betti(h, d, fld, vertex_budget=args.max_vertices)
    if args.method == "taylor":
        return taylor_betti_free_vertex(h)
    return edge_ideal_betti(h, fld, vertex_budget=args.max_vertices)


def cmd_betti(args: argparse.Namespace) -> int:
    obj = _load_obj(args.input)
    h = Hypergraph.from_json_obj(obj)
    fam = FamilySpec.from_json_obj(obj["family"]) if "family" in obj else None
    flags = {
        "complex": args.complex,
        "convention": args.convention,
        "d": args.d if args.d is not None else 0,
        "field": parse_field(args.field).label,
        "format": args.format,
        "max_vertices": args.max_vertices,
        "method": args.method,
    }
    key = cache.cache_key(canonical_hash(h), "betti", flags)
    if not args.no_cache:
        hit = cache.load(key)
        if hit is not None:
            _note("[cache] hit")
            _emit(hit)
            return EXIT_OK
    table = _betti_table(args, h, fam)
    if args.convention == "ideal":
        table = table.as_ideal()
    payload = table.to_csv() if args.format == "csv" else table.to_json()
    if not args.no_cache:
        cache.store(key, payload)
    _emit(payload)
    return EXIT_OK


# -- verify -------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_check(args.theorem, args.grid or None)
    _note(report.summary_line())
    _emit(canonical_json(report.to_json_obj(include_timings=args.timings)))
    return EXIT_OK if report.ok else EXIT_ABSENT


# -- shell --------------------------------------------------------------


def _complex_from_input(
    obj: dict, complex_kind: str, d_flag: int | None, cap: int
) -> SimplicialComplex:
    if "facets" in obj:
        return SimplicialComplex.from_json_obj(obj)
    h = Hypergraph.from_json_obj(obj)
    if complex_kind == "independence":
        return independence_complex(h, cap)
    if complex_kind == "clique":
        return clique_complex(h, _uniformity(h, d_flag))
    return SimplicialComplex.from_faces(h.n_vertices, h.edges, h.vertices)


def cmd_shell(args: argparse.Namespace) -> int:
    obj = _load_obj(args.input)
    # a search refuses past --max-facets facets, so the dualization may stop there
    cap = MAX_LISTED_EDGES if args.order is not None else args.max_facets
    c = _complex_from_input(obj, args.complex, args.uniform, cap)
    if args.order is not None:
        facets = c.facet_list()
        try:
            indices = [int(tok) for tok in args.order.split(",")]
        except ValueError as exc:
            raise ParameterError(f"--order must be comma-separated indices: {exc}") from exc
        for i in indices:
            if not 0 <= i < len(facets):
                raise ParameterError(
                    f"facet index {i} out of range (the complex has {len(facets)} facets)"
                )
        ordering = tuple(mask_of(facets[i]) for i in indices)
        outcome = verify_d_shelling(c, ordering, args.d)
        if isinstance(outcome, ShellingRefusal):
            _note(f"not a {args.d}-shelling at step {outcome.step}: {outcome.reason}")
            return EXIT_ABSENT
        _emit(canonical_json(outcome.to_json_obj()))
        return EXIT_OK
    ordering = search_d_shelling(c, args.d, max_facets=args.max_facets)
    if ordering is None:
        _note(f"no {args.d}-shelling order exists for this complex")
        return EXIT_ABSENT
    outcome = verify_d_shelling(c, ordering, args.d)
    assert not isinstance(outcome, ShellingRefusal)
    _emit(canonical_json(outcome.to_json_obj()))
    return EXIT_OK


# -- dual ---------------------------------------------------------------


def cmd_dual(args: argparse.Namespace) -> int:
    obj = _load_obj(args.input)
    if "facets" not in obj:
        raise ParameterError("dual expects a complex object with a facets list")
    c = SimplicialComplex.from_json_obj(obj)
    _emit(alexander_dual(c).to_json())
    return EXIT_OK


# -- chordal ------------------------------------------------------------


def _parse_build_spec(text: str, d: int) -> AttachmentSequence:
    """``4,3:2,3:2`` — piece sizes with glue sizes; the glue labels are
    auto-chosen as the lexicographically least valid glue at each step."""
    steps: list[AttachmentStep] = []
    for tok in text.split(","):
        size_part, _, glue_part = tok.strip().partition(":")
        try:
            size = int(size_part)
            glue_size = int(glue_part) if glue_part else 0
        except ValueError as exc:
            raise ParameterError(f"bad build step {tok!r}: {exc}") from exc
        if not steps:
            if glue_size:
                raise ParameterError("the first piece cannot glue onto anything")
            steps.append(AttachmentStep(size, ()))
            continue
        pieces = AttachmentSequence(d, tuple(steps)).pieces()
        steps.append(AttachmentStep(size, auto_glue(pieces, glue_size)))
    return AttachmentSequence(d, tuple(steps))


def cmd_chordal(args: argparse.Namespace) -> int:
    if args.build is not None:
        if args.uniform is None:
            raise ParameterError("--build needs --d for the uniformity")
        seq = _parse_build_spec(args.build, args.uniform)
        _emit(build_chordal(seq).to_json())
        return EXIT_OK
    obj = _load_obj(args.input)
    if "steps" in obj:
        seq = AttachmentSequence.from_json_obj(obj)
        _emit(build_chordal(seq).to_json())
        return EXIT_OK
    h = Hypergraph.from_json_obj(obj)
    d = _uniformity(h, args.uniform)
    report = realization_search(h, d, node_budget=args.node_budget)
    if report.outcome == "inconclusive":
        _note(
            f"search budget exhausted after {report.states_explored} states; "
            "no verdict (raise --node-budget)"
        )
        return EXIT_BUDGET
    payload: dict = {"chordal": report.outcome == "chordal", "states": report.states_explored}
    if report.witness is not None:
        payload["witness"] = report.witness.to_json_obj()
    _emit(canonical_json(payload))
    return EXIT_OK if report.outcome == "chordal" else EXIT_ABSENT


# -- export -------------------------------------------------------------


def cmd_export(args: argparse.Namespace) -> int:
    obj = _load_obj(args.input)
    if "generators" in obj:
        ideal = MonomialIdeal.from_json_obj(obj)
    else:
        ideal = edge_ideal(Hypergraph.from_json_obj(obj))
    _emit(ideal.export_text())
    return EXIT_OK


# -- parser -------------------------------------------------------------


@functools.cache  # parsing keeps no state, so every call shares one parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbetti",
        description="Exact Betti tables, shellings, and chordality for uniform hypergraphs.",
        epilog=f"Cached results live under ~/.cache/hyperbetti (override: {cache.ENV_VAR}).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="print a stock-family hypergraph as JSON")
    gen.add_argument(
        "--family", required=True, choices=["line", "cycle", "complete", "multipartite", "star"]
    )
    gen.add_argument("--n", type=int, help="number of edges (or vertices for complete)")
    gen.add_argument("--d", type=int, help="edge size")
    gen.add_argument("--alpha", type=int, help="overlap/core size")
    gen.add_argument("--parts", help="comma-separated part sizes (multipartite)")
    gen.set_defaults(handler=cmd_gen)

    betti = sub.add_parser("betti", help="graded Betti table of an edge or face ideal")
    betti.add_argument("input", nargs="?", default="-", help="hypergraph JSON file, or - for stdin")
    betti.add_argument(
        "--complex", choices=["independence", "clique"], default="independence",
        help="which complex carries the ideal (default: independence, i.e. the edge ideal)",
    )
    betti.add_argument("--field", default="gf2", help="q, gf2, gf3, or gfP:<p> (default gf2)")
    betti.add_argument(
        "--method", choices=["hochster", "taylor", "closed-form"], default="hochster"
    )
    betti.add_argument("--format", choices=["json", "csv"], default="json")
    betti.add_argument("--convention", choices=["quotient", "ideal"], default="quotient")
    betti.add_argument("--d", type=int, help="uniformity for the clique route (default: inferred)")
    betti.add_argument(
        "--max-vertices", type=int, default=VERTEX_BUDGET,
        help="vertex budget for the restriction sum (default %(default)s)",
    )
    betti.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    betti.set_defaults(handler=cmd_betti)

    verify = sub.add_parser("verify", help="run a registered check over a parameter grid")
    verify.add_argument("--theorem", required=True, help="check id (see README for the list)")
    verify.add_argument("--grid", default="", help='e.g. "n=3..6,alpha=1..2"')
    verify.add_argument(
        "--timings", action="store_true", help="include per-instance timings in the JSON"
    )
    verify.set_defaults(handler=cmd_verify)

    shell = sub.add_parser("shell", help="search or check a d-shelling order")
    shell.add_argument("input", nargs="?", default="-", help="complex or hypergraph JSON")
    shell.add_argument("--d", type=int, required=True, help="codimension parameter of the shelling")
    shell.add_argument(
        "--complex", choices=["edges", "independence", "clique"], default="edges",
        help="complex built from a hypergraph input (default: facets are the edges)",
    )
    shell.add_argument(
        "--uniform", type=int, default=None,
        help="uniformity for the clique construction (default: inferred)",
    )
    shell.add_argument(
        "--order", help="comma-separated facet indices (into the sorted facet list) to check"
    )
    shell.add_argument("--max-facets", type=int, default=12, help="search budget (default 12)")
    shell.set_defaults(handler=cmd_shell)

    dual = sub.add_parser("dual", help="dualize a simplicial complex")
    dual.add_argument("input", nargs="?", default="-", help="complex JSON")
    dual.set_defaults(handler=cmd_dual)

    chordal = sub.add_parser("chordal", help="recognize or build glued hypergraphs")
    chordal.add_argument(
        "input", nargs="?", default="-", help="hypergraph JSON, or a build-recipe JSON with steps"
    )
    chordal.add_argument("--d", dest="uniform", type=int, help="uniformity (default: inferred)")
    chordal.add_argument(
        "--build", help='compact recipe like "4,3:2,3:2" (piece size : glue size, auto labels)'
    )
    chordal.add_argument(
        "--node-budget", type=int, default=500_000,
        help="state budget per search phase (default 500000)",
    )
    chordal.set_defaults(handler=cmd_chordal)

    export = sub.add_parser("export", help="print an ideal as variable products, one per line")
    export.add_argument("input", nargs="?", default="-", help="ideal or hypergraph JSON")
    export.set_defaults(handler=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        for budget in ("max_vertices", "max_facets", "node_budget"):
            if getattr(args, budget, 0) < 0:
                raise ParameterError(f"--{budget.replace('_', '-')} must be nonnegative")
        return args.handler(args)
    except (ParameterError, PreconditionError) as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE
    except SizeBudgetError as exc:
        _note(f"error: {exc}")
        return EXIT_BUDGET
    finally:
        elapsed_ms = int((time.perf_counter() - start) * 1000)
        _note(f"[time] {args.command}: {elapsed_ms} ms")


if __name__ == "__main__":
    sys.exit(main())
