"""Command-line front end.

Subcommands: eval, poly, colorings, map, survey, validate.  Graphs come
from files in the line-oriented text format; results go to stdout as
plain text or JSON (``--format json``: sorted keys, schema_version 1,
polynomial coefficients as decimal strings so consumers never hit
fixed-width integer limits).

Exit codes: 0 success, 1 identity failure found by a survey, 2 input
error (unreadable/malformed graph, bad survey bounds, precondition not
met), 3 configuration error (unknown algebra name, algebra violation, an
algebra over 36 dimensions: gl:<n> takes n <= 6, abelian:<n> n <= 36).

``weightsys --version`` prints the package version and the live kernel
backend (``pure`` or ``compiled``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__, kernels
from .algebra import algebra_by_name, validate_algebra
from .catalog import VerificationReport, run_survey
from .coloring import (enumerate_edge_3_colorings, enumerate_four_colorings,
                       extract_map, penrose_sum, verify_tait_bijection)
from .graphs import (GraphParseError, TrivalentGraph, is_connected,
                     is_two_connected, parse_graph)
from .ribbon import genus, marking_profile, rotation_of_marking
from .statesum import evaluate_weight


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _read_graph(path: str) -> TrivalentGraph:
    with open(path, "rb") as fh:
        return parse_graph(fh.read())


def _emit_json(payload: dict):
    payload = {"schema_version": 1, **payload}
    print(json.dumps(payload, sort_keys=True))


def _bool(b: bool) -> str:
    return "true" if b else "false"


def cmd_eval(args) -> int:
    g = args.graph
    try:
        alg = algebra_by_name(args.algebra)
    except ValueError as exc:
        return _fail(3, f"error: {exc}")
    value = evaluate_weight(g, alg)
    if args.format == "json":
        _emit_json({"algebra": alg.name, "value": str(value)})
    else:
        print(value)
    return 0


def cmd_poly(args) -> int:
    g = args.graph
    try:
        profile = marking_profile(g)
    except ValueError as exc:
        return _fail(2, f"error: {exc}")
    two_conn = is_two_connected(g)
    poly, spherical, top = profile.wgl, profile.spherical, profile.top
    planar = spherical > 0
    if args.format == "json":
        _emit_json({"wgl": poly.to_json(), "w_top": top,
                    "spherical_embeddings": spherical, "planar": planar,
                    "two_connected": two_conn})
    else:
        print(f"wgl {poly}")
        print(f"w_top {top}")
        print(f"spherical_embeddings {spherical}")
        print(f"planar {_bool(planar)}")
        print(f"two_connected {_bool(two_conn)}")
    return 0


def cmd_colorings(args) -> int:
    g = args.graph
    try:
        three = enumerate_edge_3_colorings(g)
    except ValueError as exc:
        return _fail(2, f"error: {exc}")
    n3 = len(three)
    pen = penrose_sum(g, three)
    sl2 = 2 ** (g.vertex_count // 2) * pen
    if args.format == "json":
        _emit_json({"edge_3_colorings": n3, "penrose": pen, "w_sl2": sl2})
    else:
        print(f"edge_3_colorings {n3}")
        print(f"penrose {pen}")
        print(f"w_sl2 {sl2}")
    return 0


def cmd_map(args) -> int:
    g = args.graph
    try:
        marking = marking_profile(g).first
    except ValueError as exc:
        return _fail(2, f"error: {exc}")
    if marking is None:
        return _fail(2, "error: graph has no spherical embedding")
    pm = extract_map(rotation_of_marking(g, marking))
    fours = enumerate_four_colorings(pm)
    four = len(fours)
    tait = verify_tait_bijection(pm, fours)
    if args.format == "json":
        _emit_json({
            "marking": list(marking),
            "faces": [list(c) for c in pm.faces],
            "edge_faces": [list(p) for p in pm.edge_faces],
            "outer_face": pm.outer_face,
            "self_bordering": pm.is_self_bordering(),
            "four_colorings": four,
            "tait": tait if tait else "ok",
        })
    else:
        print(f"marking {' '.join('+' if s > 0 else '-' for s in marking)}")
        for idx, cyc in enumerate(pm.faces):
            print(f"face {idx} : {' '.join(map(str, cyc))}")
        for k, ((d, dd), (a, b)) in enumerate(zip(pm.graph.edges(),
                                                  pm.edge_faces)):
            print(f"edge {k} ({d} {dd}) faces {a} {b}")
        print(f"outer_face {pm.outer_face}")
        print(f"self_bordering {_bool(pm.is_self_bordering())}")
        print(f"four_colorings {four}")
        print(f"tait {tait if tait else 'ok'}")
    return 0


def cmd_validate(args) -> int:
    g = args.graph
    two_conn = is_two_connected(g)  # implies connected
    connected = two_conn or is_connected(g)
    facts = {
        "v": g.vertex_count,
        "e": g.edge_count,
        "connected": connected,
        "two_connected": two_conn,
        "has_loop": g.has_loop(),
        "genus": genus(g) if connected else None,
    }
    code = 0
    algebra_note = None
    if args.algebra:
        try:
            alg = algebra_by_name(args.algebra)
        except ValueError as exc:
            return _fail(3, f"error: {exc}")
        violation = validate_algebra(alg)
        algebra_note = violation or "ok"
        if violation:
            code = 3
    if args.format == "json":
        payload = {"ok": True, **facts}
        if algebra_note is not None:
            payload["algebra"] = {"name": args.algebra, "status": algebra_note}
        _emit_json(payload)
    else:
        print("ok")
        for key in ("v", "e"):
            print(f"{key} {facts[key]}")
        for key in ("connected", "two_connected", "has_loop"):
            print(f"{key} {_bool(facts[key])}")
        print(f"genus {'n/a' if facts['genus'] is None else facts['genus']}")
        if algebra_note is not None:
            print(f"algebra {args.algebra} {algebra_note}")
    return code


def _report_dict(r: VerificationReport) -> dict:
    return {**vars(r), "wgl_poly": r.wgl_poly.to_json()}


def cmd_survey(args) -> int:
    try:
        result = run_survey(args.max_v, allow_loops=not args.no_loops,
                            dedup=args.dedup, jobs=args.jobs)
    except ValueError as exc:
        return _fail(2, f"error: {exc}")
    summary = result["summary"]
    if args.format == "json":
        _emit_json({"reports": [_report_dict(r) for r in result["reports"]],
                    "summary": summary})
    else:
        print(f"graphs {summary['graphs_checked']}")
        for v, count in summary["graph_counts"].items():
            print(f"v={v} {count}")
        for name, passes in summary["identity_passes"].items():
            print(f"identity {name} {passes}/{summary['graphs_checked']}")
        print(f"failures {len(summary['failures'])}")
        for failure in summary["failures"]:
            print(f"FAIL {failure['identity']}: {failure['graph']!r}")
    return 1 if summary["failures"] else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: it
    holds no state between parses."""
    parser = argparse.ArgumentParser(
        prog="weightsys",
        description="Exact Lie-algebra weight systems on oriented trivalent graphs.")
    parser.add_argument(
        "--version", action="version",
        version=f"weightsys {__version__} (kernels: {kernels.BACKEND})")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("eval", help="contract the tensor state sum of a graph")
    p.add_argument("graph", help="graph file")
    p.add_argument("--algebra", required=True,
                   help="gl:<n>, so3, sl2, or abelian:<n>")
    add_format(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("poly", help="marking expansion: the gl(N) polynomial")
    p.add_argument("graph")
    add_format(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("colorings", help="edge-3-coloring counts and signed sums")
    p.add_argument("graph")
    add_format(p)
    p.set_defaults(func=cmd_colorings)

    p = sub.add_parser("map", help="faces and 4-colorings of a spherical embedding")
    p.add_argument("graph")
    add_format(p)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("survey", help="verify the identities over a graph catalog")
    p.add_argument("--max-v", type=int, required=True, dest="max_v")
    p.add_argument("--no-loops", action="store_true",
                   help="restrict the catalog to loop-free graphs")
    p.add_argument("--dedup", action="store_true",
                   help="one representative per isomorphism class")
    p.add_argument("--jobs", type=int, default=1)
    add_format(p)
    p.set_defaults(func=cmd_survey)

    p = sub.add_parser("validate", help="check a graph file (and optionally an algebra)")
    p.add_argument("graph")
    p.add_argument("--algebra")
    add_format(p)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "graph"):
        try:
            args.graph = _read_graph(args.graph)
        except (OSError, GraphParseError) as exc:
            return _fail(2, f"error: {exc}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
