"""Command-line front end.

Subcommands: eval, poly, colorings, map, survey, validate.  Graphs come
from files in the line-oriented text format; results go to stdout as
plain text or JSON (``--format json``: sorted keys, schema_version 1,
polynomial coefficients as decimal strings so consumers never hit
fixed-width integer limits).

Exit codes: 0 success, 1 identity failure found by a survey, 2 input
error: an unreadable graph file, or any ValueError a layer raises under a
command (a malformed graph, bad survey bounds, a graph over a search cap,
a precondition not met), printed as ``error: <message>``; 3 an algebra
lookup or check that fails (unknown algebra name, algebra violation, an
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
from .graphs import (TrivalentGraph, is_connected, is_two_connected,
                     parse_graph)
from .ribbon import genus, marking_profile, rotation_of_marking
from .statesum import evaluate_weight


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _read_graph(path: str) -> TrivalentGraph:
    try:
        with open(path, "rb") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(exc) from exc
    return parse_graph(text)


def _json_default(obj):
    """Survey reports as their fields, polynomials as ``to_json()``."""
    return vars(obj) if isinstance(obj, VerificationReport) else obj.to_json()


def _emit(args, facts: dict):
    """Print ``facts``: in JSON one object with schema_version 1 and sorted
    keys, in text one ``key value`` line per fact, booleans as true/false."""
    if args.format == "json":
        print(json.dumps({"schema_version": 1, **facts}, sort_keys=True,
                         default=_json_default))
        return
    for key, value in facts.items():
        print(key, str(value).lower() if isinstance(value, bool) else value)


def cmd_eval(args) -> int:
    try:
        alg = algebra_by_name(args.algebra)
    except ValueError as exc:
        return _fail(3, f"error: {exc}")
    value = evaluate_weight(args.graph, alg)
    if args.format == "json":
        _emit(args, {"algebra": alg.name, "value": str(value)})
    else:
        print(value)
    return 0


def cmd_poly(args) -> int:
    g = args.graph
    profile = marking_profile(g)
    _emit(args, {"wgl": profile.wgl, "w_top": profile.top,
                 "spherical_embeddings": profile.spherical,
                 "planar": profile.spherical > 0,
                 "two_connected": is_two_connected(g)})
    return 0


def cmd_colorings(args) -> int:
    g = args.graph
    three = enumerate_edge_3_colorings(g)
    pen = penrose_sum(g, three)
    _emit(args, {"edge_3_colorings": len(three), "penrose": pen,
                 "w_sl2": 2 ** (g.vertex_count // 2) * pen})
    return 0


def cmd_map(args) -> int:
    g = args.graph
    marking = marking_profile(g).first
    if marking is None:
        raise ValueError("graph has no spherical embedding")
    pm = extract_map(rotation_of_marking(g, marking))
    fours = enumerate_four_colorings(pm)
    tait = verify_tait_bijection(pm, fours,
                                 len(enumerate_edge_3_colorings(g)))
    tail = {"outer_face": pm.outer_face,
            "self_bordering": pm.is_self_bordering(),
            "four_colorings": len(fours), "tait": tait or "ok"}
    if args.format == "json":
        _emit(args, {"marking": marking, "faces": pm.faces,
                     "edge_faces": pm.edge_faces, **tail})
        return 0
    print(f"marking {' '.join('+' if s > 0 else '-' for s in marking)}")
    for idx, cyc in enumerate(pm.faces):
        print(f"face {idx} : {' '.join(map(str, cyc))}")
    for k, ((d, dd), (a, b)) in enumerate(zip(pm.graph.edges(),
                                              pm.edge_faces)):
        print(f"edge {k} ({d} {dd}) faces {a} {b}")
    _emit(args, tail)
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
    violation = None
    if args.algebra:
        try:
            alg = algebra_by_name(args.algebra)
        except ValueError as exc:
            return _fail(3, f"error: {exc}")
        violation = validate_algebra(alg)
    note = violation or "ok"
    if args.format == "json":
        if args.algebra:
            facts["algebra"] = {"name": args.algebra, "status": note}
        _emit(args, {"ok": True, **facts})
    else:
        print("ok")
        _emit(args, {**facts, "genus": "n/a" if facts["genus"] is None
                     else facts["genus"]})
        if args.algebra:
            print(f"algebra {args.algebra} {note}")
    return 3 if violation else 0


def cmd_survey(args) -> int:
    result = run_survey(args.max_v, allow_loops=not args.no_loops,
                        dedup=args.dedup, jobs=args.jobs)
    summary = result["summary"]
    if args.format == "json":
        _emit(args, result)
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
    try:
        if hasattr(args, "graph"):
            args.graph = _read_graph(args.graph)
        return args.func(args)
    except ValueError as exc:
        return _fail(2, f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
