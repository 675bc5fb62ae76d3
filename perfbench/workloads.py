"""The benchmark's workloads: seeded inputs, the timed operations and the
checks on every output.

Each workload is built from the freshly imported package modules and a
seed, and exposes one *cycle*: a fixed list of units (a survey pass, a
graph to check, a graph to run the command set on).  ``run(unit, meter)``
performs one unit, making every program call through ``meter`` (see
``meter.py``), checks the outputs and returns ``(attempted, failed)``.
``seen`` maps each graph of the units run so far to whether it was
reported planar and 2-connected.

Expected values are never frozen outputs of the program: they are class
counts from OEIS, facts true by construction (a prism is planar and
2-connected, a Moebius ladder is not planar), or agreement between the
program's independent routes.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from pathlib import Path

from meter import Meter, face_count

# Connected trivalent multigraphs per isomorphism class, loops allowed
# (OEIS A005967), for v = 2, 4, 6, 8.
SURVEY_CLASSES = {"2": 2, "4": 5, "6": 17, "8": 71}

# Graph files shipped with the tests that the command workload reads.
TEST_GRAPHS = ("theta", "dumbbell", "k4", "k33", "cube")


# --- seeded graph construction (dart pairings, no package code) ---------

def _connected(alpha, v):
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for d in (3 * i, 3 * i + 1, 3 * i + 2):
            j = alpha[d] // 3
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == v


def _simple(alpha):
    ends = [(d // 3, dd // 3) for d, dd in enumerate(alpha) if d < dd]
    pairs = {(min(a, b), max(a, b)) for a, b in ends}
    return len(pairs) == len(ends) and all(a != b for a, b in ends)


def random_pairing(v, rng, simple=False):
    """Uniform random dart pairing, resampled until connected and, with
    ``simple``, free of loops and parallel edges."""
    while True:
        darts = list(range(3 * v))
        rng.shuffle(darts)
        alpha = [0] * (3 * v)
        for k in range(0, 3 * v, 2):
            a, b = darts[k], darts[k + 1]
            alpha[a], alpha[b] = b, a
        if _connected(alpha, v) and (not simple or _simple(alpha)):
            return alpha


def pairing_from_edges(v, edges, flipped=frozenset()):
    """Dart pairing of a multigraph given as vertex pairs.  Vertex i's
    darts 3i, 3i + 1, 3i + 2 go to its edges in the order listed, and in
    the reverse cyclic order at the vertices in ``flipped``."""
    used = [0] * v
    alpha = [-1] * (3 * v)

    def dart(i):
        slot = (0, 2, 1)[used[i]] if i in flipped else used[i]
        used[i] += 1
        return 3 * i + slot

    for a, b in edges:
        da, db = dart(a), dart(b)
        alpha[da], alpha[db] = db, da
    return alpha


def ladder_edges(v, twisted):
    """The prism C_{v/2} x K2 (planar, 2-connected), or with ``twisted`` the
    Moebius ladder: the rails cross between rungs 0 and 1, which leaves it
    2-connected and, from v = 6 on, non-planar."""
    k = v // 2
    edges = [(i, k + i) for i in range(k)]
    for i in range(k):
        j = (i + 1) % k
        if twisted and i == 0:
            edges += [(i, k + j), (k + i, j)]
        else:
            edges += [(i, j), (k + i, k + j)]
    return edges


def prism(v, first_spherical):
    """The prism on v vertices, with vertex flips chosen so that the first
    spherical marking in the program's counter order (bit i set: vertex i
    reversed) is the one numbered ``first_spherical`` < 2^(v-1).

    With darts in the order of ``ladder_edges``, the drawing with the outer
    rail around the inner one reverses vertex 0 and every inner vertex but
    the first.  A marking is spherical exactly when it turns the graph into
    that drawing or its mirror image, so starting from
    ``planar ^ first_spherical`` the first is ``first_spherical`` and the
    second, its complement, comes after every number below 2^(v-1)."""
    k = v // 2
    planar = 1 | sum(1 << (k + i) for i in range(1, k))
    flips = planar ^ first_spherical
    alpha = pairing_from_edges(v, ladder_edges(v, False),
                               {i for i in range(v) if flips >> i & 1})
    drawn = pairing_from_edges(v, ladder_edges(v, False),
                               {i for i in range(v) if planar >> i & 1})
    if face_count(drawn) != k + 2:  # Euler: v - 3v/2 + faces = 2
        raise RuntimeError(f"prism drawing at v = {v} is not planar")
    return alpha


def early_exits(v, count, rng):
    """``count`` positions for the first spherical marking of planar
    graphs on v vertices, one drawn from each of ``count`` equal slices of
    [0, 2^(v-1)).  The early-exit search stops there, so its total work is
    close to the same on every seed, while each graph's stop is seeded."""
    half = 1 << (v - 1)
    return [(j * half + rng.randrange(half)) // count for j in range(count)]


def moebius(v, rng):
    """The Moebius ladder on v vertices, each vertex reversed with
    probability 1/2; non-planar, so the early-exit search scans all 2^v
    markings whatever the flips."""
    return pairing_from_edges(v, ladder_edges(v, True),
                              {i for i in range(v) if rng.random() < 0.5})


def graph_text(alpha):
    lines = [f"v {len(alpha) // 3}"]
    lines += [f"e {d} {dd}" for d, dd in enumerate(alpha) if d < dd]
    return "\n".join(lines) + "\n"


# --- running the program ------------------------------------------------

def call_cli(cli, argv, meter):
    """Run one command in process, like a client that waits for the reply,
    timed by ``meter``.  Returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = meter(cli.main, argv)
    return code, out.getvalue()


def _report_crash(what):
    print(f"{what} raised:", file=sys.stderr)
    traceback.print_exc()


class SurveyV8:
    """``survey --max-v 8 --dedup --format json`` with one job: the
    end-to-end job the identity check exists for.  Dedup generation
    dominates, so catalog work shows here and little else does.  The input
    is the catalog bound alone; the seed changes nothing."""

    ARGV = ["survey", "--max-v", "8", "--dedup", "--format", "json"]
    WARMUP = ["survey", "--max-v", "6", "--dedup", "--format", "json"]

    def __init__(self, pkg, seed, workdir):
        self.cli = pkg.cli
        self.seen = {}
        failed = self._check(*call_cli(self.cli, self.WARMUP, Meter(False)),
                             {k: v for k, v in SURVEY_CLASSES.items()
                              if int(k) <= 6})
        if failed:
            raise RuntimeError("warm-up survey --max-v 6 failed its checks")

    def cycle(self):
        return [self.ARGV]

    def run(self, argv, meter):
        try:
            return 1, self._check(*call_cli(self.cli, argv, meter),
                                  SURVEY_CLASSES)
        except Exception:
            _report_crash("survey")
            return 1, 1

    def _check(self, code, out, classes):
        data = json.loads(out)
        summary = data["summary"]
        reports = data["reports"]
        n = sum(classes.values())
        passes = summary["identity_passes"]
        ok = (code == 0
              and summary["graph_counts"] == classes
              and summary["graphs_checked"] == n == len(reports)
              and all(p == n for p in passes.values())
              and not summary["failures"]
              and all(all(r["identities"].values()) for r in reports))
        self.seen = {i: (r["planar"], r["two_connected"])
                     for i, r in enumerate(reports)}
        return 0 if ok else 1


class CheckBatch:
    """``check_graph`` over a seeded batch at v = 12 and 14 with no
    generation: random connected simple pairings (mostly non-planar) and
    prisms with seeded vertex flips (planar and 2-connected, so their Tait
    branch runs).  The marking scan dominates, then the state sums.  Two
    thirds of the batch is at v = 14, so the median graph is a v = 14 graph
    on every seed.  Loops and parallel edges are left out because they make
    a random pairing planar about half the time, and the planar share,
    which decides whether the costly Tait branch runs, would then swing
    with the seed.  A prism's Tait branch starts with the early-exit search
    for a spherical marking, which takes up to half a full scan depending
    on the vertex flips; with flips at random the slowest tenth of the
    batch followed the seed by 10%, so the prisms of each size stop the
    search at spread-out points (``early_exits``)."""

    MIX = ((12, 26, 8), (14, 52, 16))  # (v, random simple pairings, prisms)

    def __init__(self, pkg, seed, workdir):
        self.catalog = pkg.catalog
        graph = pkg.graphs.TrivalentGraph
        rng = random.Random(seed)
        batch = []
        for v, pairings, prisms in self.MIX:
            batch += [(graph(v, tuple(random_pairing(v, rng, True))), False)
                      for _ in range(pairings)]
            batch += [(graph(v, tuple(prism(v, stop))), True)
                      for stop in early_exits(v, prisms, rng)]
        rng.shuffle(batch)
        self.batch = batch
        self.seen = {}
        small = graph(8, tuple(prism(8, 0)))
        if self.run((small, True), Meter(False)) != (1, 0):
            raise RuntimeError("warm-up check_graph failed its checks")
        self.seen.clear()

    def cycle(self):
        return self.batch

    def run(self, unit, meter):
        g, is_prism = unit
        try:
            r = meter(self.catalog.check_graph, g)
        except Exception:
            _report_crash("check_graph")
            return 1, 1
        self.seen[id(g)] = (r.planar, r.two_connected)
        ok = (r.all_passed() and r.v == g.vertex_count
              and (not is_prism or (r.planar and r.two_connected)))
        return 1, 0 if ok else 1


class CliSingle:
    """A closed loop of single-graph commands from one client: each command
    is sent when the previous one has returned.  Per graph it runs
    ``validate``, ``poly``, ``eval`` at gl:3, gl:4, so3 and sl2,
    ``colorings`` and ``map``, then cross-checks the routes.  The graphs are
    the test data files and, for v = 8, 10, 12, 14, four prisms and four
    Moebius ladders with seeded vertex flips, written as graph files during
    set-up.  The state sum runs at dim 9 and 16 here, and ``map`` runs the
    early-exit spherical search, which scans every marking of a non-planar
    graph before exiting 2, and stops on the prisms at spread-out points
    (``early_exits``).

    The ladders keep their natural vertex labels: at dim 16 the state sum's
    greedy contraction order makes its cost depend on the labels (a v = 12
    prism takes 0.07 to 5 s and up to 0.5 GB under random relabelings), which
    would make the figures depend on the seed rather than the program."""

    SIZES = (8, 10, 12, 14)
    COPIES = 4  # ladders of each kind and size, each with its own flips
    EVALS = ("gl:3", "gl:4", "so3", "sl2")

    def __init__(self, pkg, seed, workdir):
        self.cli = pkg.cli
        rng = random.Random(seed)
        data = pkg.root / "tests" / "data"
        graphs = [(str(data / f"{name}.tgf"), None) for name in TEST_GRAPHS]
        for v in self.SIZES:
            ladders = [("prism", prism(v, stop), True)
                       for stop in early_exits(v, self.COPIES, rng)]
            ladders += [("moebius", moebius(v, rng), False)
                        for _ in range(self.COPIES)]
            for k, (kind, alpha, planar) in enumerate(ladders):
                path = Path(workdir) / f"{kind}{v}_{k}.tgf"
                path.write_text(graph_text(alpha))
                graphs.append((str(path), planar))
        rng.shuffle(graphs)
        self.graphs = graphs
        self.seen = {}
        # The same warm-up graph on every seed, so set-up time does not
        # depend on which graph the shuffle put first.
        if self.run((str(data / "cube.tgf"), True), Meter(False)) != (8, 0):
            raise RuntimeError("warm-up commands failed their checks")
        self.seen.clear()

    def cycle(self):
        return self.graphs

    def run(self, unit, meter):
        path, planar_expected = unit
        out = {}
        try:
            for name, argv in self._commands(path):
                code, text = call_cli(self.cli, argv, meter)
                out[name] = (code, json.loads(text) if code == 0 else None)
            failed = self._check(path, out, planar_expected)
        except Exception:
            _report_crash(f"commands on {path}")
            return 8, 8
        return 8, len(failed)

    def _commands(self, path):
        yield "validate", ["validate", path, "--format", "json"]
        yield "poly", ["poly", path, "--format", "json"]
        for alg in self.EVALS:
            yield alg, ["eval", path, "--algebra", alg, "--format", "json"]
        yield "colorings", ["colorings", path, "--format", "json"]
        yield "map", ["map", path, "--format", "json"]

    def _check(self, path, out, planar_expected):
        """Names of the commands whose output disagrees with an earlier one
        or with a fact known by construction."""
        failed = set(name for name, (code, _) in out.items()
                     if code != 0 and name != "map")
        if failed:
            return failed
        val = out["validate"][1]
        poly = out["poly"][1]
        col = out["colorings"][1]
        v = val["v"]
        wgl = {int(e): int(c) for e, c in poly["wgl"].items()}

        def wgl_at(n):
            return sum(c * n ** e for e, c in wgl.items())

        if not val["connected"]:
            failed.add("validate")
        two_conn = poly["two_connected"]
        if (two_conn != val["two_connected"]
                or (planar_expected is not None
                    and poly["planar"] != planar_expected)
                or poly["planar"] != (poly["spherical_embeddings"] > 0)
                or (abs(poly["w_top"]) != poly["spherical_embeddings"]
                    if two_conn else poly["w_top"] != 0)):
            failed.add("poly")
        for alg, n in (("gl:3", 3), ("gl:4", 4)):
            if int(out[alg][1]["value"]) != wgl_at(n):
                failed.add(alg)
        if (col["penrose"] != int(out["so3"][1]["value"])
                or col["w_sl2"] != int(out["sl2"][1]["value"])
                or wgl_at(2) != (-1) ** (v // 2) * col["w_sl2"]):
            failed.add("colorings")
        code, m = out["map"]
        if poly["planar"]:
            if (code != 0 or m["tait"] != "ok"
                    or m["four_colorings"] != 4 * col["edge_3_colorings"]):
                failed.add("map")
        elif code != 2:
            failed.add("map")
        self.seen[path] = (poly["planar"], two_conn)
        return failed


WORKLOADS = {
    "survey_v8": SurveyV8,
    "check_batch": CheckBatch,
    "cli_single": CliSingle,
}
