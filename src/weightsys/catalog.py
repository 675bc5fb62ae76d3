"""Exhaustive catalogs of small trivalent graphs and the identity survey.

Two generation modes.  The labeled stream walks every fixed-point-free
pairing of the 3v darts in lexicographic order and keeps the connected
ones — complete but factorially large ((3v - 1)!! pairings), so it stops
at v = MAX_V_LABELED.  Dedup mode yields one representative per
isomorphism class of the underlying multigraph instead: the
lexicographically largest vertex count matrix of the class.  It grows the
classes level by level (Brinkmann, "Fast generation of cubic graphs",
1996).  Level 2 is the dumbbell and the theta, and each class at v - 2
yields children on two new vertices x and y by

* (a) edge insertion: subdivide two edge slots with x and y and join
  x-y, the same edge twice, two parallel copies and loops included;
* (b) lollipop: subdivide one edge with x and hang y, carrying a loop,
  on x.

The growth misses no class: for v >= 4 a connected graph with a loop
reduces to a connected one at v - 2 by undoing (b), and a loopless one
has an edge on a cycle, whose deletion with both ends suppressed undoes
(a) and keeps the graph connected.  So (a) need only make loopless
children, and it is skipped where it would leave a loop.  Children of
connected graphs are connected, so nothing is filtered for
connectivity.

Each class is made once, from one parent, by McKay's canonical
construction path ("Isomorph-free exhaustive generation", J. Algorithms
26, 1998), as Brinkmann, Goedgebeur and McKay use it for cubic graphs
("Generation of cubic graphs", DMTCS 13, 2011).  A parent's
automorphisms are the tied leaves of its own canonical search, and it
makes one insertion per orbit of them.  A child is kept only if its new
pair lies in the orbit of its canonical reducible pair (``_accepted``),
which cheap invariants pick out first, so most repeats are turned away
before any canonical search.  No level needs a set: each is sorted in
descending order of its classes' largest matrices.  Loop-free mode grows
the with-loops levels and filters what it yields, because a loopless
graph can reduce to one with a loop.  It makes 1.50 canonical searches
per class at v = 12 and 1.66 at v = 14; ``BENCH_catalog.json`` has the
times.

Every identity checked here is invariant under dart relabeling and
vertex reversals, and any two rotation systems over the same multigraph
differ by exactly those moves, so one representative per class decides
the identity for the whole class.

``check_graph`` computes all invariants for one graph and records which
of the cross-route identities held; ``run_survey`` folds that over a
catalog, optionally in parallel, with bit-identical output either way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter, mul
from typing import Iterable, Iterator, Sequence

from .algebra import change_basis, make_gl, make_sl2, make_so3
from .coloring import (edge_3_coloring_counts, enumerate_four_colorings,
                       extract_map, verify_tait_bijection)
from .graphs import TrivalentGraph, is_connected, is_two_connected, serialize_graph
from .ribbon import IntPolynomial, marking_profile, rotation_of_marking
from .statesum import evaluate_weight

MAX_V_DEFAULT = 10
# The labeled stream walks (3v - 1)!! pairings: 17!! = 3.4e7 at v = 6.
MAX_V_LABELED = 4

# The algebras are frozen, so every check_graph call (and worker) shares one.
# gl(2) is taken in the basis (I, H, E, F) = (E11 + E22, E11 - E22, E12,
# E21), split along its center I: the bracket vanishes on I, so f has 6
# nonzero entries (+-2 on the orders of H, E, F) where the matrix units
# have 12, t_inv is block-diagonal, and no folded tensor carries index 0.
# Each replay then does so3-sized work.  The weight does not depend on the
# basis, so the algebra keeps the name gl:2; ``eval --algebra gl:2`` stays
# on matrix units.
_GL2 = replace(change_basis(make_gl(2), [[1, 0, 0, 1], [1, 0, 0, -1],
                                         [0, 1, 0, 0], [0, 0, 1, 0]]),
               name="gl:2")
_SO3, _SL2 = make_so3(), make_sl2()


def _pairings(n: int, allow_loops: bool) -> Iterator[tuple[int, ...]]:
    """All fixed-point-free pairings of 0..n-1 (vertex i owning darts
    3i..3i+2), in lexicographic order of the mate array."""
    mate = [-1] * n

    def rec(lo: int) -> Iterator[tuple[int, ...]]:
        d = lo
        while d < n and mate[d] != -1:
            d += 1
        if d == n:
            yield tuple(mate)
            return
        for dd in range(d + 1, n):
            if mate[dd] != -1:
                continue
            if not allow_loops and dd // 3 == d // 3:
                continue
            mate[d] = dd
            mate[dd] = d
            yield from rec(d + 1)
            mate[d] = -1
            mate[dd] = -1

    yield from rec(0)


# --- one representative per class: growth from v - 2 -------------------
#
# A multigraph on v vertices is a symmetric matrix: entry (i, j) counts
# edges between i and j, the diagonal counts loops (each worth 2 toward
# the degree).  Trivalence forces diagonal entries <= 1.  Matrices compare
# lexicographically in row-major order; entries below the diagonal repeat
# earlier ones, so that is also the order of the upper triangles read row
# by row.  Each class is represented by its largest member.

Matrix = tuple[tuple[int, ...], ...]
# A relabeling p puts vertex p[r] at position r.
Relabeling = list[int]
# A reducible pair of a child: (x, y) for an edge, (y,) for a lollipop.
Pair = tuple[int, ...]

# Level 2: the dumbbell and the theta, each its class's largest matrix.
_LEVEL_2: list[Matrix] = [((1, 1), (1, 1)), ((0, 3), (3, 0))]


def _canonical_search(a: Sequence[Sequence[int]]
                      ) -> tuple[Matrix, list[Relabeling]]:
    """The largest vertex relabeling of count matrix ``a``, and every
    relabeling p that reaches it, form[r][c] = a[p[r]][p[c]].

    Builds the form row by row over every partial relabeling that still
    ties for the largest rows so far.  For each, the unplaced vertices
    fall into ordered cells, each holding vertices with equal entries
    toward every placed one, and the k-th cell must fill the k-th block of
    positions r..v-1.  Taking p[r] from the first cell and sorting each
    cell by its entry toward p[r] (0 to 3 edges) gives the largest row r
    reachable from that choice; the choices whose row is largest over all
    of them are kept, their cells refined by that entry, and the next row
    placed.  Each kept choice carries its placed vertices as a chain
    (p[r], chain of p[0..r-1]), so no node copies them.  No choice that
    reaches the largest form is ever cut, so the leaves are all such
    relabelings: two of them, p and q, differ by the automorphism
    q o p^-1 of ``a``.
    """
    v = len(a)
    nodes: list[tuple[list[list[int]], tuple | None]] = [([list(range(v))],
                                                          None)]
    rows = []
    for _ in range(v):
        best: list[int] = []
        kept: list[tuple[list[list[int]], tuple | None]] = []
        for cells, chain in nodes:
            first = cells[0]
            for x in first:
                row = a[x]
                tail = [row[x]]
                refined = []
                for cell in ([u for u in first if u != x], *cells[1:]):
                    if len(cell) == 1:
                        refined.append(cell)
                        tail.append(row[cell[0]])
                        continue
                    by_value: list[list[int]] = [[], [], [], []]
                    for u in cell:
                        by_value[row[u]].append(u)
                    for value in (3, 2, 1, 0):
                        if by_value[value]:
                            refined.append(by_value[value])
                            tail += [value] * len(by_value[value])
                if tail > best:
                    best, kept = tail, [(refined, (x, chain))]
                elif tail == best:
                    kept.append((refined, (x, chain)))
        rows.append(best)
        nodes = kept
    form = tuple(tuple(rows[c][r - c] if c < r else rows[r][c - r]
                       for c in range(v)) for r in range(v))
    leaves = []
    for _, chain in nodes:
        p = [0] * v
        for r in range(v - 1, -1, -1):
            p[r], chain = chain
        leaves.append(p)
    return form, leaves


def _inverse(p: Relabeling) -> list[int]:
    inverse = [0] * len(p)
    for r, u in enumerate(p):
        inverse[u] = r
    return inverse


def _automorphisms(leaves: list[Relabeling]) -> list[Relabeling]:
    """The automorphisms of the form that ``leaves`` reach, as maps of its
    positions: each leaf composed with the inverse of the first."""
    inverse = _inverse(leaves[0])
    return [[inverse[u] for u in p] for p in leaves]


def _children(a: Matrix, auts: list[Relabeling]
              ) -> Iterator[list[list[int]]]:
    """Count matrices one growth step from ``a``, on two new vertices
    x and y: (a) subdivide two edge slots with x and y and join x-y, the
    same edge twice, two parallel copies and loops included; (b) subdivide
    one edge with x and hang y, carrying a loop, on x.

    (a) is applied only where it subdivides every loop of ``a``: a child
    left with a loop is also a child by (b) of the graph without that
    lollipop, so the catalog stays complete.  An automorphism of ``a``
    maps every insertion to one of the same kind that makes an isomorphic
    child with the new pair in the same place, so only the first insertion
    of each orbit under ``auts`` is made."""
    n = len(a)
    x, y = n, n + 1
    slots = [(i, j) for i in range(n) for j in range(i, n) if a[i][j]]
    loops = {(i, i) for i in range(n) if a[i][i]}
    seen: set[tuple] = set()

    def first_of_orbit(kind: str, *used: tuple[int, int]) -> bool:
        if (kind, *used) in seen:
            return False
        for p in auts:
            seen.add((kind, *sorted((p[i], p[j]) if p[i] < p[j] else
                                    (p[j], p[i]) for i, j in used)))
        return True

    def grown(*changes: tuple[int, int, int]) -> list[list[int]]:
        m = [[*row, 0, 0] for row in a] + [[0] * (n + 2), [0] * (n + 2)]
        for i, j, k in changes:
            m[i][j] += k
            if i != j:
                m[j][i] += k
        return m

    for s, (i, j) in enumerate(slots):
        if first_of_orbit("b", (i, j)):
            yield grown((i, j, -1), (i, x, 1), (x, j, 1), (x, y, 1),
                        (y, y, 1))
        if loops <= {(i, j)}:
            if first_of_orbit("a1", (i, j)):
                yield grown((i, j, -1), (i, x, 1), (x, y, 2), (y, j, 1))
            if a[i][j] > 1 and first_of_orbit("a2", (i, j)):
                yield grown((i, j, -2), (i, x, 1), (x, j, 1), (i, y, 1),
                            (y, j, 1), (x, y, 1))
        for k, l in slots[s + 1:]:
            if loops <= {(i, j), (k, l)} and first_of_orbit("a", (i, j),
                                                            (k, l)):
                yield grown((i, j, -1), (i, x, 1), (x, j, 1), (k, l, -1),
                            (k, y, 1), (y, l, 1), (x, y, 1))


def _is_bridge(c: list[list[int]], u: int, w: int) -> bool:
    """Whether deleting the single edge u-w disconnects ``c``."""
    reached = {u}
    stack = [u]
    while stack:
        s = stack.pop()
        for t, k in enumerate(c[s]):
            if k and t not in reached and (s, t) != (u, w):
                if t == w:
                    return False
                reached.add(t)
                stack.append(t)
    return True


def _ties(pairs: list[Pair], invariant) -> list[Pair]:
    """The pairs whose invariant equals the last pair's, or an empty list
    if some pair's is larger."""
    mine = invariant(pairs[-1])
    tied = []
    for pair in pairs:
        k = invariant(pair)
        if k > mine:
            return []
        if k == mine:
            tied.append(pair)
    return tied


def _candidates(c: list[list[int]]) -> list[Pair]:
    """The reducible pairs of child ``c`` that tie its new pair, x and y
    on the last two vertices, on a cheap invariant, the new pair last; or
    an empty list if some reducible pair beats it.

    The reducible pairs are those whose removal undoes a step of
    ``_children``.  With a loop they are the lollipops, each named by the
    vertex y carrying the loop, its neighbour being x.  Without one they
    are the x-y edges that leave the graph connected when one copy is
    deleted and x and y are smoothed: a multiple edge, or an edge that is
    not a bridge.  The invariant is the largest multiplicity at a
    lollipop's x, and an edge's multiplicity, then the triangles on it."""
    v = len(c)
    if c[v - 1][v - 1]:
        def stem(pair: Pair) -> int:
            row = c[pair[0]]
            return max(c[next(u for u in range(v) if row[u] and u != pair[0])])

        return _ties([(h,) for h in range(v) if c[h][h]], stem)

    def edge(pair: Pair) -> tuple[int, int]:
        u, w = pair
        return c[u][w], sum(map(mul, c[u], c[w]))

    tied = _ties([(u, w) for u in range(v) for w in range(u + 1, v)
                  if c[u][w]], edge)
    # A multiple edge or one on a triangle is no bridge, so a bridge can
    # tie the new pair only if that is a single edge on none.  The gate is
    # also _is_bridge's precondition: it skips every copy of u-w, so it
    # would call each copy of a multiple edge a bridge.
    if tied and edge(tied[-1]) == (1, 0):
        tied = [pair for pair in tied if not _is_bridge(c, *pair)]
    return tied


def _accepted(c: list[list[int]]) -> tuple[Matrix, list[Relabeling]] | None:
    """Child ``c``'s form and automorphisms if its new pair lies in the
    orbit of its canonical reducible pair; else None.

    The canonical pair is, among the ``_candidates`` of ``c``, the one
    with the smallest position in the form.  A child with no candidates is
    rejected before any search; otherwise it is accepted if some leaf puts
    the new pair on that position.  So each class is accepted once, from
    one orbit of insertions in its one parent (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 26, 1998)."""
    tied = _candidates(c)
    if not tied:
        return None
    form, leaves = _canonical_search(c)
    inverse = _inverse(leaves[0])
    target = min(sorted(inverse[u] for u in pair) for pair in tied)
    new = set(tied[-1])
    if not any({p[r] for r in target} == new for p in leaves):
        return None
    return form, _automorphisms(leaves)


def _grow(level: list[tuple[Matrix, list[Relabeling]]]
          ) -> list[tuple[Matrix, list[Relabeling]]]:
    """One representative of every class one growth step above ``level``,
    each a form with its automorphisms, in no set order."""
    return [found for a, auts in level for c in _children(a, auts)
            if (found := _accepted(c))]


def _levels(max_v: int, allow_loops: bool) -> Iterator[Iterator[TrivalentGraph]]:
    """One representative per class at v = 2, 4, ..., max_v, level by
    level, each built as it is taken, in descending order of the class's
    largest matrix.

    Every level is grown from the whole with-loops level below it: a
    loopless graph can reduce to one with a loop, so loop-free mode only
    filters what it yields."""
    level = [(m, _automorphisms(_canonical_search(m)[1])) for m in _LEVEL_2]
    while True:
        yield (_graph_from_matrix(m) for m, _ in level
               if allow_loops or not any(m[i][i] for i in range(len(m))))
        v = len(level[0][0]) + 2
        if v > max_v:
            return
        level = sorted(_grow(level), key=itemgetter(0), reverse=True)


def _graph_from_matrix(a: Matrix) -> TrivalentGraph:
    """Deterministic dart layout: per vertex, loops first, then edges to
    higher-numbered vertices in order, filling darts 3i, 3i+1, 3i+2."""
    v = len(a)
    nxt = [3 * i for i in range(v)]
    alpha = [-1] * (3 * v)

    def take(i: int) -> int:
        d = nxt[i]
        nxt[i] += 1
        return d

    for i in range(v):
        for _ in range(a[i][i]):
            d1, d2 = take(i), take(i)
            alpha[d1], alpha[d2] = d2, d1
        for j in range(i + 1, v):
            for _ in range(a[i][j]):
                d1, d2 = take(i), take(j)
                alpha[d1], alpha[d2] = d2, d1
    return TrivalentGraph(v, tuple(alpha))


def _walk(max_v: int, allow_loops: bool, dedup: bool
          ) -> Iterator[Iterable[TrivalentGraph]]:
    """The catalog level by level, v = 2, 4, ..., max_v: the grown
    levels in dedup mode, else a lazy stream of the connected pairings
    on each v."""
    if dedup:
        return _levels(max_v, allow_loops)
    return (filter(is_connected, (TrivalentGraph(v, mate) for mate
                                  in _pairings(3 * v, allow_loops)))
            for v in range(2, max_v + 1, 2))


def generate_graphs(v: int, allow_loops: bool = True,
                    dedup: bool = False) -> Iterator[TrivalentGraph]:
    """Connected trivalent graphs on v vertices: the last level of the
    catalog walk to v.

    Labeled mode (default) streams every connected dart pairing in
    lexicographic order, up to v = MAX_V_LABELED; dedup mode yields one
    representative per multigraph isomorphism class, each class's largest
    count matrix, in descending order, with a deterministic dart layout.
    """
    _check_max_v("vertex count", v, dedup)
    *_, level = _walk(v, allow_loops, dedup)
    yield from level


def _check_max_v(what: str, v: int, dedup: bool) -> None:
    if v <= 0 or v % 2:
        raise ValueError(f"{what} must be even and positive, got {v}")
    if v > MAX_V_DEFAULT:
        raise ValueError(f"{what} {v} over the catalog maximum {MAX_V_DEFAULT}")
    if not dedup and v > MAX_V_LABELED:
        raise ValueError(f"{what} {v} over the labeled catalog maximum "
                         f"{MAX_V_LABELED}; dedup mode goes to {MAX_V_DEFAULT}")


IDENTITY_NAMES = (
    "coloring_sign_constancy",
    "degree_bound",
    "route_agreement",
    "sl2_counts_four_colorings",
    "sl2_zero_implies_top_zero",
    "tait_factor",
    "top_counts_embeddings",
)


@dataclass(frozen=True)
class VerificationReport:
    graph: str
    v: int
    e: int
    two_connected: bool
    planar: bool
    wgl_poly: IntPolynomial
    w_top: int
    spherical_embeddings: int
    edge_3_colorings: int
    penrose: int
    w_sl2: int
    four_colorings: int | None
    identities: dict[str, bool]

    def all_passed(self) -> bool:
        return all(self.identities.values())


def check_graph(g: TrivalentGraph) -> VerificationReport:
    """Compute every invariant of one connected graph and record which
    cross-route identities held.

    The checked identities:

    * route_agreement — the polynomial route at N = 2, the coloring
      routes, and the tensor state sums all agree; the two weights are
      tied by wgl(2) = (-1)^{v/2} w_sl2.
    * sl2_zero_implies_top_zero — vanishing sl(2) weight forces the top
      coefficient to vanish.
    * top_counts_embeddings — for 2-connected graphs |w_top| equals the
      spherical embedding count (equivalently all spherical markings
      share one sign); otherwise w_top = 0.
    * coloring_sign_constancy — for planar 2-connected graphs all proper
      edge colorings carry one sign: |penrose| equals the coloring count.
    * sl2_counts_four_colorings — 4·|w_sl2| = 2^{v/2}·(4-coloring count)
      for planar 2-connected graphs.
    * tait_factor — the 4-colorings with the outer face pinned to 0 map
      one-to-one onto the edge-3-colorings, counted once for the graph,
      and there are 4 × as many 4-colorings.
    * degree_bound — deg wgl <= v/2 + 2.
    """
    v = g.vertex_count
    two_connected = is_two_connected(g)
    profile = marking_profile(g)
    wgl, spherical, top = profile.wgl, profile.spherical, profile.top
    planar = spherical > 0
    n3, penrose = edge_3_coloring_counts(g)
    wsl2 = 2 ** (v // 2) * penrose

    # In a row, so the three sums share statesum's one plan of g.
    ev_gl2 = evaluate_weight(g, _GL2)
    ev_so3 = evaluate_weight(g, _SO3)
    ev_sl2 = evaluate_weight(g, _SL2)

    four = None
    tait_ok = True
    if planar and two_connected:
        pm = extract_map(rotation_of_marking(g, profile.first))
        fours = enumerate_four_colorings(pm)
        four = len(fours)
        tait_ok = verify_tait_bijection(pm, fours, n3) is None

    wgl2 = wgl(2)
    identities = {
        "coloring_sign_constancy":
            abs(penrose) == n3 if planar and two_connected else True,
        "degree_bound": wgl.degree <= v // 2 + 2,
        "route_agreement":
            wgl2 == ev_gl2 and penrose == ev_so3 and wsl2 == ev_sl2
            and wgl2 == (-1) ** (v // 2) * wsl2,
        "sl2_counts_four_colorings":
            four is None or 4 * abs(wsl2) == 2 ** (v // 2) * four,
        "sl2_zero_implies_top_zero": wsl2 != 0 or top == 0,
        "tait_factor": four is None or tait_ok,
        "top_counts_embeddings":
            abs(top) == spherical if two_connected else top == 0,
    }
    return VerificationReport(
        graph=serialize_graph(g).decode(),
        v=v,
        e=g.edge_count,
        two_connected=two_connected,
        planar=planar,
        wgl_poly=wgl,
        w_top=top,
        spherical_embeddings=spherical,
        edge_3_colorings=n3,
        penrose=penrose,
        w_sl2=wsl2,
        four_colorings=four,
        identities=identities,
    )


def Pool(processes: int):
    """A ``multiprocessing`` pool, imported on the first call: only
    ``run_survey`` with jobs > 1 starts one, and the import alone adds
    10-14 ms to every process start (``BENCH_cli.json``)."""
    from multiprocessing import Pool
    return Pool(processes)


def run_survey(max_v: int, allow_loops: bool = True, dedup: bool = False,
               jobs: int = 1) -> dict:
    """check_graph over every catalog graph with v = 2, 4, ..., max_v.

    Returns {"reports": [VerificationReport...], "summary": {...}} with
    reports in catalog order, level by level as ``generate_graphs``
    yields each, regardless of the worker count.  One walk of the catalog
    feeds the checks; in dedup mode each level is grown from the one
    below, so the survey grows the catalog once.
    """
    _check_max_v("max_v", max_v, dedup)
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")

    graphs = chain.from_iterable(_walk(max_v, allow_loops, dedup))
    # Reports come back in catalog order, so the pool size is free to be
    # capped at the core count.
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with Pool(jobs) as pool:
            reports = list(pool.imap(check_graph, graphs, chunksize=8))
    else:
        reports = [check_graph(g) for g in graphs]

    graph_counts: dict[int, int] = {}
    identity_passes = {name: 0 for name in IDENTITY_NAMES}
    failures = []
    for r in reports:
        graph_counts[r.v] = graph_counts.get(r.v, 0) + 1
        for name, ok in r.identities.items():
            if ok:
                identity_passes[name] += 1
            else:
                failures.append({"graph": r.graph, "identity": name})
    summary = {
        "max_v": max_v,
        "allow_loops": allow_loops,
        "dedup": dedup,
        "graphs_checked": len(reports),
        "graph_counts": {str(v): c for v, c in sorted(graph_counts.items())},
        "identity_passes": identity_passes,
        "failures": failures,
    }
    return {"reports": reports, "summary": summary}
