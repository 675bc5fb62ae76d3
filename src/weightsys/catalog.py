"""Exhaustive catalogs of small trivalent graphs and the identity survey.

Two generation modes.  The labeled stream walks every fixed-point-free
pairing of the 3v darts in lexicographic order and keeps the connected
ones — complete but factorially large (the dart count drives a double
factorial, so labeled streaming is for v <= 4 in practice).  Dedup mode
generates one representative per isomorphism class of the underlying
multigraph instead: the lexicographically largest vertex count matrix of
the class, found by orderly generation (Read, "Every one a winner",
1978).  The matrix search backtracks in descending order, cuts a branch
as soon as a completed row can be improved by swapping two adjacent
vertices, and keeps a full matrix only when no vertex relabeling makes
it larger.  Every identity checked here is invariant under dart
relabeling and vertex reversals, and any two rotation systems over the
same multigraph differ by exactly those moves, so one representative per
class decides the identity for the whole class.

``check_graph`` computes all invariants for one graph and records which
of the cross-route identities held; ``run_survey`` folds that over a
catalog, optionally in parallel, with bit-identical output either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import Pool
from typing import Iterator

from .algebra import make_gl, make_sl2, make_so3
from .coloring import (count_four_colorings, enumerate_edge_3_colorings,
                       extract_map, penrose_sum, verify_tait_bijection)
from .graphs import TrivalentGraph, is_connected, is_two_connected, serialize_graph
from .poly import IntPolynomial
from .ribbon import marking_profile
from .statesum import evaluate_weight

MAX_V_DEFAULT = 10

# The algebras are frozen, so every check_graph call (and worker) shares one.
_GL2, _SO3, _SL2 = make_gl(2), make_so3(), make_sl2()


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


# --- one representative per class: orderly generation -------------------
#
# A multigraph on v vertices is a symmetric matrix: entry (i, j) counts
# edges between i and j, the diagonal counts loops (each worth 2 toward
# the degree).  Trivalence forces diagonal entries <= 1.  Matrices compare
# lexicographically in row-major order; entries below the diagonal repeat
# earlier ones, so that is also the order of the upper triangles read row
# by row.  Each class is represented by its largest member.

def _swap_improves(a: list[list[int]], k: int) -> bool:
    """Would swapping vertices k and k+1 make the matrix lexicographically
    larger (flattened row-major order)?  Short-circuits at the first
    affected entry; ties propagate by symmetry, so scanning past row k
    is never needed.  Every entry read, and the first entry the swap
    changes, lies in rows 0..k+1, so the answer is final once row k+1 is
    complete."""
    t = k + 1
    for i in range(k):
        x, y = a[i][k], a[i][t]
        if x != y:
            return y > x
    rk, rt = a[k], a[t]
    for j in range(k):
        if rk[j] != rt[j]:
            return rt[j] > rk[j]
    if rk[k] != rt[t]:
        return rt[t] > rk[k]
    for j in range(t + 1, len(a)):
        if rk[j] != rt[j]:
            return rt[j] > rk[j]
    return False


def _is_canonical(a: list[list[int]]) -> bool:
    """True when no vertex relabeling makes the matrix lexicographically
    larger, i.e. when it is the largest member of its class.

    Builds the relabeled matrix b[r][c] = a[p[r]][p[c]] row by row.  While
    rows 0..r-1 of b equal those of a, the unplaced vertices fall into
    ordered cells, each holding vertices with equal entries toward every
    placed one, and the k-th cell must fill the k-th block of positions
    r..v-1.  Taking p[r] from the first cell and sorting each cell by its
    entry toward p[r] gives the largest row r reachable: larger than row
    r of a means a is not canonical, smaller cuts the branch, equal
    refines the cells by that entry and places the next row.
    """
    v = len(a)

    def rec(r: int, cells: list[list[int]]) -> bool:
        if r == v:
            return True
        first, rest = cells[0], cells[1:]
        target = a[r][r:]
        for x in first:
            row = a[x]
            best = [row[x]]
            refined = []
            for cell in [[u for u in first if u != x], *rest]:
                by_value: dict[int, list[int]] = {}
                for u in cell:
                    by_value.setdefault(row[u], []).append(u)
                for value in sorted(by_value, reverse=True):
                    refined.append(by_value[value])
                    best += [value] * len(by_value[value])
            if best > target:
                return False
            if best == target and not rec(r + 1, refined):
                return False
        return True

    return rec(0, [list(range(v))])


def _class_matrices(v: int, allow_loops: bool) -> Iterator[list[list[int]]]:
    """The largest count matrix of every class, in descending order.

    Backtracks over the upper triangle row by row, larger entries first,
    so matrices come in descending order.  Cells ahead of the cursor are
    always zero (every branch resets on unwind), so a row whose degree
    budget is spent is complete.  Completing row i cuts the branch when
    swapping vertices i-1 and i would improve it; a full matrix is kept
    when _is_canonical holds.
    """
    a = [[0] * v for _ in range(v)]
    rem = [3] * v

    # Yields the live matrix (no copy): consumers look, or copy to keep.
    def rec(i: int, j: int) -> Iterator[list[list[int]]]:
        if rem[i] == 0:
            if i and _swap_improves(a, i - 1):
                return
            if i + 1 < v:
                yield from rec(i + 1, i + 1)
            elif _is_canonical(a):
                yield a
            return
        if j == v:
            return
        if i == j:
            if allow_loops and rem[i] >= 2:
                a[i][i] = 1
                rem[i] -= 2
                yield from rec(i, j + 1)
                rem[i] += 2
                a[i][i] = 0
            yield from rec(i, j + 1)
            return
        for c in range(min(rem[i], rem[j]), 0, -1):
            a[i][j] = a[j][i] = c
            rem[i] -= c
            rem[j] -= c
            yield from rec(i, j + 1)
            rem[i] += c
            rem[j] += c
        a[i][j] = a[j][i] = 0
        yield from rec(i, j + 1)

    yield from rec(0, 0)


def _graph_from_matrix(a: list[list[int]]) -> TrivalentGraph:
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


def generate_graphs(v: int, allow_loops: bool = True,
                    dedup: bool = False) -> Iterator[TrivalentGraph]:
    """Connected trivalent graphs on v vertices.

    Labeled mode (default) streams every connected dart pairing in
    lexicographic order; dedup mode yields one representative per
    multigraph isomorphism class, each class's largest count matrix, in
    descending order, with a deterministic dart layout.
    """
    if v <= 0 or v % 2:
        raise ValueError(f"vertex count must be even and positive, got {v}")
    if v > MAX_V_DEFAULT:
        raise ValueError(
            f"vertex count {v} over the catalog maximum {MAX_V_DEFAULT}")
    if dedup:
        graphs = map(_graph_from_matrix, _class_matrices(v, allow_loops))
    else:
        graphs = (TrivalentGraph(v, mate)
                  for mate in _pairings(3 * v, allow_loops))
    for g in graphs:
        if is_connected(g):
            yield g


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
    * tait_factor — 4-colorings = 4 × edge-3-colorings, witnessed by an
      explicit bijection on the pinned colorings.
    * degree_bound — deg wgl <= v/2 + 2.
    """
    v = g.vertex_count
    two_connected = is_two_connected(g)
    wgl, spherical, top_signed, marking = marking_profile(g)
    planar = spherical > 0
    n3 = len(enumerate_edge_3_colorings(g))
    penrose = penrose_sum(g)
    wsl2 = 2 ** (v // 2) * penrose

    ev_gl2 = evaluate_weight(g, _GL2)
    ev_so3 = evaluate_weight(g, _SO3)
    ev_sl2 = evaluate_weight(g, _SL2)

    four = None
    tait_ok = True
    if planar and two_connected:
        pm = extract_map(g, marking)
        four = count_four_colorings(pm)
        tait_ok = verify_tait_bijection(pm) is None

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
        "sl2_zero_implies_top_zero": wsl2 != 0 or top_signed == 0,
        "tait_factor": four is None or (four == 4 * n3 and tait_ok),
        "top_counts_embeddings":
            abs(top_signed) == spherical if two_connected
            else top_signed == 0,
    }
    return VerificationReport(
        graph=serialize_graph(g).decode(),
        v=v,
        e=g.edge_count,
        two_connected=two_connected,
        planar=planar,
        wgl_poly=wgl,
        w_top=top_signed,
        spherical_embeddings=spherical,
        edge_3_colorings=n3,
        penrose=penrose,
        w_sl2=wsl2,
        four_colorings=four,
        identities=identities,
    )


def run_survey(max_v: int, allow_loops: bool = True, dedup: bool = False,
               jobs: int = 1) -> dict:
    """check_graph over every catalog graph with v = 2, 4, ..., max_v.

    Returns {"reports": [VerificationReport...], "summary": {...}} with
    reports in generation order regardless of the worker count.
    """
    if max_v <= 0 or max_v % 2:
        raise ValueError(f"max_v must be even and positive, got {max_v}")
    if max_v > MAX_V_DEFAULT:
        raise ValueError(
            f"max_v {max_v} over the catalog maximum {MAX_V_DEFAULT}")
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")

    def stream() -> Iterator[TrivalentGraph]:
        for v in range(2, max_v + 1, 2):
            yield from generate_graphs(v, allow_loops=allow_loops,
                                       dedup=dedup)

    if jobs > 1:
        with Pool(jobs) as pool:
            reports = list(pool.imap(check_graph, stream(), chunksize=8))
    else:
        reports = [check_graph(g) for g in stream()]

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
