"""Exhaustive catalogs of small trivalent graphs and the identity survey.

Two generation modes.  The labeled stream walks every fixed-point-free
pairing of the 3v darts in lexicographic order and keeps the connected
ones — complete but factorially large (the dart count drives a double
factorial, so labeled streaming is for v <= 4 in practice).  Dedup mode
generates one representative per isomorphism class of the underlying
multigraph instead, which is what makes v = 6 and 8 sweeps affordable.
Every identity checked here is invariant under dart relabeling and
vertex reversals, and any two rotation systems over the same multigraph
differ by exactly those moves, so one representative per class decides
the identity for the whole class.

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


# --- isomorphism-class machinery on vertex count matrices ---------------
#
# A multigraph on v vertices is a symmetric matrix: entry (i, j) counts
# edges between i and j, the diagonal counts loops (each worth 2 toward
# the degree).  Trivalence forces diagonal entries <= 1.

def _matrices(v: int, allow_loops: bool) -> Iterator[list[list[int]]]:
    # Backtracking over the upper triangle, row by row.  Cells ahead of
    # the cursor are always zero (every branch resets on unwind), so a
    # row whose degree budget is spent can jump straight to the next row.
    a = [[0] * v for _ in range(v)]
    rem = [3] * v

    # Yields the live matrix (no copy): consumers look, or copy to keep.
    def rec(i: int, j: int) -> Iterator[list[list[int]]]:
        if i == v:
            yield a
            return
        if rem[i] == 0:
            yield from rec(i + 1, i + 1)
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


def _swap_improves(a: list[list[int]], k: int) -> bool:
    """Would swapping vertices k and k+1 make the matrix lexicographically
    larger (flattened row-major order)?  Short-circuits at the first
    affected entry; ties propagate by symmetry, so scanning past row k
    is never needed."""
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


def _is_local_max(a: list[list[int]]) -> bool:
    """Cheap sound symmetry filter: keep a matrix only if no adjacent
    vertex swap increases it.  The lexicographic maximum of every
    isomorphism class survives, so no class is lost; survivors still go
    through exact dedup."""
    return not any(_swap_improves(a, k) for k in range(len(a) - 1))


def _matrix_connected(a: list[list[int]]) -> bool:
    v = len(a)
    seen = [False] * v
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        i = stack.pop()
        for j in range(v):
            if j != i and a[i][j] and not seen[j]:
                seen[j] = True
                count += 1
                stack.append(j)
    return count == v


def _matrix_signature(a: list[list[int]]) -> tuple:
    """Label-invariant fingerprint: iterated neighborhood refinement.

    Colors are re-ranked through a sorted key list each round, so the
    color values themselves never depend on vertex numbering — only on
    structure.  Isomorphic matrices always get equal signatures; the
    converse is left to the exact isomorphism test within a bucket.
    """
    v = len(a)
    colors = [(a[i][i], tuple(sorted(a[i][j] for j in range(v)
                                     if j != i and a[i][j])))
              for i in range(v)]
    ranks = {k: r for r, k in enumerate(sorted(set(colors)))}
    colors = [ranks[c] for c in colors]
    for _ in range(v):
        keys = [(colors[i], tuple(sorted((a[i][j], colors[j])
                                         for j in range(v)
                                         if j != i and a[i][j])))
                for i in range(v)]
        ranks = {k: r for r, k in enumerate(sorted(set(keys)))}
        fresh = [ranks[k] for k in keys]
        if len(set(fresh)) == len(set(colors)):
            colors = fresh
            break
        colors = fresh
    return tuple(sorted(colors))


def _matrices_isomorphic(a: list[list[int]], b: list[list[int]]) -> bool:
    v = len(a)
    perm = [-1] * v
    used = [False] * v

    def rec(i: int) -> bool:
        if i == v:
            return True
        for p in range(v):
            if used[p] or a[i][i] != b[p][p]:
                continue
            if all(a[i][k] == b[p][perm[k]] for k in range(i)):
                perm[i] = p
                used[p] = True
                if rec(i + 1):
                    return True
                used[p] = False
                perm[i] = -1
        return False

    return rec(0)


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


def _class_matrices(v: int, allow_loops: bool) -> Iterator[list[list[int]]]:
    seen: dict[tuple, list[list[list[int]]]] = {}
    for a in _matrices(v, allow_loops):
        if not _is_local_max(a):
            continue
        if not _matrix_connected(a):
            continue
        sig = _matrix_signature(a)
        bucket = seen.setdefault(sig, [])
        if any(_matrices_isomorphic(a, b) for b in bucket):
            continue
        kept = [row[:] for row in a]
        bucket.append(kept)
        yield kept


def generate_graphs(v: int, allow_loops: bool = True,
                    dedup: bool = False) -> Iterator[TrivalentGraph]:
    """Connected trivalent graphs on v vertices.

    Labeled mode (default) streams every connected dart pairing in
    lexicographic order; dedup mode yields one representative per
    multigraph isomorphism class, first-seen order, with a deterministic
    dart layout.
    """
    if v <= 0 or v % 2:
        raise ValueError(f"vertex count must be even and positive, got {v}")
    if v > MAX_V_DEFAULT:
        raise ValueError(
            f"vertex count {v} over the catalog maximum {MAX_V_DEFAULT}")
    if dedup:
        for a in _class_matrices(v, allow_loops):
            yield _graph_from_matrix(a)
    else:
        for mate in _pairings(3 * v, allow_loops):
            g = TrivalentGraph(v, mate)
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

    ev_gl2 = evaluate_weight(g, make_gl(2))
    ev_so3 = evaluate_weight(g, make_so3())
    ev_sl2 = evaluate_weight(g, make_sl2())

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
