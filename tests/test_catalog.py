"""Catalog generation and the cross-route identity survey."""

import hashlib
import json
import os
import random
from collections import Counter
from dataclasses import replace
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from oracles import (canonical_matrix, levels_by_dedup_set,
                     random_connected_graph, relabeled, rotated,
                     two_connected_by_deletion)
from weightsys import catalog, kernels, statesum
from weightsys.algebra import make_gl, make_sl2, make_so3, scale_metric
from weightsys.catalog import (IDENTITY_NAMES, _canonical_search, check_graph,
                               generate_graphs, run_survey)
from weightsys.cli import main
from weightsys.graphs import (TrivalentGraph, flip_vertices, is_connected,
                              is_two_connected, parse_graph, serialize_graph)
from weightsys.ribbon import IntPolynomial

DATA = Path(__file__).parent / "data"
THETA = TrivalentGraph(2, (4, 3, 5, 1, 0, 2))
DUMBBELL = TrivalentGraph(2, (1, 0, 5, 4, 3, 2))
K33 = TrivalentGraph(6, (9, 12, 15, 10, 13, 16, 11, 14, 17, 0, 3, 6,
                         1, 4, 7, 2, 5, 8))
BRIDGED = TrivalentGraph(6, (3, 4, 6, 0, 1, 7, 2, 5, 15, 12, 13, 16,
                             9, 10, 17, 8, 11, 14))


def count_matrix(g):
    v = g.vertex_count
    a = [[0] * v for _ in range(v)]
    for d, dd in g.edges():
        i, j = d // 3, dd // 3
        if i == j:
            a[i][i] += 1
        else:
            a[i][j] += 1
            a[j][i] += 1
    return a


def labeled_pairings_of(a):
    """How many dart pairings realize a given count matrix: each vertex
    distributes its three darts, divided by loop and multi-edge symmetry."""
    v = len(a)
    denominator = 1
    for i in range(v):
        loops = a[i][i]
        denominator *= factorial(loops) * 2 ** loops
        for j in range(i + 1, v):
            denominator *= factorial(a[i][j])
    assert 6 ** v % denominator == 0
    return 6 ** v // denominator


def matrix_relabelings(a):
    """Distinct count matrices reachable by permuting vertex labels."""
    v = len(a)
    images = {tuple(tuple(a[p[i]][p[j]] for j in range(v)) for i in range(v))
              for p in permutations(range(v))}
    return len(images)


def test_labeled_stream_counts():
    assert len(list(generate_graphs(2))) == 15
    assert len(list(generate_graphs(2, allow_loops=False))) == 6
    assert len(list(generate_graphs(4))) == 9720
    assert len(list(generate_graphs(4, allow_loops=False))) == 3240


def test_labeled_stream_is_lexicographic():
    graphs = list(generate_graphs(2))
    assert graphs[0].alpha == (1, 0, 3, 2, 5, 4)
    alphas = [g.alpha for g in graphs]
    assert alphas == sorted(alphas)
    assert all(is_connected(g) for g in graphs)


@pytest.fixture(scope="module")
def catalog_v10():
    """The v = 10 dedup catalog, keyed by allow_loops."""
    return {allow_loops: list(generate_graphs(10, allow_loops=allow_loops,
                                              dedup=True))
            for allow_loops in (True, False)}


def test_dedup_class_counts(catalog_v10):
    for v, with_loops, loop_free in ((2, 2, 1), (4, 5, 2), (6, 17, 6),
                                     (8, 71, 20)):
        assert len(list(generate_graphs(v, dedup=True))) == with_loops
        assert len(list(generate_graphs(v, allow_loops=False,
                                        dedup=True))) == loop_free
    assert len(catalog_v10[True]) == 388
    assert len(catalog_v10[False]) == 91


def test_level_12_matches_its_golden_digests():
    # Past MAX_V_DEFAULT, so walked from _levels.  Loop-free mode filters
    # the with-loops level, so one walk gives both.  The digests are those
    # of BENCH_catalog.json's isomorph_free_oracle_oneoff run.
    *_, level = catalog._levels(12, True)
    level = list(level)
    loop_free = [g for g in level if not g.has_loop()]
    assert (len(level), len(loop_free)) == (2592, 509)
    assert [hashlib.sha256(b"".join(map(serialize_graph, graphs))).hexdigest()
            for graphs in (level, loop_free)] == [
        "d9e8cad5aba70fbe15bdb869220baf625eaa94b177fa8165affcec572a730b39",
        "450528174ee12bd617cc290c69262f44c2efc7f48cb6111c4c9b718846f430e5"]


def test_two_connected_matches_deletion_oracle(catalog_v10):
    graphs = [g for allow_loops in (True, False) for v in (2, 4, 6, 8)
              for g in generate_graphs(v, allow_loops=allow_loops, dedup=True)]
    graphs += catalog_v10[True] + catalog_v10[False]
    graphs += list(generate_graphs(2)) + list(generate_graphs(4))
    verdicts = Counter()
    for g in graphs:
        verdict = is_two_connected(g)
        assert verdict == two_connected_by_deletion(g), g
        verdicts[verdict] += 1
    assert verdicts == {True: 3426, False: 6912}


def test_dedup_reps_are_pairwise_non_isomorphic():
    reps = list(generate_graphs(4, dedup=True))
    forms = [canonical_matrix(count_matrix(g)) for g in reps]
    assert len(set(forms)) == len(forms)


@pytest.mark.parametrize("allow_loops", [True, False])
@pytest.mark.parametrize("v", [2, 4, 6])
def test_dedup_reps_are_largest_of_class_in_descending_order(v, allow_loops):
    mats = [tuple(map(tuple, count_matrix(g)))
            for g in generate_graphs(v, allow_loops=allow_loops, dedup=True)]
    assert all(canonical_matrix(m) == m for m in mats)
    assert all(x > y for x, y in zip(mats, mats[1:]))


def shuffled_matrix(a, rng):
    p = list(range(len(a)))
    rng.shuffle(p)
    return [[a[i][j] for j in p] for i in p]


@pytest.mark.parametrize("v", [2, 4, 6])
def test_canonical_form_matches_oracle(v):
    rng = random.Random(v)
    for g in generate_graphs(v, dedup=True):
        a = count_matrix(g)
        form = canonical_matrix(a)
        assert _canonical_search(a)[0] == form
        for _ in range(5):
            assert _canonical_search(shuffled_matrix(a, rng))[0] == form


def test_grown_levels_are_canonical_in_descending_order(catalog_v8,
                                                        catalog_v10):
    rng = random.Random(1)
    for level in ([g for g in catalog_v8 if g.vertex_count == 8],
                  catalog_v10[True]):
        mats = [tuple(map(tuple, count_matrix(g))) for g in level]
        assert all(_canonical_search(shuffled_matrix(m, rng))[0] == m
                   for m in mats)
        assert all(x > y for x, y in zip(mats, mats[1:]))


def test_dedup_catalog_matches_golden_digest():
    digest = hashlib.sha256()
    for allow_loops in (True, False):
        for v in (2, 4, 6, 8):
            for g in generate_graphs(v, allow_loops=allow_loops, dedup=True):
                digest.update(serialize_graph(g))
    assert digest.hexdigest() == (
        "9ec0fd1291f8b75b6b86d47a4f85fb08960d3a0475e211eb66a76b0c661f9c97")


def test_dedup_catalog_v10_matches_golden_digest(catalog_v10):
    # Computed once from the orderly generator this catalog replaced.
    digest = hashlib.sha256()
    for allow_loops in (True, False):
        for g in catalog_v10[allow_loops]:
            digest.update(serialize_graph(g))
    assert digest.hexdigest() == (
        "a677062878bf87482a50a1e15a532920876811629e4a0f15b3de58808d53a41b")


@pytest.fixture(scope="module")
def oracle_levels():
    """The with-loops levels v = 2..10 as sorted sets of canonical forms."""
    return levels_by_dedup_set(10, lambda a: _canonical_search(a)[0])


def has_loop(m):
    return any(m[i][i] for i in range(len(m)))


@pytest.mark.parametrize("allow_loops", [True, False])
def test_grown_levels_match_the_dedup_set_oracle(oracle_levels, allow_loops):
    levels = [[tuple(map(tuple, count_matrix(g))) for g in level]
              for level in catalog._levels(10, allow_loops)]
    assert levels == [[m for m in level if allow_loops or not has_loop(m)]
                      for level in oracle_levels]


def test_growth_accepts_each_class_once(oracle_levels):
    below = oracle_levels[0]
    for expected in oracle_levels[1:]:
        level = [(m, catalog._automorphisms(catalog._canonical_search(m)[1]))
                 for m in below]
        forms = [form for form, _ in catalog._grow(level)]
        assert len(forms) == len(set(forms))
        assert sorted(forms, reverse=True) == expected
        below = expected


@pytest.mark.parametrize("v", [2, 4, 6])
def test_automorphisms_match_every_permutation(v):
    rng = random.Random(v)
    for g in generate_graphs(v, dedup=True):
        a = count_matrix(g)
        shuffled = shuffled_matrix(a, rng)
        form, leaves = catalog._canonical_search(shuffled)
        assert all(shuffled[p[r]][p[c]] == form[r][c]
                   for p in leaves for r in range(v) for c in range(v))
        auts = catalog._automorphisms(leaves)
        assert sorted(auts) == [
            list(p) for p in permutations(range(v))
            if all(form[p[r]][p[c]] == form[r][c]
                   for r in range(v) for c in range(v))]


def reducible_pairs(c):
    """The pairs whose removal leaves a connected graph on v - 2 vertices:
    with a loop, every (x, y) with y carrying the loop and x its neighbour;
    without, every edge {x, y} still connected with one copy deleted."""
    v = len(c)
    if has_loop(c):
        return [(next(u for u in range(v) if c[y][u] and u != y), y)
                for y in range(v) if c[y][y]]
    pairs = []
    for x in range(v):
        for y in range(x + 1, v):
            if c[x][y]:
                cut = [list(row) for row in c]
                cut[x][y] -= 1
                cut[y][x] -= 1
                reached, stack = {x}, [x]
                while stack:
                    for t, k in enumerate(cut[stack.pop()]):
                        if k and t not in reached:
                            reached.add(t)
                            stack.append(t)
                if len(reached) == v:
                    pairs.append((x, y))
    return pairs


def bridged_k33_pair():
    """Two copies of K3,3, each with one edge subdivided, joined by a
    bridge between the subdividing vertices: the only class to v = 14
    with a bridge but no loop, multiple edge or triangle, so the only one
    where a bridge ties the reducible edges on the cheap invariant."""
    edges = []
    for o in (0, 7):
        edges += [(o + i, o + j) for i in range(3) for j in range(3, 6)
                  if (i, j) != (0, 3)]
        edges += [(o, o + 6), (o + 6, o + 3)]
    a = [[0] * 14 for _ in range(14)]
    for i, j in edges + [(6, 13)]:
        a[i][j] += 1
        a[j][i] += 1
    return a


def test_every_class_is_accepted_from_one_orbit_of_its_pairs(catalog_v8):
    graphs = [count_matrix(g) for g in catalog_v8] + [bridged_k33_pair()]
    for a in graphs:
        form, leaves = catalog._canonical_search(a)
        auts = catalog._automorphisms(leaves)
        v = len(form)
        accepted = set()
        for pair in reducible_pairs(form):
            p = [u for u in range(v) if u not in pair] + list(pair)
            child = [[form[p[r]][p[c]] for c in range(v)] for r in range(v)]
            if catalog._accepted(child):
                accepted.add(frozenset(pair))
        assert accepted, form
        pair = next(iter(accepted))
        assert accepted == {frozenset(q[u] for u in pair) for q in auts}


def test_candidates_are_reducible_pairs(catalog_v8):
    graphs = [count_matrix(g) for g in catalog_v8 if not g.has_loop()]
    for a in graphs + [bridged_k33_pair()]:
        v = len(a)
        for pair in reducible_pairs(a):
            p = [u for u in range(v) if u not in pair] + list(pair)
            child = [[a[p[r]][p[c]] for c in range(v)] for r in range(v)]
            tied = catalog._candidates(child)
            assert set(tied) <= set(reducible_pairs(child))
            assert not tied or tied[-1] == (v - 2, v - 1)


def test_dedup_respects_loop_flag():
    for g in generate_graphs(6, allow_loops=False, dedup=True):
        assert not g.has_loop()


def test_dedup_is_deterministic():
    first = [g.alpha for g in generate_graphs(6, dedup=True)]
    second = [g.alpha for g in generate_graphs(6, dedup=True)]
    assert first == second


@pytest.mark.parametrize("v", [2, 4])
def test_every_labeled_graph_has_exactly_one_representative(v):
    reps = list(generate_graphs(v, dedup=True))
    rep_mats = [count_matrix(g) for g in reps]
    rep_forms = [canonical_matrix(m) for m in rep_mats]
    orbit = [0] * len(reps)
    labeled = Counter(tuple(map(tuple, count_matrix(g)))
                      for g in generate_graphs(v))
    for m, pairings in labeled.items():
        form = canonical_matrix(m)
        hits = [k for k, f in enumerate(rep_forms) if f == form]
        assert len(hits) == 1
        orbit[hits[0]] += pairings
    # Orbit size = (labeled matrices in the class) x (pairings per matrix).
    assert orbit == [matrix_relabelings(m) * labeled_pairings_of(m)
                     for m in rep_mats]


@pytest.mark.parametrize("v", [0, 3, -2])
def test_generate_rejects_bad_vertex_counts(v):
    with pytest.raises(ValueError):
        list(generate_graphs(v))


def test_generate_rejects_oversized_request():
    with pytest.raises(ValueError, match="maximum"):
        list(generate_graphs(12))
    # the default ceiling itself is allowed
    assert next(generate_graphs(10, dedup=True)).vertex_count == 10


def test_labeled_catalog_refuses_v_over_its_maximum():
    with pytest.raises(ValueError, match="maximum 4"):
        list(generate_graphs(6))
    with pytest.raises(ValueError, match="maximum 4"):
        run_survey(6)


def test_check_graph_theta():
    r = check_graph(THETA)
    assert r.v == 2 and r.e == 3
    assert r.two_connected and r.planar
    assert r.wgl_poly == IntPolynomial({3: 2, 1: -2})
    assert r.w_top == 2
    assert r.spherical_embeddings == 2
    assert r.edge_3_colorings == 6
    assert r.penrose == -6
    assert r.w_sl2 == -12
    assert r.four_colorings == 24
    assert set(r.identities) == set(IDENTITY_NAMES)
    assert r.all_passed()
    assert r.graph.startswith("v 2\n")


def test_check_graph_enumerates_each_coloring_kind_once(enumerations):
    cube = parse_graph((DATA / "cube.tgf").read_bytes())
    assert check_graph(cube).all_passed()
    assert enumerations == {"enumerate_four_colorings": 1,
                            "edge_3_coloring_counts": 1}


def test_check_graph_scans_the_markings_once(marking_scans):
    cube = parse_graph((DATA / "cube.tgf").read_bytes())
    for g in (THETA, DUMBBELL, cube, K33):
        assert check_graph(g).all_passed()
    assert marking_scans == [2, 2, 8, 6]


def test_check_graph_plans_the_contraction_once(monkeypatch):
    sums = []
    evaluate = catalog.evaluate_weight

    def recording(g, alg):
        value = evaluate(g, alg)
        sums.append((alg.name, value))
        return value

    monkeypatch.setattr(catalog, "evaluate_weight", recording)
    cube = parse_graph((DATA / "cube.tgf").read_bytes())
    statesum.contraction_plan.cache_clear()
    r = check_graph(cube)
    assert r.all_passed()
    assert statesum.contraction_plan.cache_info().misses == 1
    gl2 = r.wgl_poly(2)
    assert sums == [(make_gl(2).name, gl2), (make_so3().name, r.penrose),
                    (make_sl2().name, r.w_sl2)]


def test_route_agreement_reads_the_checks_own_gl2_sum(monkeypatch):
    # gl(2) with its metric doubled is still a metrized gl(2), but its
    # weight on a graph of v vertices is 2^(-v/2) times the trace form's:
    # K4's is 6, not 24.  With it in the check, route_agreement must fail
    # and no other identity may move.
    k4 = parse_graph((DATA / "k4.tgf").read_bytes())
    assert check_graph(k4).all_passed()
    monkeypatch.setattr(catalog, "_GL2", scale_metric(make_gl(2), 2))
    identities = check_graph(k4).identities
    assert identities.pop("route_agreement") is False
    assert all(identities.values()), identities


@pytest.mark.parametrize("allow_loops", [True, False])
def test_a_v8_survey_plans_only_the_loop_free_classes(allow_loops):
    # Every state sum of a graph with a loop has a zero vertex tensor, so
    # only the 1 + 2 + 6 + 20 loop-free classes are planned, once each:
    # each needs a plan, so 29 plans leave none for a class with a loop.
    statesum.contraction_plan.cache_clear()
    out = run_survey(8, allow_loops=allow_loops, dedup=True)
    assert out["summary"]["graphs_checked"] == (95 if allow_loops else 29)
    assert statesum.contraction_plan.cache_info().misses == 29


def test_check_graph_dumbbell():
    r = check_graph(DUMBBELL)
    assert not r.two_connected
    assert r.planar
    assert r.four_colorings is None
    assert r.w_sl2 == 0 and r.w_top == 0
    assert r.spherical_embeddings == 4
    assert r.all_passed()


def test_check_graph_k33():
    r = check_graph(K33)
    assert r.two_connected and not r.planar
    assert r.four_colorings is None
    assert r.wgl_poly == IntPolynomial()
    assert r.edge_3_colorings == 12 and r.penrose == 0
    assert r.all_passed()


def test_check_graph_bridged():
    r = check_graph(BRIDGED)
    assert not r.two_connected
    assert r.w_top == 0
    assert r.all_passed()


STATE_SUMS = (make_gl(2), make_so3(), make_sl2())


def invariants(g):
    """check_graph's report of g with its graph text blanked, and the
    state sums it compares with the other routes."""
    return (replace(check_graph(g), graph=""),
            [statesum.evaluate_weight(g, alg) for alg in STATE_SUMS])


def negated(report, sums):
    return (replace(report, wgl_poly=IntPolynomial(
        (e, -c) for e, c in report.wgl_poly.terms), w_top=-report.w_top,
        penrose=-report.penrose, w_sl2=-report.w_sl2), [-x for x in sums])


def test_relabeling_turning_and_flipping_act_on_every_route(monkeypatch,
                                                            backend):
    # Relabeling the vertices or turning one vertex's darts round gives
    # the same ribbon graph, so no invariant moves; reversing one vertex
    # negates the signed ones and keeps the rest, identities included.
    # One draw plans a rank-6 intermediate, the widest of the v = 14
    # level.
    monkeypatch.setattr(kernels, "marking_scan", backend.marking_scan)
    rng = random.Random(3)
    widest = 0
    for v in range(2, 17, 2):
        for _ in range(6):
            g = random_connected_graph(v, rng)
            i = rng.randrange(v)
            base = invariants(g)
            assert invariants(relabeled(g, rng)) == base, g
            assert invariants(rotated(g, i)) == base, (g, i)
            assert invariants(flip_vertices(g, (i,))) == negated(*base), (g, i)
            widest = max(widest, *(len(ka) + len(kb) for *_, ka, _, kb
                                   in statesum.contraction_plan(g).steps))
    assert widest == 6


def test_survey_labeled_v2():
    out = run_survey(2)
    s = out["summary"]
    assert s["graphs_checked"] == 15
    assert s["graph_counts"] == {"2": 15}
    assert s["failures"] == []
    assert s["identity_passes"] == {name: 15 for name in IDENTITY_NAMES}
    assert len(out["reports"]) == 15


def test_survey_dedup_v4():
    out = run_survey(4, dedup=True)
    s = out["summary"]
    assert s["graphs_checked"] == 7
    assert s["graph_counts"] == {"2": 2, "4": 5}
    assert s["failures"] == []


def test_survey_parallel_matches_serial():
    serial = run_survey(4, dedup=True, jobs=1)
    parallel = run_survey(4, dedup=True, jobs=2)
    assert serial["reports"] == parallel["reports"]
    assert serial["summary"] == parallel["summary"]


@pytest.mark.parametrize("cores", ["host", None, 1, 3])
def test_survey_caps_the_pool_at_the_core_count(monkeypatch, cores):
    # A fake Pool records the size asked for and maps in-process, so no
    # worker is ever started.
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    if cores != "host":
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
    monkeypatch.setattr(catalog, "Pool", FakePool)
    serial = run_survey(4, dedup=True, jobs=1)
    assert sizes == []
    capped = run_survey(4, dedup=True, jobs=10**6)
    limit = os.cpu_count() or 1
    assert sizes == ([limit] if limit > 1 else [])
    assert capped == serial


def test_survey_walk_matches_public_generator(capsys):
    outputs = []
    for jobs in ("1", "2"):
        assert main(["survey", "--max-v", "8", "--dedup", "--jobs", jobs,
                     "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    graphs = [r["graph"] for r in json.loads(outputs[0])["reports"]]
    assert graphs == [serialize_graph(g).decode() for v in (2, 4, 6, 8)
                      for g in generate_graphs(v, dedup=True)]


@pytest.mark.parametrize("allow_loops", [True, False])
@pytest.mark.parametrize("dedup, max_v", [(False, 4), (True, 8)])
def test_walk_yields_the_levels_of_generate_graphs(dedup, max_v,
                                                   allow_loops):
    levels = [list(level)
              for level in catalog._walk(max_v, allow_loops, dedup)]
    assert levels == [list(generate_graphs(v, allow_loops, dedup))
                      for v in range(2, max_v + 1, 2)]


@pytest.mark.parametrize("max_v, dedup", [(2, False), (6, True)])
def test_survey_reports_follow_the_walk(max_v, dedup):
    reports = run_survey(max_v, dedup=dedup)["reports"]
    assert [r.graph for r in reports] == [
        serialize_graph(g).decode() for v in range(2, max_v + 1, 2)
        for g in generate_graphs(v, dedup=dedup)]


# 2-connected and not planar, yet W_sl2 = -288: w_top = 0 does not force
# W_sl2 = 0.  The identity the survey checks runs the other way,
# W_sl2 = 0 => w_top = 0.
SL2_NONZERO_TOP_ZERO = ("v 8\ne 0 3\ne 1 6\ne 2 9\ne 4 12\ne 5 15\ne 7 13\n"
                        "e 8 18\ne 10 16\ne 11 21\ne 14 22\ne 17 19\n"
                        "e 20 23\n")


def test_nonzero_sl2_weight_allows_a_zero_top_coefficient(catalog_v8):
    found = [g for g in catalog_v8
             if serialize_graph(g).decode() == SL2_NONZERO_TOP_ZERO]
    assert len(found) == 1
    r = check_graph(found[0])
    assert (r.two_connected, r.planar, r.w_sl2, r.w_top) == \
        (True, False, -288, 0)
    assert r.all_passed()


@pytest.mark.parametrize("bad", [0, 3, -4, 12])
def test_survey_rejects_bad_max_v(bad):
    with pytest.raises(ValueError):
        run_survey(bad)


@pytest.mark.parametrize("jobs", [0, -3])
def test_survey_rejects_bad_jobs(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_survey(2, jobs=jobs)
