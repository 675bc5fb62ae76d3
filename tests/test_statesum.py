"""Tensor route: the planned contraction against the rescanning greedy
and brute-force oracles."""

import random
from pathlib import Path

import pytest

from weightsys.algebra import (algebra_by_name, make_abelian, make_gl,
                               make_sl2, make_so3, scale_metric)
from weightsys.catalog import generate_graphs
from weightsys.coloring import w_sl2
from weightsys.graphs import (TrivalentGraph, flip_vertices, is_connected,
                              parse_graph)
from weightsys.ribbon import marking_profile
from weightsys.statesum import contraction_plan, evaluate_weight
from oracles import (folded_greedy_contraction, greedy_contraction,
                     naive_weight, naive_weight_full)

DATA = Path(__file__).parent / "data"

THETA = TrivalentGraph(2, (4, 3, 5, 1, 0, 2))
THETA_TWISTED = TrivalentGraph(2, (3, 4, 5, 0, 1, 2))
DUMBBELL = TrivalentGraph(2, (1, 0, 5, 4, 3, 2))
# Four vertices in a cycle with two opposite edges doubled.
DOMINO = TrivalentGraph(4, (3, 4, 6, 0, 1, 9, 2, 10, 11, 5, 7, 8))
# A loop at vertex 3, double edge between 0 and 1.
LOOPED4 = TrivalentGraph(4, (3, 4, 6, 0, 1, 7, 2, 5, 9, 8, 11, 10))
TWO_THETAS = TrivalentGraph(4, (4, 3, 5, 1, 0, 2, 10, 9, 11, 7, 6, 8))


def load(name):
    return parse_graph((DATA / name).read_bytes())


@pytest.mark.parametrize("graph,algebra,expected", [
    (THETA, make_gl(2), 12),
    (THETA, make_so3(), -6),
    (THETA, make_sl2(), -12),
    (THETA_TWISTED, make_gl(2), -12),
    (THETA_TWISTED, make_so3(), 6),
    (THETA_TWISTED, make_sl2(), 12),
    (DUMBBELL, make_gl(2), 0),
    (DUMBBELL, make_so3(), 0),
])
def test_golden_values(graph, algebra, expected):
    assert evaluate_weight(graph, algebra) == expected


def test_golden_values_k4_and_k33():
    k4 = load("k4.tgf")
    assert evaluate_weight(k4, make_gl(2)) == 24
    assert evaluate_weight(k4, make_so3()) == 6
    assert evaluate_weight(k4, make_sl2()) == 24
    k33 = load("k33.tgf")
    assert evaluate_weight(k33, make_gl(2)) == 0
    assert evaluate_weight(k33, make_so3()) == 0


@pytest.mark.parametrize("graph", [THETA, THETA_TWISTED, DUMBBELL])
@pytest.mark.parametrize("algebra", [make_so3(), make_sl2(), make_gl(2)])
def test_matches_full_grid_oracle(graph, algebra):
    assert evaluate_weight(graph, algebra) == naive_weight_full(graph, algebra)


@pytest.mark.parametrize("graph", [DOMINO, LOOPED4])
@pytest.mark.parametrize("algebra", [make_so3(), make_sl2(), make_gl(2)])
def test_matches_sparse_oracle_v4(graph, algebra):
    assert evaluate_weight(graph, algebra) == naive_weight(graph, algebra)


def test_matches_sparse_oracle_k4():
    k4 = load("k4.tgf")
    for alg in (make_so3(), make_gl(2)):
        assert evaluate_weight(k4, alg) == naive_weight(k4, alg)


@pytest.mark.parametrize("algebra", [
    make_so3(), make_sl2(), make_gl(2), make_gl(3), make_abelian(2),
])
def test_loops_kill_the_weight(algebra):
    assert evaluate_weight(DUMBBELL, algebra) == 0
    assert evaluate_weight(LOOPED4, algebra) == 0


def test_abelian_vanishes_on_any_vertex():
    assert evaluate_weight(THETA, make_abelian(3)) == 0


def test_empty_graph_is_refused_before_contraction():
    # Its network would have no tensors and contract to 1.
    with pytest.raises(ValueError, match="positive"):
        evaluate_weight(TrivalentGraph(0, ()), make_so3())


def test_flip_negates_the_weight():
    k4 = load("k4.tgf")
    for alg in (make_so3(), make_gl(2)):
        base = evaluate_weight(k4, alg)
        for i in range(4):
            assert evaluate_weight(flip_vertices(k4, (i,)), alg) == -base
    assert evaluate_weight(flip_vertices(THETA, (1,)), make_sl2()) == 12


def test_disconnected_graph_multiplies_components():
    two_thetas = TrivalentGraph(4, (4, 3, 5, 1, 0, 2, 10, 9, 11, 7, 6, 8))
    assert evaluate_weight(two_thetas, make_gl(2)) == 144
    assert evaluate_weight(two_thetas, make_so3()) == 36


def test_values_are_exact_ints_when_integral():
    value = evaluate_weight(THETA, make_sl2())
    assert isinstance(value, int) and value == -12


def test_metric_scaling_law():
    # Scaling the metric by lam scales the weight by lam^(-v/2).
    for alg in (make_so3(), make_gl(2)):
        base = evaluate_weight(THETA, alg)
        assert evaluate_weight(THETA, scale_metric(alg, 3)) * 3 == base


def graph_of_edges(v, edges):
    """The cubic graph on ``edges``, each vertex's darts taken in the
    order its edges are listed."""
    slot = [0] * v
    alpha = [0] * (3 * v)
    for a, b in edges:
        da, db = 3 * a + slot[a], 3 * b + slot[b]
        slot[a] += 1
        slot[b] += 1
        alpha[da], alpha[db] = db, da
    return TrivalentGraph(v, tuple(alpha))


def ladder(v, mobius, relabel):
    """The prism or Moebius ladder on ``v`` vertices, optionally under one
    seeded vertex relabeling (which reorders darts and contractions)."""
    n = v // 2
    if mobius:
        edges = [(i, (i + 1) % v) for i in range(v)]
    else:
        edges = [(s + i, s + (i + 1) % n) for s in (0, n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    if relabel:
        p = list(range(v))
        random.Random(1).shuffle(p)
        edges = [(p[a], p[b]) for a, b in edges]
    return graph_of_edges(v, edges)


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("mobius", [False, True])
@pytest.mark.parametrize("v", [8, 10, 12, 14])
def test_matches_other_routes_at_dim_9_and_16(v, mobius, relabel):
    g = ladder(v, mobius, relabel)
    wgl = marking_profile(g).wgl
    for n in (3, 4):
        assert evaluate_weight(g, make_gl(n)) == wgl(n)
    assert evaluate_weight(g, make_sl2()) == w_sl2(g)


def random_pairing(v, rng):
    """A uniform random dart pairing on v vertices: loops, parallel edges
    and several components all come up."""
    darts = list(range(3 * v))
    rng.shuffle(darts)
    alpha = [0] * (3 * v)
    for k in range(0, 3 * v, 2):
        alpha[darts[k]], alpha[darts[k + 1]] = darts[k + 1], darts[k]
    return TrivalentGraph(v, tuple(alpha))


def random_connected_graph(v, rng):
    """A uniform random dart pairing on v vertices, redrawn until
    connected."""
    while True:
        g = random_pairing(v, rng)
        if is_connected(g):
            return g


def folded_legs(g):
    """Each vertex's legs in the folded network: the label min(d, alpha d)
    of each of its darts in rotation order, loop ends left out."""
    a = g.alpha
    return [tuple(min(d, a[d]) for d in range(3 * i, 3 * i + 3)
                  if a[d] // 3 != i) for i in range(g.vertex_count)]


def planned_merges(g):
    """The (legs_a, legs_b) of every step of g's plan, the legs rebuilt
    from the step positions: the folded vertex legs, then each merged
    tensor's kept legs of a followed by those of b."""
    plan = contraction_plan(g)
    assert plan.alpha == g.alpha
    legs = folded_legs(g)
    merges = []
    for a, b, sa, ka, sb, kb in plan.steps:
        la, lb = legs[a], legs[b]
        shared = sorted(set(la) & set(lb))
        assert [la[k] for k in sa] == [lb[k] for k in sb] == shared
        assert sorted(sa + ka) == list(range(len(la)))
        assert sorted(sb + kb) == list(range(len(lb)))
        merges.append((la, lb))
        legs.append(tuple(la[k] for k in ka) + tuple(lb[k] for k in kb))
    assert all(not legs[t] for t in plan.scalars)
    return merges


def widest_intermediate(g):
    steps = contraction_plan(g).steps
    return max(len(ka) + len(kb) for *_, ka, _, kb in steps)


def merge_order_cases():
    cases = [(f"catalog loops={loops}", g)
             for loops in (True, False) for v in (2, 4, 6, 8)
             for g in generate_graphs(v, allow_loops=loops, dedup=True)]
    cases += [(f"ladder v={v} mobius={m} relabel={r}", ladder(v, m, r))
              for v in (8, 10, 12, 14) for m in (False, True)
              for r in (False, True)]
    rng = random.Random(11)
    cases += [(f"random v={v}", random_connected_graph(v, rng))
              for v in range(2, 17, 2) for _ in range(3)]
    cases.append(("two thetas", TWO_THETAS))
    return cases


def test_plan_merges_in_the_rescanning_greedy_order():
    # The order reads legs only, so one cheap algebra drives the oracle.
    so3 = make_so3()
    for name, g in merge_order_cases():
        merges, value = folded_greedy_contraction(g, so3)
        assert planned_merges(g) == merges, name
        assert evaluate_weight(g, so3) == value, name


@pytest.mark.parametrize("name", [
    "gl:1", "gl:2", "gl:3", "gl:4", "so3", "sl2", "abelian:2"])
def test_values_identical_to_the_rescanning_greedy(name, catalog_v8):
    alg = algebra_by_name(name)
    for g in catalog_v8:
        _, expected = greedy_contraction(g, alg)
        value = evaluate_weight(g, alg)
        assert (repr(value), type(value)) == (repr(expected), type(expected))


@pytest.fixture(scope="module")
def loop_free_catalog_v8():
    return [g for v in (2, 4, 6, 8)
            for g in generate_graphs(v, allow_loops=False, dedup=True)]


@pytest.mark.parametrize("name", [
    "gl:1", "gl:2", "gl:3", "gl:4", "so3", "sl2", "abelian:2"])
def test_values_identical_to_the_rescanning_greedy_without_loops(
        name, loop_free_catalog_v8):
    alg = algebra_by_name(name)
    for g in loop_free_catalog_v8:
        _, expected = greedy_contraction(g, alg)
        value = evaluate_weight(g, alg)
        assert (repr(value), type(value)) == (repr(expected), type(expected))


def test_values_identical_on_random_pairings():
    rng = random.Random(5)
    graphs = [random_pairing(v, rng)
              for v in range(2, 13, 2) for _ in range(6)]
    assert any(g.has_loop() for g in graphs)
    assert any(len({(d // 3, dd // 3) for d, dd in g.edges()}) < g.edge_count
               for g in graphs)
    assert not all(is_connected(g) for g in graphs)
    algebras = [algebra_by_name(n) for n in ("gl:1", "gl:2", "so3", "sl2",
                                             "abelian:2")]
    for g in graphs:
        plan = contraction_plan(g)
        for alg in algebras:
            _, expected = greedy_contraction(g, alg)
            value = evaluate_weight(g, alg, plan)
            assert (repr(value), type(value)) == (
                repr(expected), type(expected)), (g, alg.name)


def test_a_plan_for_another_graph_is_refused():
    # Same v, same darts, another pairing: the replay would run and give
    # the theta's value for the twisted theta.
    plan = contraction_plan(THETA)
    with pytest.raises(ValueError, match="different graph"):
        evaluate_weight(THETA_TWISTED, make_so3(), plan)
    assert evaluate_weight(THETA, make_so3(), plan) == -6


def test_ladders_and_random_graphs_stay_below_rank_6():
    # Today's bound on these inputs, not a bound of greedy orders: the
    # edge-tensor greedy this plan replaced reached rank 6 on two of the
    # ladders and five of the random graphs, and over seeds 1-30 of the
    # same draw 47 of 2400 folded plans reach rank 6.
    for v in (8, 10, 12, 14):
        for mobius in (False, True):
            for relabel in (False, True):
                assert widest_intermediate(ladder(v, mobius, relabel)) <= 5
    rng = random.Random(11)
    for v in (10, 12, 14, 16):
        for _ in range(20):
            g = random_connected_graph(v, rng)
            assert widest_intermediate(g) <= 5, g
