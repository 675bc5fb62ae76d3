"""Tensor route: the planned contraction against the rescanning greedy
and brute-force oracles."""

import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from weightsys import statesum
from weightsys.algebra import (algebra_by_name, change_basis, make_abelian,
                               make_gl, make_sl2, make_so3, scale_metric)
from weightsys.catalog import generate_graphs
from weightsys.coloring import w_sl2
from weightsys.graphs import (TrivalentGraph, flip_vertices, is_connected,
                              parse_graph)
from weightsys.ribbon import marking_profile
from weightsys.statesum import contraction_plan, evaluate_weight
from oracles import (folded_greedy_contraction, greedy_contraction, ladder,
                     naive_weight, naive_weight_full, random_connected_graph,
                     random_pairing, relabeled, rotated)

DATA = Path(__file__).parent / "data"

THETA = TrivalentGraph(2, (4, 3, 5, 1, 0, 2))
THETA_TWISTED = TrivalentGraph(2, (3, 4, 5, 0, 1, 2))
DUMBBELL = TrivalentGraph(2, (1, 0, 5, 4, 3, 2))
# Four vertices in a cycle with two opposite edges doubled.
DOMINO = TrivalentGraph(4, (3, 4, 6, 0, 1, 9, 2, 10, 11, 5, 7, 8))
# A loop at vertex 3, double edge between 0 and 1.
LOOPED4 = TrivalentGraph(4, (3, 4, 6, 0, 1, 7, 2, 5, 9, 8, 11, 10))
TWO_THETAS = TrivalentGraph(4, (4, 3, 5, 1, 0, 2, 10, 9, 11, 7, 6, 8))
# Two copies of a double edge with both ends joined to a third vertex,
# the two third vertices joined by a bridge.
BRIDGED = TrivalentGraph(6, (3, 4, 6, 0, 1, 7, 2, 5, 15, 12, 13, 16,
                             9, 10, 17, 8, 11, 14))


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


def test_abelian_vanishes_on_any_vertex(monkeypatch):
    monkeypatch.setattr(statesum, "contraction_plan", refuse_to_plan)
    assert evaluate_weight(THETA, make_abelian(3)) == 0


def refuse_to_plan(*args):
    raise AssertionError("a network with a zero vertex tensor was planned")


def random_pairings():
    rng = random.Random(5)
    return [random_pairing(v, rng) for v in range(2, 13, 2) for _ in range(6)]


@pytest.mark.parametrize("name", [
    "gl:1", "gl:2", "gl:3", "gl:4", "so3", "sl2", "abelian:2"])
def test_a_zero_vertex_tensor_gives_int_0_before_any_plan(name, monkeypatch):
    monkeypatch.setattr(statesum, "contraction_plan", refuse_to_plan)
    alg = algebra_by_name(name)
    looped = [g for g in random_pairings() if g.has_loop()]
    assert len(looped) > 10
    for g in [DUMBBELL, LOOPED4, *looped]:
        value = evaluate_weight(g, alg)
        assert type(value) is int and value == 0, (g, name)


def test_the_replay_stops_at_the_first_empty_intermediate(monkeypatch):
    # The side of the bridge that closes first contracts to a vector of
    # [g, g] that g fixes, and these algebras fix none but 0.
    merges = []
    merge = statesum._merge

    def counting(*args):
        merges.append(args)
        return merge(*args)

    monkeypatch.setattr(statesum, "_merge", counting)
    plan = contraction_plan(BRIDGED)
    for name in ("gl:2", "gl:3", "so3", "sl2"):
        alg = algebra_by_name(name)
        merges.clear()
        value = evaluate_weight(BRIDGED, alg)
        assert 0 < len(merges) < len(plan.steps), name
        _, expected = greedy_contraction(BRIDGED, alg)
        assert (repr(value), type(value)) == (repr(expected), type(expected))


def test_a_plan_over_the_cost_limit_is_refused_after_the_zero_test():
    # At gl:4 the first v = 40 draw plans a rank-8 intermediate; without
    # the limit it ran 39 s into a MemoryError.  The third has a loop.
    rng = random.Random(7)
    costly, _, looped = (random_connected_graph(40, rng) for _ in range(3))
    gl4 = make_gl(4)
    assert contraction_plan(costly).cost(16) > statesum.MAX_PLAN_COST
    limit = re.escape(f"limit {statesum.MAX_PLAN_COST:.0e}")
    with pytest.raises(ValueError, match=limit):
        evaluate_weight(costly, gl4)
    assert contraction_plan(looped).cost(16) > statesum.MAX_PLAN_COST
    assert looped.has_loop() and evaluate_weight(looped, gl4) == 0


def test_empty_graph_is_refused_before_contraction():
    # Its network would have no tensors and contract to 1.
    with pytest.raises(ValueError, match="positive"):
        evaluate_weight(TrivalentGraph(0, ()), make_so3())


def test_disconnected_graph_multiplies_components():
    two_thetas = TrivalentGraph(4, (4, 3, 5, 1, 0, 2, 10, 9, 11, 7, 6, 8))
    assert evaluate_weight(two_thetas, make_gl(2)) == 144
    assert evaluate_weight(two_thetas, make_so3()) == 36


def test_values_are_exact_ints_when_integral():
    value = evaluate_weight(THETA, make_sl2())
    assert isinstance(value, int) and value == -12


@pytest.mark.parametrize("relabel", [False, True])
@pytest.mark.parametrize("mobius", [False, True])
@pytest.mark.parametrize("v", [8, 10, 12, 14])
def test_matches_other_routes_at_dim_9_and_16(v, mobius, relabel):
    g = ladder(v, mobius, relabel)
    wgl = marking_profile(g).wgl
    for n in (3, 4):
        assert evaluate_weight(g, make_gl(n)) == wgl(n)
    assert evaluate_weight(g, make_sl2()) == w_sl2(g)


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


# Algebras whose folded vertex tensors have denominators other than 1 and
# 2: so3 with its metric scaled by 1/3 (3 on the all-plain pattern) and
# by 3 (up to 9, and weights that are not integers), and sl2 in a
# rational basis.
OTHER_DENOMINATORS = {
    "so3*1/3": scale_metric(make_so3(), Fraction(1, 3)),
    "so3*3": scale_metric(make_so3(), 3),
    "sl2 in a rational basis": change_basis(make_sl2(), [
        [1, Fraction(1, 2), 0], [0, 1, Fraction(2, 3)],
        [Fraction(1, 5), 0, 1]]),
}


@pytest.mark.parametrize("alg", [
    *map(algebra_by_name, ("gl:1", "gl:2", "gl:3", "gl:4", "so3", "sl2",
                           "abelian:2")),
    *OTHER_DENOMINATORS.values()], ids=lambda alg: alg.name)
def test_the_replay_reads_only_int_entries(alg):
    folded = statesum._vertex_tensors(alg)
    assert len(folded) == 14
    for entries, den in folded.values():
        assert type(den) is int and den > 0
        assert all(type(x) is int for x in entries.values())


@pytest.mark.parametrize("name", OTHER_DENOMINATORS)
def test_values_identical_to_the_rescanning_greedy_on_other_denominators(
        name, catalog_v8):
    alg = OTHER_DENOMINATORS[name]
    assert {den for _, den in statesum._vertex_tensors(alg).values()} - {1, 2}
    graphs = [*catalog_v8, *(ladder(v, mobius, relabel)
                             for v in (8, 10, 12, 14)
                             for mobius in (False, True)
                             for relabel in (False, True))]
    kinds = Counter()
    for g in graphs:
        _, expected = greedy_contraction(g, alg)
        value = evaluate_weight(g, alg)
        assert (value, repr(value), type(value)) == (
            expected, repr(expected), type(expected)), g
        kinds[type(value)] += bool(value)
    assert kinds[int] > 0
    assert (kinds[Fraction] > 0) == (name == "so3*3"), kinds


def test_an_algebra_is_hashed_once(monkeypatch):
    # _vertex_tensors is cached by algebra, so every sum hashes it.  Equal
    # algebras built apart share one entry, and once an algebra is hashed
    # a sum at it hashes none of its Fraction entries again.
    statesum._vertex_tensors.cache_clear()
    value = evaluate_weight(THETA, make_sl2())
    alg = make_sl2()
    assert evaluate_weight(THETA, alg) == value
    info = statesum._vertex_tensors.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    hashed = []
    fraction_hash = Fraction.__hash__

    def counting_hash(x):
        hashed.append(x)
        return fraction_hash(x)

    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    assert evaluate_weight(THETA, alg) == value
    assert hashed == []
    assert hash(make_sl2()) == hash(alg) and hashed


def test_values_identical_on_random_pairings():
    graphs = random_pairings()
    assert any(g.has_loop() for g in graphs)
    assert any(len({(d // 3, dd // 3) for d, dd in g.edges()}) < g.edge_count
               for g in graphs)
    assert not all(is_connected(g) for g in graphs)
    algebras = [algebra_by_name(n) for n in ("gl:1", "gl:2", "so3", "sl2",
                                             "abelian:2")]
    for g in graphs:
        for alg in algebras:
            _, expected = greedy_contraction(g, alg)
            value = evaluate_weight(g, alg)
            assert (repr(value), type(value)) == (
                repr(expected), type(expected)), (g, alg.name)


def test_relabeling_turning_and_flipping_act_on_the_state_sums():
    # Relabeling the vertices or turning one vertex's darts round gives
    # the same ribbon graph, so no state sum moves; reversing one vertex
    # negates each of them.  The draws are unrestricted pairings: loops
    # come up, and so do nonzero sums on graphs with parallel edges and on
    # graphs of several components.
    rng = random.Random(2)
    algebras = (make_gl(2), make_so3(), make_sl2())
    seen = Counter()
    for v in range(2, 13, 2):
        for _ in range(10):
            g = random_pairing(v, rng)
            i = rng.randrange(v)
            base = [evaluate_weight(g, alg) for alg in algebras]
            for same in (relabeled(g, rng), rotated(g, i)):
                assert [evaluate_weight(same, alg)
                        for alg in algebras] == base, (g, i)
            assert [evaluate_weight(flip_vertices(g, (i,)), alg)
                    for alg in algebras] == [-x for x in base], (g, i)
            ends = {(d // 3, x // 3) for d, x in g.edges()}
            seen["loop"] += g.has_loop()
            seen["parallel"] += len(ends) < g.edge_count and any(base)
            seen["split"] += not is_connected(g) and any(base)
    assert min(seen.values()) > 0, seen


def test_each_graph_in_turn_is_contracted_by_its_own_plan():
    # The plan and the patterns are memoized for the last graph seen.
    # The twisted theta has the theta's v and darts and the opposite
    # weight; the dumbbell is not planned, so the theta after it meets
    # the twisted theta's memo; the relabeled ladders are one graph under
    # other labels, which a plan made for the one does not contract.
    rng = random.Random(13)
    graphs = [THETA, THETA_TWISTED, DUMBBELL, THETA]
    graphs += [relabeled(ladder(12, mobius), rng)
               for mobius in (False, True) for _ in range(2)]
    for alg in (make_so3(), make_gl(2)):
        for g in graphs:
            _, expected = greedy_contraction(g, alg)
            assert evaluate_weight(g, alg) == expected, (g, alg.name)


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
