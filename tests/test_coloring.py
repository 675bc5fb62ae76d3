"""Edge-3-colorings, Penrose signs, map faces, Tait correspondence."""

import random
from pathlib import Path

import pytest

from weightsys import coloring
from weightsys.catalog import generate_graphs
from weightsys.coloring import (MAX_SEARCH_V, PlanarMap,
                                enumerate_edge_3_colorings,
                                enumerate_four_colorings, extract_map,
                                penrose_sum, tait_edge_coloring,
                                verify_tait_bijection, w_sl2)
from weightsys.graphs import TrivalentGraph, parse_graph
from weightsys.ribbon import marking_profile, rotation_of_marking
from oracles import (brute_edge_3_coloring_count, brute_four_coloring_count,
                     brute_signed_coloring_sum, edge_3_colorings_by_bitmasks,
                     four_colorings_by_neighbours, ladder,
                     random_connected_graph)

DATA = Path(__file__).parent / "data"

THETA = TrivalentGraph(2, (4, 3, 5, 1, 0, 2))
THETA_TWISTED = TrivalentGraph(2, (3, 4, 5, 0, 1, 2))


def load(name):
    return parse_graph((DATA / name).read_bytes())


def penrose(g):
    return penrose_sum(g, enumerate_edge_3_colorings(g))


def planar_map(name):
    g = load(name + ".tgf")
    return extract_map(rotation_of_marking(g, marking_profile(g).first))


@pytest.mark.parametrize("name,count", [
    ("theta", 6), ("dumbbell", 0), ("k4", 6), ("cube", 24), ("k33", 12),
])
def test_coloring_counts(name, count):
    assert len(enumerate_edge_3_colorings(load(name + ".tgf"))) == count


@pytest.mark.parametrize("name", ["theta", "dumbbell", "k4", "k33"])
def test_coloring_count_matches_brute_force(name):
    g = load(name + ".tgf")
    assert len(enumerate_edge_3_colorings(g)) == brute_edge_3_coloring_count(g)


def test_colorings_are_sorted_and_distinct():
    for name in ("theta", "k4", "cube"):
        cs = enumerate_edge_3_colorings(load(name + ".tgf"))
        assert cs == sorted(set(cs))
    assert enumerate_edge_3_colorings(THETA)[0] == (1, 2, 3)


def test_search_at_the_cap_fits_the_recursion_limit():
    # One frame per edge of a v = MAX_SEARCH_V graph, far below the
    # recursion limit now that time and list size set the cap: a chain in
    # which each position conflicts with the two before it has just the 6
    # colorings fixed by the first two positions, so the search is cheap.
    n = 3 * MAX_SEARCH_V // 2
    earlier = [list(range(max(0, k - 2), k)) for k in range(n)]
    assert len(coloring._proper_colorings(earlier, (1, 2, 3))) == 6


def prism_map(v):
    # Reversing vertices 1..v/2 makes the prism spherical: marking_profile
    # finds that marking first on every prism up to v = 14.
    marking = tuple(-1 if 1 <= i <= v // 2 else 1 for i in range(v))
    return extract_map(rotation_of_marking(ladder(v), marking))


def test_both_searches_refuse_a_graph_over_the_cap():
    assert MAX_SEARCH_V == 28
    assert len(enumerate_four_colorings(prism_map(28))) == 4 * 16392
    capped = f"coloring search capped at v = {MAX_SEARCH_V}"
    with pytest.raises(ValueError, match=capped):
        enumerate_edge_3_colorings(ladder(30))
    with pytest.raises(ValueError, match=capped):
        enumerate_four_colorings(prism_map(30))


def test_coloring_sign_theta():
    # Vertex 0 reads colors (1,2,3), vertex 1 reads (2,1,3): one odd
    # permutation, so the sign is -1; reversing a vertex flips it.
    assert penrose_sum(THETA, [(1, 2, 3)]) == -1
    assert penrose_sum(THETA_TWISTED, [(1, 2, 3)]) == 1


def test_coloring_sign_rejects_bad_input():
    with pytest.raises(ValueError, match="improper coloring at vertex 0"):
        penrose_sum(THETA, [(1, 1, 2)])


@pytest.mark.parametrize("c", [(1, 2, 3, 1, 2), (1, 2)],
                         ids=["too-long", "too-short"])
def test_coloring_sign_rejects_a_coloring_of_the_wrong_length(c):
    with pytest.raises(ValueError, match="not one per edge"):
        penrose_sum(THETA, [c])


@pytest.mark.parametrize("name,value", [
    ("theta", -6), ("dumbbell", 0), ("k4", 6), ("cube", 24), ("k33", 0),
])
def test_penrose_goldens(name, value):
    assert penrose(load(name + ".tgf")) == value


@pytest.mark.parametrize("name", ["theta", "k4", "k33"])
def test_penrose_matches_brute_force(name):
    g = load(name + ".tgf")
    assert penrose(g) == brute_signed_coloring_sum(g)


@pytest.mark.parametrize("name,value", [
    ("theta", -12), ("dumbbell", 0), ("k4", 24), ("cube", 384), ("k33", 0),
])
def test_w_sl2_goldens(name, value):
    assert w_sl2(load(name + ".tgf")) == value


def test_extract_map_theta():
    pm = extract_map(THETA)
    assert pm.graph == THETA
    assert pm.faces == ((0, 5), (1, 4), (2, 3))
    assert pm.edge_faces == ((0, 1), (1, 2), (2, 0))
    assert pm.outer_face == 0
    assert not pm.is_self_bordering()


def test_extract_map_rejects_non_spherical_marking():
    with pytest.raises(ValueError, match="not spherical"):
        extract_map(rotation_of_marking(THETA, (-1, 1)))


def test_extract_map_rejects_a_disconnected_rotation_system():
    # A theta beside a twisted theta has 3 + 1 = v/2 + 2 faces, but its
    # surface is a sphere and a torus.
    with pytest.raises(ValueError, match="not spherical"):
        extract_map(TrivalentGraph(4, (4, 3, 5, 1, 0, 2, 9, 10, 11, 6, 7, 8)))


def test_dumbbell_map_is_self_bordering():
    pm = planar_map("dumbbell")
    assert pm.is_self_bordering()
    assert enumerate_four_colorings(pm) == []


@pytest.mark.parametrize("name,four", [
    ("theta", 24), ("k4", 24), ("cube", 96),
])
def test_four_coloring_counts(name, four):
    pm = planar_map(name)
    assert len(enumerate_four_colorings(pm)) == four
    assert four == brute_four_coloring_count(pm.edge_faces, len(pm.faces))


def test_pinning_the_outer_face_quarters_the_count():
    # Adding h in H to every face color permutes the proper colorings, so
    # each color of the outer face is taken by exactly a quarter of them.
    for name in ("theta", "k4", "cube"):
        pm = planar_map(name)
        full = enumerate_four_colorings(pm)
        for h in range(4):
            pinned = [fc for fc in full if fc[pm.outer_face] == h]
            assert len(pinned) * 4 == len(full)


def test_tait_edge_coloring_by_hand():
    pm = extract_map(THETA)
    # Faces colored 0,1,3: edges see 0^1=1, 1^3=2, 3^0=3.
    assert tait_edge_coloring(pm, (0, 1, 3)) == (1, 2, 3)
    with pytest.raises(ValueError):
        tait_edge_coloring(pm, (0, 0, 1))
    with pytest.raises(ValueError):
        tait_edge_coloring(pm, (0, 1))


@pytest.mark.parametrize("fc", [(0, 1, 5), (0, 1, -1), (4, 1, 2)])
def test_tait_edge_coloring_rejects_colors_outside_h(fc):
    # XOR of distinct colors is nonzero whatever they are, so only the
    # range check turns these away.
    with pytest.raises(ValueError, match="outside H"):
        tait_edge_coloring(extract_map(THETA), fc)


def test_tait_images_are_proper():
    pm = planar_map("k4")
    for fc in enumerate_four_colorings(pm):
        ec = tait_edge_coloring(pm, fc)
        penrose_sum(pm.graph, [ec])  # raises if improper


def edge_count(name):
    return len(enumerate_edge_3_colorings(load(name + ".tgf")))


@pytest.mark.parametrize("name", ["theta", "k4", "cube"])
def test_tait_bijection_verifies(name):
    pm = planar_map(name)
    assert verify_tait_bijection(pm, enumerate_four_colorings(pm),
                                 edge_count(name)) is None


@pytest.mark.parametrize("name", ["k4", "cube"])
def test_tait_bijection_rejects_a_dropped_pinned_coloring(name):
    pm = planar_map(name)
    full = enumerate_four_colorings(pm)
    k = next(i for i, fc in enumerate(full) if fc[pm.outer_face] == 0)
    assert verify_tait_bijection(pm, full[:k] + full[k + 1:],
                                 edge_count(name)) is not None


@pytest.mark.parametrize("name", ["k4", "cube"])
@pytest.mark.parametrize("outer", [0, 1])
def test_tait_bijection_rejects_a_duplicated_coloring(name, outer):
    pm = planar_map(name)
    full = enumerate_four_colorings(pm)
    fc = next(fc for fc in full if fc[pm.outer_face] == outer)
    assert verify_tait_bijection(pm, full + [fc],
                                 edge_count(name)) is not None


@pytest.mark.parametrize("name", ["k4", "cube"])
def test_tait_bijection_rejects_a_dropped_unpinned_coloring(name):
    # The pinned colorings still map onto the edge colorings, so only the
    # four-to-one count can notice.
    pm = planar_map(name)
    full = enumerate_four_colorings(pm)
    k = next(i for i, fc in enumerate(full) if fc[pm.outer_face] != 0)
    assert verify_tait_bijection(pm, full[:k] + full[k + 1:],
                                 edge_count(name)) == (
        f"count mismatch: {len(full) - 1} != 4 * {len(full) // 4}")


def test_tait_bijection_rejects_a_repeated_unpinned_coloring():
    # The count holds and the pinned ones are untouched, so only the
    # comparison with the pinned colorings moved by H can notice.
    pm = planar_map("k4")
    full = enumerate_four_colorings(pm)
    unpinned = [k for k, fc in enumerate(full) if fc[pm.outer_face] != 0]
    repeated = list(full)
    repeated[unpinned[0]] = full[unpinned[1]]
    assert verify_tait_bijection(pm, repeated, edge_count("k4")) == (
        "colorings are not the pinned ones moved by H")


def test_tait_bijection_rejects_a_coloring_outside_h():
    pm = planar_map("k4")
    full = enumerate_four_colorings(pm)
    k = next(i for i, fc in enumerate(full) if fc[pm.outer_face] != 0)
    assert verify_tait_bijection(
        pm, full[:k] + [(9, 9, 9, 9)] + full[k + 1:], edge_count("k4")) == (
        "colorings are not the pinned ones moved by H")


@pytest.mark.parametrize("name", ["theta", "k4", "cube"])
@pytest.mark.parametrize("delta", [-1, 1])
def test_tait_bijection_rejects_a_wrong_count(name, delta):
    pm = planar_map(name)
    assert verify_tait_bijection(pm, enumerate_four_colorings(pm),
                                 edge_count(name) + delta) == (
        "pinned colorings do not map one-to-one onto edge colorings")


def test_tait_bijection_rejects_an_image_improper_at_a_vertex():
    # On the theta every two faces meet, so its 24 face colorings stay
    # proper across these wrong edge sides, and their pinned images stay
    # six and distinct: (a, a, a ^ b) for the pinned (0, a, b).  Only the
    # check at the vertices can notice.
    pm = extract_map(THETA)
    fours = enumerate_four_colorings(pm)
    wrong = PlanarMap(pm.graph, pm.faces, ((0, 1), (0, 1), (1, 2)),
                      pm.outer_face)
    assert pm.outer_face == 0 and pm.edge_faces != wrong.edge_faces
    assert verify_tait_bijection(pm, fours, 6) is None
    assert verify_tait_bijection(wrong, fours, 6).startswith(
        "pinned image: improper coloring at vertex 0: (1, 1, 3)")


def test_loops_kill_colorings():
    g = load("dumbbell.tgf")
    assert enumerate_edge_3_colorings(g) == []
    assert penrose(g) == 0


def search_order_cases():
    cases = [(f"catalog loops={loops}", g)
             for loops in (True, False) for v in (2, 4, 6, 8)
             for g in generate_graphs(v, allow_loops=loops, dedup=True)]
    cases += [("labeled v=2", g) for g in generate_graphs(2)]
    cases += [(f"ladder v={v} mobius={m} relabel={r}", ladder(v, m, r))
              for v in (8, 10, 12, 14) for m in (False, True)
              for r in (False, True)]
    rng = random.Random(13)
    cases += [(f"random v={v}", random_connected_graph(v, rng))
              for v in range(2, 15, 2) for _ in range(4)]
    # Larger loop-free draws, where the placement order departs furthest
    # from index order.
    for v in (16, 20):
        while sum(name == f"loop-free v={v}" for name, _ in cases) < 3:
            g = random_connected_graph(v, rng)
            if not g.has_loop():
                cases.append((f"loop-free v={v}", g))
    return cases


def test_enumerations_list_what_the_references_list_in_order():
    # The map's own graph is re-oriented, so its edge colorings are
    # checked too; loops and self-bordering maps reach the refusals.
    loops = self_bordering = 0
    for name, g in search_order_cases():
        loops += g.has_loop()
        assert enumerate_edge_3_colorings(g) == \
            edge_3_colorings_by_bitmasks(g), name
        first = marking_profile(g).first
        if first is None:
            continue
        pm = extract_map(rotation_of_marking(g, first))
        self_bordering += pm.is_self_bordering()
        assert enumerate_four_colorings(pm) == \
            four_colorings_by_neighbours(pm), name
        assert enumerate_edge_3_colorings(pm.graph) == \
            edge_3_colorings_by_bitmasks(pm.graph), name
    assert loops and self_bordering
