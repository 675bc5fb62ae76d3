"""Combinatorial-map plumbing: parsing, traversal, reversal, genus."""

import random
from collections import Counter
from pathlib import Path

import pytest

from weightsys.graphs import (GraphParseError, TrivalentGraph, face_orbits,
                              flip_vertex, flip_vertices, genus, is_connected,
                              is_two_connected, parse_graph, serialize_graph)
from oracles import face_count_by_lists, two_connected_by_deletion

DATA = Path(__file__).parent / "data"

THETA = TrivalentGraph(2, (4, 3, 5, 1, 0, 2))
THETA_TWISTED = TrivalentGraph(2, (3, 4, 5, 0, 1, 2))
DUMBBELL = TrivalentGraph(2, (1, 0, 5, 4, 3, 2))
# Two triangles-with-a-doubled-edge joined by a bridge: connected,
# loop-free, but vertex 2 (and 5) is a cut vertex.
BRIDGED = TrivalentGraph(6, (3, 4, 6, 0, 1, 7, 2, 5, 15, 12, 13, 16,
                             9, 10, 17, 8, 11, 14))


def load(name):
    return parse_graph((DATA / name).read_bytes())


def test_counts():
    assert THETA.dart_count == 6
    assert THETA.edge_count == 3
    assert THETA.euler_characteristic == -1
    assert THETA.vertex_of(5) == 1


def test_sigma_cycles_within_vertex():
    assert [THETA.sigma(d) for d in range(6)] == [1, 2, 0, 4, 5, 3]


def test_edges_ordered_by_first_dart():
    assert THETA.edges() == [(0, 4), (1, 3), (2, 5)]
    assert DUMBBELL.edges() == [(0, 1), (2, 5), (3, 4)]


def test_has_loop():
    assert DUMBBELL.has_loop()
    assert not THETA.has_loop()


@pytest.mark.parametrize("v,alpha,message", [
    (3, (1, 0), "even"),
    (2, (1, 0, 3, 2), "length"),
    (2, (9, 0, 3, 2, 5, 4), "out of range"),
    (2, (0, 1, 3, 2, 5, 4), "fixes"),
    (2, (1, 0, 3, 2, 5, 3), "involution"),
])
def test_rejects_malformed_alpha(v, alpha, message):
    with pytest.raises(ValueError, match=message):
        TrivalentGraph(v, alpha)


@pytest.mark.parametrize("name,graph", [
    ("theta.tgf", THETA),
    ("dumbbell.tgf", DUMBBELL),
])
def test_parse_known_files(name, graph):
    assert load(name) == graph


def test_parse_accepts_str_and_bytes():
    text = (DATA / "k4.tgf").read_text()
    assert parse_graph(text) == parse_graph(text.encode())


@pytest.mark.parametrize("name", ["theta", "dumbbell", "k4", "cube", "k33"])
def test_serialize_round_trip(name):
    g = load(name + ".tgf")
    assert parse_graph(serialize_graph(g)) == g


def test_serialize_exact_bytes():
    assert serialize_graph(THETA) == b"v 2\ne 0 4\ne 1 3\ne 2 5\n"


@pytest.mark.parametrize("text,kind,line", [
    ("", "syntax", 1),                                   # no 'v' at all
    ("e 0 1\n", "syntax", 1),                            # edge before vertex line
    ("v 2\nv 2\n", "syntax", 2),
    ("v two\n", "syntax", 1),
    ("v 3\n", "bad-count", 1),
    ("v 2\ne 0 4\ne 1 3\n", "bad-count", 3),             # one edge line short
    ("v 2\nq 1 2\n", "syntax", 2),
    ("v 2\ne 0\ne 1 3\ne 2 5\n", "syntax", 2),
    ("v 2\ne 0 9\ne 1 3\ne 2 5\n", "syntax", 2),         # dart out of range
    ("v 2\ne 0 0\ne 2 3\ne 4 5\n", "self-paired-dart", 2),
    ("v 2\ne 0 1\ne 1 2\ne 3 4\n", "duplicate-dart", 3),
])
def test_parse_errors(text, kind, line):
    with pytest.raises(GraphParseError) as info:
        parse_graph(text)
    assert info.value.kind == kind
    assert info.value.line == line


def test_parse_skips_comments_and_blanks():
    g = parse_graph("# a graph\n\nv 2\n  # indented comment\ne 0 4\ne 1 3\ne 2 5\n")
    assert g == THETA


def test_connectivity():
    assert is_connected(THETA)
    assert is_connected(BRIDGED)
    two_thetas = TrivalentGraph(4, (4, 3, 5, 1, 0, 2, 10, 9, 11, 7, 6, 8))
    assert not is_connected(two_thetas)
    assert is_connected(TrivalentGraph(0, ()))


def test_two_connected():
    assert is_two_connected(THETA)
    assert is_two_connected(load("k4.tgf"))
    assert is_two_connected(load("k33.tgf"))
    assert is_two_connected(load("cube.tgf"))
    assert not is_two_connected(DUMBBELL)        # loops disqualify outright
    assert not is_two_connected(BRIDGED)         # cut vertex
    two_thetas = TrivalentGraph(4, (4, 3, 5, 1, 0, 2, 10, 9, 11, 7, 6, 8))
    assert not is_two_connected(two_thetas)


def random_graph(rng):
    """A seeded random pairing on v <= 40 vertices: one random piece, two
    pieces, or two pieces joined by a bridge, with the vertices shuffled
    so that vertex 0 may lie in either piece."""
    v = 2 * rng.randint(1, 20)
    shape = rng.choice(("one", "two", "bridged")) if v > 2 else "one"
    k = v  # vertices of the first piece, odd when a bridge leaves it
    if shape != "one":
        k = 2 * rng.randint(1, v // 2 - 1) - (shape == "bridged")
    pieces = [list(range(3 * k)), list(range(3 * k, 3 * v))]
    pairs = []
    if shape == "bridged":
        pairs.append((pieces[0].pop(), pieces[1].pop()))
    for darts in pieces:
        rng.shuffle(darts)
        pairs += zip(darts[::2], darts[1::2])
    label = list(range(v))
    rng.shuffle(label)
    alpha = [0] * (3 * v)
    for d, dd in pairs:
        d, dd = 3 * label[d // 3] + d % 3, 3 * label[dd // 3] + dd % 3
        alpha[d], alpha[dd] = dd, d
    return TrivalentGraph(v, tuple(alpha))


def test_two_connected_matches_deletion_oracle_on_random_pairings():
    rng = random.Random(9)
    kinds = Counter()
    for _ in range(3000):
        g = random_graph(rng)
        verdict = is_two_connected(g)
        assert verdict == two_connected_by_deletion(g), g
        kinds[is_connected(g), g.has_loop(), verdict] += 1
    assert kinds[True, False, True] > 200          # 2-connected
    assert kinds[True, False, False] > 50          # bridged, no loop
    assert kinds[False, False, False] > 50         # disconnected, no loop


def test_flip_vertex_is_an_involution():
    for g in (THETA, DUMBBELL, load("k4.tgf")):
        for i in range(g.vertex_count):
            assert flip_vertex(flip_vertex(g, i), i) == g


def test_flip_vertex_changes_rotation():
    assert flip_vertex(THETA, 0) == TrivalentGraph(2, (4, 5, 3, 2, 0, 1))
    assert flip_vertex(THETA, 0) != THETA


def test_flip_vertices_composes():
    g = load("k4.tgf")
    assert flip_vertices(g, (0, 2)) == flip_vertex(flip_vertex(g, 0), 2)
    assert flip_vertices(g, ()) == g


def test_flip_vertices_flips_once_per_listing():
    g = load("k4.tgf")
    assert flip_vertices(g, (0, 0)) == g
    assert flip_vertices(g, (1, 0, 1)) == flip_vertex(g, 0)
    assert flip_vertices(g, (2, 2, 2)) == flip_vertex(g, 2)


def test_flip_vertex_range_check():
    with pytest.raises(IndexError):
        flip_vertex(THETA, 2)


@pytest.mark.parametrize("i", [-1, 4, 7])
def test_flip_vertices_names_a_vertex_out_of_range(i):
    with pytest.raises(IndexError, match=f"^vertex index {i} out of range$"):
        flip_vertices(load("k4.tgf"), (0, i))


def test_face_orbits_theta():
    assert face_orbits(THETA) == [(0, 5), (1, 4), (2, 3)]
    assert face_orbits(THETA_TWISTED) == [(0, 4, 2, 3, 1, 5)]


def test_face_orbits_partition_darts():
    for name in ("theta", "dumbbell", "k4", "cube", "k33"):
        g = load(name + ".tgf")
        darts = sorted(d for cyc in face_orbits(g) for d in cyc)
        assert darts == list(range(g.dart_count))


def test_face_count_matches_independent_tracer():
    for g in (THETA, THETA_TWISTED, DUMBBELL, BRIDGED, load("cube.tgf")):
        assert len(face_orbits(g)) == face_count_by_lists(g.alpha)


@pytest.mark.parametrize("graph,expected", [
    (THETA, 0),
    (THETA_TWISTED, 1),
    (DUMBBELL, 0),
])
def test_genus_small(graph, expected):
    assert genus(graph) == expected


def test_genus_of_files():
    assert genus(load("k4.tgf")) == 0
    assert genus(load("cube.tgf")) == 0
    assert genus(load("k33.tgf")) == 1


def test_genus_requires_connected():
    two_thetas = TrivalentGraph(4, (4, 3, 5, 1, 0, 2, 10, 9, 11, 7, 6, 8))
    with pytest.raises(ValueError):
        genus(two_thetas)


def test_genus_refuses_the_empty_graph():
    # No faces, so no surface: chi = 0 would otherwise read as genus 1.
    with pytest.raises(ValueError, match="nonempty"):
        genus(TrivalentGraph(0, ()))
