"""Hot kernels: goldens, bad input, both backends against the
counter-order marking oracle, and the compiled extension, plain and under
UBSan, against its pure twin (built from _kernels.c by the compiled_kernels
and sanitized_kernels fixtures)."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from weightsys import _kernels_py, kernels
from weightsys.catalog import generate_graphs
from weightsys.graphs import TrivalentGraph, face_orbits, is_connected
from oracles import (block_table_by_faces, face_count_by_lists, ladder,
                     marked_alpha, marking_scan_by_faces,
                     random_connected_graph, random_graph, random_pairing,
                     relabeled)

THETA = (4, 3, 5, 1, 0, 2)
THETA_TWISTED = (3, 4, 5, 0, 1, 2)
DUMBBELL = (1, 0, 5, 4, 3, 2)
TWO_THETAS = (4, 3, 5, 1, 0, 2, 10, 9, 11, 7, 6, 8)


def test_backend_is_declared():
    assert kernels.BACKEND in ("pure", "compiled")


def test_face_count_goldens():
    assert kernels.face_count(THETA) == 3
    assert kernels.face_count(THETA_TWISTED) == 1
    assert kernels.face_count(DUMBBELL) == 3


def test_face_count_against_oracle():
    rng = random.Random(7)
    for v in (2, 4, 6, 10):
        for _ in range(20):
            alpha = random_pairing(v, rng).alpha
            assert kernels.face_count(alpha) == face_count_by_lists(alpha)


def test_marking_scan_theta():
    signed_by_b, spherical, first_mask = kernels.marking_scan(THETA, 2)
    assert signed_by_b == [0, -2, 0, 2]
    assert spherical == 2
    assert signed_by_b[3] == 2  # the signed spherical count
    assert first_mask == 0
    assert kernels.marking_scan(THETA_TWISTED, 2)[2] == 1


def test_marking_scan_dumbbell():
    signed_by_b, spherical, first_mask = kernels.marking_scan(DUMBBELL, 2)
    assert all(c == 0 for c in signed_by_b)
    assert spherical == 4
    assert first_mask == 0


def test_marking_scan_totals():
    # Signed coefficients sum to zero (half the markings carry each sign)
    # and |signed spherical count| is bounded by the plain count.
    rng = random.Random(11)
    for v in (2, 4, 6):
        for _ in range(10):
            signed_by_b, spherical, first_mask = kernels.marking_scan(
                random_connected_graph(v, rng).alpha, v)
            assert len(signed_by_b) == v // 2 + 3
            assert sum(signed_by_b) == 0
            assert abs(signed_by_b[v // 2 + 2]) <= spherical
            assert (first_mask == -1) == (spherical == 0)


def test_marking_scan_rejects_disconnected():
    with pytest.raises(ValueError, match="connected"):
        kernels.marking_scan(TWO_THETAS, 4)
    with pytest.raises(ValueError, match="connected"):
        _kernels_py.marking_scan(TWO_THETAS, 4)


OUTSIDE = "alpha entry outside 0..3v-1"
NOT_PAIRING = "alpha is not a fixed-point-free pairing"


@pytest.mark.parametrize("alpha,v,message", [
    (THETA, 3, "alpha length does not match vertex count"),
    (THETA, -2, "alpha length does not match vertex count"),
    (THETA[:5], 2, "alpha length does not match vertex count"),
    ((), 0, "vertex count must be positive"),
    (tuple(range(90)), 30, "marking scan capped at v = 28"),
    ((4, 3, 5, 1, 0, -1), 2, OUTSIDE),
    ((-6, 3, 5, 1, 0, 2), 2, OUTSIDE),
    ((4, 3, 5, 1, 0, 6), 2, OUTSIDE),
    ((4, 3, 5, 1, 0, 1 << 70), 2, OUTSIDE),
    ((0, 3, 5, 1, 4, 2), 2, NOT_PAIRING),
    ((4, 3, 5, 1, 2, 0), 2, NOT_PAIRING),
    (TWO_THETAS, 4, "graph is not connected"),
], ids=["v-too-big", "v-negative", "short", "empty", "v-over-cap",
        "last-negative", "first-negative", "too-large", "huge", "fixed-point",
        "not-involution", "disconnected"])
def test_marking_scan_rejects_bad_input(backend, alpha, v, message):
    with pytest.raises(ValueError) as exc:
        backend.marking_scan(alpha, v)
    assert str(exc.value) == message


@pytest.mark.parametrize("alpha,message", [
    (THETA[:4], "alpha length must be a multiple of 3"),
    ((4, 3, 5, 1, 0, -1), OUTSIDE),
    ((4, 3, 5, 1, 0, 6), OUTSIDE),
], ids=["length", "negative", "too-large"])
def test_face_count_rejects_bad_input(backend, alpha, message):
    with pytest.raises(ValueError) as exc:
        backend.face_count(alpha)
    assert str(exc.value) == message


def test_mask_and_complement_have_equal_face_counts():
    # The premise of the half scan: the complement reverses every cyclic
    # order, which mirrors the surface and keeps its faces.
    rng = random.Random(13)
    for v in (2, 4, 6, 8):
        full = (1 << v) - 1
        for _ in range(4):
            alpha = random_connected_graph(v, rng).alpha
            for mask in range(1 << v):
                assert face_count_by_lists(marked_alpha(alpha, mask)) == \
                    face_count_by_lists(marked_alpha(alpha, full ^ mask))


def with_oracle(cases):
    return [(alpha, v, marking_scan_by_faces(alpha, v)) for alpha, v in cases]


@pytest.fixture(scope="module")
def catalog_scans(catalog_v8):
    return with_oracle((g.alpha, g.vertex_count) for g in catalog_v8)


@pytest.fixture(scope="module")
def random_scans():
    rng = random.Random(17)
    return with_oracle((random_connected_graph(v, rng).alpha, v)
                       for v, count in ((2, 10), (4, 10), (6, 10), (8, 6),
                                        (10, 4), (12, 2))
                       for _ in range(count))


# First spherical masks to place, all below 2^(v-1): the ends of the half,
# single high bits (met late in Gray order) and masks with many bits set.
PRISM_FIRSTS = {
    8: (0, 1, 0b1000000, 0b1111111, 0b1010101, 0b0110011),
    10: (0b100000000, 0b111111111, 0b011011011, 0b110000001),
    12: (0b10000000000, 0b11111111111, 0b10110111101),
}


@pytest.fixture(scope="module")
def prism_scans():
    cases = []
    for v, firsts in PRISM_FIRSTS.items():
        alpha = ladder(v).alpha
        planar = marking_scan_by_faces(alpha, v)[2]
        for first in firsts:
            # The spherical masks of the flipped prism are the planar
            # drawing and its mirror image: first and its complement.
            cases.append((tuple(marked_alpha(alpha, planar ^ first)), v))
    scans = with_oracle(cases)
    assert [scan[2] for _, _, scan in scans] == \
        [first for firsts in PRISM_FIRSTS.values() for first in firsts]
    assert all(scan[1] == 2 for _, _, scan in scans)
    return scans


# Seeded draws (v, seed) on which the kernel takes its largest block,
# k = _MAX_K = 8, and the smallest the draws at v = _SEARCH_V reach, k = 3
# (455 of the first 3000 seeds).  The table of (16, 0) has 5 rows for 256
# inner states, one of them 64 states with one tau, and rows whose states
# close up to 4 cycles that pass no exit.
BLOCK_SIZE_DRAWS = {(14, 135): 8, (16, 0): 8, (10, 4): 3}


def block_size_cases(largest_v):
    """The draws of BLOCK_SIZE_DRAWS up to largest_v, their block sizes
    checked."""
    cases = [(random_connected_graph(v, random.Random(seed)).alpha, v)
             for v, seed in BLOCK_SIZE_DRAWS if v <= largest_v]
    assert [len(_kernels_py._block(alpha, v)) for alpha, v in cases] == \
        [k for (v, _), k in BLOCK_SIZE_DRAWS.items() if v <= largest_v]
    return cases


@pytest.fixture(scope="module")
def block_size_scans():
    return with_oracle(block_size_cases(16))


def block_tables(cases):
    """The table marking_scan's walk of the block builds for each case:
    the tally of the first of its two _walk calls."""
    tables = []
    walk = _kernels_py._walk

    def keeping_walk(*args):
        tally = walk(*args)
        tables.append(dict(tally))
        return tally

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels_py, "_walk", keeping_walk)
        for alpha, v in cases:
            _kernels_py.marking_scan(alpha, v)
    assert len(tables) == 2 * len(cases)
    return tables[0::2]


def test_exit_tables_of_the_block_size_draws():
    # The tables the draws of BLOCK_SIZE_DRAWS build: (k, rows, the most
    # inner states of one row, the most cycles of one row that pass no
    # exit).  Every table covers the 2^k inner states once.
    cases = block_size_cases(16)
    shapes = []
    for (alpha, v), rows in zip(cases, block_tables(cases)):
        k = len(_kernels_py._block(alpha, v))
        assert sum(count for _, count, _ in rows.values()) == 2 ** k
        shapes.append((k, len(rows), max(count for _, count, _ in
                                         rows.values()),
                       max(c for c, *_ in rows)))
    assert shapes == [(8, 19, 24, 2), (8, 5, 64, 4), (3, 5, 2, 1)]


def test_block_tables_match_oracle(catalog_v8):
    # Row for row, (c, tau) -> signed sum, number and lowest mask, against
    # the faces of each block state traced whole.
    cases = block_size_cases(16) + [(g.alpha, g.vertex_count)
                                    for g in catalog_v8]
    for (alpha, v), rows in zip(cases, block_tables(cases)):
        block = _kernels_py._block(alpha, v)
        assert rows == block_table_by_faces(alpha, v, block), alpha


class BlockWalked(Exception):
    """Ends a scan once its block has been walked."""


def test_closed_counts_fit_their_key_field(monkeypatch):
    # The compiled kernel keeps a key's closed count in its top 4 bits, the
    # block's as well as the rest's, and bounds both by v/2 + 1.  Over the
    # block-size draws and 10 seeded draws at each even v up to 28, each
    # scan stopped once its block is walked, the block's closed counts stay
    # within that and within k, and the largest is 4.
    walk = _kernels_py._walk
    largest = []

    def block_only(p, flips, *args):
        c = max(c for c, *_ in walk(p, flips, *args))
        assert c <= min(len(flips), len(p) // 6 + 1)
        largest.append(c)
        raise BlockWalked

    monkeypatch.setattr(_kernels_py, "_walk", block_only)
    cases = block_size_cases(16)
    rng = random.Random(53)
    cases += [(random_connected_graph(v, rng).alpha, v)
              for v in range(2, _kernels_py.MAX_SCAN_V + 1, 2)
              for _ in range(10)]
    for alpha, v in cases:
        with pytest.raises(BlockWalked):
            _kernels_py.marking_scan(alpha, v)
    assert max(largest) == 4 < 16


def has_bridge(alpha):
    """Some edge between two vertices leaves them apart once deleted."""
    v = len(alpha) // 3
    for d, x in enumerate(alpha):
        if d < x and d // 3 != x // 3:
            reached, stack = {d // 3}, [d // 3]
            while stack:
                i = stack.pop()
                for t in range(3 * i, 3 * i + 3):
                    j = alpha[t] // 3
                    if t not in (d, x) and j not in reached:
                        reached.add(j)
                        stack.append(j)
            if len(reached) < v:
                return True
    return False


def connected_random_graphs(largest_v):
    """The connected draws up to largest_v among the first 60 of
    oracles.random_graph at seed 1: one piece, or two joined by a
    bridge."""
    rng = random.Random(1)
    draws = [random_graph(rng) for _ in range(60)]
    return [(g.alpha, g.vertex_count) for g in draws
            if g.vertex_count <= largest_v and is_connected(g)]


@pytest.fixture(scope="module")
def random_graph_scans():
    cases = connected_random_graphs(14)
    # 15 draws at v = 2..14, 10 of them with a bridge.
    assert (len(cases), sum(has_bridge(alpha) for alpha, _ in cases)) == \
        (15, 10)
    return with_oracle(cases)


@pytest.mark.parametrize("inputs", ["catalog_scans", "random_scans",
                                    "prism_scans", "block_size_scans",
                                    "random_graph_scans"])
def test_marking_scan_matches_oracle(backend, inputs, request):
    for alpha, v, expected in request.getfixturevalue(inputs):
        assert backend.marking_scan(alpha, v) == expected, alpha


# The cut of marking_scan: one walk over a block of k vertices tallies
# the exit permutations its states give into a table, and the same walk
# over the rest but v - 1 tallies their jumps, each of which reads the
# table once.  The kernel takes the k and the block that make its estimate of
# the work least (_kernels_py._work) among the blocks with at most
# _MAX_EXITS exits: 2^(v-1-k) outer states of 3v steps, one walk of 2^k
# inner states of 3k steps, and e steps for each of at most min(2^k, e!)
# rows for each of at most min(2^(v-1-k), e!) jumps, where e darts leave
# the block.  From v = _SEARCH_V each k scores the block with the most
# inside edges that a greedy run finds; below, it scores 0..k-1.  The
# compiled kernel picks by the same rule, so _kernels_py._block names its
# block too, as test_compiled_block_choice_matches_pure checks.


def test_block_search_follows_its_tie_rules(monkeypatch):
    # Three rungs of the 10-prism, {0, 1, 2, 5, 6, 7}: seven edges inside
    # and four darts leave it, so the 2^3 outer states of 30 steps, one
    # walk of 2^6 inner states of 18 steps, and at most 4! rows of 4 steps
    # for each of the 8 jumps.  That is the least estimate, so it is the
    # block; the rim edge {0, 1}, also four exits, has 2^7 outer states.
    assert _kernels_py._work(10, 6, 7) == \
        2 ** 3 * 30 + 2 ** 6 * 18 + 8 * 24 * 4
    assert _kernels_py._work(10, 2, 1) == \
        2 ** 7 * 30 + 2 ** 2 * 6 + 24 * 4 * 4
    assert _kernels_py._block(ladder(10).alpha, 10) == [0, 1, 2, 5, 6, 7]
    # Below _SEARCH_V each size scores the block 0..k-1.
    assert _kernels_py._block(THETA, 2) == [0]
    assert _kernels_py._block(ladder(8).alpha, 8) == [0, 1, 2, 3]
    # Sizes that tie on the estimate go to the least; with the estimate
    # forced, the search shows the block it finds for each size.  The
    # prism on 6 vertices relabeled so its triangles are {1, 3, 4} and
    # {0, 2, 5}: runs from 0, 1 and 2 take the lowest of their tied
    # neighbours and end on paths of two edges; the run from 3 closes the
    # triangle {1, 3, 4}, and the other triangle holds v - 1.
    monkeypatch.setattr(_kernels_py, "_SEARCH_V", 2)
    alpha = relabeled(ladder(6), [1, 3, 4, 0, 2, 5]).alpha
    for size, block in ((1, [0]), (2, [0, 1]), (3, [1, 3, 4])):
        monkeypatch.setattr(_kernels_py, "_work",
                            lambda v, j, inside: -min(j, size))
        assert _kernels_py._block(alpha, 6) == block
    # The theta's two vertices share three edges; the block leaves out
    # v - 1, so it is vertex 0 alone.
    assert _kernels_py._block(THETA, 2) == [0]


def test_no_block_taken_has_more_than_12_exits():
    # The compiled kernel packs a key, 4 bits for each exit's jump, and a
    # table word, 4 bits for each exit's tau, into 64 bits, so no block
    # may have more than _MAX_EXITS = 12 exits; a block of j vertices with
    # `inside` edges has 3j - 2*inside.  _size, which both _block paths
    # call, skips such a block.  Over every size to v = 28, a block with
    # 13 or more exits next to every block of j - 1 vertices that leaves
    # the graph: _size never takes the larger, though the estimate prefers
    # it on 170 of these pairs, the first at v = 10, j = 6 with 2 edges
    # inside against 5 vertices with none.
    assert _kernels_py._MAX_EXITS == 12
    compared = preferred = 0
    for v in range(2, _kernels_py.MAX_SCAN_V + 1, 2):
        for j in range(2, min(v - 1, _kernels_py._MAX_K) + 1):
            for inside in range((3 * j - 13) // 2 + 1):
                work = _kernels_py._work(v, j, inside)
                for i in range((3 * j - 4) // 2 + 1):
                    # Sizes below j - 1 hold no edge: those up to 4 stay
                    # within 12 exits, so _size has them to choose from.
                    most = [0] * (j - 1) + [i, inside]
                    k = _kernels_py._size(v, most)
                    assert k != j and 3 * k - 2 * most[k] <= 12, \
                        (v, j, inside, i)
                    preferred += work < _kernels_py._work(v, j - 1, i)
                    compared += 1
    assert (compared, preferred) == (1563, 170)


def test_the_estimate_stays_below_its_c_bound():
    # _kernels.c's work() computes the estimate in 64 bits and says it
    # stays below 2^33, its largest being about 3v * 2^(v-2) at j = 1 and
    # v = 28.
    # Every size with every count of inside edges, loops included, to
    # v = 28, 13 or more exits too.
    largest = max(_kernels_py._work(v, j, inside)
                  for v in range(2, _kernels_py.MAX_SCAN_V + 1, 2)
                  for j in range(1, min(v - 1, _kernels_py._MAX_K) + 1)
                  for inside in range(3 * j // 2 + 1))
    v = _kernels_py.MAX_SCAN_V
    assert largest == _kernels_py._work(v, 1, 0) < 2 ** 33
    assert largest > 3 * v * 2 ** (v - 2)


def test_block_walk_with_one_outer_step_matches_oracle(backend):
    # At v = 2 and 4 the block holds every traced vertex: the outer walk
    # takes one step and every face goes through the block.
    cases = [(g.alpha, 2) for g in generate_graphs(2)]
    rng = random.Random(19)
    cases += [(random_connected_graph(4, rng).alpha, 4) for _ in range(40)]
    cases += [(ladder(4).alpha, 4)]
    for alpha, v, expected in with_oracle(cases):
        assert backend.marking_scan(alpha, v) == expected, alpha


def face_avoids_block(alpha, v, mask):
    """Some face of the marking avoids the kernel's block, so it is
    counted among the closed faces."""
    block = _kernels_py._block(alpha, v)
    g = TrivalentGraph(v, tuple(marked_alpha(alpha, mask)))
    return any(all(d // 3 not in block for d in face)
               for face in face_orbits(g))


@pytest.fixture(scope="module")
def relabeled_scans(catalog_v8):
    rng = random.Random(23)
    cases = [(relabeled(g, rng).alpha, g.vertex_count) for g in catalog_v8]
    cases += [(relabeled(random_connected_graph(v, rng), rng).alpha, v)
              for v, count in ((10, 3), (12, 2)) for _ in range(count)]
    # The kernel's block on the prism with its labels reversed is three
    # rungs, {0, 1, 2, 6, 7, 8}; two square faces of the planar drawing
    # avoid it and are counted as closed.
    prism = relabeled(ladder(12), list(range(11, -1, -1))).alpha
    cases.append((prism, 12))
    scans = with_oracle(cases)
    assert _kernels_py._block(prism, 12) == [0, 1, 2, 6, 7, 8]
    assert face_avoids_block(prism, 12, scans[-1][2][2])
    return scans


def test_marking_scan_matches_oracle_on_relabeled_graphs(backend,
                                                         relabeled_scans):
    for alpha, v, expected in relabeled_scans:
        assert backend.marking_scan(alpha, v) == expected, alpha


@pytest.fixture(scope="module")
def split_first_scans():
    """Prisms relabeled so that the kernel's block is not 0..k-1 and the
    lowest spherical mask sets bits both inside and outside it: the inner
    walk must flip the block's bits in the original labels."""
    rng = random.Random(31)
    cases = []
    for v, count in ((10, 5), (12, 3)):
        found = 0
        while found < count:
            alpha = relabeled(ladder(v), rng).alpha
            block = _kernels_py._block(alpha, v)
            if block == list(range(len(block))):
                continue
            expected = marking_scan_by_faces(alpha, v)
            inner = sum(1 << i for i in block)
            if expected[2] & inner and expected[2] & ~inner:
                cases.append((alpha, v, expected))
                found += 1
    return cases


def test_marking_scan_matches_oracle_when_the_first_mask_spans_the_block(
        backend, split_first_scans):
    for alpha, v, expected in split_first_scans:
        assert backend.marking_scan(alpha, v) == expected, alpha


KEYS_WALKED_CASES = [
    (random_connected_graph(14, random.Random(41)).alpha, 14),
    (relabeled(ladder(12), list(range(11, -1, -1))).alpha, 12)]


def test_block_choice_pins_the_keys_walked(monkeypatch):
    # The work of the pure scan, counted as the keys _flush_tally receives,
    # on a seeded random pairing at v = 14 and the prism with its labels
    # reversed at v = 12: with the block the kernel picks, and with the
    # lowest labels 0..k-1 in its place.
    keys = []
    flush = _kernels_py._flush_tally

    def counting_flush(tally, *args):
        keys.append(len(tally))
        flush(tally, *args)

    monkeypatch.setattr(_kernels_py, "_flush_tally", counting_flush)

    def walked():
        counts = []
        for alpha, v in KEYS_WALKED_CASES:
            keys.clear()
            _kernels_py.marking_scan(alpha, v)
            counts.append(sum(keys))
        return counts

    assert [len(_kernels_py._block(alpha, v))
            for alpha, v in KEYS_WALKED_CASES] == [6, 6]
    assert walked() == [23, 18]
    block = _kernels_py._block
    monkeypatch.setattr(_kernels_py, "_block",
                        lambda alpha, v: list(range(len(block(alpha, v)))))
    assert walked() == [64, 32]


def test_the_block_is_walked_once_per_scan(monkeypatch):
    # On the inputs of test_block_choice_pins_the_keys_walked, whatever
    # the tally holds: _walk runs twice per scan, first over the block,
    # whose tally, the table, covers all 2^k inner states, then over the
    # rest, and at each flush of the rest's tally every distinct jump among
    # its keys reads the table once.  The reads per scan are the distinct
    # jumps with the tally at full size, and every outer state's jump with
    # room for one key.
    walks, flushes = [], []
    walk, flush, read = (_kernels_py._walk, _kernels_py._flush_tally,
                         _kernels_py._read_table)

    def counting_walk(*args):
        tally = walk(*args)
        walks.append(sum(count for _, count, _ in tally.values()))
        return tally

    def counting_flush(tally, *args):
        flushes.append(([key[1:] for key in tally], []))
        flush(tally, *args)

    def counting_read(rows, jump, known):
        flushes[-1][1].append(jump)
        return read(rows, jump, known)

    monkeypatch.setattr(_kernels_py, "_walk", counting_walk)
    monkeypatch.setattr(_kernels_py, "_flush_tally", counting_flush)
    monkeypatch.setattr(_kernels_py, "_read_table", counting_read)
    counts = []
    for keys in (_kernels_py._TALLY, 5, 2, 1):
        monkeypatch.setattr(_kernels_py, "_TALLY", keys)
        reads = []
        for alpha, v in KEYS_WALKED_CASES:
            walks.clear()
            flushes.clear()
            _kernels_py.marking_scan(alpha, v)
            k = len(_kernels_py._block(alpha, v))
            assert len(walks) == 2
            assert walks[0] == 2 ** k
            for jumps, read_jumps in flushes:
                assert sorted(read_jumps) == sorted(set(jumps))
            reads.append(sum(len(read_jumps) for _, read_jumps in flushes))
        counts.append(reads)
    assert counts == [[14, 17], [69, 25], [108, 31], [128, 32]]


def test_compiled_matches_pure_when_the_tally_fills(
        small_tally_kernels, monkeypatch, relabeled_scans):
    # Both tallies flushed every 2 keys: the keys of one jump are split
    # over several flushes, each of which reads the table again.
    monkeypatch.setattr(_kernels_py, "_TALLY", 2)
    rng = random.Random(47)
    cases = [(alpha, v) for alpha, v, _ in relabeled_scans]
    cases += block_size_cases(16)
    cases += [(random_connected_graph(v, rng).alpha, v)
              for v in (10, 12, 14, 16) for _ in range(2)]
    for alpha, v in cases:
        assert small_tally_kernels.marking_scan(alpha, v) == \
            _kernels_py.marking_scan(alpha, v), alpha


@pytest.mark.parametrize("v", [10, 12, 14, 16])
def test_marking_scan_is_invariant_under_relabeling(backend, v):
    # Renaming vertices permutes the masks: it keeps every face count and
    # sign, so the histogram and the spherical count, and only moves the
    # lowest spherical mask, which must still be spherical.
    rng = random.Random(29 + v)
    for g in (random_connected_graph(v, rng), ladder(v)):
        signed_by_b, spherical, _ = backend.marking_scan(g.alpha, v)
        for _ in range(3):
            copy = relabeled(g, rng).alpha
            by_b, count, first = backend.marking_scan(copy, v)
            assert (by_b, count) == (signed_by_b, spherical), copy
            if count:
                assert face_count_by_lists(marked_alpha(copy, first)) == \
                    v // 2 + 2, copy
            else:
                assert first == -1


def test_compiled_matches_pure_on_catalog(compiled_kernels, catalog_v8):
    for g in catalog_v8:
        v = g.vertex_count
        assert compiled_kernels.marking_scan(g.alpha, v) == \
            _kernels_py.marking_scan(g.alpha, v), g
        assert compiled_kernels.face_count(g.alpha) == \
            _kernels_py.face_count(g.alpha), g


def test_compiled_matches_pure_on_random_pairings(compiled_kernels):
    rng = random.Random(5)
    for v, count in ((2, 10), (4, 10), (6, 10), (8, 10), (10, 6), (12, 3),
                     (14, 2), (16, 1), (18, 1)):
        for _ in range(count):
            alpha = random_connected_graph(v, rng).alpha
            assert compiled_kernels.marking_scan(alpha, v) == \
                _kernels_py.marking_scan(alpha, v), alpha
    for alpha, v in block_size_cases(16) + connected_random_graphs(20):
        assert compiled_kernels.marking_scan(alpha, v) == \
            _kernels_py.marking_scan(alpha, v), alpha
    for v in (2, 4, 8, 14, 400):
        for _ in range(25):
            alpha = random_pairing(v, rng).alpha
            assert compiled_kernels.face_count(alpha) == \
                _kernels_py.face_count(alpha), alpha


def test_twins_share_their_constants():
    # The block choice never shows in an output, so only this ties the
    # constants it reads in _kernels.c to the pure twin's.
    source = Path(_kernels_py.__file__).with_name("_kernels.c").read_text()
    defines = dict(re.findall(r"^#define (\w+) (\d+)\b", source, re.MULTILINE))
    assert int(defines["MAX_V"]) == _kernels_py.MAX_SCAN_V
    assert int(defines["MAX_K"]) == _kernels_py._MAX_K
    assert int(defines["SEARCH_V"]) == _kernels_py._SEARCH_V
    assert int(defines["MAX_EXITS"]) == _kernels_py._MAX_EXITS
    assert 1 << int(defines["TALLY_BITS"]) == _kernels_py._TALLY
    assert int(defines["EXPORT_BLOCK"]) == 0


def loop_free_draw(v, rng):
    """random_connected_graph redrawn until no edge is a loop."""
    while True:
        alpha = random_connected_graph(v, rng).alpha
        if all(x // 3 != d // 3 for d, x in enumerate(alpha)):
            return alpha


def test_compiled_block_choice_matches_pure(block_kernels):
    # No output shows the block, so the twins' block choice is compared
    # directly: the v <= 10 catalog, the draws of BLOCK_SIZE_DRAWS and
    # seeded draws at v = 10..28, with loops and without.
    cases = [(g.alpha, v) for v in (2, 4, 6, 8, 10)
             for g in generate_graphs(v, dedup=True)]
    cases += block_size_cases(16)
    for v in range(10, _kernels_py.MAX_SCAN_V + 1, 2):
        rng = random.Random(1000 + v)
        cases += [(random_connected_graph(v, rng).alpha, v)
                  for _ in range(10)]
        cases += [(loop_free_draw(v, rng), v) for _ in range(10)]
    sizes = set()
    for alpha, v in cases:
        block = _kernels_py._block(alpha, v)
        assert block_kernels.choose_block(alpha, v) == block, (alpha, v)
        sizes.add(len(block))
    assert sizes == set(range(1, _kernels_py._MAX_K + 1))


# Loads the module built at argv[1] and prints, for each (alpha, v) read
# from stdin, its marking scan and face count.
SCAN_IN_CHILD = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("_kernels", sys.argv[1])
kernels = importlib.util.module_from_spec(spec)
spec.loader.exec_module(kernels)
print(json.dumps([[kernels.marking_scan(alpha, v), kernels.face_count(alpha)]
                  for alpha, v in json.load(sys.stdin)]))
"""


def test_sanitized_compiled_matches_pure(sanitized_kernels, catalog_v8):
    # Under UBSan a shift of 64 bits or more in the key packing, or any
    # other undefined behaviour, aborts the child.
    rng = random.Random(43)
    cases = [(g.alpha, g.vertex_count) for g in catalog_v8]
    cases += block_size_cases(16)
    cases += [(random_connected_graph(v, rng).alpha, v)
              for v in range(2, 21, 2) for _ in range(5)]
    child = subprocess.run(
        [sys.executable, "-c", SCAN_IN_CHILD, sanitized_kernels],
        input=json.dumps(cases), capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    expected = [[list(_kernels_py.marking_scan(alpha, v)),
                 _kernels_py.face_count(alpha)] for alpha, v in cases]
    assert json.loads(child.stdout) == expected


@pytest.mark.parametrize("keys", [1, 2, 5])
def test_pure_scan_matches_oracle_when_the_tally_fills(monkeypatch, keys,
                                                       relabeled_scans):
    # A full tally is flushed mid-scan, and a jump met again reads the
    # table again, which one walk of the block built for the whole scan;
    # with room for one key every outer state reads it on its own.
    monkeypatch.setattr(_kernels_py, "_TALLY", keys)
    for alpha, v, expected in relabeled_scans:
        assert _kernels_py.marking_scan(alpha, v) == expected, alpha


@pytest.mark.parametrize("keys", [1, 2, 5])
def test_block_size_draws_match_oracle_when_the_tally_fills(
        monkeypatch, keys, block_size_scans):
    # The k = 8 tables of BLOCK_SIZE_DRAWS, one with 64 inner states in a
    # row and rows that close cycles passing no exit, reused across the
    # flushes of a small tally.
    monkeypatch.setattr(_kernels_py, "_TALLY", keys)
    for alpha, v, expected in block_size_scans:
        assert _kernels_py.marking_scan(alpha, v) == expected, alpha


@pytest.mark.parametrize("kept", [0, 1])
def test_pure_scan_matches_oracle_when_few_cycle_counts_are_kept(
        monkeypatch, kept, relabeled_scans, block_size_scans):
    # The pure scan keeps the cycle counts of at most _CYCLES composed exit
    # permutations; past that it counts each one again.
    monkeypatch.setattr(_kernels_py, "_CYCLES", kept)
    for alpha, v, expected in relabeled_scans + block_size_scans:
        assert _kernels_py.marking_scan(alpha, v) == expected, alpha


def test_pure_override_via_environment():
    env = dict(os.environ, WEIGHTSYS_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", "from weightsys import kernels; print(kernels.BACKEND)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "pure"
