"""Pure-Python kernels for the enumeration-heavy inner loops.

Same contract as the compiled extension built from ``_kernels.c``, bad
input included: both raise the same ValueError, in the same order of
checks.  The ``kernels`` front end picks whichever is available.
Everything here is plain integer work on dart arrays, deliberately free
of package imports so both backends stay drop-in interchangeable.

Dart conventions: ``3i, 3i+1, 3i+2`` belong to vertex ``i`` in
counterclockwise order, ``sigma`` maps each dart to its successor within
the vertex, and a marking bit 1 at vertex ``i`` means the cyclic order
at ``i`` is reversed (darts ``3i+1`` and ``3i+2`` swapped).
"""

from __future__ import annotations

from math import factorial
from operator import itemgetter

MAX_SCAN_V = 28
_MAX_K = 8  # block vertices at most, which bounds the blocks _block scores
_TALLY = 1 << 14  # keys it tallies before their jumps read the table
_MAX_EXITS = 12  # exits of a block at most: C packs 4 bits an exit in 64
_CYCLES = 1 << 12  # cycle counts of exit permutations a scan keeps
# The least v whose block marking_scan searches for.  Below it the outer
# walk has at most 64 states and each block size k scores the block
# 0..k-1: on the v <= 8 catalog, whose canonical labels put a
# well-connected set lowest, the search costs more than its blocks save.
_SEARCH_V = 10
_FACTORIAL = tuple(factorial(e) for e in range(3 * _MAX_K + 1))


def _check_entries(alpha, n: int) -> None:
    # Python would wrap a negative index round silently; C would not.
    if n and (min(alpha) < 0 or max(alpha) >= n):
        raise ValueError("alpha entry outside 0..3v-1")
    # Else sigma . alpha need not be a permutation, and no cycle count ends.
    if any(x == d or alpha[x] != d for d, x in enumerate(alpha)):
        raise ValueError("alpha is not a fixed-point-free pairing")


def _count_cycles(p, seen) -> int:
    """Number of cycles of the permutation p of 0..len(p)-1 through the
    darts not yet marked in the bytearray seen, which it marks; a cycle
    is marked whole or not at all."""
    cycles = 0
    start = seen.find(0)
    while start >= 0:
        cycles += 1
        seen[start] = 1
        d = p[start]
        while d != start:
            seen[d] = 1
            d = p[d]
        start = seen.find(0, start)
    return cycles


def face_count(alpha) -> int:
    """Number of orbits of d -> sigma(alpha(d)) for a fixed-point-free
    pairing alpha of 3v darts; anything else raises marking_scan's
    ValueError for its length, its entries or the pairing, in that
    order."""
    n = len(alpha)
    if n % 3:
        raise ValueError("alpha length must be a multiple of 3")
    _check_entries(alpha, n)
    return _count_cycles([x - 2 if x % 3 == 2 else x + 1 for x in alpha],
                         bytearray(n))


def _connected(alpha, v: int) -> bool:
    reached = [False] * v
    reached[0] = True
    stack = [0]
    count = 1
    while stack:
        i = stack.pop()
        for d in (3 * i, 3 * i + 1, 3 * i + 2):
            j = alpha[d] // 3
            if not reached[j]:
                reached[j] = True
                count += 1
                stack.append(j)
    return count == v


def marking_scan(alpha, v: int):
    """Face statistics of all 2^v vertex markings of a connected graph.

    For each marking (bit i set = vertex i reversed) the face count b of
    the re-oriented rotation system is taken with the marking's sign
    (parity of reversed vertices).  Returns

        (signed_by_b, spherical, first_mask)

    where signed_by_b[b] sums the signs of markings with face count b,
    spherical counts markings reaching the maximum b = v/2 + 2 (genus 0),
    whose signed subtotal is signed_by_b[v/2 + 2], and first_mask is the
    lowest spherical mask (-1 when there is none).  signed_by_b is sized
    by the connected-graph Euler bound b <= v/2 + 2, so the input must be
    a connected fixed-point-free pairing of 3v darts with 0 < v <= 28;
    anything else raises ValueError, checked in this order: the length,
    v = 0, the cap on v, the entries, the pairing, and last connectivity,
    with the message "graph is not connected" that the CLI prints as it
    is.

    Only the 2^(v-1) masks with bit v-1 clear are traced.  A mask and its
    complement reverse every cyclic order, so they give mirror-image
    rotation systems with equal face counts, and with v even their signs
    agree: the totals of the half are doubled.  The complement of a
    spherical mask is spherical and one of the two has bit v-1 clear, so
    the lowest spherical mask lies in the traced half.

    Faces are the cycles of p = sigma_M . alpha, where sigma_M is sigma
    at an unreversed vertex and its inverse at a reversed one, so p[d] is
    fwd[d] or bwd[d] by the state of vertex alpha[d] // 3, and a flip at
    vertex i rewrites p at the three darts alpha[3i..3i+2] only.

    The traced vertices are cut into a block of k and the rest but
    v - 1.  _block picks the block for its many inside edges: the fewer
    edges cross the cut, the fewer states of either side the other can
    tell apart.  Below v = _SEARCH_V the block is 0..k-1.  The darts are
    relabeled on every scan so the block is vertices 0..k-1 and the outer
    vertices keep their order, and each walk flips the original bit of
    the vertex it reverses, so every mask below is in the original
    labels.  A block dart that alpha sends out of the block is an exit;
    it and its alpha-partner are the two ends of an edge across the cut,
    and back maps both to the exit's index.  p at a dart is fixed by the
    state of the side that alpha sends it to, so each side sees p on its
    own: _walk Gray-walks the states of one side S and, for each,
    follows a path from each dart of the other side whose alpha lies in
    S (the exit's partner for the block, the exit for the rest) along p
    to the first dart whose alpha lies outside S, whose index back reads,
    and counts the cycles of p on S's darts that no path visits.  Those
    are faces that stay on S whatever the other side's state: the closed
    faces.  The paths are where each face that enters S at one edge of
    the cut leaves it again.

    So a state of the block gives a pair (c, tau): c closed faces and tau
    the exit at which a face entering by each exit leaves again.  A state
    of the rest gives (closed, J): J sends each exit to the exit whose
    partner ends the path from it.  The faces of the two states together
    are closed + c + cycles(J . tau).  Each walk tallies its states by
    their key, with their sign sum, their number and their lowest mask:
    the block's tally is the table, one row per pair, and each distinct
    jump J among the rest's keys reads it once, e steps a row
    (_read_table), into the signed sum, the number and the lowest inner
    mask of the inner states by their count c + cycles(J . tau); each
    key of that jump takes closed + c faces from each count c.  The two
    sides' bits are disjoint, so a key's lowest spherical mask is its
    lowest outer mask plus the lowest inner mask of the count c that
    makes it spherical, and first_mask is the least of these.  The
    rest's tally holds at most _TALLY keys: when it is full their jumps
    read the table and it starts again empty, so a jump met again later
    reads the table again, and the sums are the same.

    The work is thus about 2^(v-1-k) outer states of 3v steps each,
    2^k block states of 3k steps, and for each jump e steps for each
    row.  With e exits there are at most e! jumps and e! values of tau,
    so at most min(2^(v-1-k), e!) jumps and min(2^k, e!) rows.  _block
    takes the k, 1..min(v - 1, _MAX_K), and the block of k vertices that
    make this estimate (_work) least among the blocks with at most
    _MAX_EXITS exits, so the block grows with v where few darts leave it
    and stays small where many do.  The outputs do not depend on the
    block.
    """
    n = 3 * v
    if len(alpha) != n:
        raise ValueError("alpha length does not match vertex count")
    if not v:
        raise ValueError("vertex count must be positive")
    if v > MAX_SCAN_V:
        raise ValueError(f"marking scan capped at v = {MAX_SCAN_V}")
    _check_entries(alpha, n)
    b_top = v // 2 + 2
    signed_by_b = [0] * (b_top + 1)
    if not _connected(alpha, v):
        raise ValueError("graph is not connected")
    block = _block(alpha, v)
    k = len(block)
    nb = 3 * k
    order = block + [i for i in range(v) if i not in block]
    new = [0] * v  # the first dart of each vertex in the new labels
    for j, i in enumerate(order):
        new[i] = 3 * j
    alpha = [new[x // 3] + x % 3
             for i in order for x in alpha[3 * i:3 * i + 3]]
    fwd = [x - 2 if x % 3 == 2 else x + 1 for x in alpha]
    bwd = [x + 2 if x % 3 == 0 else x - 1 for x in alpha]
    p = fwd[:]
    # Each vertex's original mask bit and the darts alpha sends to it.
    flips = [(1 << i, *alpha[o:o + 3]) for i, o in zip(order, range(0, n, 3))]
    exits = [t for t in range(nb) if alpha[t] >= nb]
    back = [-1] * n  # the darts of the cut's edges -> their exit's index
    shut = bytearray(n)  # the same darts, the ends of the paths
    for x, t in enumerate(exits):
        back[t] = back[alpha[t]] = x
        shut[t] = shut[alpha[t]] = 1
    rows = _walk(p, flips[:k], fwd, bwd, [alpha[t] for t in exits],
                 shut[:nb], back)
    # tau of one exit is (0,): the getter of a slice keeps J . tau a tuple.
    table = [(c, itemgetter(*tau) if len(tau) > 1 else itemgetter(slice(1)),
              *row) for (c, *tau), row in rows.items()]
    known = {}  # a permutation of the exits -> its number of cycles
    found = [0, -1]  # spherical masks traced, lowest spherical mask
    tally = _walk(p, flips[k:v - 1], fwd, bwd, exits,
                  bytearray(b"\1" * nb) + shut[nb:], back, lambda full:
                  _flush_tally(full, table, known, signed_by_b, found))
    _flush_tally(tally, table, known, signed_by_b, found)
    spherical, first_mask = found
    return [2 * c for c in signed_by_b], 2 * spherical, first_mask


def _walk(p, flips, fwd, bwd, starts, shut, back, flush=None) -> dict:
    """Walk the states of one side S of marking_scan's cut in Gray order,
    from all of S unreversed with sign +1, and tally them: (closed, *ports)
    -> [their signed sum, their number, their lowest mask].  Step j flips
    S's vertex ctz(j), given in flips as its mask bit and the three darts
    alpha sends to it, at which p is rewritten from fwd or bwd.  The path
    from each start, a dart off S whose alpha lies in S, follows p to the
    first dart whose alpha lies off S; back holds its port, the index of
    its exit, and -1 at every dart whose alpha lies on its own side.  shut
    holds a byte for each dart up to the last of S's, set at the paths'
    ends and at the darts off S, and closed counts the cycles of p
    through the bytes still clear once the paths have set theirs.  When
    flush is given it is called with the tally each time the tally holds
    _TALLY keys, and empties it."""
    tally = {}
    mask = 0
    sign = 1
    for h in range(1 << len(flips)):
        if h:
            bit, x, y, z = flips[(h & -h).bit_length() - 1]
            mask ^= bit
            sign = -sign
            sigma = bwd if mask & bit else fwd
            p[x] = sigma[x]
            p[y] = sigma[y]
            p[z] = sigma[z]
        seen = shut[:]
        ports = []
        for d in starts:
            d = p[d]
            while back[d] < 0:
                seen[d] = 1
                d = p[d]
            ports.append(back[d])
        key = (_count_cycles(p, seen), *ports)
        entry = tally.get(key)
        if entry is None:
            tally[key] = [sign, 1, mask]
            if flush is not None and len(tally) == _TALLY:
                flush(tally)
        else:
            entry[0] += sign
            entry[1] += 1
            if mask < entry[2]:
                entry[2] = mask
    return tally


def _work(v: int, j: int, inside: int) -> int:
    """The work marking_scan estimates for a block of j vertices with
    `inside` edges between them, loops included: 3v steps for each of the
    2^(v-1-j) outer states, 3j for each of the 2^j inner states of the
    one walk of the block, and e for each row of the table for each jump.
    The e = 3j - 2 * inside exits make at most e! jumps and e! rows, and
    there are no more jumps than outer states nor rows than inner
    states."""
    outer = 1 << (v - 1 - j)
    e = 3 * j - 2 * inside
    return 3 * v * outer + (3 * j << j) + min(outer, _FACTORIAL[e]) * min(
        1 << j, _FACTORIAL[e]) * e


def _size(v: int, most) -> int:
    """The size of the block of marking_scan, given most[j], the edges
    inside the block of j vertices, for j = 1..len(most) - 1: the j of
    least _work among the blocks with at most _MAX_EXITS exits, the least
    j on a tie.  One vertex has at most 3 exits, and on a connected graph
    no block _block scores comes near the bound: the rule guards the
    compiled twin's packing of keys and table words."""
    k = 1
    for j in range(2, len(most)):
        if 3 * j - 2 * most[j] <= _MAX_EXITS and \
                _work(v, j, most[j]) < _work(v, k, most[k]):
            k = j
    return k


def _block(alpha, v: int) -> list:
    """The block of marking_scan, in label order: j vertices, never
    v - 1, for the j = 1..min(v - 1, _MAX_K) that _size picks.  From
    v = _SEARCH_V each j scores the set of j vertices with the most edges
    inside that _search finds; below, it scores 0..j-1."""
    top = min(v - 1, _MAX_K)
    if v < _SEARCH_V:
        # The edges inside 0..j-1 are those of its darts d with alpha[d] < d.
        most = [0]
        for d in range(0, 3 * top, 3):
            most.append(most[-1] + (alpha[d] < d) + (alpha[d + 1] < d + 1) + (
                alpha[d + 2] < d + 2))
        return list(range(_size(v, most)))
    most, runs = _search(alpha, v, top)
    j = _size(v, most)
    return sorted(runs[j][:j])


def _search(alpha, v: int, top: int):
    """For each j = 1..top, the most edges inside a set of j vertices,
    never v - 1, that a greedy run finds, and a run whose first j vertices
    hold them.  A run from each start vertex adds top - 1 times the vertex
    that adds the most edges to the block (its loops included), the
    lowest label on a tie, so one run scores every size; for each size
    the run with the most edges inside wins, the lowest start on a tie."""
    far = [x // 3 for x in alpha]
    ends = list(zip(far[0::3], far[1::3], far[2::3]))  # far ends of vertex i
    shut = -64  # a gain no run of increments lifts to 0
    base = [e.count(i) // 2 for i, e in enumerate(ends)]  # loops at i
    base[v - 1] = shut
    most = [-1] * (top + 1)
    runs = [None] * (top + 1)
    for s in range(v - 1):
        gain = base[:]  # the edges each vertex would add to the block
        run = []
        u, inside = s, gain[s]
        for j in range(1, top + 1):
            if j > 1:
                add = max(gain)
                u = gain.index(add)
                inside += add
            run.append(u)
            gain[u] = shut
            for w in ends[u]:
                gain[w] += 1
            if inside > most[j]:
                most[j], runs[j] = inside, run
    return most, runs


def _flush_tally(tally, table, known, signed_by_b, found) -> None:
    """Add the faces of the outer states of marking_scan tallied in tally
    to signed_by_b and found, and empty it.  A key of tally holds closed
    and J; the keys are grouped by J, each group's J reads the block's
    table once (_read_table), and each key of the group takes
    closed + c faces from each count c.  found holds the spherical count
    and the lowest spherical mask so far, and is updated."""
    b_top = len(signed_by_b) - 1
    spherical, first_mask = found
    groups = {}  # J -> [(closed, sign, count, lowest mask)]
    for (closed, *jump), entry in tally.items():
        groups.setdefault(tuple(jump), []).append((closed, *entry))
    for jump, keys in groups.items():
        histogram = _read_table(table, jump, known)
        for closed, sign, count, outer in keys:
            for cycles, (signed, states, lowest) in histogram.items():
                faces = closed + cycles
                signed_by_b[faces] += sign * signed
                if faces == b_top:
                    if first_mask < 0 or outer | lowest < first_mask:
                        first_mask = outer | lowest
                    spherical += count * states
    found[:] = spherical, first_mask
    tally.clear()


def _read_table(table, jump, known) -> dict:
    """The inner states of the block's table by their count
    c + cycles(J . tau) of cycles through the block, for the jump J given
    as the tuple of the exit indices J(x): count -> [the signed sum of
    those states, their number, their lowest inner mask].  known maps a
    permutation of the exits, as a tuple, to its number of cycles; it is
    filled here while it holds fewer than _CYCLES of them."""
    histogram = {}
    for c, tau, signed, states, lowest in table:
        composed = tau(jump)
        n = known.get(composed)
        if n is None:
            n = _count_cycles(composed, bytearray(len(composed)))
            if len(known) < _CYCLES:
                known[composed] = n
        c += n
        entry = histogram.get(c)
        if entry is None:
            histogram[c] = [signed, states, lowest]
        else:
            entry[0] += signed
            entry[1] += states
            if lowest < entry[2]:
                entry[2] = lowest
    return histogram
