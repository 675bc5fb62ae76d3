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
_MAX_K = 8  # block vertices at most: C keeps an inner state in 8 bits
_TALLY = 1 << 14  # keys it tallies before their jumps read the table
_MAX_EXITS = 12  # exits of a block at most: C packs 4 bits an exit in 64
_CYCLES = 1 << 12  # cycle counts of exit permutations a scan keeps
# The least v whose block marking_scan searches for.  Below it the outer
# walk has at most 64 states and each block size k scores the block
# 0..k-1: on the v <= 8 catalog, whose canonical labels put a
# well-connected set lowest, the search costs more than its blocks save.
_SEARCH_V = 10
_FACTORIAL = tuple(factorial(e) for e in range(3 * _MAX_K + 1))
# The vertex that step j > 0 of a Gray walk flips: ctz(j).
_FLIPS = tuple((j & -j).bit_length() - 1 for j in range(1 << _MAX_K))


def _check_entries(alpha, n: int) -> None:
    # Python would wrap a negative index round silently; C would not.
    if n and (min(alpha) < 0 or max(alpha) >= n):
        raise ValueError("alpha entry outside 0..3v-1")


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
    """Number of orbits of d -> sigma(alpha(d))."""
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

    The half is walked in two levels, each in Gray order: step j of a
    walk flips its vertex ctz(j), and the sign alternates.  The inner walk
    runs over a block of k vertices, the outer walk over the rest but
    v - 1.  _block picks the block for its many inside edges: the fewer
    darts leave it, the fewer outer states the block can tell apart (see
    the keys below).  Below v = _SEARCH_V the block is 0..k-1.  The darts
    are relabeled on every scan so the block is vertices 0..k-1 and the
    outer vertices keep their order, and each walk flips the original bit
    of the vertex it reverses, so every mask below is in the original
    labels.  In the new labels let V = alpha(darts 0..3k-1), the darts
    that alpha sends into the block.  p[d] is a block dart exactly when d
    is in V, so p(V) is the block's darts, and p off V is fixed by the
    outer state.  The block darts that alpha sends out of the block are
    its e exits.  For each outer state one pass over p

    - follows each exit x to the first dart of V it reaches; alpha of
      that dart is an exit again, J(x), and J is a bijection of the exits:
      the outer state's jump;
    - counts the faces that no such path reaches.  They avoid V, so every
      inner state keeps them: they are the closed faces.

    Fix an inner state M.  Inside the block a face runs along
    q = alpha . sigma_M until sigma_M takes it to an exit x, where the
    outer state sends it on to J(x).  So let tau_M map each exit x to the
    exit met by following s = sigma_M(x), then s = sigma_M(alpha(s)),
    for as long as s is not an exit, and let c_M count the cycles of q
    that pass no exit.  The faces through the block are then
    c_M + cycles(J . tau_M), and neither c_M nor tau_M depends on the
    outer state.  So the outer states are tallied by the key (closed, J),
    with their sign sum, their number and their lowest mask, and the
    inner states by the pair (c_M, tau_M), with the same three: one Gray
    walk of the block per scan builds that table (_exit_table), one row
    per pair.  Each distinct jump among the keys reads the table once,
    e steps a row (_read_table), into the signed sum, the number and the
    lowest inner mask of the inner states by their count c_M +
    cycles(J . tau_M), and each key of that jump takes closed + c faces
    from each count c.  Outer and inner bits are disjoint, so a key's
    lowest spherical mask is its lowest outer mask plus the lowest inner
    mask of the count c that makes it spherical, and first_mask is the
    least of these.  The tally holds at most _TALLY keys: when it is full
    their jumps read the table and it starts again empty, so a jump met
    again later reads the table again, and the sums are the same.

    The work is thus about 2^(v-1-k) outer states of 3v steps each, one
    walk of 2^k inner states of 3k steps, and for each jump e steps for
    each row.  With e exits there are at most e! jumps and e! values of
    tau, so at most min(2^(v-1-k), e!) jumps and min(2^k, e!) rows.
    _block takes the k, 1..min(v - 1, _MAX_K), and the block of k vertices
    that make this estimate (_work) least among the blocks with at most
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
    if any(x == d or alpha[x] != d for d, x in enumerate(alpha)):
        raise ValueError("alpha is not a fixed-point-free pairing")
    b_top = v // 2 + 2
    signed_by_b = [0] * (b_top + 1)
    if not _connected(alpha, v):
        raise ValueError("graph is not connected")
    block = _block(alpha, v)
    k = len(block)
    nb = 3 * k
    order = block + [i for i in range(v) if i not in block]
    bit = [1 << i for i in order]  # the original mask bit of each vertex
    new = [0] * v  # the first dart of each vertex in the new labels
    for j, i in enumerate(order):
        new[i] = 3 * j
    alpha = [new[x // 3] + x % 3
             for i in order for x in alpha[3 * i:3 * i + 3]]
    fwd = [x - 2 if x % 3 == 2 else x + 1 for x in alpha]
    bwd = [x + 2 if x % 3 == 0 else x - 1 for x in alpha]
    into = [alpha[o:o + 3] for o in range(0, n, 3)]  # darts alpha sends to i
    in_v = [x < nb for x in alpha]
    p = fwd[:]
    exits = [t for t in range(nb) if not in_v[t]]  # block darts leaving it
    inside = bytearray(in_v[:nb]) + bytes(n - nb)  # and those staying in
    back = [0] * n  # for a dart of V outside the block, its exit's index
    for x, t in enumerate(exits):
        back[alpha[t]] = x
    table = _exit_table(alpha, bit[:k], exits, back)
    known = {}  # a permutation of the exits -> its number of cycles
    tally = {}  # (closed, *J) -> [signed, count, lowest mask]
    found = [0, -1]  # spherical masks traced, lowest spherical mask
    outer = 0
    sign = 1
    for h in range(1 << (v - 1 - k)):
        if h:
            i = (h & -h).bit_length() - 1 + k
            outer ^= bit[i]
            sign = -sign
            sigma = bwd if outer & bit[i] else fwd
            x, y, z = into[i]
            p[x] = sigma[x]
            p[y] = sigma[y]
            p[z] = sigma[z]
        seen = inside[:]
        jump = []
        for t in exits:
            d = t
            while not in_v[d]:
                seen[d] = 1
                d = p[d]
            seen[d] = 1
            jump.append(back[d])
        key = (_count_cycles(p, seen), *jump)
        entry = tally.get(key)
        if entry is None:
            tally[key] = [sign, 1, outer]
            if len(tally) == _TALLY:
                _flush_tally(tally, table, known, signed_by_b, found)
        else:
            entry[0] += sign
            entry[1] += 1
            if outer < entry[2]:
                entry[2] = outer
    _flush_tally(tally, table, known, signed_by_b, found)
    spherical, first_mask = found
    return [2 * c for c in signed_by_b], 2 * spherical, first_mask


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


def _exit_table(alpha, bit, exits, back) -> list:
    """Walk the block of marking_scan once in Gray order, from every block
    vertex unreversed with sign +1, and return its table: for each pair
    (c, tau) that some inner state M gives, (c, tau, the signed sum of
    those states, their number, their lowest inner mask), where c counts
    the cycles of q = alpha . sigma_M that pass no exit and tau[x] is the
    index of the exit that exits[x] leads to.  tau is given as the
    itemgetter that reads a jump at it, so tau(J) is J . tau.  Block
    vertex i flips the mask bit bit[i].  q is kept on the block darts; q
    at a dart whose sigma_M is an exit lies outside the block, and back
    maps it to that exit's index."""
    nb = 3 * len(bit)
    q = [0] * nb
    for o in range(0, nb, 3):  # every block vertex unreversed
        q[o], q[o + 1], q[o + 2] = alpha[o + 1], alpha[o + 2], alpha[o]
    shut = bytearray(nb)  # the exits, which no cycle that c counts passes
    for t in exits:
        shut[t] = 1
    rows = {}  # (c, *tau) -> [signed, states, lowest inner mask]
    inner = 0
    sign = 1
    for j in range(1 << len(bit)):
        if j:
            i = _FLIPS[j]
            inner ^= bit[i]
            sign = -sign
            o = 3 * i
            if inner & bit[i]:
                q[o], q[o + 1], q[o + 2] = q[o + 1], q[o + 2], q[o]
            else:
                q[o], q[o + 1], q[o + 2] = q[o + 2], q[o], q[o + 1]
        seen = shut[:]
        tau = []
        for t in exits:
            d = q[t]
            while d < nb:
                seen[d] = 1
                d = q[d]
            tau.append(back[d])
        key = (_count_cycles(q, seen), *tau)
        row = rows.get(key)
        if row is None:
            rows[key] = [sign, 1, inner]
        else:
            row[0] += sign
            row[1] += 1
            if inner < row[2]:
                row[2] = inner
    # tau of one exit is (0,): the getter of a slice keeps J . tau a tuple.
    return [(key[0], itemgetter(*key[1:]) if len(key) > 2 else
             itemgetter(slice(1)), *row) for key, row in rows.items()]


def _flush_tally(tally, table, known, signed_by_b, found) -> None:
    """Add the faces of the outer states of marking_scan tallied in tally
    to signed_by_b and found, and empty it.  A key of tally holds closed
    and J; the keys are grouped by J, each group's J reads the table of
    _exit_table once (_read_table), and each key of the group takes
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
    """The inner states of the table of _exit_table by their count
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
