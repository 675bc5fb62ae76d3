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

MAX_SCAN_V = 28
_MAX_K = 8  # block vertices at most: each of its darts fits 5 bits in C
_TALLY = 1 << 14  # keys it tallies before walking the block for them
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
    darts leave it, the fewer outer states the inner walk can tell apart
    (see the keys below).  Below v = _SEARCH_V the block is 0..k-1.  The
    darts are relabeled on every scan so the block is vertices 0..k-1 and
    the outer vertices keep their order, and each walk flips the original
    bit of the vertex it reverses, so every mask below is in the original
    labels.  In the new labels let V = alpha(darts 0..3k-1), the darts
    that alpha sends into the block.  p[d] is a block dart exactly when d
    is in V, so p(V) is the block's darts, and p off V is fixed by the
    outer state.  For each outer state one pass over p

    - follows each block dart t to the first dart of V it reaches,
      jump[t].  As p(V) is the block's darts, jump is a bijection from
      them onto V, and it cuts every face through the block into
      segments.  A block dart that alpha keeps in the block is in V, so
      its jump is alpha[t] in every state: only the darts that leave the
      block, exits, are followed;
    - counts the faces that no segment reaches.  They avoid V, so every
      inner state keeps them: they are the closed faces.

    Every face through the block is a cycle of r = jump . p on V, which
    has 3k entries, so faces = closed + cycles(r), and a flip in the block
    rewrites three entries of r.  r is kept by block dart: r[t] is
    alpha[jump[sigma_M(t)]] and stands for r at alpha[t].

    The inner walk sees an outer state only through closed and jump, and
    many outer states share both.  So the outer states are tallied by the
    key (closed, jump at exits), with their sign sum, their number and
    their lowest mask.  jump maps exits onto the alpha-images of the
    darts of V outside the block, which are exits again, so with e exits
    there are at most e! jumps.  The inner walk reads
    only jump, and closed only adds to its face counts: it runs once per
    jump among the keys, and tallies its inner states by their count c of
    cycles of r, with their sign sum, their number and their lowest inner
    mask.  Each key of that jump then takes closed + c faces from each
    count c.  Outer and inner bits are disjoint, so a key's lowest
    spherical mask is its lowest outer mask plus the lowest inner mask of
    the count c that makes it spherical, and first_mask is the least of
    these.  The tally holds at most _TALLY keys: when it is full, their
    inner walks run and it starts again empty, so a key met again later
    is walked again, and the sums are the same.

    The work is thus about 2^(v-1-k) outer states of 3v steps each plus
    2^k inner states of 3k steps for each jump, with at most
    min(2^(v-1-k), e!) jumps.  _block takes the k, 1..min(v - 1, _MAX_K),
    and the block of k vertices that make this estimate (_work) least, so
    the block grows with v where few darts leave it and stays small where
    many do.  The outputs do not depend on the block.
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
    tally = {}  # (closed, *jump at exits) -> [signed, count, lowest mask]
    found = [0, -1]  # spherical masks traced, lowest spherical mask
    outer = 0
    sign = 1
    for h in range(1 << (v - 1 - k)):
        if h:
            i = (h & -h).bit_length() - 1 + k
            outer ^= bit[i]
            sign = -sign
            table = bwd if outer & bit[i] else fwd
            x, y, z = into[i]
            p[x] = table[x]
            p[y] = table[y]
            p[z] = table[z]
        seen = inside[:]
        jump = []
        for t in exits:
            d = t
            while not in_v[d]:
                seen[d] = 1
                d = p[d]
            seen[d] = 1
            jump.append(alpha[d])
        key = (_count_cycles(p, seen), *jump)
        entry = tally.get(key)
        if entry is None:
            tally[key] = [sign, 1, outer]
            if len(tally) == _TALLY:
                _walk_block(tally, bit[:k], alpha, exits, signed_by_b, found)
        else:
            entry[0] += sign
            entry[1] += 1
            if outer < entry[2]:
                entry[2] = outer
    _walk_block(tally, bit[:k], alpha, exits, signed_by_b, found)
    spherical, first_mask = found
    return [2 * c for c in signed_by_b], 2 * spherical, first_mask


def _work(v: int, j: int, inside: int) -> int:
    """The work marking_scan estimates for a block of j vertices with
    `inside` edges between them, loops included: 3v steps for each of the
    2^(v-1-j) outer states, and 3j for each of the 2^j inner states of
    each jump.  The e = 3j - 2 inside darts that leave the block make at
    most e! jumps, and there are no more jumps than outer states."""
    outer = 1 << (v - 1 - j)
    return 3 * v * outer + min(outer, _FACTORIAL[3 * j - 2 * inside]) * (
        3 * j << j)


def _block(alpha, v: int) -> list:
    """The block of marking_scan, in label order: j vertices, never
    v - 1, for the j = 1..min(v - 1, _MAX_K) of least _work, the least j
    on a tie.  From v = _SEARCH_V each j scores the set of j vertices with
    the most edges inside that _search finds; below, it scores 0..j-1."""
    top = min(v - 1, _MAX_K)
    if v < _SEARCH_V:
        # The edges inside 0..j-1 are those of its darts d with alpha[d] < d.
        inside = 0
        costs = []
        for d in range(0, 3 * top, 3):
            inside += (alpha[d] < d) + (alpha[d + 1] < d + 1) + (
                alpha[d + 2] < d + 2)
            costs.append(_work(v, d // 3 + 1, inside))
        return list(range(1 + costs.index(min(costs))))
    most, runs = _search(alpha, v, top)
    costs = [_work(v, j, most[j]) for j in range(1, top + 1)]
    j = 1 + costs.index(min(costs))
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


def _walk_block(tally, bit, alpha, exits, signed_by_b, found) -> None:
    """Walk the block of marking_scan in Gray order once for each jump
    among the keys of tally, and empty it.  Block vertex i flips the mask
    bit bit[i].  A key holds jump at the block darts in exits; at the
    other block darts jump is alpha, relabeled.  The keys are grouped by
    their jump, and _cycle_histograms walks the block once for each
    group; each inner state with c cycles of r then gives closed + c
    faces to every key of the group.  The faces go into signed_by_b; found
    holds the spherical count and the lowest spherical mask so far, and
    is updated."""
    nb = 3 * len(bit)
    jump = list(alpha[:nb])
    b_top = len(signed_by_b) - 1
    spherical, first_mask = found
    groups = {}  # jump at exits -> [(closed, sign, count, lowest mask)]
    for (closed, *far), entry in tally.items():
        groups.setdefault(tuple(far), []).append((closed, *entry))
    for far, keys in groups.items():
        for t, x in zip(exits, far):
            jump[t] = x
        histograms = _cycle_histograms(jump, bit)
        for closed, sign, count, outer in keys:
            for cycles, signed, states, lowest in histograms:
                faces = closed + cycles
                signed_by_b[faces] += sign * signed
                if faces == b_top:
                    if first_mask < 0 or outer | lowest < first_mask:
                        first_mask = outer | lowest
                    spherical += count * states
    found[:] = spherical, first_mask
    tally.clear()


def _cycle_histograms(jump, bit) -> list:
    """Walk the block in Gray order with jump fixed, from every block
    vertex unreversed with sign +1, and return for each count c of cycles
    of r that some inner state has: (c, the signed sum of those states,
    their number, their lowest inner mask)."""
    k = len(bit)
    nb = 3 * k
    r = [0] * nb
    for o in range(0, nb, 3):  # every block vertex unreversed
        r[o], r[o + 1], r[o + 2] = jump[o + 1], jump[o + 2], jump[o]
    signed = [0] * (nb + 1)  # by the cycle count
    states = [0] * (nb + 1)
    lowest = [1 << 32] * (nb + 1)  # above every mask of v <= MAX_SCAN_V
    inner = 0
    sign = 1
    for j in range(1 << k):
        if j:
            i = _FLIPS[j]
            inner ^= bit[i]
            sign = -sign
            o = 3 * i
            if inner & bit[i]:
                r[o], r[o + 1], r[o + 2] = r[o + 1], r[o + 2], r[o]
            else:
                r[o], r[o + 1], r[o + 2] = r[o + 2], r[o], r[o + 1]
        mark = [False] * nb  # inline: faster here than _count_cycles
        cycles = 0
        for s in range(nb):
            if not mark[s]:
                cycles += 1
                mark[s] = True
                d = r[s]
                while d != s:
                    mark[d] = True
                    d = r[d]
        signed[cycles] += sign
        states[cycles] += 1
        if inner < lowest[cycles]:
            lowest[cycles] = inner
    return [(c, signed[c], states[c], lowest[c])
            for c in range(1, nb + 1) if states[c]]
