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

MAX_SCAN_V = 28
_BLOCK = 3  # vertices in the block of marking_scan's inner walk, v - 1 if fewer
_TALLY = 1 << 14  # keys it tallies before walking the block for them


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
    a connected fixed-point-free pairing of 3v darts with v <= 28;
    anything else raises ValueError, checked in this order: the length,
    the cap on v, the entries, the pairing, and last connectivity, with
    the message "graph is not connected" that the CLI prints as it is.

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
    runs over the block of low vertices 0..k-1, the outer walk over
    vertices k..v-2.  Let V = alpha(darts 0..3k-1), the darts that alpha
    sends into the block.  p[d] is a block dart exactly when d is in V,
    so p(V) is the block's darts, and p off V is fixed by the outer
    state.  For each outer state one pass over p

    - follows each block dart t to the first dart of V it reaches,
      jump[t].  As p(V) is the block's darts, jump is a bijection from
      them onto V, and it cuts every face through the block into
      segments;
    - counts the faces that no segment reaches.  They avoid V, so every
      inner state keeps them: they are the closed faces.

    Every face through the block is a cycle of r = jump . p on V, which
    has 3k entries, so faces = closed + cycles(r), and a flip in the block
    rewrites three entries of r.  r is kept by block dart: r[t] is
    alpha[jump[sigma_M(t)]] and stands for r at alpha[t].

    The inner walk sees an outer state only through closed and jump, and
    many outer states share both.  So the outer states are tallied by the
    key (closed, jump), with their sign sum, their number and their
    lowest mask, and the inner walk runs once per key.  Outer bits lie
    above inner ones, so a key's lowest spherical mask is its lowest
    outer mask joined with its lowest spherical inner state, and
    first_mask is the least of these.  The block has k = _BLOCK vertices,
    v - 1 if fewer.  The tally holds at most _TALLY keys: when it is
    full, their inner walks run and it starts again empty, so a key met
    again later is walked again, and the sums are the same.
    """
    n = 3 * v
    if len(alpha) != n:
        raise ValueError("alpha length does not match vertex count")
    if v > MAX_SCAN_V:
        raise ValueError(f"marking scan capped at v = {MAX_SCAN_V}")
    _check_entries(alpha, n)
    if any(x == d or alpha[x] != d for d, x in enumerate(alpha)):
        raise ValueError("alpha is not a fixed-point-free pairing")
    b_top = v // 2 + 2
    signed_by_b = [0] * (b_top + 1)
    if not v:
        signed_by_b[0] = 1  # the empty graph: one marking, no faces
        return signed_by_b, 0, -1
    if not _connected(alpha, v):
        raise ValueError("graph is not connected")
    k = min(v - 1, _BLOCK)
    nb = 3 * k
    fwd = [x - 2 if x % 3 == 2 else x + 1 for x in alpha]
    bwd = [x + 2 if x % 3 == 0 else x - 1 for x in alpha]
    into = [alpha[o:o + 3] for o in range(0, n, 3)]  # darts alpha sends to i
    in_v = [x < nb for x in alpha]
    p = fwd[:]
    jump = [0] * nb  # as block darts: alpha of the first V dart reached
    tally = {}  # (closed, *jump) -> [signed, count, lowest outer mask]
    found = [0, -1]  # spherical masks traced, lowest spherical mask
    outer = 0
    sign = 1
    for h in range(1 << (v - 1 - k)):
        if h:
            i = (h & -h).bit_length() - 1 + k
            outer ^= 1 << i
            sign = -sign
            table = bwd if outer >> i & 1 else fwd
            x, y, z = into[i]
            p[x] = table[x]
            p[y] = table[y]
            p[z] = table[z]
        seen = bytearray(n)
        for t in range(nb):
            d = t
            while not in_v[d]:
                seen[d] = 1
                d = p[d]
            seen[d] = 1
            jump[t] = alpha[d]
        key = (_count_cycles(p, seen), *jump)
        entry = tally.get(key)
        if entry is None:
            tally[key] = [sign, 1, outer]
            if len(tally) == _TALLY:
                _walk_block(tally, k, signed_by_b, found)
        else:
            entry[0] += sign
            entry[1] += 1
            if outer < entry[2]:
                entry[2] = outer
    _walk_block(tally, k, signed_by_b, found)
    spherical, first_mask = found
    return [2 * c for c in signed_by_b], 2 * spherical, first_mask


def _walk_block(tally, k: int, signed_by_b, found) -> None:
    """Walk the block of marking_scan in Gray order once for each key of
    tally, and empty it.  The faces of each inner state go into
    signed_by_b; found holds the spherical count and the lowest spherical
    mask so far, and is updated."""
    nb = 3 * k
    b_top = len(signed_by_b) - 1
    spherical, first_mask = found
    flips = [(j & -j).bit_length() - 1 for j in range(1, 1 << k)]
    r = [0] * nb
    for (closed, *jump), (sign, count, outer) in tally.items():
        for o in range(0, nb, 3):  # every block vertex unreversed
            r[o], r[o + 1], r[o + 2] = jump[o + 1], jump[o + 2], jump[o]
        inner = 0
        for j in range(1 << k):
            if j:
                i = flips[j - 1]
                inner ^= 1 << i
                sign = -sign
                o = 3 * i
                if inner >> i & 1:
                    r[o], r[o + 1], r[o + 2] = r[o + 1], r[o + 2], r[o]
                else:
                    r[o], r[o + 1], r[o + 2] = r[o + 2], r[o], r[o + 1]
            mark = [False] * nb  # inline: faster here than _count_cycles
            faces = closed
            for s in range(nb):
                if not mark[s]:
                    faces += 1
                    mark[s] = True
                    d = r[s]
                    while d != s:
                        mark[d] = True
                        d = r[d]
            signed_by_b[faces] += sign
            if faces == b_top:
                if first_mask < 0 or outer | inner < first_mask:
                    first_mask = outer | inner
                spherical += count
    found[:] = spherical, first_mask
    tally.clear()
