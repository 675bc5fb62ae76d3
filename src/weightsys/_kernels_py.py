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


def _check_entries(alpha, n: int) -> None:
    # Python would wrap a negative index round silently; C would not.
    if n and (min(alpha) < 0 or max(alpha) >= n):
        raise ValueError("alpha entry outside 0..3v-1")


def _count_cycles(p) -> int:
    """Number of cycles of the permutation p of 0..len(p)-1."""
    seen = bytearray(len(p))
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
    return _count_cycles([x - 2 if x % 3 == 2 else x + 1 for x in alpha])


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
    anything else raises ValueError.

    Only the 2^(v-1) masks with bit v-1 clear are traced.  A mask and its
    complement reverse every cyclic order, so they give mirror-image
    rotation systems with equal face counts, and with v even their signs
    agree: the totals of the half are doubled.  The complement of a
    spherical mask is spherical and one of the two has bit v-1 clear, so
    the lowest spherical mask lies in the traced half.

    The half is walked in Gray order: step k flips vertex ctz(k) and the
    sign alternates.  Faces are the cycles of p = sigma_M . alpha, where
    sigma_M is sigma at an unreversed vertex and its inverse at a
    reversed one, so p[d] is fwd[d] or bwd[d] by the state of vertex
    alpha[d] // 3, and a flip at vertex i rewrites p at the three darts
    alpha[3i..3i+2] only.  first_mask is the minimum of the spherical
    Gray masks, which is the first spherical mask in counter order.
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
        raise ValueError("marking scan requires a connected pairing")
    fwd = [x - 2 if x % 3 == 2 else x + 1 for x in alpha]
    bwd = [x + 2 if x % 3 == 0 else x - 1 for x in alpha]
    into = [alpha[o:o + 3] for o in range(0, n, 3)]  # darts alpha sends to i
    p = fwd[:]
    spherical = 0
    first_mask = -1
    gray = 0
    sign = 1
    for k in range(1 << (v - 1)):
        if k:
            i = (k & -k).bit_length() - 1
            gray ^= 1 << i
            sign = -sign
            table = bwd if gray >> i & 1 else fwd
            x, y, z = into[i]
            p[x] = table[x]
            p[y] = table[y]
            p[z] = table[z]
        faces = _count_cycles(p)
        signed_by_b[faces] += sign
        if faces == b_top:
            if first_mask < 0 or gray < first_mask:
                first_mask = gray
            spherical += 1
    return [2 * c for c in signed_by_b], 2 * spherical, first_mask
