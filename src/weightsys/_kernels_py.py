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


def face_count(alpha) -> int:
    """Number of orbits of d -> sigma(alpha(d))."""
    n = len(alpha)
    if n % 3:
        raise ValueError("alpha length must be a multiple of 3")
    _check_entries(alpha, n)
    seen = bytearray(n)
    faces = 0
    for start in range(n):
        if seen[start]:
            continue
        faces += 1
        d = start
        while not seen[d]:
            seen[d] = 1
            x = alpha[d]
            d = x - 2 if x % 3 == 2 else x + 1
    return faces


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

        (signed_by_b, spherical, spherical_signed, first_mask)

    where signed_by_b[b] sums the signs of markings with face count b,
    spherical counts markings reaching the maximum b = v/2 + 2 (genus 0),
    spherical_signed is their signed subtotal, and first_mask is the
    lowest spherical mask (-1 when there is none).  signed_by_b is sized
    by the connected-graph Euler bound b <= v/2 + 2, so the input must be
    a connected fixed-point-free pairing of 3v darts with v <= 28;
    anything else raises ValueError.
    """
    n = 3 * v
    if len(alpha) != n:
        raise ValueError("alpha length does not match vertex count")
    if v > MAX_SCAN_V:
        raise ValueError(f"marking scan capped at v = {MAX_SCAN_V}")
    _check_entries(alpha, n)
    if any(x == d or alpha[x] != d for d, x in enumerate(alpha)):
        raise ValueError("alpha is not a fixed-point-free pairing")
    if v and not _connected(alpha, v):
        raise ValueError("marking scan requires a connected pairing")
    b_top = v // 2 + 2
    signed_by_b = [0] * (b_top + 1)
    spherical = 0
    spherical_signed = 0
    first_mask = -1
    tau = list(range(n))
    seen = bytearray(n)
    for mask in range(1 << v):
        for i in range(v):
            o = 3 * i
            if (mask >> i) & 1:
                tau[o + 1] = o + 2
                tau[o + 2] = o + 1
            else:
                tau[o + 1] = o + 1
                tau[o + 2] = o + 2
        for d in range(n):
            seen[d] = 0
        faces = 0
        for start in range(n):
            if seen[start]:
                continue
            faces += 1
            d = start
            while not seen[d]:
                seen[d] = 1
                x = tau[alpha[tau[d]]]
                d = x - 2 if x % 3 == 2 else x + 1
        sign = -1 if bin(mask).count("1") & 1 else 1
        signed_by_b[faces] += sign
        if faces == b_top:
            if first_mask < 0:
                first_mask = mask
            spherical += 1
            spherical_signed += sign
    return signed_by_b, spherical, spherical_signed, first_mask
