"""The marking expansion: W_gl(N) as an exact integer polynomial.

A marking assigns +1/-1 to each vertex; a '-' reverses that vertex's
cyclic order.  Thickening the graph accordingly gives a ribbon surface
whose boundary-circle count b is just the face count of the re-oriented
rotation system, so the whole expansion

    W_gl(N) = sum over markings of sign(M) * N^b(M)

reduces to face tracing.  The top coefficient w_top (b = v/2 + 2,
genus 0) signs-counts the spherical markings, and the graph is planar
exactly when there is one.  ``marking_profile`` reads all of that off a
single scan.
"""

from __future__ import annotations

from typing import NamedTuple

from . import kernels
from .graphs import TrivalentGraph, flip_vertices
from .poly import IntPolynomial

Marking = tuple[int, ...]


class MarkingProfile(NamedTuple):
    wgl: IntPolynomial  # sum of sign(M) * N^b(M) over all 2^v markings
    spherical: int  # genus-0 markings: embeddings in the oriented sphere
    top: int  # w_top, the coefficient of N^(v/2+2)
    first: Marking | None  # first genus-0 marking in counter order


def _marking_of_mask(mask: int, v: int) -> Marking:
    return tuple(-1 if (mask >> i) & 1 else 1 for i in range(v))


def rotation_of_marking(g: TrivalentGraph, m: Marking) -> TrivalentGraph:
    """The graph with cyclic order reversed at exactly the '-' vertices.
    Raises ValueError unless ``m`` has one entry +1 or -1 per vertex."""
    if len(m) != g.vertex_count:
        raise ValueError("marking length does not match vertex count")
    for s in m:
        if s not in (1, -1):
            raise ValueError(f"marking entry {s!r} is not +1 or -1")
    return flip_vertices(g, tuple(i for i, s in enumerate(m) if s < 0))


def marking_profile(g: TrivalentGraph) -> MarkingProfile:
    """The marking expansion of a connected graph from one scan.

    ``first`` is in binary-counter order: vertex 0 least significant,
    bit set means '-'.  The scan traces the 2^(v-1) markings that leave
    vertex v-1 unreversed and doubles the totals: a marking and its
    complement have equal face counts and equal signs.  A graph the
    kernels refuse raises their ValueError: over v = 28 "marking scan
    capped at v = 28", else, if disconnected, "graph is not connected".
    This is the only connectivity check on the marking route; the CLI
    prints the message as it is."""
    v = g.vertex_count
    signed_by_b, spherical, first_mask = kernels.marking_scan(g.alpha, v)
    wgl = IntPolynomial(enumerate(signed_by_b))
    first = None if first_mask < 0 else _marking_of_mask(first_mask, v)
    return MarkingProfile(wgl, spherical, wgl.coefficient(v // 2 + 2), first)
