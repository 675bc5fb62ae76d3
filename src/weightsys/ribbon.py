"""The marking expansion: W_gl(N) as an exact integer polynomial.

A marking assigns +1/-1 to each vertex; a '-' reverses that vertex's
cyclic order.  Thickening the graph accordingly gives a ribbon surface
whose boundary-circle count b is just the face count of the re-oriented
rotation system, so the whole expansion

    W_gl(N) = sum over markings of sign(M) * N^b(M)

reduces to face tracing.  The top coefficient (b = v/2 + 2, genus 0)
signs-counts the spherical markings; its support decides planarity.
"""

from __future__ import annotations

from . import kernels
from .graphs import TrivalentGraph, flip_vertices, is_connected
from .poly import IntPolynomial

Marking = tuple[int, ...]


def _marking_of_mask(mask: int, v: int) -> Marking:
    return tuple(-1 if (mask >> i) & 1 else 1 for i in range(v))


def rotation_of_marking(g: TrivalentGraph, m: Marking) -> TrivalentGraph:
    """The graph with cyclic order reversed at exactly the '-' vertices."""
    if len(m) != g.vertex_count:
        raise ValueError("marking length does not match vertex count")
    return flip_vertices(g, tuple(i for i, s in enumerate(m) if s < 0))


def wgl_polynomial(g: TrivalentGraph) -> IntPolynomial:
    """Sum sign(M)·N^b over all 2^v markings, collected by exponent."""
    return marking_profile(g)[0]


def w_top(g: TrivalentGraph) -> int:
    """Coefficient of N^(v/2+2): the signed count of spherical markings."""
    return marking_profile(g)[2]


def count_spherical_embeddings(g: TrivalentGraph) -> int:
    """Number of markings whose surface has genus 0 — the graph's
    embeddings in the oriented sphere reachable by vertex reversals."""
    return marking_profile(g)[1]


def first_spherical_marking(g: TrivalentGraph) -> Marking | None:
    """The first genus-0 marking in binary-counter order (vertex 0 least
    significant, bit set means '-'), or None."""
    return marking_profile(g)[3]


def marking_profile(
        g: TrivalentGraph,
) -> tuple[IntPolynomial, int, int, Marking | None]:
    """(wgl polynomial, spherical count, signed spherical count, first
    spherical marking) from one scan — what the survey and the CLI want
    without repeating the scan.  The scan traces the 2^(v-1) markings
    that leave vertex v-1 unreversed and doubles the totals: a marking
    and its complement have equal face counts and equal signs."""
    if not is_connected(g):
        raise ValueError("marking expansion requires a connected graph")
    signed_by_b, spherical, spherical_signed, first_mask = \
        kernels.marking_scan(g.alpha, g.vertex_count)
    poly = IntPolynomial({b: c for b, c in enumerate(signed_by_b) if c})
    first = (None if first_mask < 0
             else _marking_of_mask(first_mask, g.vertex_count))
    return poly, spherical, spherical_signed, first
