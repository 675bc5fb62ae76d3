"""The marking expansion: W_gl(N) as an exact integer polynomial.

A marking assigns +1/-1 to each vertex; a '-' reverses that vertex's
cyclic order.  Thickening the graph accordingly gives a ribbon surface
whose boundary-circle count b is just the face count of the re-oriented
rotation system, so the whole expansion

    W_gl(N) = sum over markings of sign(M) * N^b(M)

reduces to face tracing.  The top coefficient w_top (b = v/2 + 2,
genus 0) signs-counts the spherical markings, and the graph is planar
exactly when there is one.  ``marking_profile`` reads all of that off a
single scan into an ``IntPolynomial``.  ``genus`` reads the surface of
one rotation system off the kernels' face count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import kernels
from .graphs import TrivalentGraph, flip_vertices, is_connected

Marking = tuple[int, ...]


@dataclass(frozen=True, init=False, repr=False)
class IntPolynomial:
    """Immutable polynomial in N with arbitrary-precision integer coefficients.

    Stored as ``terms``, the (exponent, coefficient) pairs in descending
    exponent order with no zero coefficients, built once by ``__init__``;
    so two equal polynomials always compare and hash equal.  ``__init__``
    takes a dict or an iterable of pairs; duplicate exponents add up.
    """

    terms: tuple[tuple[int, int], ...]

    def __init__(self, coeffs=None):
        clean: dict[int, int] = {}
        for exp, c in (coeffs.items() if hasattr(coeffs, "items")
                       else coeffs or ()):
            if exp < 0:
                raise ValueError(f"negative exponent {exp}")
            clean[exp] = clean.get(exp, 0) + c
        object.__setattr__(self, "terms", tuple(sorted(
            ((e, c) for e, c in clean.items() if c), reverse=True)))

    def coefficient(self, exp: int) -> int:
        return next((c for e, c in self.terms if e == exp), 0)

    @property
    def degree(self) -> int:
        """Largest exponent with nonzero coefficient; -1 for the zero
        polynomial (so degree bounds read as plain <=)."""
        return self.terms[0][0] if self.terms else -1

    def __call__(self, n):
        return sum(c * n ** e for e, c in self.terms)

    def __repr__(self):
        return f"IntPolynomial({dict(self.terms)!r})"

    def __str__(self):
        """Descending exponents with explicit signs, e.g. "2*N^3 - 2*N"."""
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            mag = abs(c)
            if e == 0:
                body = str(mag)
            elif e == 1:
                body = "N" if mag == 1 else f"{mag}*N"
            else:
                body = f"N^{e}" if mag == 1 else f"{mag}*N^{e}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json(self) -> dict[str, str]:
        """{"exponent": "coefficient"} with both sides as decimal strings
        (coefficients can outgrow fixed-width integer consumers)."""
        return {str(e): str(c) for e, c in self.terms}


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


def genus(g: TrivalentGraph) -> int:
    """Genus of the closed surface of the rotation system."""
    if not is_connected(g):
        raise ValueError("genus requires a connected graph")
    chi = g.vertex_count - g.edge_count + kernels.face_count(g.alpha)
    gg, rem = divmod(2 - chi, 2)
    if rem or gg < 0:
        raise AssertionError(f"impossible Euler characteristic {chi}")
    return gg
