"""Oriented trivalent multigraphs as combinatorial maps.

A graph on ``v`` vertices (``v`` even and positive) is encoded by its darts (half-edges)
``0 .. 3v-1`` together with a fixed-point-free involution ``alpha`` pairing
each dart with the opposite half of its edge.  Vertex ``i`` owns darts
``3i, 3i+1, 3i+2`` and that order is its counterclockwise cyclic order; the
rotation never lives anywhere else.  Loops are pairs of darts at one vertex,
parallel edges are just distinct pairs: multigraphs are first-class.

The companion text format is line oriented::

    # optional comments
    v 2
    e 0 4
    e 1 3
    e 2 5

with exactly ``3v/2`` edge lines, each naming the two darts of one edge.

This is the base layer under all three routes; it loads no other module
of the package (the genus of a rotation system is ``ribbon.genus``).
"""

from __future__ import annotations

from dataclasses import dataclass


class GraphParseError(ValueError):
    """Raised when graph text violates the format.

    ``kind`` is one of ``duplicate-dart``, ``missing-dart``,
    ``self-paired-dart``, ``bad-count``, ``syntax``; ``line`` is the
    1-based line number of the offending line (for end-of-input checks,
    the last line of the input).
    """

    def __init__(self, line: int, kind: str, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.kind = kind


@dataclass(frozen=True)
class TrivalentGraph:
    """Immutable combinatorial map of a trivalent multigraph."""

    vertex_count: int
    alpha: tuple[int, ...]

    def __post_init__(self):
        v = self.vertex_count
        if v <= 0 or v % 2:
            raise ValueError(f"vertex count must be even and positive, got {v}")
        a = self.alpha
        if len(a) != 3 * v:
            raise ValueError(f"alpha must have length {3 * v}, got {len(a)}")
        for d, ad in enumerate(a):
            if not 0 <= ad < 3 * v:
                raise ValueError(f"alpha({d}) = {ad} out of range")
            if ad == d:
                raise ValueError(f"alpha fixes dart {d}")
            if a[ad] != d:
                raise ValueError(f"alpha is not an involution at dart {d}")

    @property
    def dart_count(self) -> int:
        return 3 * self.vertex_count

    @property
    def edge_count(self) -> int:
        return 3 * self.vertex_count // 2

    def edges(self) -> list[tuple[int, int]]:
        """Edges as dart pairs ``(d, alpha(d))`` with ``d < alpha(d)``,
        sorted by first dart.  This order is the edge indexing used
        everywhere (colorings, map adjacency, serialization)."""
        return [(d, self.alpha[d]) for d in range(self.dart_count) if d < self.alpha[d]]

    def sigma(self, dart: int) -> int:
        """Counterclockwise successor of ``dart`` around its vertex."""
        return dart - 2 if dart % 3 == 2 else dart + 1

    def has_loop(self) -> bool:
        return any(self.alpha[d] // 3 == d // 3 for d in range(self.dart_count))


def _is_number(word: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also takes digits like '²'
    that ``int`` refuses."""
    return word.isascii() and word.isdigit()


def parse_graph(text: bytes | str) -> TrivalentGraph:
    """Parse the text format, preserving dart numbering exactly."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = text.count(b"\n", 0, exc.start) + 1
            raise GraphParseError(line, "syntax",
                                  f"not UTF-8 at byte {exc.start}") from None
    lines = text.splitlines()
    last = max(1, len(lines))

    v = None
    pairs: list[tuple[int, int, int]] = []  # (line_no, dart, dart)
    for no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v":
            if v is not None:
                raise GraphParseError(no, "syntax", "repeated 'v' line")
            if len(parts) != 2 or not _is_number(parts[1]):
                raise GraphParseError(no, "syntax", f"malformed vertex line {line!r}")
            v = int(parts[1])
            if not v:
                raise GraphParseError(no, "bad-count",
                                      "vertex count must be positive, got 0")
            if v % 2:
                raise GraphParseError(no, "bad-count", f"vertex count {v} is odd")
        elif parts[0] == "e":
            if v is None:
                raise GraphParseError(no, "syntax", "'e' line before 'v' line")
            if len(parts) != 3 or not (_is_number(parts[1])
                                       and _is_number(parts[2])):
                raise GraphParseError(no, "syntax", f"malformed edge line {line!r}")
            pairs.append((no, int(parts[1]), int(parts[2])))
        else:
            raise GraphParseError(no, "syntax", f"unrecognized line {line!r}")

    if v is None:
        raise GraphParseError(last, "syntax", "missing 'v' line")
    if len(pairs) != 3 * v // 2:
        raise GraphParseError(last, "bad-count",
                              f"expected {3 * v // 2} edge lines, got {len(pairs)}")

    alpha = [-1] * (3 * v)
    for no, d, dd in pairs:
        if d == dd:
            raise GraphParseError(no, "self-paired-dart", f"dart {d} paired with itself")
        for x in (d, dd):
            if not 0 <= x < 3 * v:
                raise GraphParseError(no, "syntax", f"dart {x} out of range 0..{3 * v - 1}")
            if alpha[x] != -1:
                raise GraphParseError(no, "duplicate-dart", f"dart {x} used twice")
        alpha[d] = dd
        alpha[dd] = d
    for d in range(3 * v):
        if alpha[d] == -1:
            raise GraphParseError(last, "missing-dart", f"dart {d} never paired")

    return TrivalentGraph(v, tuple(alpha))


def serialize_graph(g: TrivalentGraph) -> bytes:
    """Canonical text for ``g``; ``parse_graph`` round-trips it dart-for-dart."""
    out = [f"v {g.vertex_count}"]
    out.extend(f"e {d} {dd}" for d, dd in g.edges())
    return ("\n".join(out) + "\n").encode("utf-8")


def _bfs_tree(g: TrivalentGraph):
    """BFS tree from vertex 0: the vertices reached in order, parents (-1
    at the root), depths (-1 where unreached) and flags on tree darts."""
    v = g.vertex_count
    alpha = g.alpha
    parent = [-1] * v
    depth = [0] + [-1] * (v - 1)
    tree = [False] * g.dart_count
    order = [0]
    for i in order:  # grows while it is walked
        for d in (3 * i, 3 * i + 1, 3 * i + 2):
            j = alpha[d] // 3
            if depth[j] < 0:
                parent[j] = i
                depth[j] = depth[i] + 1
                tree[d] = tree[alpha[d]] = True
                order.append(j)
    return order, parent, depth, tree


def is_connected(g: TrivalentGraph) -> bool:
    return len(_bfs_tree(g)[0]) == g.vertex_count


def is_two_connected(g: TrivalentGraph) -> bool:
    """Connected, loop-free and without cut vertices.

    Loops are excluded: a loop makes a complementary region border
    itself, which 2-connectivity is meant to rule out downstream.

    That is connected and bridgeless.  A loop leaves its vertex one
    other edge, a bridge.  Without loops, a cut vertex splits its three
    edges over two or more parts, so one part gets exactly one of them,
    a bridge; and an end of a bridge is a cut vertex, its other two
    edges staying on its side.  Each non-tree edge of a BFS tree covers
    the tree path between its ends, walked by union-find jumps so that
    each tree edge is covered once; bridgeless means all v - 1 get
    covered.
    """
    order, parent, depth, tree = _bfs_tree(g)
    v = g.vertex_count
    if len(order) != v:
        return False
    up = list(range(v))  # up[x] != x: x's tree edge is covered

    def top(x: int) -> int:
        # The highest ancestor reached from x by covered tree edges.
        while up[x] != x:
            up[x] = up[up[x]]
            x = up[x]
        return x

    covered = 0
    for d, dd in enumerate(g.alpha):
        if d > dd or tree[d]:
            continue
        a, b = top(d // 3), top(dd // 3)
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            up[a] = parent[a]
            covered += 1
            a = top(a)
    return covered == v - 1


def flip_vertices(g: TrivalentGraph, which: tuple[int, ...]) -> TrivalentGraph:
    """Reverse the cyclic order at each listed vertex, once per listing.

    With the fixed global rotation, reversing ``(3i, 3i+1, 3i+2)`` to
    ``(3i, 3i+2, 3i+1)`` amounts to conjugating ``alpha`` by the swap of
    darts ``3i+1`` and ``3i+2``.  Flips are involutions and commute, so
    the order does not matter and a vertex listed twice is left as it
    was.  Raises IndexError on a vertex out of range."""
    tau = list(range(g.dart_count))
    for i in which:
        if not 0 <= i < g.vertex_count:
            raise IndexError(f"vertex index {i} out of range")
        tau[3 * i + 1], tau[3 * i + 2] = tau[3 * i + 2], tau[3 * i + 1]
    alpha = tuple(tau[g.alpha[tau[d]]] for d in range(g.dart_count))
    return TrivalentGraph(g.vertex_count, alpha)


def face_orbits(g: TrivalentGraph) -> list[tuple[int, ...]]:
    """Orbits of ``next(d) = sigma(alpha(d))``: the faces of the rotation
    system, equal to the boundary circles of the thickened surface.

    Each orbit is reported starting from its smallest dart; orbits are
    sorted by that dart.
    """
    n = g.dart_count
    seen = [False] * n
    orbits = []
    for start in range(n):
        if seen[start]:
            continue
        cycle = []
        d = start
        while not seen[d]:
            seen[d] = True
            cycle.append(d)
            d = g.sigma(g.alpha[d])
        orbits.append(tuple(cycle))
    return orbits
