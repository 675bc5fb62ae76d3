"""Edge-3-colorings, signed Penrose sums, map faces and 4-colorings.

An edge coloring assigns {1,2,3} to the edges (indexed in file order);
properness means every vertex sees three distinct colors, so loops kill
all colorings outright.  Each proper coloring carries a sign: the product
over vertices of the parity of the color permutation read in the vertex's
cyclic dart order.  The signed total is the weight for the so(3)
normalization with identity metric, and 2^{v/2} times it is the sl(2)
weight — both facts are cross-checked against the tensor route in tests
rather than assumed here.

The map side: a spherical rotation system, which the caller finds, is a
planar map whose faces can be 4-colored by the Klein group H = Z/2 x Z/2
(encoded 0..3 with XOR as addition); coloring each edge by the XOR of its
two face colors is the classical Tait correspondence, verified exhaustively.

Both enumerations are one search, ``_proper_colorings``, over a conflict
graph: the line graph for edge colorings (two edges conflict when they
share a vertex), the dual for face colorings (two faces conflict when a
map edge lies between them).  It colors next the position with the most
conflicts already colored, the lowest index on a tie, so a dead branch
fails near where it starts, and tries colors in ascending order.  Each
coloring is read back in index order and the list is sorted, so it comes
out as a search in index order would give it, sorted and distinct.  A
loop or a face that borders itself would conflict with itself, so a graph
with a loop and a map with such a face have no proper colorings: both
enumerations return [] before the search.

Each enumeration is made once per graph by the caller and handed on:
``penrose_sum`` signs the edge colorings it is given, and
``verify_tait_bijection`` checks the face colorings it is given against
the edge colorings' count.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .graphs import TrivalentGraph, face_orbits, is_connected

EdgeColoring = tuple[int, ...]
FaceColoring = tuple[int, ...]

_EVEN = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
_PERMS = _EVEN | {(1, 3, 2), (3, 2, 1), (2, 1, 3)}
_H = frozenset(range(4))

# The marking scan's cap.  The search's list grows long before its depth
# (one frame per position) nears the recursion limit: the prism lists
# 16,392 colorings at v = 28 and 1,048,584 at v = 40 (pure, in 5.2 s at
# 552 MB), doubling every two vertices.  Placed in index order, random
# loop-free draws took up to 31 s at v = 36 and 261 s at v = 50; in the
# placement order they take 0.04 and 0.08 s (BENCH_coloring.json).
MAX_SEARCH_V = 28


def _placement_order(conflicts: list[set[int]]) -> list[int]:
    """The positions in the order the search places them: each next one
    has the most conflicts among those placed, the lowest index on a
    tie, so a dead branch shows early."""
    placed_conflicts = [0] * len(conflicts)
    left = list(range(len(conflicts)))
    order = []
    while left:
        # max keeps the first of equal counts, and left is ascending.
        k = max(left, key=placed_conflicts.__getitem__)
        left.remove(k)
        order.append(k)
        for j in conflicts[k]:
            placed_conflicts[j] += 1
    return order


def _proper_colorings(conflicts: list[set[int]],
                      colors: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every assignment of ``colors`` to the positions 0..n-1 (n >= 2) in
    which position k differs from each position in ``conflicts[k]``,
    sorted with the colors in the order given.  The positions are placed
    in ``_placement_order`` and each coloring is read back in index
    order."""
    order = _placement_order(conflicts)
    # rank[p]: when position p is placed.
    rank = [0] * len(order)
    for k, p in enumerate(order):
        rank[p] = k
    # earlier[k]: the placed conflicts of the k-th position placed.
    earlier = [sorted(rank[j] for j in conflicts[p] if rank[j] < k)
               for k, p in enumerate(order)]
    n = len(earlier)
    chosen = [0] * n
    out: list[tuple[int, ...]] = []
    # taken[k](chosen) holds the colors of k's earlier conflicts; one
    # index is read as a slice, since itemgetter returns it bare.
    taken = [itemgetter(*js) if len(js) > 1
             else itemgetter(slice(js[0], js[0] + 1) if js else slice(0))
             for js in earlier]
    in_index_order = itemgetter(*rank)

    def place(k: int):
        if k == n:
            out.append(in_index_order(chosen))
            return
        used = taken[k](chosen)
        for c in colors:
            if c not in used:
                chosen[k] = c
                place(k + 1)

    place(0)
    out.sort()
    return out


def enumerate_edge_3_colorings(g: TrivalentGraph) -> list[EdgeColoring]:
    """All proper edge colorings of ``g`` by 1, 2, 3, in ascending order
    of their tuples in edge index order.  Empty if ``g`` has a loop.
    Raises ValueError over ``MAX_SEARCH_V`` vertices."""
    if g.vertex_count > MAX_SEARCH_V:
        raise ValueError(f"coloring search capped at v = {MAX_SEARCH_V}")
    if g.has_loop():
        return []
    at: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for k, (d, dd) in enumerate(g.edges()):
        at[d // 3].append(k)
        at[dd // 3].append(k)
    conflicts = [{*at[d // 3], *at[dd // 3]} - {k}
                 for k, (d, dd) in enumerate(g.edges())]
    return _proper_colorings(conflicts, (1, 2, 3))


def _signer(g: TrivalentGraph):
    """The sign function of ``g``'s edge colorings, with the dart-to-edge
    table built once for all the colorings it is applied to."""
    edge_of = [0] * g.dart_count
    for k, (d, dd) in enumerate(g.edges()):
        edge_of[d] = edge_of[dd] = k
    rotations = [edge_of[3 * i:3 * i + 3] for i in range(g.vertex_count)]

    def sign(c: EdgeColoring) -> int:
        if len(c) != g.edge_count:
            raise ValueError(f"coloring has {len(c)} entries, "
                             f"not one per edge ({g.edge_count})")
        s = 1
        for i, (x, y, z) in enumerate(rotations):
            perm = (c[x], c[y], c[z])
            if perm not in _PERMS:
                raise ValueError(f"improper coloring at vertex {i}: {perm}")
            if perm not in _EVEN:
                s = -s
        return s

    return sign


def penrose_sum(g: TrivalentGraph, colorings: list[EdgeColoring]) -> int:
    """Signed count of proper edge-3-colorings, given as
    ``enumerate_edge_3_colorings(g)``, so that a caller who also wants
    the count enumerates them once.  A coloring's sign is the product
    over vertices of the sign of its color permutation read
    counterclockwise; raises ValueError on an improper coloring or one
    without exactly one entry per edge."""
    return sum(map(_signer(g), colorings))


def w_sl2(g: TrivalentGraph) -> int:
    """2^{v/2} times the signed coloring count — the sl(2) weight."""
    return 2 ** (g.vertex_count // 2) * penrose_sum(
        g, enumerate_edge_3_colorings(g))


@dataclass(frozen=True)
class PlanarMap:
    """Faces of a genus-0 rotation system of a trivalent graph.

    ``graph`` is the re-oriented graph itself (edge indexing below refers
    to its edges()); ``edge_faces[k]`` gives the two face indices on the
    sides of edge k (equal means the face borders itself); ``outer_face``
    is the designated face at infinity: the one containing dart 0.
    """

    graph: TrivalentGraph
    faces: tuple[tuple[int, ...], ...]
    edge_faces: tuple[tuple[int, int], ...]
    outer_face: int

    def is_self_bordering(self) -> bool:
        return any(a == b for a, b in self.edge_faces)


def extract_map(rot: TrivalentGraph) -> PlanarMap:
    """The map whose faces are those of the rotation system ``rot``.
    Raises ValueError unless ``rot`` is spherical: connected, with
    v/2 + 2 faces (Euler's formula for the sphere)."""
    faces = tuple(face_orbits(rot))
    if len(faces) != rot.vertex_count // 2 + 2 or not is_connected(rot):
        raise ValueError("rotation system is not spherical")
    face_of = [0] * rot.dart_count
    for idx, cyc in enumerate(faces):
        for d in cyc:
            face_of[d] = idx
    edge_faces = tuple((face_of[d], face_of[dd]) for d, dd in rot.edges())
    return PlanarMap(rot, faces, edge_faces, face_of[0])


def enumerate_four_colorings(pm: PlanarMap) -> list[FaceColoring]:
    """All proper face colorings of ``pm`` by H = {0,1,2,3}, in ascending
    order of their tuples in face index order.  Empty if a face borders
    itself.  Raises ValueError over ``MAX_SEARCH_V`` vertices."""
    if pm.graph.vertex_count > MAX_SEARCH_V:
        raise ValueError(f"coloring search capped at v = {MAX_SEARCH_V}")
    if pm.is_self_bordering():
        return []
    conflicts: list[set[int]] = [set() for _ in pm.faces]
    for a, b in pm.edge_faces:
        conflicts[a].add(b)
        conflicts[b].add(a)
    return _proper_colorings(conflicts, (0, 1, 2, 3))


def tait_edge_coloring(pm: PlanarMap, fc: FaceColoring) -> EdgeColoring:
    """Color each edge by the XOR of its two face colors.

    The nonzero elements of H are identified with the edge colors as
    1 -> 1, 2 -> 2, 3 -> 3.  Raises ValueError if ``fc`` has a color
    outside H or is improper (equal colors across some edge, including
    self-bordering faces).
    """
    if len(fc) != len(pm.faces):
        raise ValueError("face coloring length does not match face count")
    if not _H.issuperset(fc):
        raise ValueError(f"face coloring has colors outside H: {fc}")
    result = []
    for k, (a, b) in enumerate(pm.edge_faces):
        h = fc[a] ^ fc[b]
        if h == 0:
            raise ValueError(f"improper face coloring across edge {k}")
        result.append(h)
    return tuple(result)


def verify_tait_bijection(pm: PlanarMap, colorings: list[FaceColoring],
                          edge_colorings: int) -> str | None:
    """Check the Tait correspondence on ``colorings``, the proper face
    colorings of ``pm`` as ``enumerate_four_colorings(pm)`` gives them:
    those with the outer face colored 0 map one-to-one onto the
    ``edge_colorings`` proper edge-3-colorings, and the colorings are
    exactly the pinned ones with every color moved by each element of H,
    four times as many.  None if so, else a description of the
    discrepancy.

    Distinct images proper at every vertex, as many as the edge colorings,
    are all of them, so a count is enough; and the input graph's count
    serves, as the map's graph differs from it only by vertex reversals.
    Moving by H keeps a coloring proper and distinct ones distinct, so
    the list equals that set, at its size, only when it has no repeat."""
    pinned = [fc for fc in colorings if fc[pm.outer_face] == 0]
    images = [tait_edge_coloring(pm, fc) for fc in pinned]
    try:
        penrose_sum(pm.graph, images)  # raises at an improper vertex
    except ValueError as exc:
        return f"pinned image: {exc}"
    if len(images) != edge_colorings or len(set(images)) != len(images):
        return "pinned colorings do not map one-to-one onto edge colorings"
    if len(colorings) != 4 * edge_colorings:
        return f"count mismatch: {len(colorings)} != 4 * {edge_colorings}"
    if set(colorings) != {tuple(x ^ h for x in fc)
                          for fc in pinned for h in _H}:
        return "colorings are not the pinned ones moved by H"
    return None
