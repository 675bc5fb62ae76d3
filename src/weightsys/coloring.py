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

The edge side lists nothing: ``edge_3_coloring_counts`` counts the
colorings and signs each as the search completes it, with vertex 0's
colors pinned, so it walks a sixth of the colorings.  The face side,
``enumerate_four_colorings``, lists every coloring, since the Tait check
reads them all; two faces conflict when a map edge lies between them.
Both searches place next the position with the most conflicts already
placed, the lowest index on a tie (``_placement_order``), so a dead
branch fails near where it starts.  A loop or a face that borders itself
would conflict with itself, so a graph with a loop and a map with such a
face have no proper colorings: both searches return before they start.

Each search is made once per graph by the caller and handed on:
``verify_tait_bijection`` checks the face colorings it is given against
the edge colorings' count.  ``penrose_sum`` signs a list of edge
colorings one by one; the package calls it only to word a Tait image
that is improper at a vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter, xor

from .graphs import TrivalentGraph, face_orbits, is_connected

EdgeColoring = tuple[int, ...]
FaceColoring = tuple[int, ...]

_EVEN = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
_PERMS = _EVEN | {(1, 3, 2), (3, 2, 1), (2, 1, 3)}
_H = frozenset(range(4))
_H_BYTES = bytes(sorted(_H))
# bytes.translate tables that move a face coloring by each element of H.
_MOVES = [bytes(x ^ h for x in range(256)) for h in _H_BYTES]


def _vertex_code(colors: tuple[int, ...]) -> int:
    """The colors at a vertex's darts 3i, 3i + 1, 3i + 2 as the edge search
    holds them: color c as the bit 1 << (c - 1), dart 3i + s's color in
    bits 3s to 3s + 2, which hold 0 while the dart is uncolored."""
    return sum(1 << c - 1 << 3 * s for s, c in enumerate(colors))


# Indexed by a vertex code: the colors still free at the vertex as bits,
# and 1 where the vertex reads an odd permutation, else 0.
_FREE = [7 & ~(c | c >> 3 | c >> 6) for c in range(512)]
_ODD = [0] * 512
for _perm in _PERMS - _EVEN:
    _ODD[_vertex_code(_perm)] = 1
_UNSIGNED = [0] * 512
_FREE_BITS = [tuple(b for b in (1, 2, 4) if free & b) for free in range(8)]

# Equal to the marking scan's cap.  The face search's list grows long before
# either search's depth (one frame per position) nears the recursion
# limit: the prism has 16,392 edge colorings at v = 28 and 1,048,584 at
# v = 40, doubling every two vertices, and its map four times as many face
# colorings.  Placed in index order, the edge colorings of random
# loop-free draws took up to 31 s to list at v = 36 and 261 s at v = 50;
# in the placement order 0.04 and 0.08 s (BENCH_coloring.json).
MAX_SEARCH_V = 28


def _placement_order(conflicts: list[set[int]]) -> tuple[list[int], list[int]]:
    """The positions in the order the search places them, and each
    position's rank in that order: each next one has the most conflicts
    among those placed, the lowest index on a tie, so a dead branch shows
    early."""
    placed_conflicts = [0] * len(conflicts)
    left = list(range(len(conflicts)))
    order = []
    rank = [0] * len(conflicts)
    while left:
        # max keeps the first of equal counts, and left is ascending.
        k = max(left, key=placed_conflicts.__getitem__)
        left.remove(k)
        rank[k] = len(order)
        order.append(k)
        for j in conflicts[k]:
            placed_conflicts[j] += 1
    return order, rank


def edge_3_coloring_counts(g: TrivalentGraph) -> tuple[int, int]:
    """The number of proper edge colorings of ``g`` by 1, 2, 3 and their
    sum signed as ``penrose_sum`` signs them, from one search that lists
    none; (0, 0) if ``g`` has a loop.  Raises ValueError over
    ``MAX_SEARCH_V`` vertices.

    Permuting the three colors permutes the proper colorings, and with no
    loop every vertex sees all three colors, so a permutation other than
    the identity moves each coloring: each orbit holds six, exactly one of
    them coloring vertex 0's darts 0, 1, 2 with 1, 2, 3.  A transposition
    of two colors flips the parity at all v vertices, and v is even, so
    the six share one sign.  The search walks only the pinned colorings
    and multiplies its totals by 6.  Each vertex is signed when its third
    edge is placed; vertex 0, and the theta's other vertex, which the pin
    colors completely, are signed before the search starts."""
    v = g.vertex_count
    if v > MAX_SEARCH_V:
        raise ValueError(f"coloring search capped at v = {MAX_SEARCH_V}")
    if g.has_loop():
        return 0, 0
    edges = g.edges()
    at: list[list[int]] = [[] for _ in range(v)]
    for k, (d, dd) in enumerate(edges):
        at[d // 3].append(k)
        at[dd // 3].append(k)
    # With no loop, edges 0, 1, 2 hold darts 0, 1, 2, and the order
    # places them first: each next one conflicts with all those placed.
    order, rank = _placement_order([{*at[d // 3], *at[dd // 3]} - {k}
                                    for k, (d, dd) in enumerate(edges)])
    # done[i]: the step that places vertex i's last edge.
    done = [max(map(rank.__getitem__, ks)) for ks in at]
    code = [0] * v
    for k in range(3):
        for d in edges[k]:
            code[d // 3] += 1 << k << 3 * (d % 3)
    start = 0
    for i in range(v):
        if done[i] < 3:
            start ^= _ODD[code[i]]
    # steps[k] places edge order[k + 3]: its ends, the weight of a color at
    # each end's dart, and each end's parity table if the step completes
    # that end, else _UNSIGNED.
    steps = []
    for r in range(3, len(order)):
        d, dd = edges[order[r]]
        steps.append((d // 3, 1 << 3 * (d % 3), dd // 3, 1 << 3 * (dd % 3),
                      _ODD if done[d // 3] == r else _UNSIGNED,
                      _ODD if done[dd // 3] == r else _UNSIGNED))
    if not steps:  # the theta: the pin colors every edge
        return 6, 6 - 12 * start
    tally = [0, 0]  # pinned colorings of sign +1, of sign -1
    last = len(steps) - 1

    def place(k: int, odd: int):
        a, wa, b, wb, odd_a, odd_b = steps[k]
        ca = code[a]
        cb = code[b]
        free = _FREE[ca] & _FREE[cb]
        if k == last:
            # Every other edge is placed, so both ends leave at most one
            # color free.
            if free:
                tally[odd ^ odd_a[ca + free * wa] ^ odd_b[cb + free * wb]] += 1
            return
        for c in _FREE_BITS[free]:
            na = ca + c * wa
            nb = cb + c * wb
            code[a] = na
            code[b] = nb
            place(k + 1, odd ^ odd_a[na] ^ odd_b[nb])
        code[a] = ca
        code[b] = cb

    place(0, start)
    return 6 * (tally[0] + tally[1]), 6 * (tally[0] - tally[1])


def penrose_sum(g: TrivalentGraph, colorings: list[EdgeColoring]) -> int:
    """The signed sum of the edge colorings ``colorings`` of ``g``.  A
    coloring's sign is the product over vertices of the sign of its color
    permutation read counterclockwise; raises ValueError on an improper
    coloring or one without exactly one entry per edge.  Over all the
    proper colorings it is ``edge_3_coloring_counts(g)[1]``."""
    edge_of = [0] * g.dart_count
    for k, (d, dd) in enumerate(g.edges()):
        edge_of[d] = edge_of[dd] = k
    rotations = [edge_of[3 * i:3 * i + 3] for i in range(g.vertex_count)]
    total = 0
    for c in colorings:
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
        total += s
    return total


def w_sl2(g: TrivalentGraph) -> int:
    """2^{v/2} times the signed coloring count — the sl(2) weight."""
    return 2 ** (g.vertex_count // 2) * edge_3_coloring_counts(g)[1]


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
    itself.  Raises ValueError over ``MAX_SEARCH_V`` vertices.

    The faces are placed in ``_placement_order`` of the dual, each tried
    with the colors in ascending order; each coloring is read back in
    face index order and the list sorted, so it comes out as a search in
    index order would give it, sorted and distinct."""
    if pm.graph.vertex_count > MAX_SEARCH_V:
        raise ValueError(f"coloring search capped at v = {MAX_SEARCH_V}")
    if pm.is_self_bordering():
        return []
    conflicts: list[set[int]] = [set() for _ in pm.faces]
    for a, b in pm.edge_faces:
        conflicts[a].add(b)
        conflicts[b].add(a)
    order, rank = _placement_order(conflicts)
    # earlier[k]: the placed conflicts of the k-th face placed.
    earlier = [sorted(rank[j] for j in conflicts[f] if rank[j] < k)
               for k, f in enumerate(order)]
    n = len(earlier)
    chosen = [0] * n
    out: list[FaceColoring] = []
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
        for c in _H_BYTES:
            if c not in used:
                chosen[k] = c
                place(k + 1)

    place(0)
    out.sort()
    return out


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


def _sides_pair_up(pm: PlanarMap) -> bool:
    """Whether ``pm`` has one face pair per edge of its graph and, at each
    vertex, each face lies on an even number of the sides of the edges at
    the vertex's three darts, as the faces f, g, h around a vertex lie on
    the sides (f, g), (g, h), (h, f) of its edges."""
    g = pm.graph
    if len(pm.edge_faces) != g.edge_count:
        return False
    sides: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for (d, dd), pair in zip(g.edges(), pm.edge_faces):
        sides[d // 3] += pair
        sides[dd // 3] += pair
    for faces in sides:
        faces.sort()
        if faces[0::2] != faces[1::2]:
            return False
    return True


def verify_tait_bijection(pm: PlanarMap, colorings: list[FaceColoring],
                          edge_colorings: int) -> str | None:
    """Check the Tait correspondence on ``colorings``, the proper face
    colorings of ``pm`` as ``enumerate_four_colorings(pm)`` gives them:
    those with the outer face colored 0 (the pinned ones; one too short
    to reach the outer face is not pinned) are proper colorings by H, and
    map one-to-one onto the ``edge_colorings`` proper edge-3-colorings,
    and the colorings are exactly the pinned ones with every color moved
    by each element of H, four times as many.  None if so, else a
    description of the discrepancy.

    Distinct images proper at every vertex, as many as the edge colorings,
    are all of them, so a count is enough; and the input graph's count
    serves, as the map's graph differs from it only by vertex reversals.
    Moving by H keeps a coloring proper and distinct ones distinct, so
    the list equals that set, at its size, only when it has no repeat.

    The images' colors lie in {1, 2, 3}, and three such colors differ
    exactly when their XOR is 0.  The XOR of the three colors at a vertex
    is that of the face colors on the sides of its edges, 0 when each face
    lies on an even number of them.  So on a map whose sides pair up at
    every vertex each image is proper at each vertex, and only on another
    map are the images signed, which words the first improper one."""
    pinned = [fc for fc in colorings
              if len(fc) > pm.outer_face and fc[pm.outer_face] == 0]
    try:
        pinned_bytes = list(map(bytes, pinned))
    except ValueError:  # a color outside 0..255, so outside H
        pinned_bytes = None
    images = None
    if (pinned_bytes is not None
            and set(map(len, pinned_bytes)) <= {len(pm.faces)}
            and not b"".join(pinned_bytes).translate(None, _H_BYTES)):
        left = itemgetter(*[a for a, _ in pm.edge_faces])
        right = itemgetter(*[b for _, b in pm.edge_faces])
        images = [bytes(map(xor, left(fc), right(fc)))
                  for fc in pinned_bytes]
    if images is None or 0 in b"".join(images):
        # Some pinned coloring is defective: word the first.
        for fc in pinned:
            try:
                tait_edge_coloring(pm, fc)
            except ValueError as exc:
                return f"pinned coloring: {exc}"
    if not _sides_pair_up(pm):
        try:
            penrose_sum(pm.graph, images)  # raises at an improper vertex
        except ValueError as exc:
            return f"pinned image: {exc}"
    if len(images) != edge_colorings or len(set(images)) != len(images):
        return "pinned colorings do not map one-to-one onto edge colorings"
    if len(colorings) != 4 * edge_colorings:
        return f"count mismatch: {len(colorings)} != 4 * {edge_colorings}"
    try:
        have = set(map(bytes, colorings))
    except ValueError:  # a color outside 0..255, so outside H
        have = None
    if have != {fc.translate(move)
                for fc in pinned_bytes for move in _MOVES}:
        return "colorings are not the pinned ones moved by H"
    return None
