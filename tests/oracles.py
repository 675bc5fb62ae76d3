"""Independent reference implementations used only by the tests.

Everything here recomputes package results by a different, dumber route:
the state sum by explicit summation over index assignments and by a greedy
pairwise contraction that rescans every pair after each merge, over the
edge-tensor network and over the network with the metric folded into the
vertices, face counts by walking per-vertex successor lists, the first
spherical marking by flipping vertices one marking at a time, the marking
scan by counting every marking's faces in counter order, coloring counts by
raw 3^e / 4^f enumeration, coloring lists by per-vertex color bitmasks and
by per-face neighbour scans, polynomial recovery by exact Lagrange
interpolation, the canonical form of a count matrix by trying every vertex
relabeling, the class catalog by growing every child and keeping the set of
canonical forms, and 2-connectivity by deleting every vertex in turn.
Slow on purpose; cross-checks, not tools.

It also holds the one family of test graphs the other modules draw from:
a uniform random dart pairing (random_pairing), the same redrawn until
connected (random_connected_graph), a vertex relabeling (relabeled), a
turn of one vertex's darts round its cyclic order (rotated), and the
prism and Moebius ladders (ladder).
"""

import random
from fractions import Fraction
from itertools import permutations, product

from weightsys.graphs import TrivalentGraph, is_connected
from weightsys.ribbon import rotation_of_marking


def random_pairing(v, rng):
    """A uniform random dart pairing on v vertices: loops, parallel edges
    and several components all come up."""
    darts = list(range(3 * v))
    rng.shuffle(darts)
    alpha = [0] * (3 * v)
    for k in range(0, 3 * v, 2):
        alpha[darts[k]], alpha[darts[k + 1]] = darts[k + 1], darts[k]
    return TrivalentGraph(v, tuple(alpha))


def random_connected_graph(v, rng):
    """random_pairing redrawn until connected."""
    while True:
        g = random_pairing(v, rng)
        if is_connected(g):
            return g


def _renamed(g, name):
    """g with every dart d renamed name[d]."""
    alpha = [0] * g.dart_count
    for d, x in enumerate(g.alpha):
        alpha[name[d]] = name[x]
    return TrivalentGraph(g.vertex_count, tuple(alpha))


def relabeled(g, new):
    """g with vertex i renamed new[i], every cyclic order kept.  new may
    be a random.Random instead, which shuffles 0..v-1 once to draw it."""
    if isinstance(new, random.Random):
        rng, new = new, list(range(g.vertex_count))
        rng.shuffle(new)
    return _renamed(g, [3 * new[d // 3] + d % 3 for d in range(g.dart_count)])


def rotated(g, i):
    """g with vertex i's darts renamed one step round their cyclic order,
    3i + k as 3i + (k + 1) % 3: the same ribbon graph."""
    return _renamed(g, [3 * (d // 3) + (d + (d // 3 == i)) % 3
                        for d in range(g.dart_count)])


def ladder(v, mobius=False, relabel=False):
    """The prism C_{v/2} x K2 (3-connected and planar from v = 6 on), with
    rims 0..v/2-1 and v/2..v-1, or the Moebius ladder, one rim cycle
    0..v-1; rungs i -- v/2 + i.  Each vertex's darts are taken in the
    order its edges are listed.  relabel renames the vertices by one
    relabeling drawn from random.Random(1)."""
    n = v // 2
    if mobius:
        edges = [(i, (i + 1) % v) for i in range(v)]
    else:
        edges = [(s + i, s + (i + 1) % n) for s in (0, n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    slot = [0] * v
    alpha = [0] * (3 * v)
    for a, b in edges:
        da, db = 3 * a + slot[a], 3 * b + slot[b]
        slot[a] += 1
        slot[b] += 1
        alpha[da], alpha[db] = db, da
    g = TrivalentGraph(v, tuple(alpha))
    return relabeled(g, random.Random(1)) if relabel else g


def naive_weight(g, alg):
    """The state sum straight from its definition.

    One index per dart; per vertex a factor f on its darts read in
    counterclockwise order, per edge a factor t_inv on its dart pair.
    Enumeration runs over nonzero vertex entries only (the full D^{3v}
    grid in naive_weight_full), which keeps v = 4 affordable.
    """
    dim = alg.dim
    nonzero = [(a, b, c, alg.f[a][b][c])
               for a in range(dim) for b in range(dim) for c in range(dim)
               if alg.f[a][b][c]]
    edges = g.edges()
    total = Fraction(0)
    assign = [0] * g.dart_count
    for combo in product(nonzero, repeat=g.vertex_count):
        factor = 1
        for i, (a, b, c, val) in enumerate(combo):
            assign[3 * i] = a
            assign[3 * i + 1] = b
            assign[3 * i + 2] = c
            factor *= val
        for d, dd in edges:
            factor *= alg.t_inv[assign[d]][assign[dd]]
            if not factor:
                break
        total += factor
    return int(total) if total.denominator == 1 else total


def naive_weight_full(g, alg):
    """Unfiltered D^(3v) grid; only bearable for v = 2 and small dim."""
    dim = alg.dim
    edges = g.edges()
    total = Fraction(0)
    for assign in product(range(dim), repeat=g.dart_count):
        factor = 1
        for i in range(g.vertex_count):
            factor *= alg.f[assign[3 * i]][assign[3 * i + 1]][assign[3 * i + 2]]
            if not factor:
                break
        else:
            for d, dd in edges:
                factor *= alg.t_inv[assign[d]][assign[dd]]
                if not factor:
                    break
            total += factor
    return int(total) if total.denominator == 1 else total


def _split_on(t, shared):
    """Bucket the entries of ``t`` by their indices on the shared legs.

    Returns (kept leg labels, {shared indices: [(kept indices, value)]}).
    """
    legs, entries = t
    shared_pos = [legs.index(l) for l in shared]
    keep_pos = [k for k, l in enumerate(legs) if l not in shared]
    buckets = {}
    for idx, val in entries.items():
        at = idx.__getitem__
        buckets.setdefault(tuple(map(at, shared_pos)), []).append(
            (tuple(map(at, keep_pos)), val))
    return tuple(legs[k] for k in keep_pos), buckets


def _contract_pair(a, b):
    shared = sorted(set(a[0]) & set(b[0]))
    keep_a, by_a = _split_on(a, shared)
    keep_b, by_b = _split_on(b, shared)
    out = {}
    for key, ents_a in by_a.items():
        ents_b = by_b.get(key)
        if not ents_b:
            continue
        for ia, va in ents_a:
            for ib, vb in ents_b:
                idx = ia + ib
                out[idx] = out.get(idx, 0) + va * vb
    return keep_a + keep_b, {idx: x for idx, x in out.items() if x}


def _rescanning_greedy(tensors, newest_first):
    """Contract (id, legs, entries) tensors pairwise, rescanning every
    pair after each merge: rebuild the owners of every leg, group the legs
    by owner pair, and merge the pair of least (result rank, lowest shared
    label), or of least (result rank, newest id first, lowest shared
    label); the merged tensor takes the next id and goes to the end of the
    list.  Returns (merges, (widest rank, work), value): the (legs_a,
    legs_b) of every merge in order, the widest result and the sum of
    16^(legs touched) over the merges, and the product of the scalars left
    as statesum.evaluate_weight normalises it."""
    next_id = len(tensors)
    merges = []
    widest = work = 0
    while True:
        owners = {}
        for k, (_, legs, _) in enumerate(tensors):
            for l in legs:
                owners.setdefault(l, []).append(k)
        shared = {}
        for l, pair in owners.items():
            shared.setdefault(tuple(pair), []).append(l)
        if not shared:
            break

        def key(p):
            rank = (len(tensors[p[0]][1]) + len(tensors[p[1]][1])
                    - 2 * len(shared[p]))
            newest = -max(tensors[p[0]][0], tensors[p[1]][0])
            return (rank, newest if newest_first else 0, min(shared[p]))

        i, j = min(shared, key=key)
        a, b = tensors[i][1:], tensors[j][1:]
        merges.append((a[0], b[0]))
        legs, entries = _contract_pair(a, b)
        widest = max(widest, len(legs))
        work += 16 ** len(set(a[0]) | set(b[0]))
        tensors = [t for k, t in enumerate(tensors) if k != i and k != j]
        tensors.append((next_id, legs, entries))
        next_id += 1
    prod = 1
    for _, _, entries in tensors:
        prod *= entries.get((), 0)
    if isinstance(prod, Fraction) and prod.denominator == 1:
        prod = int(prod)
    return merges, (widest, work), prod


def greedy_contraction(g, alg):
    """The state sum over the edge-tensor network (f on each vertex's
    darts, t_inv on each edge's dart pair), contracted by
    _rescanning_greedy under its first key.

    Returns ``(merges, value)``: the ``(legs_a, legs_b)`` of every merge
    in order, and the weight as statesum.evaluate_weight normalises it.
    """
    f = {(a, b, c): x for a, plane in enumerate(alg.f)
         for b, row in enumerate(plane) for c, x in enumerate(row) if x}
    t_inv = {(a, b): x for a, row in enumerate(alg.t_inv)
             for b, x in enumerate(row) if x}
    v = g.vertex_count
    tensors = [(i, (3 * i, 3 * i + 1, 3 * i + 2), f) for i in range(v)]
    tensors += [(v + k, edge, t_inv) for k, edge in enumerate(g.edges())]
    merges, _, value = _rescanning_greedy(tensors, False)
    return merges, value


def _folded_vertex(g, alg, i):
    """Vertex i's tensor in the folded network: per nonzero f entry, each
    dart's leg takes the entry's own index (plain), or every index the
    inverse metric reaches from it (the lower dart of an edge), and a loop
    multiplies in t_inv on its two indices.  Returns (labels, entries)."""
    darts = range(3 * i, 3 * i + 3)
    loop = [d - 3 * i for d in darts if g.alpha[d] // 3 == i]
    labels = tuple(min(d, g.alpha[d]) for d in darts if g.alpha[d] // 3 != i)
    entries = {}
    for x in product(range(alg.dim), repeat=3):
        val = alg.f[x[0]][x[1]][x[2]]
        if loop:
            val *= alg.t_inv[x[loop[0]]][x[loop[1]]]
        if not val:
            continue
        choices = []
        for k, d in enumerate(darts):
            if g.alpha[d] // 3 == i:
                continue
            if d < g.alpha[d]:
                choices.append([(y, t) for y, t in enumerate(alg.t_inv[x[k]])
                                if t])
            else:
                choices.append([(x[k], 1)])
        for combo in product(*choices):
            idx = tuple(y for y, _ in combo)
            term = val
            for _, t in combo:
                term *= t
            entries[idx] = entries.get(idx, 0) + term
    return labels, {idx: x for idx, x in entries.items() if x}


def folded_greedy_contraction(g, alg):
    """The state sum over the folded network of statesum (one tensor per
    vertex, see _folded_vertex), contracted by _rescanning_greedy under
    each of its two keys; the run of least (widest rank, work) is kept,
    the first key on a tie.

    Returns ``(merges, value)`` of the kept run as greedy_contraction
    does.  Each vertex sums over dim^3 entries of f: meant for small dim.
    """
    tensors = [(i, *_folded_vertex(g, alg, i)) for i in range(g.vertex_count)]
    runs = [_rescanning_greedy(tensors, newest) for newest in (False, True)]
    merges, _, value = min(runs, key=lambda run: run[1])
    return merges, value


def face_count_by_lists(alpha):
    """Face count from per-vertex successor lists instead of dart
    arithmetic: vertex i keeps its darts in a cyclic list, and a face
    step crosses the edge then advances one position counterclockwise."""
    n = len(alpha)
    cyclic = {}
    for i in range(n // 3):
        darts = [3 * i, 3 * i + 1, 3 * i + 2]
        for k, d in enumerate(darts):
            cyclic[d] = darts[(k + 1) % 3]
    unvisited = set(range(n))
    faces = 0
    while unvisited:
        faces += 1
        d = next(iter(sorted(unvisited)))
        while d in unvisited:
            unvisited.remove(d)
            d = cyclic[alpha[d]]
    return faces


def marked_alpha(alpha, mask):
    """alpha with the cyclic order reversed at every vertex i whose bit i
    is set in mask: conjugated by the swap of darts 3i+1 and 3i+2."""
    swap = list(range(len(alpha)))
    for i in range(len(alpha) // 3):
        if (mask >> i) & 1:
            swap[3 * i + 1], swap[3 * i + 2] = 3 * i + 2, 3 * i + 1
    return [swap[alpha[swap[d]]] for d in range(len(alpha))]


def marking_scan_by_faces(alpha, v):
    """kernels.marking_scan by walking all 2^v masks in counter order, with
    faces counted by face_count_by_lists and the sign read off the
    popcount; the first spherical mask met is the lowest."""
    b_top = v // 2 + 2
    signed_by_b = [0] * (b_top + 1)
    spherical = 0
    first_mask = -1
    for mask in range(1 << v):
        faces = face_count_by_lists(marked_alpha(alpha, mask))
        sign = -1 if bin(mask).count("1") % 2 else 1
        signed_by_b[faces] += sign
        if faces == b_top:
            if first_mask == -1:
                first_mask = mask
            spherical += 1
    return signed_by_b, spherical, first_mask


def first_spherical_by_flips(g):
    """The first genus-0 marking in binary-counter order (vertex 0 least
    significant, bit set means '-'), or None: each marking's graph is
    built by flipping vertices and its faces counted by face_count_by_lists."""
    v = g.vertex_count
    for mask in range(1 << v):
        m = tuple(-1 if (mask >> i) & 1 else 1 for i in range(v))
        if face_count_by_lists(rotation_of_marking(g, m).alpha) == v // 2 + 2:
            return m
    return None


def two_connected_by_deletion(g):
    """Loop-free, and still connected after deleting any one vertex,
    each vertex tried in turn and the rest searched from scratch.  A
    disconnected graph fails too: its parts have two vertices or more,
    so deleting one vertex leaves at least two parts."""
    v = g.vertex_count
    if g.has_loop():
        return False
    neighbours = [{g.alpha[d] // 3 for d in range(3 * i, 3 * i + 3)}
                  for i in range(v)]
    for gone in range(v):
        rest = set(range(v)) - {gone}
        stack = [min(rest)]
        reached = set(stack)
        while stack:
            for j in neighbours[stack.pop()] & rest - reached:
                reached.add(j)
                stack.append(j)
        if reached != rest:
            return False
    return True


def canonical_matrix(a):
    """The largest relabeling of a vertex count matrix, over all v!
    vertex permutations, as a tuple of row tuples.  Rows compare in
    row-major order, and entries below the diagonal repeat earlier ones,
    so this is also the largest upper triangle."""
    v = len(a)
    return max(tuple(tuple(a[p[i]][p[j]] for j in range(v)) for i in range(v))
               for p in permutations(range(v)))


def children_by_insertion(a):
    """Every count matrix one growth step from ``a``, with no pruning by
    symmetry: (a) subdivide two edge slots with x and y and join x-y, the
    same edge twice, two parallel copies and loops included, only where
    every loop of ``a`` is subdivided; (b) subdivide one edge with x and
    hang y, carrying a loop, on x."""
    n = len(a)
    x, y = n, n + 1
    slots = [(i, j) for i in range(n) for j in range(i, n) if a[i][j]]
    loops = {(i, i) for i in range(n) if a[i][i]}

    def grown(*changes):
        m = [[*row, 0, 0] for row in a] + [[0] * (n + 2), [0] * (n + 2)]
        for i, j, k in changes:
            m[i][j] += k
            if i != j:
                m[j][i] += k
        return m

    for s, (i, j) in enumerate(slots):
        yield grown((i, j, -1), (i, x, 1), (x, j, 1), (x, y, 1), (y, y, 1))
        if loops <= {(i, j)}:
            yield grown((i, j, -1), (i, x, 1), (x, y, 2), (y, j, 1))
            if a[i][j] > 1:
                yield grown((i, j, -2), (i, x, 1), (x, j, 1), (i, y, 1),
                            (y, j, 1), (x, y, 1))
        for k, l in slots[s + 1:]:
            if loops <= {(i, j), (k, l)}:
                yield grown((i, j, -1), (i, x, 1), (x, j, 1), (k, l, -1),
                            (k, y, 1), (y, l, 1), (x, y, 1))


def levels_by_dedup_set(max_v, canonical_form):
    """The with-loops class levels v = 2, 4, ..., max_v: each level the
    set of the canonical forms of every child of the level below, sorted
    in descending order.  ``canonical_form`` maps a count matrix to its
    class's largest relabeling."""
    level = [((1, 1), (1, 1)), ((0, 3), (3, 0))]
    levels = [level]
    while len(level[0]) < max_v:
        level = sorted({canonical_form(c) for a in level
                        for c in children_by_insertion(a)}, reverse=True)
        levels.append(level)
    return levels


def brute_edge_3_coloring_count(g):
    """All 3^e assignments, filtered for properness at every vertex."""
    edges = g.edges()
    edge_of = {}
    for k, (d, dd) in enumerate(edges):
        edge_of[d] = k
        edge_of[dd] = k
    count = 0
    for colors in product((1, 2, 3), repeat=len(edges)):
        ok = True
        for i in range(g.vertex_count):
            seen = {colors[edge_of[3 * i + t]] for t in range(3)}
            if len(seen) != 3:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_signed_coloring_sum(g):
    """Signed version of the brute count, parity read per vertex."""
    even = {(1, 2, 3), (2, 3, 1), (3, 1, 2)}
    edges = g.edges()
    edge_of = {}
    for k, (d, dd) in enumerate(edges):
        edge_of[d] = k
        edge_of[dd] = k
    total = 0
    for colors in product((1, 2, 3), repeat=len(edges)):
        sign = 1
        for i in range(g.vertex_count):
            perm = tuple(colors[edge_of[3 * i + t]] for t in range(3))
            if len(set(perm)) != 3:
                sign = 0
                break
            if perm not in even:
                sign = -sign
        total += sign
    return total


def brute_four_coloring_count(edge_faces, num_faces):
    """All 4^f face assignments against the adjacency list."""
    count = 0
    for colors in product(range(4), repeat=num_faces):
        if all(colors[a] != colors[b] for a, b in edge_faces):
            count += 1
    return count


def edge_3_colorings_by_bitmasks(g):
    """Proper edge colorings by backtracking over edges in index order,
    colors tried 1, 2, 3, with a bitmask of the colors at each vertex."""
    edges = g.edges()
    ne = len(edges)
    used = [0] * g.vertex_count
    chosen = [0] * ne
    out = []

    def place(k):
        if k == ne:
            out.append(tuple(chosen))
            return
        d, dd = edges[k]
        a, b = d // 3, dd // 3
        if a == b:
            return  # a loop repeats its color at the vertex: dead end
        for c in (1, 2, 3):
            bit = 1 << c
            if used[a] & bit or used[b] & bit:
                continue
            used[a] |= bit
            used[b] |= bit
            chosen[k] = c
            place(k + 1)
            used[a] ^= bit
            used[b] ^= bit

    place(0)
    return out


def four_colorings_by_neighbours(pm):
    """Proper face colorings by backtracking over faces in index order,
    colors tried 0..3, each checked against every colored neighbour."""
    nf = len(pm.faces)
    adj = [set() for _ in range(nf)]
    for a, b in pm.edge_faces:
        if a == b:
            return []  # self-bordering face can never be proper
        adj[a].add(b)
        adj[b].add(a)
    chosen = [-1] * nf
    out = []

    def place(k):
        if k == nf:
            out.append(tuple(chosen))
            return
        for h in range(4):
            if any(chosen[f] == h for f in adj[k] if chosen[f] >= 0):
                continue
            chosen[k] = h
            place(k + 1)
            chosen[k] = -1

    place(0)
    return out


def tait_verdict_one_by_one(pm, colorings, edge_colorings):
    """What verify_tait_bijection returns, read one coloring, edge and
    vertex at a time: the message of the first of its checks that fails,
    in their order, or None.  The pinned colorings (outer face 0) must be
    colorings by 0..3 proper across every edge; their images, the XOR of
    the two face colors at each edge, must be proper at every vertex of
    the map's graph, as many as edge_colorings and distinct; the list must
    hold four times as many and equal the pinned ones with each color
    moved by each h in 0..3."""
    g = pm.graph
    pinned = [fc for fc in colorings if fc[pm.outer_face] == 0]
    images = []
    for fc in pinned:
        if len(fc) != len(pm.faces):
            return ("pinned coloring: face coloring length does not match "
                    "face count")
        if any(x not in range(4) for x in fc):
            return f"pinned coloring: face coloring has colors outside H: {fc}"
        image = []
        for k, (a, b) in enumerate(pm.edge_faces):
            if fc[a] == fc[b]:
                return f"pinned coloring: improper face coloring across edge {k}"
            image.append(fc[a] ^ fc[b])
        images.append(tuple(image))
    edge_of = {}
    for k, (d, dd) in enumerate(g.edges()):
        edge_of[d] = edge_of[dd] = k
    for image in images:
        if len(image) != g.edge_count:
            return (f"pinned image: coloring has {len(image)} entries, "
                    f"not one per edge ({g.edge_count})")
        for i in range(g.vertex_count):
            seen = tuple(image[edge_of[3 * i + t]] for t in range(3))
            if len(set(seen)) != 3:
                return f"pinned image: improper coloring at vertex {i}: {seen}"
    if len(images) != edge_colorings or len(set(images)) != len(images):
        return "pinned colorings do not map one-to-one onto edge colorings"
    if len(colorings) != 4 * edge_colorings:
        return f"count mismatch: {len(colorings)} != 4 * {edge_colorings}"
    if set(colorings) != {tuple(x ^ h for x in fc)
                          for fc in pinned for h in range(4)}:
        return "colorings are not the pinned ones moved by H"
    return None


def lagrange_int_poly(points):
    """Exact interpolation through (x, y) pairs; returns a coefficient
    dict exponent -> int and raises if any coefficient is fractional."""
    coeffs = {}
    for xi, yi in points:
        basis = {0: Fraction(yi)}
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            denom *= xi - xj
            shifted = {}
            for e, c in basis.items():
                shifted[e + 1] = shifted.get(e + 1, Fraction(0)) + c
                shifted[e] = shifted.get(e, Fraction(0)) - c * xj
            basis = shifted
        for e, c in basis.items():
            coeffs[e] = coeffs.get(e, Fraction(0)) + c / denom
    out = {}
    for e, c in coeffs.items():
        if c:
            if c.denominator != 1:
                raise ValueError(f"non-integer coefficient {c} at exponent {e}")
            out[e] = int(c)
    return out
