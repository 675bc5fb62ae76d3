"""Weight of a graph as a closed tensor network, contracted exactly.

The network has one tensor per vertex.  Vertex ``i`` starts from the
rank-3 tensor ``f`` on its darts ``(3i, 3i+1, 3i+2)`` in rotation order,
and each edge's inverse metric is folded into one of its ends: an edge
``(d, d')`` with ``d < d'`` sums ``f``'s index at dart ``d`` against the
first index of ``t_inv``, and the leg then carries the second one, the
index of dart ``d'``.  Both ends of the edge share that leg, labelled
``d``.  A loop, an edge with both darts at one vertex, is traced inside
that vertex's tensor, which keeps one leg.  So each vertex has a
*pattern*, one kind per dart (plain, metric or loop end), and its tensor
depends on the algebra and the pattern alone: 8 metric patterns and 6
with a loop.  Each algebra's 14 folded tensors are made once and cached.
Every label appears on exactly two tensors, so pairwise contraction
closes the network down to a scalar per connected component — their
product is the weight.

A tensor's entries are a dict from index tuples (one index per leg, in leg
order) to the nonzero exact values.  Structure tensors are extremely
sparse, and entries that cancel to 0 are dropped, so contraction touches
only nonzero products.  The replay multiplies Python ints only: each
folded vertex tensor is stored as int entries times ``1 / den``, ``den``
the lcm of its entries' denominators (2 for sl2's tensor with no metric
leg, whose entries are ``±1/2``, and 1 for every other tensor of the
built-in algebras).  The contraction is multilinear, so the network of
int entries contracts to the weight times the product of the vertex
denominators, and ``evaluate_weight`` divides by that product once, at
the end, into an exact int, or a ``Fraction`` when the weight is not
whole.

The contraction runs in two parts.  ``contraction_plan`` fixes the order
of the merges from the legs alone: the vertices get tensor ids
``0..v-1``, and each merged tensor the next free id.  A greedy merges the
candidate pair of least key; the pairs sit in a heap, a merge pushes
only the pairs of the new tensor, found through the owners of its legs,
and an entry whose tensor has since merged is dropped when it is popped.
The greedy runs under two keys:

* ``(rank of the result, lowest shared label)``;
* ``(rank of the result, newest tensor first, lowest shared label)``.

Two pairs never share a label, so each key is a total order and each
sequence is reproducible.  The plan keeps the sequence with the smaller
``(widest intermediate rank, estimated work)``, the work being the sum
over merges of ``16 ** (legs touched)``; a tie goes to the first key.
The lower id plays ``a``, so a merged tensor's legs are ``a``'s kept legs
then ``b``'s.  The plan reads only leg counts and labels, never entries,
so it does not depend on the algebra: one plan serves every algebra, and
``evaluate_weight`` replays it over one algebra's entries.  Each step
carries the positions of the shared and kept legs on both sides, so the
replay reads indices by ``itemgetter`` and never searches a leg list.

A network with a zero factor contracts to 0 by multilinearity, so no
replay runs where one is known.  ``evaluate_weight`` returns exact ``0``
as soon as one of the algebra's folded tensors for the graph's vertex
patterns is empty, before any plan is made: ``f`` traced against the
metric over a loop vanishes by antisymmetry, so every weight of a graph
with a loop is 0, and an abelian algebra has no nonzero vertex tensor at
all.  The patterns and legs are read in one pass, and
``contraction_plan`` makes the plan from the same legs; each keeps one
entry, for the graph it saw last, so the sums of one graph over several
algebras in a row read it once and plan it at most once, and a graph
with a loop never.  The replay also stops at the first intermediate
tensor that comes out empty.  Otherwise the plan's cost at dimension
``d``, the sum over its merges of ``d ** (legs touched)``, must not
exceed ``MAX_PLAN_COST``; a costlier contraction is refused before the
replay starts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import product
from math import lcm
from operator import itemgetter
from typing import NamedTuple

from .algebra import MetrizedLieAlgebra, Scalar
from .graphs import TrivalentGraph

_Positions = tuple[int, ...]
_Entries = dict[tuple[int, ...], Scalar]
_Ints = dict[tuple[int, ...], int]

# The kind of each dart of a vertex: its leg is plain, carries the folded
# inverse metric, or is one end of a loop traced inside the vertex.
_PLAIN, _METRIC, _LOOP = 0, 1, 2
_Pattern = tuple[int, int, int]


# The largest plan cost, the sum over merges of dim ** (legs touched),
# that evaluate_weight replays.  Pure, at gl:4 (dim 16), timed one-off on
# random loop-free graphs of v = 16 to 32: the v = 10 and v = 14 ladders
# cost 5.6e7 and 9.1e7 and take 11-23 ms; costs of 9e9 to 1.5e11 took
# 1.0-8.3 s, 1.3e12 took 95 s, and a v = 40 graph costing 3.5e12 ran 39 s
# into a MemoryError under a 1 GB address-space limit (CHANGES.md).
MAX_PLAN_COST = 10 ** 11


class ContractionPlan(NamedTuple):
    """The merges of one graph's network and the scalars they leave.

    Step ``(a, b, sa, ka, sb, kb)`` merges tensors ``a < b`` over the legs
    at positions ``sa`` of ``a`` and ``sb`` of ``b`` (the shared labels in
    ascending order) into a tensor with the legs at ``ka`` of ``a`` then
    at ``kb`` of ``b``; ``touched`` holds the number of legs each step
    touches, shared and kept.  ``scalars`` are the ids left when every
    leg is contracted, one per connected component, in ascending order.
    Every caller shares the memoized plan, so each field is a tuple.
    """
    steps: tuple[tuple[int, int, _Positions, _Positions, _Positions,
                       _Positions], ...]
    touched: tuple[int, ...]
    scalars: tuple[int, ...]

    def cost(self, dim: int) -> int:
        """The estimated work of a replay at dimension ``dim``: the sum
        over merges of ``dim ** (legs touched)``."""
        return sum(dim ** t for t in self.touched)


# One entry: check_graph contracts one graph over three algebras in a
# row, so the pattern pass and the plan each run once per graph.
@lru_cache(maxsize=1)
def _folded_network(g: TrivalentGraph
                    ) -> tuple[tuple[_Pattern, ...], tuple[_Positions, ...]]:
    """Each vertex's pattern (0 plain, 1 metric, 2 loop end for each of
    its darts), which picks its folded tensor, and its legs, the labels
    ``min(d, alpha d)`` of its darts that are no loop ends."""
    alpha = g.alpha
    patterns = []
    legs = []
    for i in range(g.vertex_count):
        kinds = []
        labels = []
        for d in range(3 * i, 3 * i + 3):
            e = alpha[d]
            if e // 3 == i:
                kinds.append(_LOOP)
            else:
                kinds.append(_METRIC if d < e else _PLAIN)
                labels.append(min(d, e))
        patterns.append(tuple(kinds))
        legs.append(tuple(labels))
    return tuple(patterns), tuple(legs)


def _greedy(legs: tuple[_Positions, ...], newest_first: bool):
    """The heap greedy over tensors with ``legs``; see the module
    docstring.  Returns its merges ``(a, b)``, the legs of every tensor
    it made, the legs each merge touches, and its cost ``(widest
    intermediate rank, estimated work)``."""
    legs = list(legs)
    owners: dict[int, list[int]] = {}
    for t, ls in enumerate(legs):
        for l in ls:
            owners.setdefault(l, []).append(t)
    by_pair: dict[tuple[int, ...], list[int]] = {}
    for l, pair in owners.items():
        by_pair.setdefault(tuple(pair), []).append(l)
    # The second field is 0 under the first key, so it never decides.
    heap = [(len(legs[a]) + len(legs[b]) - 2 * len(ls),
             -b if newest_first else 0, min(ls), a, b)
            for (a, b), ls in by_pair.items()]
    heapify(heap)
    alive = [True] * len(legs)
    merges = []
    touched = []
    widest = 0
    while heap:
        rank, _, _, a, b = heappop(heap)
        if not (alive[a] and alive[b]):
            continue
        la, lb = legs[a], legs[b]
        merged = (tuple(l for l in la if l not in lb)
                  + tuple(l for l in lb if l not in la))
        merges.append((a, b))
        widest = max(widest, rank)
        # The legs touched: the kept ones and the shared ones.
        touched.append((len(la) + len(lb) + rank) // 2)
        c = len(legs)
        legs.append(merged)
        alive[a] = alive[b] = False
        alive.append(True)
        # The new tensor's pairs: group its legs by their other owner.
        with_c: dict[int, list[int]] = {}
        for l in merged:
            pair = owners[l]
            other = pair[1] if pair[0] == a or pair[0] == b else pair[0]
            owners[l] = [other, c]
            with_c.setdefault(other, []).append(l)
        for o, ls in with_c.items():
            heappush(heap, (len(legs[o]) + rank - 2 * len(ls),
                            -c if newest_first else 0, min(ls), o, c))
    return merges, legs, touched, (widest, sum(16 ** t for t in touched))


@lru_cache(maxsize=1)
def contraction_plan(g: TrivalentGraph) -> ContractionPlan:
    """The merge order of ``g``'s folded network, the better of two
    greedy orders; see the module docstring."""
    _, vertex_legs = _folded_network(g)
    # min keeps the first of equal costs, so a tie goes to the first key.
    merges, legs, touched, _ = min(
        (_greedy(vertex_legs, newest) for newest in (False, True)),
        key=itemgetter(3))
    steps = []
    for a, b in merges:
        la, lb = legs[a], legs[b]
        shared = sorted(l for l in la if l in lb)
        steps.append((a, b, tuple(map(la.index, shared)),
                      tuple(k for k, l in enumerate(la) if l not in lb),
                      tuple(map(lb.index, shared)),
                      tuple(k for k, l in enumerate(lb) if l not in la)))
    merged = {t for step in merges for t in step}
    scalars = tuple(t for t in range(len(legs)) if t not in merged)
    return ContractionPlan(tuple(steps), tuple(touched), scalars)


def _fold(f: _Entries, alg: MetrizedLieAlgebra, kinds: _Pattern
          ) -> tuple[_Ints, int]:
    """The entries of a vertex tensor of pattern ``kinds``, ``f`` with the
    inverse metric summed into each metric leg, then any loop traced, as
    int entries and one int denominator they are over."""
    entries = f
    for k, kind in enumerate(kinds):
        if kind != _METRIC:
            continue
        out: _Entries = {}
        for idx, x in entries.items():
            for y, t in enumerate(alg.t_inv[idx[k]]):
                if t:
                    j = idx[:k] + (y,) + idx[k + 1:]
                    out[j] = out.get(j, 0) + x * t
        entries = {j: x for j, x in out.items() if x}
    if _LOOP in kinds:
        p, q = (k for k in range(3) if kinds[k] == _LOOP)
        r = 3 - p - q
        out = {}
        for idx, x in entries.items():
            t = alg.t_inv[idx[p]][idx[q]]
            if t:
                j = (idx[r],)
                out[j] = out.get(j, 0) + x * t
        entries = {j: x for j, x in out.items() if x}
    # The denominator is the lcm of the entries' own (2 for sl2's halves
    # with no metric leg), so the replay multiplies ints only.
    den = lcm(*(Fraction(x).denominator for x in entries.values()))
    return {j: int(x * den) for j, x in entries.items()}, den


# A handful of algebras are live at once: check_graph uses three.
@lru_cache(maxsize=16)
def _vertex_tensors(alg: MetrizedLieAlgebra
                    ) -> dict[_Pattern, tuple[_Ints, int]]:
    """The folded vertex tensor of every pattern, made once per algebra,
    as int entries and their denominator.  Every replay shares these
    dicts; it reads them and never writes."""
    f = {(a, b, c): x for a, plane in enumerate(alg.f)
         for b, row in enumerate(plane) for c, x in enumerate(row) if x}
    return {kinds: _fold(f, alg, kinds)
            for kinds in product((_PLAIN, _METRIC, _LOOP), repeat=3)
            if kinds.count(_LOOP) in (0, 2)}


def _tuple_getter(pos: _Positions) -> itemgetter:
    """Reads the indices at ``pos`` as a tuple (one position alone would
    come back bare from ``itemgetter``, so it is read as a slice)."""
    if len(pos) < 2:
        return itemgetter(slice(pos[0], pos[0] + 1) if pos else slice(0))
    return itemgetter(*pos)


def _merge(ea: dict, eb: dict, sa: _Positions, ka: _Positions,
           sb: _Positions, kb: _Positions) -> dict:
    """Contract the entries of two tensors over one plan step."""
    key_a, key_b = itemgetter(*sa), itemgetter(*sb)
    keep_a, keep_b = _tuple_getter(ka), _tuple_getter(kb)
    by_key: dict = {}
    for idx, vb in eb.items():
        by_key.setdefault(key_b(idx), []).append((keep_b(idx), vb))
    out: _Ints = {}
    for idx, va in ea.items():
        ents_b = by_key.get(key_a(idx))
        if ents_b:
            ia = keep_a(idx)
            for ib, vb in ents_b:
                k = ia + ib
                out[k] = out.get(k, 0) + va * vb
    return {k: x for k, x in out.items() if x}


def evaluate_weight(g: TrivalentGraph, alg: MetrizedLieAlgebra) -> Scalar:
    """Contract the network of ``g`` over ``alg``; exact int or Fraction.

    Returns int 0, with no plan made, when one of ``alg``'s folded vertex
    tensors for ``g`` is empty, and stops the replay at the first empty
    intermediate.  Otherwise replays ``contraction_plan(g)``, which is
    made once for the graph contracted last, so the sums of one graph over
    several algebras in a row share it.  Raises ValueError, once the zero
    test has passed, if the plan costs more than ``MAX_PLAN_COST`` at
    ``alg``'s dimension.
    """
    patterns, _ = _folded_network(g)
    folded = _vertex_tensors(alg)
    tensors = []
    den = 1
    for kinds in patterns:
        entries, d = folded[kinds]
        if not entries:
            return 0
        tensors.append(entries)
        den *= d
    plan = contraction_plan(g)
    cost = plan.cost(alg.dim)
    if cost > MAX_PLAN_COST:
        raise ValueError(f"contraction plan costs about {cost:.2g} at "
                         f"dimension {alg.dim}, over the limit "
                         f"{MAX_PLAN_COST:.0e}")
    for a, b, sa, ka, sb, kb in plan.steps:
        merged = _merge(tensors[a], tensors[b], sa, ka, sb, kb)
        if not merged:
            return 0
        tensors.append(merged)
        tensors[a] = tensors[b] = None
    # only scalars left, one per connected component, none of them empty
    prod = 1
    for t in plan.scalars:
        prod *= tensors[t][()]
    value = Fraction(prod, den)
    return value.numerator if value.denominator == 1 else value
