"""Weight of a graph as a closed tensor network, contracted exactly.

Each vertex ``i`` contributes the rank-3 tensor ``f`` with legs labelled by
its darts ``(3i, 3i+1, 3i+2)`` in rotation order; each edge ``(d, d')``
contributes the inverse metric with legs ``(d, d')``.  Every dart appears
on exactly two tensors, so pairwise contraction closes the network down to
a scalar — the weight.

A tensor's entries are a dict from index tuples (one index per leg, in leg
order) to the nonzero exact values.  Structure tensors are extremely
sparse, and entries that cancel to 0 are dropped, so contraction touches
only nonzero products.

The contraction runs in two parts.  ``contraction_plan`` fixes the order
of the merges from the legs alone: the vertices get tensor ids
``0..v-1``, the edges the next ids in ``g.edges()`` order, and each merged
tensor the next free id.  The pair merged next is the one with the
smallest key ``(rank of the result, lowest shared dart)``.  Two pairs
never share a dart, so the key is a total order and the sequence is
reproducible.  The candidate pairs sit in a heap under that key; a merge
pushes only the pairs of the new tensor, found through the owners of its
legs, and an entry whose tensor has since merged is dropped when it is
popped.  The lower id plays ``a``, so a merged tensor's legs are ``a``'s
kept legs then ``b``'s.  The key reads only leg counts and dart labels,
never entries, so the plan does not depend on the algebra: one plan
serves every algebra, and ``evaluate_weight`` replays it over one
algebra's entries.  Each step carries the positions of the shared and
kept legs on both sides, so the replay reads indices by ``itemgetter``
and never searches a leg list.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import NamedTuple

from .algebra import MetrizedLieAlgebra, Scalar
from .graphs import TrivalentGraph

_Positions = tuple[int, ...]


class ContractionPlan(NamedTuple):
    """The merges of one graph's network and the scalars they leave.

    Step ``(a, b, sa, ka, sb, kb)`` merges tensors ``a < b`` over the legs
    at positions ``sa`` of ``a`` and ``sb`` of ``b`` (the shared darts in
    ascending order) into a tensor with the legs at ``ka`` of ``a`` then
    at ``kb`` of ``b``.  ``scalars`` are the ids left when every leg is
    contracted, one per connected component, in ascending order.
    """
    steps: list[tuple[int, int, _Positions, _Positions, _Positions,
                      _Positions]]
    scalars: list[int]


def contraction_plan(g: TrivalentGraph) -> ContractionPlan:
    """The greedy merge order of ``g``'s network; see the module docstring."""
    legs = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(g.vertex_count)]
    legs.extend(g.edges())
    owners: dict[int, list[int]] = {}
    for t, ls in enumerate(legs):
        for l in ls:
            owners.setdefault(l, []).append(t)
    by_pair: dict[tuple[int, ...], list[int]] = {}
    for l, pair in owners.items():
        by_pair.setdefault(tuple(pair), []).append(l)
    heap = [(len(legs[a]) + len(legs[b]) - 2 * len(ls), min(ls), a, b)
            for (a, b), ls in by_pair.items()]
    heapify(heap)
    alive = [True] * len(legs)
    steps = []
    while heap:
        _, _, a, b = heappop(heap)
        if not (alive[a] and alive[b]):
            continue
        la, lb = legs[a], legs[b]
        pos_a = {l: k for k, l in enumerate(la)}
        pos_b = {l: k for k, l in enumerate(lb)}
        shared = sorted(pos_a.keys() & pos_b.keys())
        ka = tuple(k for k, l in enumerate(la) if l not in pos_b)
        kb = tuple(k for k, l in enumerate(lb) if l not in pos_a)
        steps.append((a, b, tuple(pos_a[l] for l in shared), ka,
                      tuple(pos_b[l] for l in shared), kb))
        merged = tuple(la[k] for k in ka) + tuple(lb[k] for k in kb)
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
            heappush(heap, (len(legs[o]) + len(merged) - 2 * len(ls),
                            min(ls), o, c))
    return ContractionPlan(steps, [t for t, up in enumerate(alive) if up])


def _network(g: TrivalentGraph, alg: MetrizedLieAlgebra) -> list[dict]:
    """The entries of ``g``'s tensors, in the plan's id order."""
    f = {(a, b, c): x for a, plane in enumerate(alg.f)
         for b, row in enumerate(plane) for c, x in enumerate(row) if x}
    t_inv = {(a, b): x for a, row in enumerate(alg.t_inv)
             for b, x in enumerate(row) if x}
    return [f] * g.vertex_count + [t_inv] * g.edge_count


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
    out: dict[tuple[int, ...], Scalar] = {}
    for idx, va in ea.items():
        ents_b = by_key.get(key_a(idx))
        if ents_b:
            ia = keep_a(idx)
            for ib, vb in ents_b:
                k = ia + ib
                out[k] = out.get(k, 0) + va * vb
    return {k: x for k, x in out.items() if x}


def _normalize(x: Scalar) -> Scalar:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def evaluate_weight(g: TrivalentGraph, alg: MetrizedLieAlgebra,
                    plan: ContractionPlan | None = None) -> Scalar:
    """Contract the network of ``g`` over ``alg``; exact int or Fraction.

    ``plan`` is ``contraction_plan(g)``, made here when not given; pass it
    to contract one graph over several algebras with one plan.
    """
    if plan is None:
        plan = contraction_plan(g)
    tensors = _network(g, alg)
    for a, b, sa, ka, sb, kb in plan.steps:
        tensors.append(_merge(tensors[a], tensors[b], sa, ka, sb, kb))
        tensors[a] = tensors[b] = None
    # only scalars left (one per connected component); an empty one is 0
    prod = 1
    for t in plan.scalars:
        prod *= tensors[t].get((), 0)
    return _normalize(prod)
