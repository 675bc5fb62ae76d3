"""Weight of a graph as a closed tensor network, contracted exactly.

Each vertex ``i`` contributes the rank-3 tensor ``f`` with legs labelled by
its darts ``(3i, 3i+1, 3i+2)`` in rotation order; each edge ``(d, d')``
contributes the inverse metric with legs ``(d, d')``.  Every dart appears
on exactly two tensors, so pairwise contraction closes the network down to
a scalar — the weight.

A tensor is a pair ``(legs, entries)``: its leg labels, and a dict from
index tuples (one index per leg, in leg order) to the nonzero exact
values.  Structure tensors are extremely sparse, and entries that cancel
to 0 are dropped, so contraction touches only nonzero products.  The pair
to merge next is chosen greedily: smallest resulting rank first, ties
broken by the lowest shared dart label, which makes the contraction order
— and hence every intermediate — reproducible.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import MetrizedLieAlgebra, Scalar
from .graphs import TrivalentGraph

_SparseTensor = tuple[tuple[int, ...], dict[tuple[int, ...], Scalar]]


def _split_on(t: _SparseTensor, shared: list[int]):
    """Bucket the entries of ``t`` by their indices on the shared legs.

    Returns (kept leg labels, {shared indices: [(kept indices, value)]}).
    """
    legs, entries = t
    shared_pos = [legs.index(l) for l in shared]
    keep_pos = [k for k, l in enumerate(legs) if l not in shared]
    buckets: dict[tuple[int, ...], list] = {}
    for idx, val in entries.items():
        at = idx.__getitem__
        buckets.setdefault(tuple(map(at, shared_pos)), []).append(
            (tuple(map(at, keep_pos)), val))
    return tuple(legs[k] for k in keep_pos), buckets


def _contract_pair(a: _SparseTensor, b: _SparseTensor) -> _SparseTensor:
    shared = sorted(set(a[0]) & set(b[0]))
    keep_a, by_a = _split_on(a, shared)
    keep_b, by_b = _split_on(b, shared)
    out: dict[tuple[int, ...], Scalar] = {}
    for key, ents_a in by_a.items():
        ents_b = by_b.get(key)
        if not ents_b:
            continue
        for ia, va in ents_a:
            for ib, vb in ents_b:
                idx = ia + ib
                out[idx] = out.get(idx, 0) + va * vb
    return keep_a + keep_b, {idx: x for idx, x in out.items() if x}


def _network(g: TrivalentGraph,
             alg: MetrizedLieAlgebra) -> list[_SparseTensor]:
    f = {(a, b, c): x for a, plane in enumerate(alg.f)
         for b, row in enumerate(plane) for c, x in enumerate(row) if x}
    t_inv = {(a, b): x for a, row in enumerate(alg.t_inv)
             for b, x in enumerate(row) if x}
    tensors = [((3 * i, 3 * i + 1, 3 * i + 2), f)
               for i in range(g.vertex_count)]
    tensors.extend(((d, dd), t_inv) for d, dd in g.edges())
    return tensors


def _normalize(x: Scalar) -> Scalar:
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def evaluate_weight(g: TrivalentGraph, alg: MetrizedLieAlgebra) -> Scalar:
    """Contract the network of ``g`` over ``alg``; exact int or Fraction."""
    tensors = _network(g, alg)
    while True:
        # Every open leg lies on exactly two tensors: group the legs by pair.
        owners: dict[int, list[int]] = {}
        for k, (legs, _) in enumerate(tensors):
            for l in legs:
                owners.setdefault(l, []).append(k)
        shared: dict[tuple[int, ...], list[int]] = {}
        for l, pair in owners.items():
            shared.setdefault(tuple(pair), []).append(l)
        if not shared:
            break
        i, j = min(shared, key=lambda p: (
            len(tensors[p[0]][0]) + len(tensors[p[1]][0]) - 2 * len(shared[p]),
            min(shared[p])))
        merged = _contract_pair(tensors[i], tensors[j])
        tensors = [t for k, t in enumerate(tensors) if k != i and k != j]
        tensors.append(merged)
    # only scalars left (one per connected component); an empty one is 0
    prod = 1
    for _, entries in tensors:
        prod *= entries.get((), 0)
    return _normalize(prod)
