"""Span recorder for the traced pass of the benchmark.

Spans are recorded at the layer boundaries the program itself has: the
public functions of ``ribbon``, ``coloring``, ``statesum``, ``algebra``,
``graphs`` and ``catalog`` as the ``catalog`` and ``cli`` modules bind
them.  Wrapping those bindings (and nothing inside the layers) keeps the
program untouched and the span count small: a few spans per graph, never
one per marking.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Everything runs on one thread, so spans
nest strictly and a span's self time is its duration minus the durations
of its direct children.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._open.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter()

    def wrap(self, fn, name_of, count=None):
        """``fn`` with a span around every call; ``name_of(*args)`` names
        the span and ``count(counts, args, result)`` records work done."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name_of(*args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def wrap_generator(self, fn, name_of, count):
        """Like ``wrap`` for a generator function: one span per ``next``,
        so time spent by the consumer between items is not charged here."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = name_of(*args)
            it = fn(*args, **kwargs)
            while True:
                self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end()
                count(self.counts, args, item)
                yield item
        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] = totals.get(name, 0.0) + (end - start) - inner
        return totals


def _fixed(name):
    return lambda *args: name


def _algebra_span(g, alg, *rest):
    return "statesum." + alg.name.replace(":", "")


def _generate_span(v, *rest):
    return f"catalog.generate_v{v}"


def _count_checked(counts, args, result):
    counts["catalog.graphs_checked"] += 1


def _count_classes(counts, args, item):
    counts[f"catalog.classes_v{args[0]}"] += 1


def _count_scan(counts, args, result):
    counts["ribbon.markings_scanned"] += 1 << args[0].vertex_count


def _count_first(counts, args, result):
    # Markings are tried in binary-counter order with bit i set when vertex
    # i is '-', so the hit at mask m means m + 1 markings were scanned.
    if result is None:
        scanned = 1 << args[0].vertex_count
    else:
        scanned = 1 + sum(1 << i for i, s in enumerate(result) if s < 0)
    counts["ribbon.first_spherical_scanned"] += scanned


def _count_edge3(counts, args, result):
    counts["coloring.edge3_colorings"] += len(result)


def _count_four(counts, args, result):
    counts["coloring.four_colorings"] += result


def _count_command(counts, args, result):
    counts["cli.commands"] += 1


# (span name or namer, function names, work counter).  A function is
# wrapped in every module of the pair (catalog, cli) that binds it.
LAYER_FUNCTIONS = (
    (_fixed("cli.self"), ("main",), _count_command),
    (_fixed("catalog.run_survey"), ("run_survey",), None),
    (_fixed("catalog.check_graph"), ("check_graph",), _count_checked),
    (_fixed("ribbon.marking_profile"),
     ("marking_profile", "wgl_polynomial", "w_top",
      "count_spherical_embeddings"), _count_scan),
    (_fixed("ribbon.first_spherical_marking"), ("first_spherical_marking",),
     _count_first),
    (_algebra_span, ("evaluate_weight",), None),
    (_fixed("coloring.edge3"), ("enumerate_edge_3_colorings",), _count_edge3),
    (_fixed("coloring.penrose"), ("penrose_sum", "w_sl2"), None),
    (_fixed("coloring.extract_map"), ("extract_map",), None),
    (_fixed("coloring.four_colorings"), ("count_four_colorings",),
     _count_four),
    (_fixed("coloring.tait"), ("verify_tait_bijection",), None),
    (_fixed("algebra.make"),
     ("make_gl", "make_so3", "make_sl2", "algebra_by_name"), None),
    (_fixed("graphs.parse"), ("parse_graph",), None),
    (_fixed("graphs.serialize"), ("serialize_graph",), None),
    (_fixed("graphs.is_connected"), ("is_connected",), None),
    (_fixed("graphs.is_two_connected"), ("is_two_connected",), None),
    (_fixed("graphs.genus"), ("genus",), None),
)


@contextmanager
def installed(tracer: Tracer, catalog, cli):
    """Wrap the layer functions bound in ``catalog`` and ``cli`` for the
    duration of the block, then restore the originals."""
    saved = []
    for module in (catalog, cli):
        for name_of, names, count in LAYER_FUNCTIONS:
            for attr in names:
                if hasattr(module, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr,
                            tracer.wrap(getattr(module, attr), name_of, count))
        if hasattr(module, "generate_graphs"):
            saved.append((module, "generate_graphs", module.generate_graphs))
            module.generate_graphs = tracer.wrap_generator(
                module.generate_graphs, _generate_span, _count_classes)
    try:
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
