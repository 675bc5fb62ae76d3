#!/usr/bin/env python3
"""Benchmark for weightsys: one workload per run, checked outputs.

    python3 perfbench/run.py --workload check_batch --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (pure Python, nothing to build; a compiled ``_kernels`` present
there is used and recorded as the backend).  Everything runs in this one
process on one thread, and every input comes from ``random.Random(seed)``.

``--trace 0`` times the workload untraced for ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json``, every time scaled to a reference
host speed measured around each timed call (``meter.py``).  ``--trace 1``
runs every unit of one cycle of the workload untraced and again with span
recorders installed, then times the kernels on their own, and reports the
per-layer metrics.
The last line of stdout is the result object; the line before it records
the run's context (seed, Python, kernel backend, CPU count, commit) and
the end-to-end numbers under their workload-specific names.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from meter import REFERENCE_CAL_S, Meter, calibrate  # noqa: E402
from tracing import Tracer, installed  # noqa: E402
from workloads import TEST_GRAPHS, WORKLOADS, random_pairing  # noqa: E402

# Set-up is repeated and its median reported, so one slow import or a cold
# bytecode cache does not decide the figure.
SETUP_REPEATS = 9
KERNEL_SCAN_SIZES = (10, 12, 14)
FACE_COUNT_V = 400
FACE_COUNT_CALLS = 200


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def missing_sources() -> str | None:
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "weightsys" / "__init__.py"]
    needed += [ROOT / "tests" / "data" / f"{name}.tgf" for name in TEST_GRAPHS]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    return ", ".join(absent) if absent else None


def import_package() -> SimpleNamespace:
    """Import weightsys afresh from the checkout: what a command pays on
    every start."""
    for name in [n for n in sys.modules
                 if n == "weightsys" or n.startswith("weightsys.")]:
        del sys.modules[name]
    cli = importlib.import_module("weightsys.cli")
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"weightsys imported from {cli.__file__}, not {src}")
    return SimpleNamespace(cli=cli, root=ROOT,
                           catalog=sys.modules["weightsys.catalog"],
                           graphs=sys.modules["weightsys.graphs"],
                           kernels=sys.modules["weightsys.kernels"])


def set_up(workload_cls, seed, workdir):
    """Median set-up time, at the reference speed like every call."""
    times = []
    cal = calibrate()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        pkg = import_package()
        work = workload_cls(pkg, seed, workdir)
        wall = perf_counter() - start
        before, cal = cal, calibrate()
        times.append(wall * REFERENCE_CAL_S * 2 / (before + cal))
    return pkg, work, statistics.median(times)


def measure(work, seconds):
    """Closed loop over the workload's cycle.  Once the whole cycle has
    run, a unit starts only while it is expected, from the median unit so
    far, to end within ``seconds``."""
    units = work.cycle()
    meter = Meter()
    unit_times = []
    attempted = failed = 0
    start = perf_counter()
    for i in itertools.count():
        meter.start_unit(i % len(units))
        t = perf_counter()
        a, f = work.run(units[i % len(units)], meter)
        attempted += a
        failed += f
        now = perf_counter()
        unit_times.append(now - t)
        if (i + 1 >= len(units)
                and now - start + statistics.median(unit_times) > seconds):
            break
    meter.finish()
    return meter, attempted, failed


def trace_cycle(work, pkg, tracer):
    """Each unit of one cycle twice, untraced and traced, in alternating
    order, so neither a drift in the machine's speed nor a second run's
    warm caches falls on one side of the overhead only."""
    attempted = failed = 0
    wall = {False: 0.0, True: 0.0}
    for i, unit in enumerate(work.cycle()):
        for traced in (i % 2 == 1, i % 2 == 0):
            with (installed(tracer, pkg.catalog, pkg.cli) if traced
                  else contextlib.nullcontext()):
                start = perf_counter()
                a, f = work.run(unit, Meter(False))
                wall[traced] += perf_counter() - start
            attempted += a
            failed += f
    return attempted, failed, wall[False], wall[True]


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def time_kernels(impl, seed):
    """The cases of benchmarks/bench_kernels.py: face tracing at v = 400
    (per call, over a batch of calls) and full marking scans."""
    rng = random.Random(seed)
    alpha = tuple(random_pairing(FACE_COUNT_V, rng))
    batches = []
    for _ in range(5):
        start = perf_counter()
        for _ in range(FACE_COUNT_CALLS):
            impl.face_count(alpha)
        batches.append((perf_counter() - start) / FACE_COUNT_CALLS)
    out = {"kernels.face_count_us": statistics.median(batches) * 1e6}
    for v in KERNEL_SCAN_SIZES:
        alpha = tuple(random_pairing(v, rng))
        runs = []
        for _ in range(3):
            start = perf_counter()
            impl.marking_scan(alpha, v)
            runs.append(perf_counter() - start)
        out[f"kernels.marking_scan_v{v}_ms"] = statistics.median(runs) * 1e3
    return out


def kernel_backends(pkg, seed):
    """Kernel timings for every backend that imports, keyed by name."""
    found = {pkg.kernels.BACKEND: pkg.kernels}
    for name, module in (("compiled", "weightsys._kernels"),
                         ("pure", "weightsys._kernels_py")):
        if name not in found:
            try:
                found[name] = importlib.import_module(module)
            except ImportError:
                pass
    return {name: time_kernels(impl, seed) for name, impl in found.items()}


def layer_metrics(tracer, work, untraced_s, traced_s):
    metrics = {}
    for name, secs in tracer.self_times().items():
        if name.startswith("catalog.generate_v"):
            metrics[name + "_s"] = secs
        else:
            metrics[name + "_ms"] = secs * 1e3
    metrics.update(tracer.counts)
    scan_s = metrics.get("ribbon.marking_profile_ms", 0.0) / 1e3
    metrics["ribbon.markings_per_s"] = (
        metrics.get("ribbon.markings_scanned", 0) / scan_s if scan_s else 0.0)
    seen = work.seen.values()
    metrics["input.graphs"] = len(seen)
    metrics["input.planar_share"] = sum(p for p, _ in seen) / len(seen)
    metrics["input.two_connected_share"] = sum(t for _, t in seen) / len(seen)
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
    return metrics


def select(specs, values):
    """Exactly the metrics ``specs`` lists; one the run did not exercise
    reads 0, one the run produced but ``specs`` lacks is an error."""
    extra = set(values) - {s["name"] for s in specs}
    if extra:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    return {s["name"]: {"value": values.get(s["name"], 0), "unit": s["unit"]}
            for s in specs}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    absent = missing_sources()
    if absent:
        return fail(f"not a weightsys checkout, missing: {absent}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))

    with tempfile.TemporaryDirectory(prefix="_work-", dir=HERE) as workdir:
        pkg, work, setup_s = set_up(WORKLOADS[args.workload], args.seed,
                                    workdir)
        context = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "backend": pkg.kernels.BACKEND,
            "nproc": len(os.sched_getaffinity(0)),
            "commit": git_commit(),
        }
        if args.trace:
            tracer = Tracer()
            attempted, failed, untraced_s, traced_s = trace_cycle(
                work, pkg, tracer)
            values = layer_metrics(tracer, work, untraced_s, traced_s)
            backends = kernel_backends(pkg, args.seed)
            values.update(backends[pkg.kernels.BACKEND])
            context["kernels"] = backends
            metrics = select(spec["per_layer"], values)
        else:
            meter, attempted, failed = measure(work, args.seconds)
            calls = meter.per_call()
            p50 = statistics.median(calls) * 1e3
            p90 = percentile(calls, 90) * 1e3
            per_s = len(calls) / sum(calls)
            values = {
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024,
                "success_rate": (attempted - failed) / attempted,
                "op_p50_ms": p50,
                "op_p90_ms": p90,
                "ops_per_s": per_s,
            }
            named = {"survey_v8": {"survey_s": p50 / 1e3},
                     "check_batch": {"graphs_per_s": per_s},
                     "cli_single": {"cmd_p50_ms": p50, "cmd_p90_ms": p90,
                                    "cmds_per_s": per_s}}[args.workload]
            walls = meter.walls
            cals = [c for cs in meter.cals for c in cs]
            context.update(named, samples=len(calls), timed=len(walls),
                           error_rate=failed / attempted,
                           wall_p50_ms=statistics.median(walls) * 1e3,
                           wall_p90_ms=percentile(walls, 90) * 1e3,
                           wall_per_s=len(walls) / sum(walls),
                           cal_ms={"min": min(cals) * 1e3,
                                   "p50": statistics.median(cals) * 1e3,
                                   "max": max(cals) * 1e3,
                                   "count": len(cals)})
            metrics = select(spec["end_to_end"], values)

    print(json.dumps(context, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
