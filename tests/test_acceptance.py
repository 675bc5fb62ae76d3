"""Release gate: the numbered acceptance checklist from the README.

Each test covers one criterion, prints exactly one PASS/FAIL line for
it, and asserts with exact (tolerance-zero) arithmetic throughout.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weightsys.algebra import (change_basis, make_abelian, make_gl, make_sl2,
                               make_so3, scale_metric, validate_algebra)
from weightsys.catalog import generate_graphs, run_survey
from weightsys.coloring import (edge_3_coloring_counts,
                                enumerate_four_colorings, extract_map,
                                penrose_sum, w_sl2)
from weightsys.graphs import flip_vertices, parse_graph
from weightsys.ribbon import (IntPolynomial, marking_profile,
                              rotation_of_marking)
from weightsys.statesum import evaluate_weight
from oracles import edge_3_colorings_by_bitmasks

DATA = Path(__file__).parent / "data"


def load(name):
    return parse_graph((DATA / name).read_bytes())


def conclude(label, failures):
    line = f"{'PASS' if not failures else 'FAIL'} {label}"
    print(line)
    assert not failures, f"{label}: {failures[:5]}"


@pytest.fixture(scope="module")
def survey():
    return run_survey(8, allow_loops=True, dedup=True, jobs=1)


def test_criterion_1_theta_goldens():
    g = load("theta.tgf")
    profile = marking_profile(g)
    failures = []
    if profile.wgl != IntPolynomial({3: 2, 1: -2}):
        failures.append(("wgl", str(profile.wgl)))
    if abs(w_sl2(g)) != 12:
        failures.append(("w_sl2", w_sl2(g)))
    if edge_3_coloring_counts(g)[0] != 6:
        failures.append("edge colorings")
    four = len(enumerate_four_colorings(
        extract_map(rotation_of_marking(g, profile.first))))
    if four != 24:
        failures.append(("four", four))
    if not (abs(profile.top) == 2 == profile.spherical):
        failures.append(("top/spherical", profile.top, profile.spherical))
    conclude("criterion 1: theta goldens", failures)


def test_criterion_2_k4_goldens():
    g = load("k4.tgf")
    profile = marking_profile(g)
    failures = []
    if not (abs(profile.top) == 2 == profile.spherical):
        failures.append(("top/spherical", profile.top))
    if edge_3_coloring_counts(g)[0] != 6:
        failures.append("edge colorings")
    four = len(enumerate_four_colorings(
        extract_map(rotation_of_marking(g, profile.first))))
    if four != 24:
        failures.append(("four", four))
    if not (abs(w_sl2(g)) == 24 == 2 ** (4 // 2 - 2) * four):
        failures.append(("w_sl2", w_sl2(g)))
    conclude("criterion 2: k4 goldens", failures)


def test_criterion_3_dumbbell_degenerates():
    g = load("dumbbell.tgf")
    profile = marking_profile(g)
    failures = []
    if w_sl2(g) != 0 or profile.top != 0:
        failures.append("weights not zero")
    if profile.wgl != IntPolynomial():
        failures.append("wgl not zero")
    if edge_3_coloring_counts(g) != (0, 0):
        failures.append("colorings exist")
    if profile.spherical != 4:
        failures.append(("spherical", profile.spherical))
    conclude("criterion 3: dumbbell degenerates", failures)


def test_criterion_4_route_agreement_through_v6():
    graphs = list(generate_graphs(2))                 # every labeled pairing
    for v in (4, 6):
        graphs.extend(generate_graphs(v, dedup=True))  # class representatives
    failures = []
    for g in graphs:
        v = g.vertex_count
        poly = marking_profile(g).wgl
        for n in (1, 2, 3):
            if poly(n) != evaluate_weight(g, make_gl(n)):
                failures.append((g.alpha, "gl", n))
        pen = penrose_sum(g, edge_3_colorings_by_bitmasks(g))
        if pen != evaluate_weight(g, make_so3()):
            failures.append((g.alpha, "so3"))
        wsl2 = w_sl2(g)
        if wsl2 != evaluate_weight(g, make_sl2()) or wsl2 != 2 ** (v // 2) * pen:
            failures.append((g.alpha, "sl2"))
    conclude(f"criterion 4: route agreement on {len(graphs)} graphs", failures)


def test_criterion_5_degree_bound(survey):
    failures = [r.graph for r in survey["reports"]
                if r.wgl_poly.degree > r.v // 2 + 2
                or not r.identities["degree_bound"]]
    conclude("criterion 5: degree bound over the v<=8 catalog", failures)


def test_criterion_6_spherical_sign_suite(survey):
    # 2-connected: spherical markings all carry one sign, so the signed
    # count |w_top| equals the plain count.  Otherwise w_top vanishes.
    failures = []
    for r in survey["reports"]:
        if r.two_connected:
            ok = abs(r.w_top) == r.spherical_embeddings
        else:
            ok = r.w_top == 0
        if not ok or not r.identities["top_counts_embeddings"]:
            failures.append(r.graph)
    conclude("criterion 6: top coefficient counts embeddings", failures)


def test_criterion_7_planar_coloring_suite(survey):
    failures = []
    planar_two_connected = 0
    for r in survey["reports"]:
        if not (r.planar and r.two_connected):
            continue
        planar_two_connected += 1
        if abs(r.penrose) != r.edge_3_colorings:
            failures.append((r.graph, "coloring sign"))
        if 4 * abs(r.w_sl2) != 2 ** (r.v // 2) * r.four_colorings:
            failures.append((r.graph, "sl2 vs four"))
        if r.four_colorings != 4 * r.edge_3_colorings:
            failures.append((r.graph, "four vs three"))
        if not r.identities["tait_factor"]:
            failures.append((r.graph, "tait"))
    if planar_two_connected < 10:
        failures.append("suspiciously few planar 2-connected graphs")
    conclude("criterion 7: planar coloring identities", failures)


def test_criterion_8_sl2_vanishing_sweep(survey):
    s = survey["summary"]
    failures = []
    if s["graph_counts"] != {"2": 2, "4": 5, "6": 17, "8": 71}:
        failures.append(("class counts", s["graph_counts"]))
    if s["failures"]:
        failures.append(("survey failures", s["failures"]))
    if s["identity_passes"]["sl2_zero_implies_top_zero"] != s["graphs_checked"]:
        failures.append("sl2 vanishing does not force top vanishing")
    conclude("criterion 8: sl2 vanishing sweep at v<=8", failures)


def _random_invertible(rng, dim, alg):
    while True:
        p = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              for _ in range(dim)] for _ in range(dim)]
        try:
            return change_basis(alg, p)
        except ValueError:
            continue  # singular draw, try again


def test_criterion_9_property_suite(tmp_path):
    failures = []

    # Flip antisymmetry of the state sum.
    for g in (load("theta.tgf"), load("k4.tgf")):
        for alg in (make_so3(), make_gl(2), make_sl2()):
            base = evaluate_weight(g, alg)
            for i in range(g.vertex_count):
                if evaluate_weight(flip_vertices(g, (i,)), alg) != -base:
                    failures.append(("flip", alg.name, i))

    # Any loop kills the weight.
    looped = [load("dumbbell.tgf")]
    looped += [g for g in generate_graphs(4, dedup=True) if g.has_loop()]
    for g in looped:
        for alg in (make_so3(), make_sl2(), make_gl(2), make_abelian(2)):
            if evaluate_weight(g, alg) != 0:
                failures.append(("loop", alg.name, g.alpha))

    # 20 random rational basis changes leave every weight fixed.
    rng = random.Random(20260823)
    small = [g for v in (2, 4) for g in generate_graphs(v, dedup=True)]
    for alg in (make_so3(), make_gl(2)):
        base = {g.alpha: evaluate_weight(g, alg) for g in small}
        for k in range(20):
            moved = _random_invertible(rng, alg.dim, alg)
            if k == 0 and validate_algebra(moved) is not None:
                failures.append(("basis", alg.name, "invalid image"))
            for g in small:
                if evaluate_weight(g, moved) != base[g.alpha]:
                    failures.append(("basis", alg.name, k, g.alpha))

    # Metric scaling acts by lam^(-v/2).
    for lam in (3, Fraction(5, 2)):
        for g in (load("theta.tgf"), load("k4.tgf")):
            v = g.vertex_count
            for alg in (make_so3(), make_gl(2)):
                scaled = evaluate_weight(g, scale_metric(alg, lam))
                if scaled * lam ** (v // 2) != evaluate_weight(g, alg):
                    failures.append(("scale", alg.name, lam))

    # Parallel reduction is byte-identical to serial.
    for fmt in ("json", "text"):
        outputs = []
        for jobs in ("1", "8"):
            done = subprocess.run(
                [sys.executable, "-m", "weightsys", "survey", "--max-v", "4",
                 "--dedup", "--jobs", jobs, "--format", fmt],
                capture_output=True, check=True)
            outputs.append(done.stdout)
        if outputs[0] != outputs[1]:
            failures.append(("determinism", fmt))

    conclude("criterion 9: property suite", failures)
