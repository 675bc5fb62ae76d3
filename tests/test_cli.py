"""Command-line behavior: outputs, formats, exit codes."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_kernels import prism_alpha
from weightsys import __version__, algebra, cli, graphs, kernels
from weightsys.cli import main
from weightsys.graphs import TrivalentGraph, serialize_graph

DATA = Path(__file__).parent / "data"
THETA = str(DATA / "theta.tgf")
K4 = str(DATA / "k4.tgf")
K33 = str(DATA / "k33.tgf")


@pytest.fixture
def disconnected(tmp_path):
    g = TrivalentGraph(4, (4, 3, 5, 1, 0, 2, 10, 9, 11, 7, 6, 8))
    path = tmp_path / "two_thetas.tgf"
    path.write_bytes(serialize_graph(g))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_text(capsys):
    code, out, _ = run(capsys, "eval", THETA, "--algebra", "gl:2")
    assert code == 0
    assert out == "12\n"
    code, out, _ = run(capsys, "eval", THETA, "--algebra", "so3")
    assert out == "-6\n"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", THETA, "--algebra", "gl:2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"schema_version": 1, "algebra": "gl:2",
                               "value": "12"}


def test_eval_missing_file(capsys):
    code, out, err = run(capsys, "eval", "no-such-file", "--algebra", "so3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ("eval", "--algebra", "su2"),
    ("poly",),
    ("colorings",),
    ("map",),
    ("validate", "--algebra", "su2"),
], ids=["eval", "poly", "colorings", "map", "validate"])
def test_graph_error_comes_first(capsys, argv):
    # The graph is read before anything else, so an unreadable file wins
    # over a bad algebra name.
    code, out, err = run(capsys, argv[0], "no-such-file", *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "no-such-file" in err


def test_eval_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.tgf"
    bad.write_text("v 2\ne 0 0\ne 2 3\ne 4 5\n")
    code, _, err = run(capsys, "eval", str(bad), "--algebra", "so3")
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("text", ["v \u00b2\n".encode(), b"v 2\xff\n"],
                         ids=["superscript-two", "not-utf8"])
def test_validate_refuses_unparseable_text(capsys, tmp_path, text):
    bad = tmp_path / "bad.tgf"
    bad.write_bytes(text)
    code, out, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 1: ")


@pytest.mark.parametrize("name", ["gl:7", "gl:99999999999999999999",
                                  "abelian:37"])
def test_eval_refuses_an_algebra_over_the_dimension_limit(capsys,
                                                          monkeypatch, name):
    def unbuilt(n):
        raise AssertionError(f"built an algebra for n = {n}")

    monkeypatch.setattr(algebra, "make_gl", unbuilt)
    monkeypatch.setattr(algebra, "make_abelian", unbuilt)
    code, out, err = run(capsys, "eval", THETA, "--algebra", name)
    assert code == 3
    assert out == ""
    assert f"over the limit {algebra.MAX_ALGEBRA_DIM}" in err


def test_version_names_the_backend(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert capsys.readouterr().out == (
        f"weightsys {__version__} (kernels: {kernels.BACKEND})\n")


def test_eval_unknown_algebra(capsys):
    code, _, err = run(capsys, "eval", THETA, "--algebra", "su2")
    assert code == 3
    assert "unknown algebra" in err


def test_poly_text(capsys):
    code, out, _ = run(capsys, "poly", THETA)
    assert code == 0
    assert out.splitlines() == [
        "wgl 2*N^3 - 2*N",
        "w_top 2",
        "spherical_embeddings 2",
        "planar true",
        "two_connected true",
    ]


def test_poly_json(capsys):
    code, out, _ = run(capsys, "poly", THETA, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["schema_version"] == 1
    assert payload["wgl"] == {"3": "2", "1": "-2"}
    assert payload["w_top"] == 2
    assert payload["planar"] is True


def test_poly_scans_the_markings_once(capsys, marking_scans):
    code, out, _ = run(capsys, "poly", K4)
    assert code == 0
    assert out.splitlines()[0] == "wgl 2*N^4 - 2*N^2"
    assert marking_scans == [4]


def test_map_scans_the_markings_once(capsys, marking_scans):
    code, out, _ = run(capsys, "map", K4)
    assert code == 0
    assert out.splitlines()[0] == "marking + + + +"
    assert marking_scans == [4]


@pytest.mark.parametrize("command", ["poly", "map"])
def test_refuses_a_graph_over_the_marking_scan_cap(capsys, tmp_path, command):
    path = tmp_path / "prism30.tgf"
    path.write_bytes(serialize_graph(TrivalentGraph(30, prism_alpha(30))))
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert "28" in err


@pytest.mark.parametrize("command, trees", [("poly", 1), ("validate", 2)])
def test_checks_connectivity_once_for_a_two_connected_graph(
        capsys, monkeypatch, command, trees):
    # is_two_connected implies is_connected, so a 2-connected graph needs
    # only the tree that is_two_connected builds; validate's genus builds
    # one more for its own connectivity check.
    calls = []
    bfs_tree = graphs._bfs_tree

    def counting(g):
        calls.append(g.vertex_count)
        return bfs_tree(g)

    monkeypatch.setattr(graphs, "_bfs_tree", counting)
    code, out, _ = run(capsys, command, K4)
    assert code == 0
    assert "two_connected true" in out.splitlines()
    assert calls == [4] * trees


def test_poly_rejects_disconnected(capsys, disconnected):
    code, _, err = run(capsys, "poly", disconnected)
    assert code == 2
    assert "not connected" in err


@pytest.fixture
def refusal_graphs(tmp_path, disconnected):
    """Paths by name for the refusal goldens: a disconnected v=4 graph,
    connected v=30 and v=514 prisms, a disconnected v=30 graph (a v=28
    prism beside a theta), K33, the empty graph and a file that does not
    exist."""
    beside = prism_alpha(28) + (88, 87, 89, 85, 84, 86)
    paths = {"disconnected": disconnected, "k33": K33,
             "missing": str(tmp_path / "missing.tgf")}
    for name, alpha in (("v30", prism_alpha(30)), ("v30_disconnected", beside),
                        ("v514", prism_alpha(514))):
        path = tmp_path / f"{name}.tgf"
        path.write_bytes(serialize_graph(TrivalentGraph(len(alpha) // 3,
                                                        alpha)))
        paths[name] = str(path)
    paths["empty"] = str(tmp_path / "empty.tgf")
    Path(paths["empty"]).write_text("v 0\n")
    return paths


CAP = "error: marking scan capped at v = 28\n"
EMPTY = "error: line 1: vertex count must be positive, got 0\n"


# Exact stderr and exit code of each refusal.  The marking scan checks its
# cap before connectivity, so a disconnected graph over the cap gets the
# cap message.  The empty graph is refused as it is read, by every command.
@pytest.mark.parametrize("argv, code, err", [
    (("poly", "{disconnected}"), 2, "error: graph is not connected\n"),
    (("map", "{disconnected}"), 2, "error: graph is not connected\n"),
    (("poly", "{v30}"), 2, CAP),
    (("map", "{v30}"), 2, CAP),
    (("map", "{k33}"), 2, "error: graph has no spherical embedding\n"),
    (("eval", THETA, "--algebra", "su2"), 3,
     "error: unknown algebra 'su2'\n"),
    (("eval", THETA, "--algebra", "gl:7"), 3,
     "error: algebra 'gl:7' has dimension 49, over the limit 36\n"),
    (("survey", "--max-v", "12", "--dedup"), 2,
     "error: max_v 12 over the catalog maximum 10\n"),
    (("survey", "--max-v", "6"), 2,
     "error: max_v 6 over the labeled catalog maximum 4; dedup mode goes "
     "to 10\n"),
    (("survey", "--max-v", "2", "--jobs", "0"), 2,
     "error: jobs must be positive, got 0\n"),
    (("poly", "{missing}"), 2,
     "error: [Errno 2] No such file or directory: {missing!r}\n"),
    (("poly", "{v30_disconnected}"), 2, CAP),
    (("map", "{v30_disconnected}"), 2, CAP),
    (("colorings", "{v514}"), 2, "error: coloring search capped at v = 512\n"),
    (("validate", "{empty}"), 2, EMPTY),
    (("poly", "{empty}"), 2, EMPTY),
    (("eval", "{empty}", "--algebra", "so3"), 2, EMPTY),
    (("colorings", "{empty}"), 2, EMPTY),
    (("map", "{empty}"), 2, EMPTY),
], ids=["poly-disconnected", "map-disconnected", "poly-v30", "map-v30",
        "map-k33", "eval-unknown-algebra", "eval-gl7", "survey-dedup-v12",
        "survey-labeled-v6", "survey-jobs-0", "unreadable-file",
        "poly-v30-disconnected", "map-v30-disconnected", "colorings-v514",
        "validate-empty", "poly-empty", "eval-empty", "colorings-empty",
        "map-empty"])
def test_refusal_messages_are_pinned(capsys, refusal_graphs, argv, code,
                                    err):
    argv = [a.format(**refusal_graphs) for a in argv]
    assert run(capsys, *argv) == (code, "", err.format(**refusal_graphs))


def test_colorings_text(capsys):
    code, out, _ = run(capsys, "colorings", THETA)
    assert code == 0
    assert out.splitlines() == [
        "edge_3_colorings 6",
        "penrose -6",
        "w_sl2 -12",
    ]


def test_colorings_enumerates_once(capsys, enumerations):
    code, _, _ = run(capsys, "colorings", K4)
    assert code == 0
    assert enumerations == {"enumerate_edge_3_colorings": 1}


def test_map_text(capsys):
    code, out, _ = run(capsys, "map", THETA)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "marking + +"
    assert "face 0 : 0 5" in lines
    assert "edge 0 (0 4) faces 0 1" in lines
    assert "outer_face 0" in lines
    assert "self_bordering false" in lines
    assert "four_colorings 24" in lines
    assert lines[-1] == "tait ok"


def test_map_json(capsys):
    code, out, _ = run(capsys, "map", K4, "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["marking"] == [1, 1, 1, 1]
    assert payload["four_colorings"] == 24
    assert payload["tait"] == "ok"
    assert payload["self_bordering"] is False
    assert len(payload["faces"]) == 4


def test_map_enumerates_the_face_colorings_once(capsys, enumerations):
    # The edge enumeration is of the input graph, counted for the Tait check.
    code, _, _ = run(capsys, "map", K4)
    assert code == 0
    assert enumerations == {"enumerate_four_colorings": 1,
                            "enumerate_edge_3_colorings": 1}


def test_map_requires_spherical_embedding(capsys):
    code, _, err = run(capsys, "map", K33)
    assert code == 2
    assert "no spherical embedding" in err


def test_validate_text(capsys):
    code, out, _ = run(capsys, "validate", THETA)
    assert code == 0
    assert out.splitlines() == [
        "ok", "v 2", "e 3",
        "connected true", "two_connected true", "has_loop false",
        "genus 0",
    ]


def test_validate_with_algebra(capsys):
    code, out, _ = run(capsys, "validate", THETA, "--algebra", "so3")
    assert code == 0
    assert out.splitlines()[-1] == "algebra so3 ok"


def test_one_parser_serves_every_call(capsys):
    # An option given to one call must not carry over to the next.
    parser = cli.build_parser()
    _, out, _ = run(capsys, "validate", THETA, "--algebra", "so3")
    assert out.splitlines()[-1] == "algebra so3 ok"
    code, out, _ = run(capsys, "validate", THETA)
    assert (code, out.splitlines()[-1]) == (0, "genus 0")
    assert cli.build_parser() is parser


def test_validate_disconnected_has_no_genus(capsys, disconnected):
    code, out, _ = run(capsys, "validate", disconnected)
    assert code == 0
    assert "connected false" in out.splitlines()
    assert "genus n/a" in out.splitlines()


def test_validate_refuses_the_empty_graph(capsys, tmp_path):
    # Refused as it is read, in either format, before any fact is printed.
    path = tmp_path / "empty.tgf"
    path.write_text("v 0\n")
    for fmt in ("text", "json"):
        assert run(capsys, "validate", str(path), "--format", fmt) == (
            2, "", EMPTY)


def test_validate_bad_algebra(capsys):
    code, _, err = run(capsys, "validate", THETA, "--algebra", "gl:0")
    assert code == 3
    assert "error" in err


def test_survey_text(capsys):
    code, out, _ = run(capsys, "survey", "--max-v", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "graphs 15"
    assert lines[1] == "v=2 15"
    identity_lines = [ln for ln in lines if ln.startswith("identity ")]
    assert len(identity_lines) == 7
    assert all(ln.endswith(" 15/15") for ln in identity_lines)
    assert lines[-1] == "failures 0"


def test_survey_json_dedup(capsys):
    code, out, _ = run(capsys, "survey", "--max-v", "4", "--dedup",
                       "--format", "json")
    payload = json.loads(out)
    assert code == 0
    assert payload["schema_version"] == 1
    assert payload["summary"]["graphs_checked"] == 7
    assert payload["summary"]["graph_counts"] == {"2": 2, "4": 5}
    assert len(payload["reports"]) == 7
    assert all(all(r["identities"].values()) for r in payload["reports"])


SURVEY_DIGESTS = {
    8: "fe09ccb036e1973c7fc6024ede6add77a2de815705a2a68e69358c2ee5007745",
    10: "58079650c724e9d1e5717b8601f9bfafec3168e17f6475aab8455030d17a0e98",
}


def survey_digest(capsys, max_v):
    code, out, _ = run(capsys, "survey", "--max-v", str(max_v), "--dedup",
                       "--format", "json")
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


def test_survey_json_matches_golden_digest(capsys):
    # Every coloring, Penrose, 4-coloring and Tait field of the 95 v <= 8
    # classes, byte for byte.
    assert survey_digest(capsys, 8) == SURVEY_DIGESTS[8]


# The live backend at v <= 8 is the test above.
@pytest.mark.parametrize("backend, max_v", [
    ("live", 10), ("compiled", 8), ("compiled", 10)])
def test_survey_digests_hold_on_both_backends(capsys, request, monkeypatch,
                                              backend, max_v):
    scans = []
    if backend == "compiled":
        compiled = request.getfixturevalue("compiled_kernels")
        monkeypatch.setattr(kernels, "face_count", compiled.face_count)
        monkeypatch.setattr(kernels, "marking_scan", lambda alpha, v: (
            scans.append(v) or compiled.marking_scan(alpha, v)))
    assert survey_digest(capsys, max_v) == SURVEY_DIGESTS[max_v]
    # Every survey graph is scanned, so the swap shows in the scan count.
    assert bool(scans) == (backend == "compiled")


def test_survey_no_loops(capsys):
    code, out, _ = run(capsys, "survey", "--max-v", "2", "--no-loops",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["summary"]["graphs_checked"] == 6


@pytest.mark.parametrize("argv", [
    ("survey", "--max-v", "3"),
    ("survey", "--max-v", "0"),
    ("survey", "--max-v", "-2"),
    ("survey", "--max-v", "2", "--jobs", "0"),
])
def test_survey_rejects_bad_arguments(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_survey_refuses_max_v_over_catalog_maximum(capsys):
    code, out, err = run(capsys, "survey", "--max-v", "12", "--dedup")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "maximum 10" in err


def test_survey_refuses_labeled_max_v_over_its_maximum(capsys):
    code, out, err = run(capsys, "survey", "--max-v", "6")
    assert code == 2
    assert out == ""
    assert "maximum 4" in err


def test_module_entry_point():
    ok = subprocess.run([sys.executable, "-m", "weightsys", "--help"],
                        capture_output=True, text=True)
    assert ok.returncode == 0
    assert "survey" in ok.stdout
    missing = subprocess.run([sys.executable, "-m", "weightsys"],
                             capture_output=True, text=True)
    assert missing.returncode == 2


def test_survey_output_independent_of_worker_count():
    runs = []
    for jobs in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-m", "weightsys", "survey", "--max-v", "2",
             "--jobs", jobs, "--format", "json"],
            capture_output=True, check=True)
        runs.append(done.stdout)
    assert runs[0] == runs[1]
