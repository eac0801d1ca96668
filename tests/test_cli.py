import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernelim
from kernelim import compare, generate_points_graph, load_graph
from kernelim.cli import DEFAULT_GRIDS, main
from kernelim.errors import NumericalError
from kernelim.graphs import graph_to_json
from kernelim.kernels import FAMILY_PARAMETERS

from helpers import points_graph_oracle, run_python_at_blas_threads


@pytest.fixture
def sensor_graph(tmp_path):
    path = tmp_path / "sensor.json"
    code = main(["gen", "--kind", "sensor", "--nodes", "30", "--seed", "3",
                 "--link-radius", "0.3", "-o", str(path)])
    assert code == 0
    return path


def _edge_list(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_gen_round_trip(sensor_graph):
    g = load_graph(sensor_graph)
    assert g.n == 30
    assert g.positions is not None


def test_gen_points_file(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("# points\n0.0, 0.0\n0.0, 0.005\n1.0, 1.0\n")
    out = tmp_path / "g.json"
    assert main(["gen", "--kind", "points", "--points-file", str(pts),
                 "--thin-radius", "0.0025", "--link-radius", "0.01", "-o", str(out)]) == 0
    g = load_graph(out)
    assert g.n == 3
    assert g.edge_count == 1


def test_select_writes_contract_json(tmp_path, sensor_graph):
    out = tmp_path / "sel.json"
    code = main(["select", "--graph", str(sensor_graph), "--kernel", "diffusion:t=-2",
                 "--laplacian", "normalized", "--budget", "5", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"nodes", "max_power", "max_residual", "kernel", "laplacian", "tolerance"}
    assert len(doc["nodes"]) == 5
    assert len(doc["max_power"]) == 5
    assert doc["kernel"] == "diffusion:t=-2"
    assert doc["laplacian"] == "normalized"
    assert doc["tolerance"] == 1e-12


def test_select_missing_graph_exits_1(tmp_path):
    out = tmp_path / "sel.json"
    code = main(["select", "--graph", str(tmp_path / "absent.json"),
                 "--kernel", "diffusion:t=-2", "--budget", "5", "-o", str(out)])
    assert code == 1
    assert not out.exists()


def test_select_budget_zero_exits_1(tmp_path, sensor_graph):
    out = tmp_path / "sel.json"
    code = main(["select", "--graph", str(sensor_graph), "--kernel", "diffusion:t=-2",
                 "--budget", "0", "-o", str(out)])
    assert code == 1
    assert not out.exists()


def test_select_bad_kernel_spec_exits_1(tmp_path, sensor_graph):
    code = main(["select", "--graph", str(sensor_graph), "--kernel", "diffusion",
                 "--budget", "2", "-o", str(tmp_path / "x.json")])
    assert code == 1


def test_select_indefinite_kernel_exits_2_and_clamp_rescues(tmp_path, sensor_graph):
    out = tmp_path / "sel.json"
    args = ["select", "--graph", str(sensor_graph), "--kernel", "spline:eps=-2.15e-11,s=-1",
            "--budget", "3", "-o", str(out)]
    assert main(args) == 2
    assert main(args + ["--clamp-spectrum"]) == 0
    assert len(json.loads(out.read_text())["nodes"]) == 3


def test_select_warm_start(tmp_path, sensor_graph):
    out = tmp_path / "sel.json"
    code = main(["select", "--graph", str(sensor_graph), "--kernel", "diffusion:t=-2",
                 "--laplacian", "normalized", "--budget", "3", "--initial", "5,12",
                 "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["nodes"][:2] == [5, 12]
    assert len(doc["nodes"]) == 5


@pytest.mark.parametrize("initial", ["5000", "-1"])
def test_select_initial_out_of_range_exits_1(tmp_path, capsys, initial):
    graph, out = tmp_path / "sensor79.json", tmp_path / "sel.json"
    assert main(["gen", "--nodes", "79", "--seed", "7", "--link-radius", "0.2",
                 "-o", str(graph)]) == 0
    code = main(["select", "--graph", str(graph), "--kernel", "diffusion:t=-10",
                 "--budget", "2", f"--initial={initial}", "-o", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"kernelim: error: node id {initial} out of range 0..78")
    assert "Traceback" not in err
    assert not out.exists()


def test_select_svg(tmp_path, sensor_graph):
    out = tmp_path / "sel.json"
    svg = tmp_path / "sel.svg"
    code = main(["select", "--graph", str(sensor_graph), "--kernel", "diffusion:t=-2",
                 "--budget", "4", "-o", str(out), "--svg", str(svg)])
    assert code == 0
    body = svg.read_text()
    assert body.startswith("<svg") and "circle" in body


def test_usage_error_exits_1():
    assert main(["select"]) == 1          # missing required flags
    assert main(["no-such-command"]) == 1


def test_spectrum_path3(tmp_path):
    graph = _edge_list(tmp_path, "0 1\n1 2\n")
    out = tmp_path / "eig.csv"
    assert main(["spectrum", "--graph", str(graph), "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    values = [float(r["eigenvalue"]) for r in rows]
    assert np.allclose(values, [0.0, 1.0, 3.0], atol=1e-10)


@pytest.mark.parametrize("doc, message", [
    ({"nodes": 3, "edges": []}, "graph JSON 'nodes' must be an array"),
    ({"nodes": [{"id": 0}, {}], "edges": []}, "node record 1 must be an object with integer 'id'"),
    ({"nodes": [{"id": 0}, {"id": 1}], "edges": [{"u": 0}]}, "edge record 0 must be an object"),
    ({"nodes": [{"id": 0, "pos": [0.0]}, {"id": 1, "pos": [1.0, 1.0]}], "edges": [{"u": 0, "v": 1}]},
     "node 0: 'pos' must be a pair"),
    ({"nodes": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": 1, "w": None}]},
     "edge record 0: weight null is not a finite number"),
    ({"nodes": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": 1, "w": [1]}]},
     "edge record 0: weight [1] is not a finite number"),
    ({"nodes": [{"id": 0, "pos": [0, None]}, {"id": 1, "pos": [1.0, 1.0]}], "edges": [{"u": 0, "v": 1}]},
     "node 0: 'pos' entry null is not a finite number"),
    ({"nodes": [{"id": 0, "pos": [0, float("nan")]}, {"id": 1, "pos": [1, 1]}], "edges": [{"u": 0, "v": 1}]},
     "node 0: 'pos' entry NaN is not a finite number"),
    ({"nodes": [{"id": "a"}, {"id": 1}], "edges": []}, "node record 0: id 'a' is not an integer"),
    ({"nodes": [{"id": 0}, {"id": 1}], "edges": [{"u": "x", "v": 1}]},
     "edge record 0: u 'x' is not an integer"),
    ({"nodes": [{"id": True}, {"id": False}], "edges": [{"u": True, "v": 0}]},
     "node record 0 must be an object with integer 'id'"),
    ({"nodes": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": False}]},
     "edge record 0 must be an object with integer 'u' and 'v'"),
    ({"nodes": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": 1}, {"u": 1, "v": 0}]},
     "duplicate edge (0,1)"),
], ids=["nodes-not-array", "node-without-id", "edge-without-v", "short-pos",
        "null-weight", "list-weight", "null-pos-entry", "nan-pos-entry", "string-node-id",
        "string-edge-end", "bool-node-id", "bool-edge-end", "duplicate-edge"])
def test_spectrum_malformed_graph_json_exits_1(tmp_path, capsys, doc, message):
    graph = tmp_path / "bad.json"
    graph.write_text(json.dumps(doc))
    assert main(["spectrum", "--graph", str(graph), "-o", str(tmp_path / "eig.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("kernelim: error:")
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("weight, shown", [("-1", "-1.0"), ("0", "0.0"), ("inf", "inf"), ("nan", "nan")],
                         ids=["negative", "zero", "inf", "nan"])
def test_edge_list_weight_error_names_the_line_and_the_file_ids(tmp_path, capsys, weight, shown):
    graph = _edge_list(tmp_path, f"10 20 1\n20 30 {weight}\n")
    assert main(["spectrum", "--graph", str(graph), "-o", str(tmp_path / "eig.csv")]) == 1
    assert capsys.readouterr().err == (
        f"kernelim: error: line 2: edge (20,30) has non-positive weight {shown}\n")


@pytest.mark.parametrize("spec, code, message", [
    ("diffusion:t=nan", 1, "kernel parameter t=nan is not finite"),
    ("spline:eps=0.01,s=inf", 1, "kernel parameter s=inf is not finite"),
    ("diffusion:t=-10,t=3", 1, "repeated key 't'"),
    ("diffusion:t=-500", 2, "coefficients overflowed"),
], ids=["nan-t", "inf-s", "repeated-key", "finite-overflow"])
def test_select_bad_kernel_parameter_exit_codes(tmp_path, capsys, sensor_graph, spec, code, message):
    out = tmp_path / "sel.json"
    assert main(["select", "--graph", str(sensor_graph), "--kernel", spec,
                 "--budget", "2", "-o", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith("kernelim: ")
    assert message in err
    assert not out.exists()


def test_select_non_finite_custom_coefficient_exits_1(tmp_path, capsys, sensor_graph):
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("1.0\n" * 7 + "nan\n" + "1.0\n" * 22)
    code = main(["select", "--graph", str(sensor_graph), "--kernel", f"custom:file={coeffs}",
                 "--budget", "2", "-o", str(tmp_path / "sel.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("kernelim: error:")
    assert "coefficient 7 is not finite" in err


def test_spectrum_refuses_an_overflowing_eigenvalue(tmp_path, capsys):
    # A finite Laplacian whose eigenvalue 2e308 overflows: refused where eigh
    # returns, before any output is written.
    graph = _edge_list(tmp_path, "0 1 1e308\n")
    out, vecs = tmp_path / "eig.csv", tmp_path / "u.csv"
    assert main(["spectrum", "--graph", str(graph), "-o", str(out), "--vectors", str(vecs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("kernelim: numerical failure: ")
    assert "non-finite eigenvalue" in err
    assert not out.exists() and not vecs.exists()


def test_spectrum_vectors_dump(tmp_path, sensor_graph):
    out = tmp_path / "eig.csv"
    vecs = tmp_path / "u.csv"
    assert main(["spectrum", "--graph", str(sensor_graph), "-o", str(out),
                 "--vectors", str(vecs)]) == 0
    with open(vecs, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 31  # header + 30 node rows


def test_tune_single_point_grids(tmp_path, sensor_graph):
    out = tmp_path / "best.json"
    table = tmp_path / "scores.csv"
    code = main(["tune", "--graph", str(sensor_graph), "--kernel", "spline",
                 "--eps-grid", "0.5:0.5:1", "--s-grid", "2:2:1",
                 "--folds", "4", "--seed", "6", "-o", str(out), "--table", str(table)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["params"] == {"eps": 0.5, "s": 2.0}
    assert doc["score"] >= 0
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert set(rows[0]) == {"eps", "s", "score"}


def test_tune_diffusion_grid(tmp_path, sensor_graph):
    out = tmp_path / "best.json"
    code = main(["tune", "--graph", str(sensor_graph), "--kernel", "diffusion",
                 "--laplacian", "normalized", "--t-grid", "-10:-0.1:5",
                 "--folds", "3", "--seed", "1", "-o", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc["params"]) == {"t"}


def test_compare_two_node_contract(tmp_path):
    graph = _edge_list(tmp_path, "0 1\n")
    out = tmp_path / "report.csv"
    code = main(["compare", "--graph", str(graph), "--kernel", "diffusion:t=1",
                 "--budget", "2", "--methods", "kernel,degree", "--ic-p", "0",
                 "--ic-runs", "10", "-o", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        assert float(row["ic_score"]) == (2 - int(row["k"])) / 2  # exact at p=0
    kernel_final = [r for r in rows if r["method"] == "kernel"][-1]
    assert float(kernel_final["max_std"]) <= 1e-6


def test_compare_deterministic_bytes(tmp_path, sensor_graph):
    args = lambda out, meta: ["compare", "--graph", str(sensor_graph),
                              "--kernel", "diffusion:t=-2", "--laplacian", "normalized",
                              "--budget", "3", "--ic-runs", "50", "--seed", "12",
                              "-o", str(out), "--meta", str(meta)]
    a, am = tmp_path / "a.csv", tmp_path / "a.json"
    b, bm = tmp_path / "b.csv", tmp_path / "b.json"
    assert main(args(a, am)) == 0
    assert main(args(b, bm)) == 0
    assert a.read_bytes() == b.read_bytes()
    assert am.read_bytes() == bm.read_bytes()


def test_compare_meta_names_the_clamp_floor(tmp_path, sensor_graph):
    args = ["compare", "--graph", str(sensor_graph), "--kernel", "diffusion:t=-2", "--budget", "3",
            "--methods", "kernel,degree", "--ic-runs", "5", "-o", str(tmp_path / "r.csv")]
    for extra, kernel in [([], "diffusion:t=-2.0"),
                          (["--clamp-spectrum", "1e-3"], "diffusion:t=-2.0,clamp_floor=0.001")]:
        meta = tmp_path / "m.json"
        assert main(args + extra + ["--meta", str(meta)]) == 0
        assert json.loads(meta.read_text())["kernel"] == kernel


def _run_at_blas_threads(threads, argv, cwd):
    run_python_at_blas_threads(threads, ["-m", "kernelim.cli", *argv], cwd)


def test_compare_golden_hash(tmp_path):
    # Desk-scale graph and a 50-run IC baseline, recorded and run with one BLAS
    # thread.  meta.json is not pinned because it embeds the package version.
    # The kernel, pagerank and degree rows without their ic_score column have a
    # pin of their own, so a change to the IC draws alone leaves that one standing.
    assert main(["gen", "--nodes", "79", "--link-radius", "0.2", "--seed", "7",
                 "-o", str(tmp_path / "graph.json")]) == 0
    _run_at_blas_threads(1, ["compare", "--graph", "graph.json", "--laplacian", "normalized",
                             "--kernel", "diffusion:t=-10", "--budget", "10", "--ic-p", "0.2",
                             "--ic-runs", "50", "--seed", "0", "-o", "report.csv"], tmp_path)
    lines = (tmp_path / "report.csv").read_bytes().splitlines(keepends=True)
    assert hashlib.sha256(b"".join(lines)).hexdigest() == (
        "df880630f47bfe4a3ebc617783b40643438a7a85e6d2b68c1a963cf584f42c99")
    rows = [line.split(b",")[:5] for line in lines[1:]]
    selectors = b"\n".join(b",".join(row) for row in rows if row[0] in (b"kernel", b"pagerank", b"degree"))
    assert hashlib.sha256(selectors).hexdigest() == (
        "91b3b698fb8ba62872de3949b374580b81cbe84d447fa6238ae92b0fa408e311")


@pytest.mark.parametrize("jitter, digest", [
    ("0", "055bc7b8c32b2b61754fcece18817f8755c31cdaeafd62d3bbde0556f172d1e4"),
    ("1e-3", "5b65e9b21c39c88da3a489b02c33adebb2ce86ecfd0531260eab9d046047a44a"),
], ids=["jitter-0", "jitter-1e-3"])
def test_tune_golden_hash(tmp_path, jitter, digest):
    # Desk-scale graph and a 36-point spline grid, so a change to any bit of the
    # CV solve shows; recorded and run with one BLAS thread.
    assert main(["gen", "--nodes", "79", "--link-radius", "0.2", "--seed", "7",
                 "-o", str(tmp_path / "graph.json")]) == 0
    _run_at_blas_threads(1, ["tune", "--graph", "graph.json", "--kernel", "spline",
                             "--eps-grid", "1e-16:1e0:6", "--s-grid", "-1e1:-1e-1:6", "--folds", "5",
                             "--seed", "0", "--jitter", jitter, "-o", "best.json",
                             "--table", "scores.csv"], tmp_path)
    assert hashlib.sha256((tmp_path / "scores.csv").read_bytes()).hexdigest() == digest


def test_select_golden_hash(tmp_path):
    # Desk-scale graph, recorded and run with one BLAS thread.
    assert main(["gen", "--nodes", "79", "--link-radius", "0.2", "--seed", "7",
                 "-o", str(tmp_path / "graph.json")]) == 0
    _run_at_blas_threads(1, ["select", "--graph", "graph.json", "--laplacian", "normalized",
                             "--kernel", "diffusion:t=-10", "--budget", "20", "-o", "sel.json"],
                         tmp_path)
    assert hashlib.sha256((tmp_path / "sel.json").read_bytes()).hexdigest() == (
        "d7364f4a6639ffb6be0d5554298f8639862dd61108d9a4c11f9d726f399e32e8")


def test_select_nodes_agree_across_blas_thread_counts(tmp_path):
    # The spline kernel's diagonal is constant in exact arithmetic here, so every
    # pick is a near-tie that rounding in the eigenbasis would otherwise break.
    assert main(["gen", "--nodes", "1200", "--link-radius", "0.06", "--seed", "7",
                 "-o", str(tmp_path / "graph.json")]) == 0
    nodes = []
    for threads in (1, 2):
        out = f"sel{threads}.json"
        _run_at_blas_threads(threads, ["select", "--graph", "graph.json", "--kernel",
                                       "spline:eps=0.01,s=-1", "--budget", "200", "-o", out],
                             tmp_path)
        nodes.append(json.loads((tmp_path / out).read_text())["nodes"])
    assert nodes[0] == nodes[1]


def test_compare_kernel_nodes_match_select(tmp_path, sensor_graph):
    sel = tmp_path / "sel.json"
    rep = tmp_path / "rep.csv"
    common = ["--graph", str(sensor_graph), "--kernel", "diffusion:t=-2",
              "--laplacian", "normalized"]
    assert main(["select", *common, "--budget", "4", "-o", str(sel)]) == 0
    assert main(["compare", *common, "--budget", "4", "--methods", "kernel",
                 "--ic-runs", "20", "-o", str(rep)]) == 0
    with open(rep, newline="") as fh:
        nodes = [int(r["node_id"]) for r in csv.DictReader(fh)]
    assert nodes == json.loads(sel.read_text())["nodes"]


def test_compare_writes_pagerank_rows_at_high_damping(tmp_path, capsys):
    # The 5-node path is bipartite, so PageRank's L1 change shrinks only by the
    # damping per step; at 0.99 that takes about 2100 steps.
    out = tmp_path / "r.csv"
    assert main(["compare", "--graph", str(_path5(tmp_path)), "--kernel", "diffusion:t=-1",
                 "--budget", "2", "--methods", "pagerank,degree", "--pr-damping", "0.99",
                 "--ic-runs", "5", "-o", str(out)]) == 0
    assert "failed" not in capsys.readouterr().err
    with open(out, newline="") as fh:
        assert [r["method"] for r in csv.DictReader(fh)] == ["pagerank"] * 2 + ["degree"] * 2


def test_compare_unknown_method_exits_1(tmp_path, capsys, sensor_graph):
    code = main(["compare", "--graph", str(sensor_graph), "--kernel", "diffusion:t=-2",
                 "--budget", "2", "--methods", "kernel,telepathy",
                 "-o", str(tmp_path / "r.csv")])
    assert code == 1
    code = main(["compare", "--graph", str(sensor_graph), "--kernel", "diffusion:t=-2",
                 "--budget", "2", "--methods", "kernel,kernel,degree",
                 "-o", str(tmp_path / "r.csv")])
    assert code == 1
    assert "kernelim: error: repeated method 'kernel'" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_compare_refuses_bad_methods_and_budget_before_any_selector(tmp_path, capsys, monkeypatch):
    graph = _path5(tmp_path)
    calls = []
    monkeypatch.setattr(compare, "ic_greedy_select", lambda *a: calls.append(1))
    common = ["compare", "--graph", str(graph), "--kernel", "diffusion:t=-1", "--ic-runs", "5",
              "-o", str(tmp_path / "r.csv")]
    assert main(common + ["--budget", "2", "--methods", "ic,telepathy"]) == 1
    assert "kernelim: error: unknown method 'telepathy'" in capsys.readouterr().err
    for methods in ("kernel,ic", "ic,kernel"):
        assert main(common + ["--budget", "6", "--methods", methods]) == 1
        assert capsys.readouterr().err == "kernelim: error: budget must be in 1..5, got 6\n"
    assert calls == []
    assert not (tmp_path / "r.csv").exists()


def test_compare_every_method_failing_numerically_exits_2(tmp_path, capsys):
    # A numerically rank-1 kernel: both lists reach a pivot at or below the
    # guard, so every method fails numerically.
    graph = tmp_path / "desk.json"
    assert main(["gen", "--nodes", "79", "--seed", "7", "--link-radius", "0.2",
                 "-o", str(graph)]) == 0
    coeffs = tmp_path / "rank1.txt"
    coeffs.write_text("1\n" + "1e-30\n" * 78)
    code = main(["compare", "--graph", str(graph), "--kernel", f"custom:file={coeffs}",
                 "--budget", "3", "--methods", "degree,pagerank", "--ic-runs", "20",
                 "-o", str(tmp_path / "r.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"kernelim: numerical failure: every method failed: "
                        r"degree: pivot .* is at or below the guard .*; "
                        r"pagerank: pivot .* is at or below the guard .*\n", err)
    assert not (tmp_path / "r.csv").exists()


def test_compare_refuses_an_indefinite_kernel_once_before_any_method(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "desk.json"
    assert main(["gen", "--nodes", "79", "--seed", "7", "--link-radius", "0.2",
                 "-o", str(graph)]) == 0
    calls = []
    for name in ("ic_greedy_select", "degree_top_n", "ic_score"):
        monkeypatch.setattr(compare, name, lambda *a, name=name: calls.append(name))
    code = main(["compare", "--graph", str(graph), "--kernel", "spline:eps=-0.5,s=1",
                 "--budget", "3", "--ic-runs", "20", "-o", str(tmp_path / "r.csv")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("kernelim: numerical failure: ")
    assert "positive definite" in lines[0]
    assert calls == []
    assert not (tmp_path / "r.csv").exists()


def test_compare_reports_each_failed_method_and_keeps_its_rows(tmp_path, capsys, sensor_graph):
    # At t=-20 the kernel is numerically low rank: P-greedy stops on its pivot
    # guard, while the degree and PageRank lists soon reach a node whose pivot
    # is at or below that guard.
    out, meta = tmp_path / "r.csv", tmp_path / "m.json"
    code = main(["compare", "--graph", str(sensor_graph), "--kernel", "diffusion:t=-20",
                 "--budget", "10", "--methods", "kernel,degree,pagerank", "--ic-runs", "5",
                 "-o", str(out), "--meta", str(meta)])
    assert code == 0
    errors = json.loads(meta.read_text())["errors"]
    assert list(errors) == ["degree", "pagerank"]
    for failure in errors.values():
        assert re.fullmatch(r"pivot \S+ at node \d+ is at or below the guard \S+; "
                            r"the node set is numerically exhausted", failure)
    assert capsys.readouterr().err == "".join(f"method {m} failed: {e}\n" for m, e in errors.items())
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for method in ("kernel", "degree", "pagerank"):
        ks = [int(r["k"]) for r in rows if r["method"] == method]
        assert 1 <= len(ks) < 10 and ks == list(range(1, len(ks) + 1))


@pytest.mark.parametrize("flag, argv", [
    ("-o", ["gen", "--nodes", "20"]),
    ("-o", ["select", "--graph", "{g}", "--kernel", "diffusion:t=-1", "--budget", "3"]),
    ("--svg", ["select", "--graph", "{g}", "--kernel", "diffusion:t=-1", "--budget", "3", "-o", "{d}/s.json"]),
    ("--vectors", ["spectrum", "--graph", "{g}", "-o", "{d}/eig.csv"]),
    ("--table", ["tune", "--graph", "{g}", "--kernel", "diffusion", "--t-grid", "-1:-1:1", "--folds", "3",
                 "-o", "{d}/b.json"]),
    ("--meta", ["compare", "--graph", "{g}", "--kernel", "diffusion:t=-1", "--budget", "2", "--ic-runs", "5",
                "-o", "{d}/report.csv"]),
], ids=["gen", "select", "select-svg", "spectrum-vectors", "tune-table", "compare-meta"])
def test_output_in_a_missing_directory_is_refused_before_the_graph_is_read(
        tmp_path, capsys, monkeypatch, sensor_graph, flag, argv):
    calls = []
    monkeypatch.setattr(kernelim.cli, "load_graph", lambda *a: calls.append("load_graph"))
    monkeypatch.setattr(kernelim.cli, "generate_points_graph", lambda **k: calls.append("generate_points_graph"))
    before = sorted(tmp_path.rglob("*"))
    missing = tmp_path / "missing" / "out.file"
    argv = [a.format(g=sensor_graph, d=tmp_path) for a in argv] + [flag, str(missing)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"kernelim: error: {flag} {missing}: directory {missing.parent} does not exist\n")
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


@pytest.mark.parametrize("argv, message", [
    (["compare", "--graph", "{g}", "--kernel", "diffusion:t=-1", "--budget", "2", "--ic-runs", "5",
      "-o", "{d}/r.csv", "--meta", "{d}/r.csv"], "--meta {d}/r.csv: names the same file as -o"),
    (["compare", "--graph", "{g}", "--kernel", "diffusion:t=-1", "--budget", "2", "--ic-runs", "5",
      "-o", "r.csv", "--meta", "{d}/sub/../r.csv"], "--meta {d}/sub/../r.csv: names the same file as -o"),
    (["spectrum", "--graph", "{g}", "-o", "{d}/e.csv", "--vectors", "{d}/e.csv"],
     "--vectors {d}/e.csv: names the same file as -o"),
    (["gen", "--nodes", "20", "-o", "{d}/sub"], "-o {d}/sub: is a directory"),
    (["select", "--graph", "{g}", "--kernel", "diffusion:t=-1", "--budget", "3", "-o", "{d}/s.json",
      "--svg", "{d}/sub"], "--svg {d}/sub: is a directory"),
], ids=["compare-meta-is-out", "compare-meta-is-out-relative", "spectrum-vectors-is-out", "gen-out-is-a-directory",
        "select-svg-is-a-directory"])
def test_outputs_that_collide_or_name_a_directory_are_refused_before_the_graph_is_read(
        tmp_path, capsys, monkeypatch, sensor_graph, argv, message):
    # Without the check, the second write would replace the first output, or a
    # directory would fail only after the work.
    calls = []
    monkeypatch.setattr(kernelim.cli, "load_graph", lambda *a: calls.append("load_graph"))
    monkeypatch.setattr(kernelim.cli, "generate_points_graph", lambda **k: calls.append("generate_points_graph"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    before = sorted(tmp_path.rglob("*"))
    assert main([a.format(g=sensor_graph, d=tmp_path) for a in argv]) == 1
    assert capsys.readouterr().err == f"kernelim: error: {message.format(d=tmp_path)}\n"
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


@pytest.mark.parametrize("argv, shape", [
    (["gen", "--nodes", "1000000000000000"], "(1000000000000000, 2)"),
    (["compare", "--graph", "{g}", "--kernel", "diffusion:t=-1", "--budget", "2",
      "--ic-runs", "1000000000000000"], "(1000000000000000, 5)"),
    (["tune", "--graph", "{g}", "--kernel", "spline", "--eps-grid", "1e-16:1:1000000000000000", "--folds", "2"],
     "(1000000000000000,)"),
], ids=["gen-nodes", "compare-ic-runs", "tune-grid"])
def test_an_impossible_allocation_is_one_error_line(tmp_path, capsys, argv, shape):
    # Petabytes: no machine grants them, so the allocation fails at once.
    graph = _path5(tmp_path)
    out = tmp_path / "out.file"
    assert main([a.format(g=graph) for a in argv] + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"kernelim: error: out of memory: Unable to allocate .* for an array with shape "
                        + re.escape(shape) + r" and data type \w+\n", err)
    assert not out.exists()


def test_select_svg_without_positions_writes_nothing(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(kernelim.cli, "eigendecompose", lambda *a: calls.append("eigendecompose"))
    graph = _path5(tmp_path)
    out, svg = tmp_path / "sel.json", tmp_path / "sel.svg"
    code = main(["select", "--graph", str(graph), "--kernel", "diffusion:t=-1",
                 "--budget", "2", "-o", str(out), "--svg", str(svg)])
    assert code == 1
    assert "kernelim: error: graph has no node positions" in capsys.readouterr().err
    assert not out.exists() and not svg.exists()
    assert calls == []  # refused from the graph alone, before the eigensolver


def test_cli_import_loads_no_scipy_sparse():
    # scipy.sparse adds several MB of resident memory to every command.
    probe = "import sys, kernelim.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))"
    env = {**os.environ, "PYTHONPATH": str(Path(kernelim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_commands_other_than_tune_load_no_scipy(tmp_path):
    # Importing scipy.linalg costs about 0.3 s per process; only the Cholesky
    # solves (tune, fit, power_direct) need it.
    probe = """
import sys
from kernelim.cli import main
runs = [
    ["gen", "--nodes", "40", "--link-radius", "0.35", "--seed", "3", "-o", "g.json"],
    ["spectrum", "--graph", "g.json", "--laplacian", "normalized", "-o", "e.csv", "--vectors", "u.csv"],
    ["select", "--graph", "g.json", "--kernel", "diffusion:t=-2", "--budget", "5", "-o", "s.json"],
    ["compare", "--graph", "g.json", "--kernel", "diffusion:t=-2", "--budget", "3",
     "--ic-runs", "5", "-o", "r.csv"],
]
codes = [main(argv) for argv in runs]
print(codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(kernelim.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, cwd=tmp_path,
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "kernelim" in capsys.readouterr().out


def test_numerical_errors_are_the_exit_2_classes():
    assert {cls.__name__ for cls in NumericalError.__subclasses__()} == {
        "CoefficientOverflowError", "ConvergenceError", "IndefiniteKernelError",
        "NotPositiveDefiniteError", "SolverError", "ZeroPivotError",
    }


def test_default_grids_cover_every_family_parameter():
    assert set(DEFAULT_GRIDS) == {p for names in FAMILY_PARAMETERS.values() for p in names}


def _assert_clean_exit(argv):
    """`main(argv)` exits 0, 1 or 2 with a message; a warning raises instead of leaking."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert any(line.startswith("kernelim: ") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["spectrum"],
    ["select", "--kernel", "diffusion:t=-1", "--budget", "1"],
    ["compare", "--kernel", "diffusion:t=-1", "--budget", "1", "--ic-runs", "5"],
])
def test_overflowing_degree_exits_1_without_a_warning(tmp_path, command):
    graph = _edge_list(tmp_path, "0 1 1e308\n1 2 1e308\n")
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main([*command, "--graph", str(graph), "-o", str(tmp_path / "out")])
    assert code == 1
    assert stderr.getvalue() == "kernelim: error: weighted degree of node 1 overflows to inf\n"
    assert not (tmp_path / "out").exists()


def _mostly(valid, other):
    # `valid` seven times in eight, so most examples get past the earlier checks.
    return st.integers(0, 7).flatmap(lambda k: other if k == 7 else valid)


_ENDPOINT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "x", "0", "nan", " -1 ", "1e999", "-1e999", "-1e2", "-1e-2", "1e-16", "1"]),
)
# Counts stay in -1..3 (a free part never parses as an integer above 0), so no
# grid is large.
_GRID = _mostly(
    st.builds("{}:{}:{}".format, _ENDPOINT, _ENDPOINT, st.integers(-1, 3)),
    st.lists(_ENDPOINT, max_size=4).map(":".join),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(family=st.sampled_from(sorted(FAMILY_PARAMETERS)), grids=st.lists(_GRID, min_size=2, max_size=2))
@example(family="diffusion", grids=["-1e2:-1e999:3", "1:1:1"])
def test_tune_grid_flags_fail_only_with_a_message(tmp_path_factory, family, grids):
    # Only the family's own flags are drawn; a flag it ignores is parsed and dropped.
    graph = tmp_path_factory.getbasetemp() / "path5.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 4\n")
    flags = [f"--{p}-grid={g}" for p, g in zip(FAMILY_PARAMETERS[family], grids)]
    _assert_clean_exit(["tune", "--graph", str(graph), "--kernel", family, "--folds", "2",
                        *flags, "-o", str(graph.with_name("best.json"))])


_TOKEN = _mostly(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.one_of(st.floats().map(repr), st.integers().map(str),
              st.sampled_from(["", "x", "1e999", "nan", "#", ","])),
)
_POINTS_LINE = _mostly(
    st.tuples(_TOKEN, _TOKEN, st.sampled_from([" ", ", "])).map(lambda t: t[0] + t[2] + t[1]),
    st.one_of(st.lists(_TOKEN, max_size=3).map(" ".join), st.text(max_size=20)),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(lines=st.lists(_POINTS_LINE, max_size=12))
@example(lines=["0 0", "0 1e200"])
def test_gen_points_file_fails_only_with_a_message(tmp_path_factory, lines):
    points = tmp_path_factory.getbasetemp() / "points.txt"
    points.write_text("\n".join(lines), encoding="utf-8")
    _assert_clean_exit(["gen", "--kind", "points", "--points-file", str(points),
                        "--thin-radius", "0.01", "--link-radius", "0.5",
                        "-o", str(points.with_name("points.json"))])


def test_gen_points_at_the_float_limit_matches_the_oracle(tmp_path):
    big = 1.7976931348623157e308
    pts = np.array([[big, 0.0], [big, 0.004], [-big, 0.0], [1e308, 1e308], [1e308, 1e308 - 1e292],
                    [-big, -big], [0.0, big], [0.0, 0.3], [0.0, 0.0], [1e308, 0.0]])
    want = graph_to_json(points_graph_oracle(pts, 0.01, 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert graph_to_json(generate_points_graph(points=pts, thin_radius=0.01, link_radius=0.5)) == want
    path = tmp_path / "points.txt"
    path.write_text("".join(f"{x!r} {y!r}\n" for x, y in pts.tolist()))
    _assert_clean_exit(["gen", "--kind", "points", "--points-file", str(path), "--thin-radius", "0.01",
                        "--link-radius", "0.5", "-o", str(tmp_path / "g.json")])
    assert (tmp_path / "g.json").read_text() == want


def _path5(directory):
    graph = directory / "path5.txt"
    graph.write_text("0 1\n1 2\n2 3\n3 4\n")
    return graph


def test_usage_errors_take_the_one_error_path(tmp_path, capsys):
    graph = _path5(tmp_path)
    assert main(["tune", "--graph", str(graph), "--kernel", "diffusion", "--folds", "x",
                 "-o", str(tmp_path / "b.json")]) == 1
    assert capsys.readouterr().err == "kernelim: error: tune: argument --folds: invalid int value: 'x'\n"
    assert main(["no-such-command"]) == 1
    assert capsys.readouterr().err.startswith("kernelim: error: argument command: invalid choice: ")
    assert main(["--help"]) == 0
    assert main(["tune", "--help"]) == 0
    assert not (tmp_path / "b.json").exists()


_SELECT_PATH5 = ["select", "--graph", "{d}/path5.txt", "--kernel", "diffusion:t=-1", "--budget", "2"]


@pytest.mark.parametrize("argv, message", [
    (["gen", "--link-radius", "nan"], "link_radius must be positive"),
    (["gen", "--thin-radius", "nan"], "thin_radius must be nonnegative"),
    (_SELECT_PATH5 + ["--tol", "nan"], "tolerance must be positive"),
    (_SELECT_PATH5 + ["--clamp-spectrum", "nan"], "clamp floor must be positive and finite"),
    (["compare", "--graph", "{d}/path5.txt", "--kernel", "diffusion:t=-1", "--budget", "2",
      "--ic-runs", "5", "--jitter", "nan"], "sigma2 must be nonnegative and finite"),
    (_SELECT_PATH5 + ["--clamp-spectrum", "inf"], "clamp floor must be positive and finite"),
    (["tune", "--graph", "{d}/path5.txt", "--kernel", "diffusion", "--folds", "2",
      "--t-grid=-10:-1:3", "--jitter", "inf"], "sigma2 must be nonnegative and finite"),
], ids=["gen-link-radius", "gen-thin-radius", "select-tol", "select-clamp-spectrum", "compare-jitter",
        "select-clamp-spectrum-inf", "tune-jitter-inf"])
def test_non_finite_values_fail_each_range_check(tmp_path, capsys, argv, message):
    _path5(tmp_path)
    out = tmp_path / "out"
    assert main([a.format(d=tmp_path) for a in argv] + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("kernelim: error: ") and message in err
    assert not out.exists()


_COMPARE_PATH5 = ["compare", "--graph", "{d}/path5.txt", "--kernel", "diffusion:t=-1",
                  "--budget", "2", "--ic-runs", "5"]
_TUNE_PATH5 = ["tune", "--graph", "{d}/path5.txt", "--kernel", "diffusion", "--t-grid=-10:-1:3"]


@pytest.mark.parametrize("argv, message", [
    (_COMPARE_PATH5 + ["--methods", "kernel,telepathy"],
     "unknown method 'telepathy'; choose from ['kernel', 'ic', 'pagerank', 'degree']"),
    (_COMPARE_PATH5 + ["--methods", "kernel,kernel"], "repeated method 'kernel'"),
    (_COMPARE_PATH5 + ["--budget", "6"], "budget must be in 1..5, got 6"),
    (_COMPARE_PATH5 + ["--pr-damping", "1"], "damping must lie strictly between 0 and 1"),
    (_COMPARE_PATH5 + ["--jitter", "-1"], "sigma2 must be nonnegative and finite"),
    (_COMPARE_PATH5 + ["--ic-p", "2"], "spread probability must be in [0, 1], got 2.0"),
    (_SELECT_PATH5 + ["--budget", "0"], "budget must be at least 1"),
    (_SELECT_PATH5 + ["--initial", "a"], "invalid literal for int() with base 10: 'a'"),
    (_SELECT_PATH5 + ["--tol", "-1"], "tolerance must be positive"),
    (["tune", "--graph", "{d}/path5.txt", "--kernel", "spline", "--s-grid", "x"],
     "grid 'x' must look like lo:hi:count"),
    (_TUNE_PATH5 + ["--jitter", "-1"], "sigma2 must be nonnegative and finite"),
    (_TUNE_PATH5 + ["--folds", "0"], "folds must be in 2..5, got 0"),
    (_TUNE_PATH5 + ["--folds", "6"], "folds must be in 2..5, got 6"),
    (_SELECT_PATH5 + ["--budget", "6"], "budget 6 plus warm-start size 0 exceeds the node count 5"),
    (_SELECT_PATH5 + ["--initial", "7"], "node id 7 out of range 0..4"),
    (_COMPARE_PATH5 + ["--tol", "-1"], "tolerance must be positive"),
    (_COMPARE_PATH5 + ["--tol", "-1", "--methods", "degree"], "tolerance must be positive"),
    (_TUNE_PATH5 + ["--t-grid=0:1:3"], "grid endpoints must be nonzero with equal signs, got [0.0, 1.0]"),
    (_TUNE_PATH5 + ["--t-grid=-1:-2:0"], "count must be at least 1"),
    (_TUNE_PATH5 + ["--kernel", "spline", "--t-grid=0:1:3"],
     "grid endpoints must be nonzero with equal signs, got [0.0, 1.0]"),
    (["gen", "--kind", "points"], "--kind points requires --points-file"),
    (["spectrum", "--graph", "{d}/four.txt"], "line 1: expected 'u v [w]', got 4 fields"),
    (["spectrum", "--graph", "{d}/comments.txt"], "edge list contains no edges"),
    (["spectrum", "--graph", "{d}/nope.json"],
     "invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (["spectrum", "--graph", "{d}/empty.json"], "graph needs at least one node"),
    (_SELECT_PATH5 + ["--initial", "1,1"], "initial set contains duplicate nodes"),
    (_COMPARE_PATH5 + ["--seed", "-1"], "master_seed must be nonnegative"),
    *[(base + extra, message) for base in (_SELECT_PATH5, _COMPARE_PATH5) for extra, message in [
        (["--kernel", "diffusion:t=x"],
         "bad kernel spec 'diffusion:t=x': could not convert string to float: 'x'"),
        (["--kernel", "difusion:t=1"], "unknown kernel family 'difusion'"),
        (["--kernel", "custom:file=/nonexistent"],
         "bad kernel spec 'custom:file=/nonexistent': [Errno 2] No such file or directory: '/nonexistent'"),
        (["--clamp-spectrum", "-1"], "clamp floor must be positive and finite"),
        (["--kernel", "diffusion:t=nan"], "kernel parameter t=nan is not finite"),
        (["--kernel", "spline:eps=inf,s=-1"], "kernel parameter eps=inf is not finite"),
        (["--kernel", "custom:file={d}/nan.txt"], "custom coefficient 2 is not finite (nan)"),
    ]],
], ids=["compare-unknown-method", "compare-repeated-method", "compare-budget", "compare-damping",
        "compare-jitter", "compare-ic-p", "select-budget", "select-initial", "select-tol",
        "tune-grid", "tune-jitter", "tune-folds-0", "tune-folds-6",
        "select-budget-over-n", "select-initial-out-of-range", "compare-tol", "compare-tol-no-kernel",
        "tune-grid-sign", "tune-grid-count", "tune-grid-unused-parameter",
        "gen-points-without-file", "edge-list-four-fields", "edge-list-comments-only", "json-syntax",
        "json-no-nodes", "select-initial-duplicate", "compare-negative-seed",
        *[f"{command}-{case}" for command in ("select", "compare")
          for case in ("kernel-value", "kernel-family", "kernel-file", "clamp-spectrum",
                       "kernel-nan", "kernel-inf", "kernel-file-nan")]])
def test_argument_errors_never_reach_the_eigensolver_or_a_selector(
        tmp_path, capsys, monkeypatch, argv, message):
    calls = []
    monkeypatch.setattr(kernelim.cli, "eigendecompose", lambda *a: calls.append("eigendecompose"))
    monkeypatch.setattr(compare, "ic_greedy_select", lambda *a: calls.append("ic_greedy_select"))
    _path5(tmp_path)
    (tmp_path / "nan.txt").write_text("1.0\n1.0\nnan\n1.0\n1.0\n")
    (tmp_path / "four.txt").write_text("0 1 1.0 2\n")
    (tmp_path / "comments.txt").write_text("# no edges\n\n")
    (tmp_path / "nope.json").write_text("{nope")
    (tmp_path / "empty.json").write_text('{"nodes": [], "edges": []}')
    out = tmp_path / "out"
    assert main([a.format(d=tmp_path) for a in argv] + ["-o", str(out)]) == 1
    assert capsys.readouterr().err == f"kernelim: error: {message}\n"
    assert calls == []
    assert not out.exists()


def test_custom_kernel_length_is_checked_before_the_eigensolver(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(kernelim.cli, "eigendecompose", lambda *a: calls.append("eigendecompose"))
    _path5(tmp_path)
    (tmp_path / "coeffs.txt").write_text("1.0\n2.0\n3.0\n")
    for argv in (_SELECT_PATH5, _COMPARE_PATH5):
        out = tmp_path / "out"
        assert main([a.format(d=tmp_path) for a in argv]
                    + ["--kernel", f"custom:file={tmp_path}/coeffs.txt", "-o", str(out)]) == 1
        assert capsys.readouterr().err == "kernelim: error: custom coefficients have length 3, expected 5\n"
        assert calls == []
        assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["gen", "--nodes", "1_0"], "gen: argument --nodes: invalid int value: '1_0'"),
    (["compare", "--graph", "{d}/path5.txt", "--kernel", "diffusion:t=-1", "--budget", "2",
      "--ic-p", "0.1_5"], "compare: argument --ic-p: invalid float value: '0.1_5'"),
    (["tune", "--graph", "{d}/path5.txt", "--kernel", "diffusion", "--folds", "2",
      "--t-grid=-1_0:-1:3"], "could not convert string to float: '-1_0'"),
    (_SELECT_PATH5 + ["--initial", "0_1"], "invalid literal for int() with base 10: '0_1'"),
    (["gen", "--kind", "points", "--points-file", "{d}/points.txt"],
     "could not convert string to float: '1_0'"),
    (["select", "--graph", "{d}/path5.txt", "--kernel", "diffusion:t=-1_0", "--budget", "2"],
     "could not convert string to float: '-1_0'"),
    (["select", "--graph", "{d}/path5.txt", "--kernel", "custom:file={d}/coeffs.txt", "--budget", "2"],
     "could not convert string to float: '1_0\\n'"),
    (["spectrum", "--graph", "{d}/weight.json"], 'edge record 0: weight "1_0" is not a finite number'),
    (["spectrum", "--graph", "{d}/id.json"], "node record 0: id '0_0' is not an integer"),
    (["spectrum", "--graph", "{d}/weights.txt"], "line 1: weight '1_0' is not a number"),
], ids=["int-option", "float-option", "grid", "initial", "points-file", "kernel-parameter",
        "custom-coefficient", "json-number", "json-int", "edge-list-weight"])
def test_digit_group_underscores_are_refused(tmp_path, capsys, argv, message):
    # Python's float() and int() read "1_0" as 10; every number from outside refuses it.
    _path5(tmp_path)
    (tmp_path / "points.txt").write_text("0 0\n1_0 2\n")
    (tmp_path / "coeffs.txt").write_text("1.0\n1_0\n1.0\n1.0\n1.0\n")
    (tmp_path / "weight.json").write_text(json.dumps(
        {"nodes": [{"id": 0}, {"id": 1}], "edges": [{"u": 0, "v": 1, "w": "1_0"}]}))
    (tmp_path / "id.json").write_text(json.dumps(
        {"nodes": [{"id": "0_0"}, {"id": 1}], "edges": [{"u": 0, "v": 1}]}))
    (tmp_path / "weights.txt").write_text("0 1 1_0\n1 2\n")
    out = tmp_path / "out"
    assert main([a.format(d=tmp_path) for a in argv] + ["-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("kernelim: error: ") and message in err
    assert not out.exists()


_NUMERIC_OPTIONS = {
    "gen": ("--nodes", "--seed", "--thin-radius", "--link-radius"),
    "select": ("--budget", "--tol", "--clamp-spectrum"),
    "tune": ("--folds", "--seed", "--jitter"),
    "compare": ("--budget", "--ic-p", "--ic-runs", "--seed", "--pr-damping", "--jitter", "--tol",
                "--clamp-spectrum"),
}
_OPTION_BASE = {
    "gen": ["gen", "--nodes", "5"],
    "select": ["select", "--kernel", "diffusion:t=-1", "--budget", "2"],
    "tune": ["tune", "--kernel", "diffusion", "--t-grid=-10:-1:3", "--folds", "2"],
    "compare": ["compare", "--kernel", "diffusion:t=-1", "--budget", "2", "--ic-runs", "5"],
}


def _small(text):
    # Integers beyond 40 are left out, so that no node count, budget, fold
    # count or run count makes an example slow.
    try:
        return abs(int(text)) <= 40
    except ValueError:
        return True


_OPTION_VALUE = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", "x", "nan", "-nan", "inf", "-inf", "1e999", "-1", "0", "-0", "1_0",
                     "0x10", " 3 ", "1e-320", "2.5", "1e308"]),
    st.floats().map(repr),
    st.integers(-5, 40).map(str),
).filter(_small)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(option=st.sampled_from([(c, o) for c, opts in _NUMERIC_OPTIONS.items() for o in opts]),
       value=_OPTION_VALUE)
@example(option=("tune", "--folds"), value="x")
def test_numeric_options_fail_only_with_a_message(tmp_path_factory, option, value):
    command, flag = option
    directory = tmp_path_factory.getbasetemp()
    graph = [] if command == "gen" else ["--graph", str(_path5(directory))]
    _assert_clean_exit(_OPTION_BASE[command] + graph + [f"{flag}={value}",
                                                        "-o", str(directory / "option.out")])
