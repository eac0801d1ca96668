"""Tests of the benchmark's own code: span arithmetic, wrapper restore, output checks."""

from __future__ import annotations

import importlib
import itertools
import math

import pytest

import checks
import run
import spans


def _span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "r"}


def test_self_time_over_synthetic_tree():
    tree = [
        _span("root", 0.0, 10.0, None),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),      # overlaps a: the union 1..6 is covered once
        _span("a.child", 2.0, 3.0, 1),
        _span("late", 9.0, 12.0, 0),  # runs past its parent: only 9..10 counts
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0])
    summary = spans.summarize(tree)
    assert summary["root"] == pytest.approx({"calls": 1, "total_s": 10.0, "self_s": 4.0})


def test_tracer_nests_spans_under_the_open_one():
    ticks = itertools.count()
    tracer = spans.Tracer("run-1", clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.record("manual", 2.5, 2.75)
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("manual", 0)
    ]
    assert {s["run"] for s in tracer.spans} == {"run-1"}
    assert spans.self_times(tracer.spans)[0] == pytest.approx(3.0 - 1.0 - 0.25)


def _attributes():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in spans.TARGETS
    }


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    import kernelim.cli

    before = _attributes()
    graph, out = str(tmp_path / "g.json"), str(tmp_path / "s.json")
    tracer = spans.Tracer("restore")
    with tracer.patched():
        assert kernelim.cli.eigendecompose is not before[("kernelim.cli", "eigendecompose")]
        assert kernelim.cli.main(["gen", "--nodes", "30", "--seed", "7", "--link-radius", "0.4",
                                  "-o", graph]) == 0
        assert kernelim.cli.main(["select", "--graph", graph, "--kernel", "diffusion:t=-10",
                                  "--budget", "5", "-o", out]) == 0
    assert _attributes() == before
    assert tracer.missing == []
    names = [s["name"] for s in tracer.spans]
    assert names.count("pgreedy.power_update_step") == 5
    for s in tracer.spans:
        if s["name"] == "kernels.kernel_column":
            assert tracer.spans[s["parent"]]["name"] == "pgreedy.power_update_step"


def test_wrappers_are_restored_when_the_traced_call_raises():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with spans.Tracer("boom").patched():
            raise RuntimeError("boom")
    assert _attributes() == before


def test_missing_target_is_skipped_and_reported():
    tracer = spans.Tracer("missing")
    with tracer.patched([("kernelim.cli", "no_such_function", "x.y")]):
        pass
    assert tracer.missing == ["kernelim.cli.no_such_function"]


def _select_doc():
    return {"nodes": [4, 1, 3], "max_power": [0.9, 0.5, 0.5]}


def test_check_select_accepts_valid_and_rejects_duplicate_node():
    assert checks.check_select(_select_doc(), budget=3, n=5) == []
    doc = _select_doc()
    doc["nodes"][2] = 4
    assert any("distinct" in p for p in checks.check_select(doc, budget=3, n=5))
    doc = _select_doc()
    doc["max_power"][2] = 0.6
    assert any("increases" in p for p in checks.check_select(doc, budget=3, n=5))


def _report(budget=3):
    rows = []
    for method in checks.COMPARE_METHODS:
        for k in range(1, budget + 1):
            rows.append({"method": method, "k": str(k), "node_id": str(k),
                         "max_std": repr(1.0 / k), "mean_std": "0.1", "ic_score": repr(0.9 - 0.1 * k)})
    return rows


def test_check_compare_accepts_valid_and_rejects_rising_ic_score():
    assert checks.check_compare(_report(), {"errors": {}}, budget=3) == []
    rows = _report()
    rows[5]["ic_score"] = "0.95"   # ic method, k=3 rises above k=2
    assert checks.check_compare(rows, {"errors": {}}, budget=3) == ["ic: ic_score increases at k=3"]
    assert checks.check_compare(_report(), {"errors": {"ic": "failed"}}, budget=3)
    assert checks.check_compare(_report()[1:], {"errors": {}}, budget=3)


def _table():
    return [{"eps": 1.0, "s": -1.0, "score": math.inf},
            {"eps": 1.0, "s": -0.1, "score": 0.25},
            {"eps": 0.1, "s": -0.1, "score": 0.5}]


@pytest.mark.parametrize("score", [math.inf, math.nan, None])
def test_check_tune_rejects_non_finite_best_score(score):
    best = {"params": {"eps": 1.0, "s": -0.1}, "score": score}
    assert any("not finite" in p for p in checks.check_tune(best, _table(), grid_points=3))


def test_check_tune_accepts_the_table_minimum_only():
    best = {"params": {"eps": 1.0, "s": -0.1}, "score": 0.25}
    assert checks.check_tune(best, _table(), grid_points=3) == []
    assert checks.check_tune(best, _table(), grid_points=4)
    assert checks.check_tune({"params": {"eps": 0.1, "s": -0.1}, "score": 0.5}, _table(), 3)


def test_isolated_nodes_agree_with_the_generator():
    from kernelim import generate_points_graph

    for seed in range(5):
        graph = generate_points_graph(count=60, seed=seed, link_radius=0.12)
        expected = [v for v, d in enumerate(graph.degrees()) if d == 0]
        assert run.isolated_nodes(60, 0.12, seed) == expected


def test_benchmark_refuses_a_directory_without_the_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "compare_tune_n500", "--seconds", "1"]) == 2
