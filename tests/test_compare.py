import csv

import numpy as np
import pytest

from kernelim import (
    ICConfig,
    LaplacianKind,
    SelectorConfig,
    baselines,
    compare,
    diffusion_kernel,
    custom_kernel,
    eigendecompose,
    generate_points_graph,
    ic_score,
    kernel_matrix,
    laplacian,
    power_direct,
    run_comparison,
    select_nodes,
    write_report_csv,
)
from kernelim.errors import IndefiniteKernelError, KernelimError, NumericalError

from helpers import random_connected_graph


def _setup(rng, n=18):
    g = random_connected_graph(rng, n, unit_spectral=True)
    s = eigendecompose(laplacian(g))
    return g, s, diffusion_kernel(s, -3.0)


def test_report_structure_and_curve_lengths():
    rng = np.random.default_rng(1)
    g, s, kern = _setup(rng)
    cfg = ICConfig(p=0.2, runs=60, master_seed=4)
    report = run_comparison(g, s, kern, budget=5, ic_cfg=cfg)
    assert [c.method for c in report.curves] == ["kernel", "ic", "pagerank", "degree"]
    for curve in report.curves:
        assert curve.error is None
        assert len(curve.nodes) == 5
        assert len(curve.max_std) == len(curve.mean_std) == len(curve.ic_score) == 5
        assert len(set(curve.nodes)) == 5
    assert report.metadata["budget"] == 5
    assert report.metadata["kernel"].startswith("diffusion:")
    assert len(report.metadata["graph_hash"]) == 64


def test_ic_score_column_exact_at_p0(two_node):
    s = eigendecompose(laplacian(two_node))
    kern = diffusion_kernel(s, 1.0)
    cfg = ICConfig(p=0.0, runs=25, master_seed=0)
    report = run_comparison(two_node, s, kern, budget=2, ic_cfg=cfg, methods=["kernel", "degree"])
    for curve in report.curves:
        assert curve.ic_score == [0.5, 0.0]  # (n - k) / n


@pytest.mark.parametrize("sigma2", [0.0, 1e-3])
def test_power_rows_match_the_direct_formula(sigma2):
    # Every prefix row of every method, from the Newton update, against the
    # Schur complement solved from scratch.  The two round differently; at
    # sigma2 = 1e-3 the direct formula is off by up to 1.6e-12 relative here
    # (checked against 40-digit arithmetic), the update by under 1e-15.
    g = generate_points_graph(count=79, seed=7, thin_radius=0.0, link_radius=0.2)
    s = eigendecompose(laplacian(g, LaplacianKind.NORMALIZED))
    kern = diffusion_kernel(s, -10.0)
    report = run_comparison(g, s, kern, budget=10, ic_cfg=ICConfig(p=0.2, runs=5, master_seed=0),
                            jitter=sigma2)
    for curve in report.curves:
        assert curve.error is None and len(curve.nodes) == 10
        for k in range(1, 11):
            direct = power_direct(s, kern, curve.nodes[:k], sigma2)
            np.testing.assert_allclose([curve.max_std[k - 1], curve.mean_std[k - 1]],
                                       [direct.max(), direct.mean()], rtol=1e-11, atol=0)
        assert all(a >= b for a, b in zip(curve.max_std, curve.max_std[1:]))
    if sigma2 == 0.0:
        history = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=10)).history
        kernel_curve = report.curves[0]
        assert kernel_curve.nodes == [rec.node for rec in history]
        assert kernel_curve.max_std == [rec.max_power for rec in history]  # bit for bit


def test_comparison_draws_each_scoring_sample_once(monkeypatch):
    rng = np.random.default_rng(1)
    g, s, kern = _setup(rng)
    calls = []
    reach_masks = baselines._reach_masks
    monkeypatch.setattr(baselines, "_reach_masks", lambda succ: calls.append(1) or reach_masks(succ))
    report = run_comparison(g, s, kern, budget=5, ic_cfg=ICConfig(p=0.2, runs=7, master_seed=4))
    assert [len(curve.nodes) for curve in report.curves] == [5, 5, 5, 5]
    assert len(calls) == 7 + 7  # IC-greedy: one set of runs; scoring: runs


def test_kernel_curve_hits_tolerance_at_full_budget(two_node):
    s = eigendecompose(laplacian(two_node))
    kern = diffusion_kernel(s, 1.0)
    cfg = ICConfig(p=0.2, runs=25, master_seed=0)
    report = run_comparison(two_node, s, kern, budget=2, ic_cfg=cfg, methods=["kernel"])
    assert report.curves[0].max_std[-1] <= 1e-6  # all nodes interpolated


def test_comparison_deterministic():
    rng = np.random.default_rng(2)
    g, s, kern = _setup(rng)
    cfg = ICConfig(p=0.2, runs=40, master_seed=9)
    a = run_comparison(g, s, kern, budget=4, ic_cfg=cfg)
    b = run_comparison(g, s, kern, budget=4, ic_cfg=cfg)
    for ca, cb in zip(a.curves, b.curves):
        assert ca.nodes == cb.nodes
        assert ca.max_std == cb.max_std
        assert ca.ic_score == cb.ic_score


def test_failing_method_recorded_others_proceed():
    # A numerically rank-1 positive definite kernel: the greedy stops after one
    # node at numerical exhaustion, and the degree list's second pivot is at or
    # below the guard, so its power rows fail at k=2 and the error is recorded.
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 10)
    s = eigendecompose(laplacian(g))
    coeff = np.full(10, 1e-30)
    coeff[0] = 1.0
    kern = custom_kernel(s, coeff)
    cfg = ICConfig(p=0.2, runs=20, master_seed=1)
    report = run_comparison(g, s, kern, budget=3, ic_cfg=cfg, methods=["kernel", "degree"])
    by_name = {c.method: c for c in report.curves}
    assert by_name["kernel"].error is None
    assert by_name["degree"].error is not None
    assert len(by_name["degree"].nodes) == 1  # k=1 succeeded before the failure


def test_all_methods_failing_raises():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 10)
    s = eigendecompose(laplacian(g))
    coeff = np.full(10, 1e-30)
    coeff[0] = 1.0
    kern = custom_kernel(s, coeff)
    cfg = ICConfig(p=0.2, runs=20, master_seed=1)
    with pytest.raises(KernelimError, match="every method failed"):
        run_comparison(g, s, kern, budget=3, ic_cfg=cfg, methods=["degree", "pagerank"])


def test_kept_prefixes_of_a_failed_method_score_as_alone(monkeypatch):
    # The rank-1 kernel of the test above: degree keeps only its k=1 row.  Its
    # IC score must equal that of the one-node list scored on its own, and a
    # request where every method fails raises before any IC scoring.
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 10)
    s = eigendecompose(laplacian(g))
    coeff = np.full(10, 1e-30)
    coeff[0] = 1.0
    kern = custom_kernel(s, coeff)
    cfg = ICConfig(p=0.2, runs=20, master_seed=1)
    report = run_comparison(g, s, kern, budget=3, ic_cfg=cfg, methods=["kernel", "degree"])
    degree = report.curves[1]
    assert degree.error is not None
    assert degree.ic_score == ic_score(g, [degree.nodes], cfg)[0]
    calls = []
    monkeypatch.setattr(compare, "ic_score", lambda *a: calls.append(1))
    with pytest.raises(KernelimError, match="every method failed"):
        run_comparison(g, s, kern, budget=3, ic_cfg=cfg, methods=["degree", "pagerank"])
    assert calls == []


@pytest.mark.parametrize("kwargs, message", [
    ({"methods": []}, "at least one method is required"),
    ({"methods": ["degree", "ic", "degree"]}, "repeated method 'degree'"),
    ({"budget": 0}, "budget must be in 1..18, got 0"),
    ({"damping": 1.0}, "damping must lie strictly between 0 and 1"),
    ({"jitter": -1.0}, "sigma2 must be nonnegative and finite"),
    ({"jitter": float("nan")}, "sigma2 must be nonnegative and finite"),
], ids=["no-method", "repeated-method", "budget", "damping", "jitter", "nan-jitter"])
def test_request_is_checked_before_any_method_runs(monkeypatch, kwargs, message):
    rng = np.random.default_rng(1)
    g, s, kern = _setup(rng)
    calls = []
    monkeypatch.setattr(compare, "degree_top_n", lambda *a: calls.append(1))
    request = {"budget": 2, "methods": ["degree"], **kwargs}
    with pytest.raises(ValueError) as info:
        run_comparison(g, s, kern, ic_cfg=ICConfig(p=0.2, runs=5), **request)
    assert str(info.value) == message
    assert calls == []


def test_failing_methods_keep_the_numerical_exit_class(monkeypatch):
    # The rank-1 kernel of test_all_methods_failing_raises: both lists reach a
    # pivot at or below the guard, a numerical failure.  One failure that is
    # not numerical makes the whole run a plain KernelimError.
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 10)
    s = eigendecompose(laplacian(g))
    kern = custom_kernel(s, [1.0] + [1e-30] * 9)
    cfg = ICConfig(p=0.2, runs=5, master_seed=1)
    with pytest.raises(NumericalError, match="every method failed"):
        run_comparison(g, s, kern, budget=3, ic_cfg=cfg, methods=["degree", "pagerank"])

    def refuse(*args):
        raise KernelimError("not numerical")

    monkeypatch.setattr(compare, "degree_top_n", refuse)
    with pytest.raises(KernelimError, match="every method failed") as info:
        run_comparison(g, s, kern, budget=3, ic_cfg=cfg, methods=["degree", "pagerank"])
    assert not isinstance(info.value, NumericalError)


def test_indefinite_kernel_is_refused_before_any_method_runs(monkeypatch):
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 10)
    s = eigendecompose(laplacian(g))
    kern = custom_kernel(s, [1.0] + [-1.0] * 9)
    calls = []
    for name in ("ic_greedy_select", "degree_top_n", "ic_score"):
        monkeypatch.setattr(compare, name, lambda *a, name=name: calls.append(name))
    with pytest.raises(IndefiniteKernelError):
        run_comparison(g, s, kern, budget=2, ic_cfg=ICConfig(p=0.2, runs=5, master_seed=1))
    assert calls == []


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    g, s, kern = _setup(rng, n=12)
    cfg = ICConfig(p=0.2, runs=30, master_seed=2)
    report = run_comparison(g, s, kern, budget=3, ic_cfg=cfg, methods=["kernel", "degree"])
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert set(rows[0]) == {"method", "k", "node_id", "max_std", "mean_std", "ic_score"}
    kernel_rows = [r for r in rows if r["method"] == "kernel"]
    assert [int(r["k"]) for r in kernel_rows] == [1, 2, 3]
    assert float(kernel_rows[0]["max_std"]) > 0
    text = path.read_text()
    assert "\r" not in text
