"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Random instances are generated with fixed seeds; graphs feeding
diffusion kernels with |t| up to 20 are rescaled to unit spectral radius so
the Mercer weights e^(-t lambda) stay finite and comparable at the stated
tolerances for every admissible t.
"""

import csv
import time

import numpy as np
import pytest

from kernelim import (
    ICConfig,
    LaplacianKind,
    SelectorConfig,
    custom_kernel,
    cv_error,
    CvSpec,
    diffusion_kernel,
    eigendecompose,
    generate_points_graph,
    gft,
    grid_search,
    ic_spread,
    kernel_diag,
    kernel_matrix,
    laplacian,
    power_direct,
    select_nodes,
    spline_kernel,
)
from kernelim.cli import main

from helpers import component_count, expm_taylor, random_connected_graph, random_graph

E2 = np.exp(-2.0)


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def greedy_runs():
    """50 random instances with per-step greedy states and direct powers."""
    rng = np.random.default_rng(20260810)
    runs = []
    for _ in range(50):
        n = int(rng.integers(5, 51))
        g = random_connected_graph(rng, n, unit_spectral=True)
        s = eigendecompose(laplacian(g))
        t = float(rng.uniform(-20.0, 20.0))
        kern = diffusion_kernel(s, t)
        diag = kernel_diag(s, kern)
        state = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=min(15, n)))
        per_step_direct = [
            power_direct(s, kern, state.chosen[: k + 1]) for k in range(len(state.chosen))
        ]
        runs.append(
            {
                "n": n,
                "t": t,
                "spectrum": s,
                "kernel": kern,
                "diag": diag,
                "state": state,
                "direct": per_step_direct,
            }
        )
    return runs


def test_criterion_1_incremental_direct_equality(greedy_runs):
    start = time.monotonic()
    worst = 0.0
    for run in greedy_runs:
        s, kern, state = run["spectrum"], run["kernel"], run["state"]
        p_init = float(np.sqrt(run["diag"].max()))
        # replay the greedy incrementally, comparing after every step
        from kernelim.pgreedy import new_state, power_update_step

        replay = new_state(kernel_matrix(s, kern), len(state.chosen))
        for k, w in enumerate(state.chosen):
            power_update_step(replay, w)
            dev = float(np.abs(np.sqrt(replay.p2) - run["direct"][k]).max())
            worst = max(worst, dev / p_init)
    elapsed = time.monotonic() - start
    _report(
        "criterion 1 (incremental vs direct power)",
        worst <= 1e-8 and elapsed < 30.0,
        f"worst deviation {worst:.2e} of allowed 1e-8, {elapsed:.1f}s of 30s",
    )


def test_criterion_2_greedy_matches_brute_force():
    start = time.monotonic()
    rng = np.random.default_rng(1503)
    checked = 0
    mismatches = []
    for _ in range(20):
        n = int(rng.integers(5, 26))
        g = random_connected_graph(rng, n, unit_spectral=True)
        s = eigendecompose(laplacian(g))
        kern = diffusion_kernel(s, float(rng.uniform(-20.0, 20.0)))
        state = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=min(8, n)))
        for k, rec in enumerate(state.history):
            prefix = state.chosen[:k]
            powers = power_direct(s, kern, prefix)
            powers[prefix] = -np.inf
            oracle = int(np.flatnonzero(powers == powers.max())[0])
            checked += 1
            if oracle != rec.node:
                mismatches.append((n, k, oracle, rec.node))
    elapsed = time.monotonic() - start
    _report(
        "criterion 2 (greedy pick = brute-force argmax)",
        not mismatches and elapsed < 30.0,
        f"{checked} picks checked, {len(mismatches)} mismatches, {elapsed:.1f}s of 30s",
    )


def test_criterion_3_model_properties(greedy_runs):
    bound_ok = True
    monotone_ok = True
    for run in greedy_runs:
        upper = float(np.sqrt(run["diag"].max()))
        powers = [rec.max_power for rec in run["state"].history]
        for value in powers:
            bound_ok &= -1e-9 <= value <= upper + 1e-9
        for a, b in zip(powers, powers[1:]):
            monotone_ok &= b <= a + 1e-9
        for direct in run["direct"]:
            bound_ok &= float(direct.max()) <= upper + 1e-9
    _report(
        "criterion 3 (bounds and monotonicity)",
        bound_ok and monotone_ok,
        f"bounds {'ok' if bound_ok else 'violated'}, "
        f"monotone {'ok' if monotone_ok else 'violated'} on all 50 instances",
    )


def test_criterion_4_kernel_correctness():
    rng = np.random.default_rng(404)
    worst_rel = 0.0
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(4, 21)), weight_lo=0.2, weight_hi=1.0)
        lap = laplacian(g)
        s = eigendecompose(lap.copy())
        t = float(rng.uniform(-10.0, 10.0))
        k = kernel_matrix(s, diffusion_kernel(s, t))
        oracle = expm_taylor(-t * lap)
        worst_rel = max(worst_rel, float(np.abs(k - oracle).max() / np.abs(oracle).max()))

    spline_exact = True
    pd_consistent = True
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(4, 26)))
        s = eigendecompose(laplacian(g))
        eps, sp = float(rng.uniform(0.1, 2.0)), float(rng.uniform(-3.0, 3.0))
        kern = spline_kernel(s, eps, sp)
        spline_exact &= np.array_equal(kern.coefficients, (eps + s.eigenvalues) ** (-sp))
        mixed = custom_kernel(s, rng.uniform(-0.5, 1.0, size=g.n))
        mercer = (s.eigenvectors * mixed.coefficients) @ s.eigenvectors.T  # U diag(f) U^T
        min_eig = float(np.linalg.eigvalsh(mercer)[0])
        scale = float(np.abs(mercer).max())
        pd_consistent &= mixed.is_positive_definite == (min_eig > -1e-9 * scale) or (
            not mixed.is_positive_definite and min_eig <= 1e-9 * scale
        )
    _report(
        "criterion 4 (kernel correctness)",
        worst_rel <= 1e-8 and spline_exact and pd_consistent,
        f"diffusion vs expm {worst_rel:.2e} of 1e-8, spline exact {spline_exact}, "
        f"pd flag consistent {pd_consistent}",
    )


def test_criterion_5_spectral_suite():
    rng = np.random.default_rng(505)
    ortho = rt = rowsum = normspec = 0.0
    components_ok = True
    for _ in range(20):
        n = int(rng.integers(4, 40))
        g = random_graph(rng, n, edge_prob=0.12)
        lap = laplacian(g)
        s = eigendecompose(lap.copy())
        u = s.eigenvectors
        ortho = max(ortho, float(np.abs(u.T @ u - np.eye(n)).max()))
        x = rng.normal(size=n)
        rt = max(rt, float(np.abs(gft(s, gft(s, x), "inverse") - x).max()))
        rowsum = max(rowsum, float(np.abs(lap @ np.ones(n)).max()))
        zeros = int(np.sum(s.eigenvalues < 1e-8 * max(1.0, s.eigenvalues[-1])))
        components_ok &= zeros == component_count(g)
        if np.all(g.degrees() > 0):
            lam = eigendecompose(laplacian(g, LaplacianKind.NORMALIZED)).eigenvalues
            normspec = max(normspec, float(max(-lam[0], lam[-1] - 2.0, 0.0)))
    ok = ortho <= 1e-9 and rt <= 1e-10 and rowsum <= 1e-10 and normspec <= 1e-10 and components_ok
    _report(
        "criterion 5 (spectral suite)",
        ok,
        f"orthonormality {ortho:.1e}/1e-9, round trip {rt:.1e}/1e-10, row sums "
        f"{rowsum:.1e}/1e-10, normalized spectrum excess {normspec:.1e}/1e-10, "
        f"component multiplicity {components_ok}",
    )


def test_criterion_6_hand_fixtures(two_node, two_node_spectrum):
    s = two_node_spectrum
    kern = diffusion_kernel(s, 1.0)
    k11 = float(kernel_matrix(s, kern)[0, 0])
    p_empty = float(power_direct(s, kern, [])[0])
    p_after = float(power_direct(s, kern, [0])[1])
    cv = cv_error(s, "spline", {"eps": 1.0, "s": 1.0}, CvSpec(folds=2, seed=0, grids={}))
    checks = {
        "K11": (k11, (1 + E2) / 2),
        "P_empty": (p_empty, np.sqrt((1 + E2) / 2)),
        "P_after_step": (p_after, 0.488269),
        "cv_error": (cv, 0.25),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    _report(
        "criterion 6 (hand-value fixtures)",
        worst <= 1e-6,
        ", ".join(f"{name} {got:.6f} vs {want:.6f}" for name, (got, want) in checks.items()),
    )


def test_criterion_7_ic_determinism_and_endpoints(two_node):
    start = time.monotonic()
    rng = np.random.default_rng(707)
    g = random_connected_graph(rng, 30)

    exact_ok = True
    est0 = ic_spread(g, [2, 7], ICConfig(p=0.0, runs=100, master_seed=3))
    exact_ok &= est0.mean_spread == 2.0
    est1 = ic_spread(g, [2], ICConfig(p=1.0, runs=100, master_seed=3))
    exact_ok &= est1.mean_spread == float(g.n)  # connected graph floods fully

    cfg = ICConfig(p=0.2, runs=2000, master_seed=5)
    first = ic_spread(g, [0, 9, 17], cfg)
    second = ic_spread(g, [0, 9, 17], cfg)
    repro_ok = first == second

    half = ic_spread(two_node, [0], ICConfig(p=0.5, runs=10000, master_seed=11))
    half_ok = abs(half.mean_spread - 1.5) <= 3 * half.std_err
    elapsed = time.monotonic() - start
    _report(
        "criterion 7 (IC determinism and endpoints)",
        exact_ok and repro_ok and half_ok and elapsed < 20.0,
        f"endpoints exact {exact_ok}, two identical calls are identical {repro_ok}, "
        f"p=0.5 estimate {half.mean_spread:.4f} within 3se of 1.5, {elapsed:.1f}s of 20s",
    )


def test_criterion_8_desk_scale_protocol(tmp_path):
    start = time.monotonic()
    graph_path = tmp_path / "sensor79.json"
    report_path = tmp_path / "report.csv"
    assert main(["gen", "--kind", "sensor", "--nodes", "79", "--seed", "7",
                 "--link-radius", "0.2", "-o", str(graph_path)]) == 0
    code = main([
        "compare", "--graph", str(graph_path),
        "--kernel", "diffusion:t=-10", "--laplacian", "normalized",
        "--budget", "10", "--methods", "kernel,ic,pagerank,degree",
        "--ic-p", "0.2", "--ic-runs", "500", "--seed", "0",
        "-o", str(report_path),
    ])
    assert code == 0
    with open(report_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    curves: dict[str, list[float]] = {}
    scores: dict[str, list[float]] = {}
    for row in rows:
        curves.setdefault(row["method"], []).append(float(row["max_std"]))
        scores.setdefault(row["method"], []).append(float(row["ic_score"]))
    assert all(len(v) == 10 for v in curves.values())

    kernel_curve = curves["kernel"]
    non_increasing = all(b <= a * (1 + 1e-12) for a, b in zip(kernel_curve, kernel_curve[1:]))
    minimal_everywhere = all(
        kernel_curve[k] <= min(curves[m][k] for m in curves) * (1 + 1e-9) for k in range(10)
    )
    ic_beats_degree = scores["ic"][-1] <= scores["degree"][-1]
    elapsed = time.monotonic() - start
    _report(
        "criterion 8 (desk-scale comparison protocol)",
        non_increasing and minimal_everywhere and ic_beats_degree and elapsed < 300.0,
        f"kernel max-std non-increasing {non_increasing}, minimal at every k "
        f"{minimal_everywhere}, IC score {scores['ic'][-1]:.3f} <= degree "
        f"{scores['degree'][-1]:.3f}: {ic_beats_degree}, {elapsed:.1f}s of 300s",
    )


def test_criterion_9_table2_protocol_shape():
    g = generate_points_graph(count=100, seed=11, thin_radius=0.0, link_radius=0.2)
    s = eigendecompose(laplacian(g, LaplacianKind.NORMALIZED))

    diff_spec = CvSpec(folds=5, seed=3, grids={"t": (-1e2, -1e-2, 25)})
    diff_a = grid_search(s, "diffusion", diff_spec)
    diff_b = grid_search(s, "diffusion", diff_spec)
    spline_spec = CvSpec(folds=5, seed=3, grids={"eps": (1e-16, 1e0, 25), "s": (-1e1, -1e-1, 25)})
    spl_a = grid_search(s, "spline", spline_spec)
    spl_b = grid_search(s, "spline", spline_spec)

    sizes_ok = len(diff_a.table) == 25 and len(spl_a.table) == 625
    stable = diff_a.best_params == diff_b.best_params and spl_a.best_params == spl_b.best_params
    _report(
        "criterion 9 (parameter-grid protocol shape)",
        sizes_ok and stable,
        f"table sizes {len(diff_a.table)}/{len(spl_a.table)} (want 25/625), "
        f"argmin stable {stable}; best diffusion {diff_a.best_params}, "
        f"best spline {spl_a.best_params}",
    )
