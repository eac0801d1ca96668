"""kernelim benchmark: whole CLI chains in fresh single-threaded-BLAS children.

    python3 perfbench/run.py --workload select_n1500 --seed 7 --seconds 54 --trace 0

Run from the repository root.  Each round runs `kernelim gen` and the
workload's main commands through `kernelim.cli.main(argv)`, each in its own
child interpreter (child.py), one child at a time.  Rounds repeat until the
next one would end more than half a round past --seconds.  Every output is
checked, and repeats must be byte-identical.  With --trace 1 each round adds
a traced chain whose spans give the per-layer metrics.  The last stdout line
is the JSON result; the full record (environment, samples, hashes) goes to
.perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from spans import summarize

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150
# Stop starting rounds once one more would end past this, whatever --seconds
# says, so that a run stays inside its 180 s limit.
HARD_LIMIT_S = 120
MAX_SEED_TRIES = 100


KERNEL = "diffusion:t=-10"
SELECT_BUDGET = 400
COMPARE_BUDGET = 10
IC_RUNS = 100
GRID_POINTS = 144
SELECT = ("select", "--graph", "graph.json", "--laplacian", "normalized", "--kernel", KERNEL,
          "--budget", str(SELECT_BUDGET), "-o", "select.json")
COMPARE = ("compare", "--graph", "graph.json", "--laplacian", "normalized", "--kernel", KERNEL,
           "--budget", str(COMPARE_BUDGET), "--ic-p", "0.2", "--ic-runs", str(IC_RUNS),
           "--seed", "0", "-o", "report.csv", "--meta", "meta.json")
TUNE = ("tune", "--graph", "graph.json", "--kernel", "spline", "--eps-grid", "1e-16:1e0:12",
        "--s-grid", "-1e1:-1e-1:12", "--folds", "5", "--seed", "0",
        "-o", "best.json", "--table", "scores.csv")
OUTPUTS = {"select": ("select.json",), "compare": ("report.csv", "meta.json"),
           "tune": ("best.json", "scores.csv")}


@dataclass(frozen=True)
class Workload:
    """`kernelim gen --nodes N --link-radius R`, then the main commands in order."""

    nodes: int
    link_radius: str
    commands: tuple[tuple[str, ...], ...]

    @property
    def normalized(self) -> bool:
        return any("normalized" in cmd for cmd in self.commands)

    @property
    def outputs(self) -> tuple[str, ...]:
        return ("graph.json",) + tuple(f for cmd in self.commands for f in OUTPUTS[cmd[0]])


# compare and tune share one workload: with two workloads instead of three,
# each run can measure for 54 s instead of 36 s in the same total time.
WORKLOADS = {
    "select_n1500": Workload(nodes=1500, link_radius="0.06", commands=(SELECT,)),
    "compare_tune_n500": Workload(nodes=500, link_radius="0.08", commands=(COMPARE, TUNE)),
}

END_TO_END = (
    ("wall_s", "s"),
    ("command_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)

PER_LAYER = (
    ("graphs.generate_points_graph_s", "s"),
    ("graphs.load_graph_s", "s"),
    ("graphs.laplacian_s", "s"),
    ("graphs.edge_count", "count"),
    ("spectral.eigendecompose_s", "s"),
    ("kernels.kernel_column_s", "s"),
    ("kernels.kernel_column_calls", "count"),
    ("kernels.kernel_matrix_s", "s"),
    ("kernels.kernel_matrix_calls", "count"),
    ("pgreedy.select_nodes_s", "s"),
    ("pgreedy.power_update_step_self_s", "s"),
    ("pgreedy.steps", "count"),
    ("gpr.power_direct_s", "s"),
    ("gpr.power_direct_calls", "count"),
    ("gpr.fit_coefficients_s", "s"),
    ("gpr.fit_coefficients_calls", "count"),
    ("baselines.ic_greedy_select_s", "s"),
    ("baselines.ic_greedy_candidate_evals", "count"),
    ("baselines.ic_score_s", "s"),
    ("baselines.ic_score_calls", "count"),
    ("baselines.ic_score_runs", "count"),
    ("baselines.pagerank_top_n_s", "s"),
    ("tuning.grid_search_s", "s"),
    ("tuning.grid_search_self_s", "s"),
    ("tuning.grid_points", "count"),
    ("tuning.usable_ratio", "ratio"),
    ("compare.run_comparison_s", "s"),
    ("compare.run_comparison_self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage_ratio", "ratio"),
)


def isolated_nodes(count: int, link_radius: float, seed: int) -> list[int]:
    """Nodes `kernelim gen --nodes count --seed seed` would leave without an edge."""
    import numpy as np
    from kernelim.graphs import uniform_points

    pts = uniform_points(count, seed)
    diff = pts[:, None, :] - pts[None, :, :]
    linked = np.sqrt((diff**2).sum(axis=2)) <= link_radius  # the generator's own test
    np.fill_diagonal(linked, False)
    return np.flatnonzero(~linked.any(axis=1)).tolist()


def resolve_seed(wl: Workload, seed: int) -> tuple[int, list[int]]:
    """First seed from `seed` on whose graph suits the workload, and the seeds refused."""
    if not wl.normalized:
        return seed, []
    refused = []
    for candidate in range(seed, seed + MAX_SEED_TRIES):
        isolated = isolated_nodes(wl.nodes, float(wl.link_radius), candidate)
        if not isolated:
            return candidate, refused
        refused.append(candidate)
        print(
            f"perfbench: seed {candidate} refused: node {isolated[0]} is isolated, so the "
            f"normalized Laplacian is undefined; trying seed {candidate + 1}",
            file=sys.stderr,
        )
    raise SystemExit(f"perfbench: no usable seed in {seed}..{seed + MAX_SEED_TRIES - 1}")


def git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, blas_threads) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads,
        "blas_thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(root),
    }


def run_child(rep_dir: Path, tag: str, cli_argv, trace: bool, env) -> dict:
    """One CLI call in a fresh interpreter; returns its result with the parent's wall time."""
    result_path = rep_dir / f"{tag}.result.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path)]
    if trace:
        cmd += ["--spans", str(rep_dir / f"{tag}.spans.json")]
    cmd += ["--", *cli_argv]
    t0 = time.perf_counter()
    try:
        # run() kills and reaps the child before raising on timeout.
        proc = subprocess.run(
            cmd, cwd=rep_dir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        returncode, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        returncode, stderr = None, f"timed out after {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    result = checks.load_json(result_path) if result_path.is_file() else {}
    result.update(tag=tag, wall_s=wall, ok=returncode == 0 and result.get("rc") == 0)
    if not result["ok"]:
        print(f"perfbench: {rep_dir.name}/{tag} failed: {stderr[-2000:]}", file=sys.stderr)
    return result


def run_chain(wl: Workload, graph_seed: int, rep_dir: Path, trace: bool, env) -> dict:
    rep_dir.mkdir(parents=True)
    gen_argv = ["gen", "--nodes", str(wl.nodes), "--link-radius", wl.link_radius,
                "--seed", str(graph_seed), "-o", "graph.json"]
    t0 = time.perf_counter()
    calls = [run_child(rep_dir, "gen", gen_argv, trace, env)]
    calls += [run_child(rep_dir, cmd[0], list(cmd), trace, env) for cmd in wl.commands]
    wall = time.perf_counter() - t0
    return {"dir": rep_dir, "trace": trace, "wall_s": wall, "calls": calls,
            "ok": all(c["ok"] for c in calls)}


def check_outputs(wl: Workload, rep_dir: Path, oracle: bool) -> list[str]:
    """Checks of one repeat; `oracle` adds the expensive direct cross-check of select."""
    found = []
    for name in (cmd[0] for cmd in wl.commands):
        if name == "select":
            doc = checks.load_json(rep_dir / "select.json")
            found += checks.check_select(doc, SELECT_BUDGET, wl.nodes)
            if oracle:
                found += checks.select_oracle(doc, rep_dir / "graph.json", "normalized", KERNEL)
        elif name == "compare":
            found += checks.check_compare(checks.read_report(rep_dir / "report.csv"),
                                          checks.load_json(rep_dir / "meta.json"), COMPARE_BUDGET)
        else:
            found += checks.check_tune(checks.load_json(rep_dir / "best.json"),
                                       checks.read_table(rep_dir / "scores.csv"), GRID_POINTS)
    return found


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(wl: Workload, chain: dict) -> dict:
    totals: dict[str, dict[str, float]] = {}
    root_s = 0.0
    for call in chain["calls"]:
        doc = checks.load_json(chain["dir"] / f"{call['tag']}.spans.json")
        root_s += sum(s["end"] - s["start"] for s in doc["spans"] if s["parent"] is None)
        for name, row in summarize(doc["spans"]).items():
            acc = totals.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]

    def get(name, key="total_s"):
        return totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})[key]

    scores = []
    if (chain["dir"] / "scores.csv").is_file():
        scores = [row["score"] for row in checks.read_table(chain["dir"] / "scores.csv")]
    usable = sum(1 for s in scores if s != float("inf"))
    # Computed, not counted: every IC-greedy round evaluates each remaining
    # candidate on every run.
    evals = get("baselines.ic_greedy_select", "calls") * IC_RUNS * sum(
        wl.nodes - r for r in range(COMPARE_BUDGET)
    )
    return {
        "graphs.generate_points_graph_s": get("graphs.generate_points_graph"),
        "graphs.load_graph_s": get("graphs.load_graph"),
        "graphs.laplacian_s": get("graphs.laplacian"),
        "graphs.edge_count": len(checks.load_json(chain["dir"] / "graph.json")["edges"]),
        "spectral.eigendecompose_s": get("spectral.eigendecompose"),
        "kernels.kernel_column_s": get("kernels.kernel_column"),
        "kernels.kernel_column_calls": get("kernels.kernel_column", "calls"),
        "kernels.kernel_matrix_s": get("kernels.kernel_matrix"),
        "kernels.kernel_matrix_calls": get("kernels.kernel_matrix", "calls"),
        "pgreedy.select_nodes_s": get("pgreedy.select_nodes"),
        "pgreedy.power_update_step_self_s": get("pgreedy.power_update_step", "self_s"),
        "pgreedy.steps": get("pgreedy.power_update_step", "calls"),
        "gpr.power_direct_s": get("gpr.power_direct"),
        "gpr.power_direct_calls": get("gpr.power_direct", "calls"),
        "gpr.fit_coefficients_s": get("gpr.fit_coefficients"),
        "gpr.fit_coefficients_calls": get("gpr.fit_coefficients", "calls"),
        "baselines.ic_greedy_select_s": get("baselines.ic_greedy_select"),
        "baselines.ic_greedy_candidate_evals": evals,
        "baselines.ic_score_s": get("baselines.ic_score"),
        "baselines.ic_score_calls": get("baselines.ic_score", "calls"),
        "baselines.ic_score_runs": get("baselines.ic_score", "calls") * IC_RUNS,
        "baselines.pagerank_top_n_s": get("baselines.pagerank_top_n"),
        "tuning.grid_search_s": get("tuning.grid_search"),
        "tuning.grid_search_self_s": get("tuning.grid_search", "self_s"),
        "tuning.grid_points": len(scores),
        "tuning.usable_ratio": usable / len(scores) if scores else 0.0,
        "compare.run_comparison_s": get("compare.run_comparison"),
        "compare.run_comparison_self_s": get("compare.run_comparison", "self_s"),
        "cli.self_s": get("cli.main", "self_s"),
        "trace.coverage_ratio": root_s / chain["wall_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7, help="graph seed (default 7)")
    parser.add_argument("--seconds", type=float, default=54, help="measuring time (default 54)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "kernelim" / "cli.py").is_file():
        print(f"perfbench: no src/kernelim/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported, here and in every child
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)

    wl = WORKLOADS[args.workload]
    graph_seed, refused = resolve_seed(wl, args.seed)
    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)

    # A round is one untraced chain, plus one traced chain with --trace 1.
    min_rounds = 1 if args.trace else 2
    chains, round_walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        i = len(round_walls)
        chains.append(run_chain(wl, graph_seed, work / f"rep{i}", False, env))
        if args.trace:
            chains.append(run_chain(wl, graph_seed, work / f"rep{i}-traced", True, env))
        round_walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        typical = statistics.median(round_walls)
        # Another round runs if it would end no more than half a round past
        # --seconds, so runs end within half a round of --seconds either way.
        if elapsed + typical > HARD_LIMIT_S or (
            len(round_walls) >= min_rounds and elapsed + typical / 2 > args.seconds
        ):
            break

    # Output checks, outside every timed region.
    calls = [c for chain in chains for c in chain["calls"]]
    attempted = len(calls)
    failed_calls = sum(1 for c in calls if not c["ok"])
    problems = []
    good = [chain for chain in chains if chain["ok"]]
    reference = None
    for chain in good:
        # Later repeats must equal the first byte for byte, so the oracle
        # needs to see only the first.
        try:
            chain["hashes"] = checks.file_hashes(chain["dir"], wl.outputs)
            found = check_outputs(wl, chain["dir"], oracle=reference is None)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found = [f"unreadable output: {exc!r}"]
        if reference is None:
            reference = chain.get("hashes")
        elif chain.get("hashes") != reference:
            found.append("outputs differ from the first repeat")
        if found:
            problems.append({"chain": chain["dir"].name, "problems": found})
            print(f"perfbench: {chain['dir'].name}: {'; '.join(found)}", file=sys.stderr)
    failed = failed_calls + len(problems)

    untraced = [chain for chain in chains if not chain["trace"]]
    traced = [chain for chain in chains if chain["trace"]]
    if args.trace:
        per_chain = [layer_metrics(wl, chain) for chain in traced if chain["ok"]]
        # median_low keeps counts whole: it always picks one chain's value.
        metrics = {name: statistics.median_low([m[name] for m in per_chain]) if per_chain else 0.0
                   for name, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = median([c["wall_s"] for c in traced]) - median(
            [c["wall_s"] for c in untraced]
        )
        units = dict(PER_LAYER)
    else:
        ok_calls = [c for c in calls if c["ok"]]
        metrics = {
            "wall_s": median([c["wall_s"] for c in good]),
            "command_s": median([sum(c["command_s"] for c in ch["calls"][1:]) for ch in good]),
            "setup_s": median([c["setup_s"] for c in ok_calls]),
            "peak_rss_mb": median([max(c.get("peak_rss_mb", 0.0) for c in ch["calls"]) for ch in good]),
            "ok_ratio": max(0.0, 1.0 - failed / attempted),
        }
        units = dict(END_TO_END)

    blas_threads = sorted({c.get("blas_threads") for c in calls}, key=str)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "graph_seed": graph_seed,
        "refused_seeds": refused,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(root, blas_threads),
        "chains": [
            {"dir": chain["dir"].name, "trace": chain["trace"], "wall_s": chain["wall_s"],
             "calls": chain["calls"], "hashes": chain.get("hashes")}
            for chain in chains
        ],
        "problems": problems,
        "metrics": metrics,
    }
    work.mkdir(parents=True, exist_ok=True)
    with open(work / "results.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"perfbench: {args.workload} graph seed {graph_seed}, {len(untraced)} untraced and "
          f"{len(traced)} traced chains, {attempted} CLI calls, {failed} failed")
    print("perfbench: environment " + json.dumps(record["environment"], sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name:36s} {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
