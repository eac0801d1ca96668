"""Side-by-side evaluation of selection methods on shared metrics.

All methods are scored with one kernel and one cascade configuration: for
every prefix of each method's node list we record the maximal and mean
posterior standard deviation and the IC score (fraction of nodes not reached).
The standard deviations come from the selector's own Newton update, fed each
list in order on one kernel matrix.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .baselines import DEFAULT_DAMPING, ICConfig, check_damping, ic_greedy_select, ic_score, pagerank_top_n
from .errors import KernelimError, NumericalError
from .gpr import check_sigma2, power_direct  # noqa: F401  (unused; perfbench's spans look it up here until ROADMAP item 2)
from .graphs import Graph, LaplacianKind, degree_top_n, graph_hash
from .kernels import GbfKernel, format_kernel_spec, kernel_matrix
from .pgreedy import DEFAULT_TOLERANCE, SelectorConfig, new_state, power_update_step, select_nodes
from .spectral import Spectrum

METHODS = ("kernel", "ic", "pagerank", "degree")


@dataclass
class MethodCurve:
    method: str
    nodes: list[int] = field(default_factory=list)
    max_std: list[float] = field(default_factory=list)
    mean_std: list[float] = field(default_factory=list)
    ic_score: list[float] = field(default_factory=list)
    error: str | None = None


@dataclass
class ComparisonReport:
    curves: list[MethodCurve]
    metadata: dict


def check_request(n: int, budget: int, methods, damping: float, jitter: float, tolerance: float) -> list[str]:
    """Refuse a bad comparison request before any costly step; return the method list."""
    methods = list(methods)
    if not methods:
        raise ValueError("at least one method is required")
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {list(METHODS)}")
        if method in methods[:i]:
            raise ValueError(f"repeated method {method!r}")
    if not 1 <= budget <= n:
        raise ValueError(f"budget must be in 1..{n}, got {budget}")
    SelectorConfig(budget=budget, tolerance=tolerance)  # the kernel method's tolerance rule
    check_damping(damping)
    check_sigma2(jitter)
    return methods


def _select(method, graph, k, budget, cfg, damping, tolerance):
    if method == "kernel":
        sel = select_nodes(k, SelectorConfig(budget=budget, tolerance=tolerance))
        return list(sel.chosen)
    if method == "ic":
        return ic_greedy_select(graph, budget, cfg)
    if method == "pagerank":
        return pagerank_top_n(graph, budget, damping=damping)
    return degree_top_n(graph, budget)


def run_comparison(
    graph: Graph,
    spectrum: Spectrum,
    kernel: GbfKernel,
    budget: int,
    ic_cfg: ICConfig,
    methods=METHODS,
    damping: float = DEFAULT_DAMPING,
    tolerance: float = DEFAULT_TOLERANCE,
    jitter: float = 0.0,
    laplacian: LaplacianKind = LaplacianKind.STANDARD,
) -> ComparisonReport:
    """Run every requested selector to `budget` and score all prefixes.

    The request is checked first and the full kernel matrix built once, which
    refuses a kernel that is not positive definite before any method runs.
    Each method then selects, and `power_update_step` with noise variance
    `jitter` takes its list node by node, giving the power rows of every
    prefix (at jitter 0 the kernel method's rows are its selection's own
    numbers).  One
    `ic_score` call scores the kept prefixes of all lists on the same samples.
    A failing method keeps its rows before the failure and its error on its
    curve, and the others proceed; the report is deterministic for a fixed
    ICConfig master seed.  If every method fails, the run raises a
    NumericalError when every cause was numerical and a KernelimError
    otherwise.
    """
    methods = check_request(graph.n, budget, methods, damping, jitter, tolerance)
    curves = [MethodCurve(method=method) for method in methods]
    k = kernel_matrix(spectrum, kernel)
    numerical = []  # one entry per failed curve: was its cause numerical?
    for curve in curves:
        try:
            nodes = _select(curve.method, graph, k, budget, ic_cfg, damping, tolerance)
            state = new_state(k, budget, sigma2=jitter)
            for node in nodes:
                power_update_step(state, node)
                curve.nodes.append(node)
                curve.max_std.append(state.max_power())
                curve.mean_std.append(float(np.sqrt(state.p2).mean()))
        except KernelimError as exc:
            curve.error = str(exc)
            numerical.append(isinstance(exc, NumericalError))
    if len(numerical) == len(curves):
        raise (NumericalError if all(numerical) else KernelimError)(
            "every method failed: " + "; ".join(f"{c.method}: {c.error}" for c in curves)
        )
    for curve, scores in zip(curves, ic_score(graph, [c.nodes for c in curves], ic_cfg)):
        curve.ic_score = scores
    metadata = {
        "budget": budget,
        "methods": methods,
        "graph_hash": graph_hash(graph),
        "kernel": format_kernel_spec(kernel),
        "laplacian": laplacian.value,
        "ic": {"p": ic_cfg.p, "runs": ic_cfg.runs, "master_seed": ic_cfg.master_seed},
        "pagerank_damping": damping,
        "tolerance": tolerance,
        "jitter": jitter,
        "version": __version__,
        "errors": {c.method: c.error for c in curves if c.error is not None},
    }
    return ComparisonReport(curves=curves, metadata=metadata)


def write_csv(path, header, rows) -> None:
    """Write a header row, then `rows`, as utf-8 CSV with "\\n" line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_report_csv(report: ComparisonReport, path) -> None:
    """Tidy CSV: method, k, node_id, max_std, mean_std, ic_score."""
    rows = (
        [curve.method, k, node, *map(repr, values)]
        for curve in report.curves
        for k, (node, *values) in enumerate(
            zip(curve.nodes, curve.max_std, curve.mean_std, curve.ic_score), start=1
        )
    )
    write_csv(path, ["method", "k", "node_id", "max_std", "mean_std", "ic_score"], rows)
