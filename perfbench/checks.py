"""Output checks for the benchmark workloads.

Each check takes parsed CLI outputs and returns a list of problems; an empty
list means the output passed.  Only `select_oracle` needs kernelim itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

COMPARE_METHODS = ("kernel", "ic", "pagerank", "degree")

# The selector's last max_power must match the direct Schur-complement power
# function to this share of the initial max_power.
ORACLE_RELATIVE_TOLERANCE = 1e-10


def _rising(values) -> list[int]:
    """Positions i where values[i] > values[i - 1]."""
    return [i for i in range(1, len(values)) if values[i] > values[i - 1]]


def check_select(doc: dict, budget: int, n: int) -> list[str]:
    nodes = doc["nodes"]
    powers = doc["max_power"]
    problems = []
    if len(nodes) != budget:
        problems.append(f"expected {budget} nodes, got {len(nodes)}")
    if len(set(nodes)) != len(nodes):
        problems.append("selected nodes are not distinct")
    if any(not 0 <= v < n for v in nodes):
        problems.append(f"node id outside 0..{n - 1}")
    if len(powers) != len(nodes):
        problems.append(f"{len(powers)} max_power values for {len(nodes)} nodes")
    rising = _rising(powers)
    if rising:
        problems.append(f"max_power increases at step {rising[0]}")
    return problems


def select_oracle(doc: dict, graph_path, laplacian: str, kernel_spec: str) -> list[str]:
    """Direct power function of the final set against the selector's last max_power."""
    from kernelim import eigendecompose, laplacian as build_laplacian, load_graph, parse_kernel_spec, power_direct
    from kernelim.graphs import LaplacianKind

    spectrum = eigendecompose(build_laplacian(load_graph(graph_path), LaplacianKind.parse(laplacian)))
    kern = parse_kernel_spec(kernel_spec, spectrum)
    direct = float(power_direct(spectrum, kern, doc["nodes"]).max())
    powers = doc["max_power"]
    gap = abs(direct - powers[-1])
    if not gap <= ORACLE_RELATIVE_TOLERANCE * powers[0]:
        return [f"direct max power {direct!r} differs from the selector's {powers[-1]!r} by {gap:.3e}"]
    return []


def read_report(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_compare(rows: list[dict], meta: dict, budget: int) -> list[str]:
    problems = []
    if meta.get("errors"):
        problems.append(f"meta.json reports errors: {meta['errors']}")
    for method in COMPARE_METHODS:
        mine = [r for r in rows if r["method"] == method]
        if len(mine) != budget:
            problems.append(f"{method}: expected {budget} rows, got {len(mine)}")
            continue
        if [int(r["k"]) for r in mine] != list(range(1, budget + 1)):
            problems.append(f"{method}: prefix sizes are not 1..{budget} in order")
        for column in ("ic_score", "max_std"):
            rising = _rising([float(r[column]) for r in mine])
            if rising:
                problems.append(f"{method}: {column} increases at k={rising[0] + 1}")
    return problems


def read_table(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [{key: float(val) for key, val in row.items()} for row in csv.DictReader(fh)]


def check_tune(best: dict, table: list[dict], grid_points: int) -> list[str]:
    problems = []
    if len(table) != grid_points:
        problems.append(f"expected {grid_points} table rows, got {len(table)}")
    score = best["score"]
    if not (isinstance(score, (int, float)) and math.isfinite(score)):
        return problems + [f"best score {score!r} is not finite"]
    if not table:
        return problems
    scores = [row["score"] for row in table]
    low = min(scores)
    if score != low:
        problems.append(f"best score {score!r} differs from the table minimum {low!r}")
    first = table[scores.index(low)]
    if any(first[name] != value for name, value in best["params"].items()):
        problems.append(f"best params {best['params']} are not the first minimum's")
    return problems


def file_hashes(directory, names) -> dict[str, str]:
    return {
        name: hashlib.sha256(Path(directory, name).read_bytes()).hexdigest() for name in names
    }


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
