"""Shared test utilities: graph factories and independent oracles.

Oracles here deliberately avoid the library's own code paths (union-find for
components, truncated Taylor for the matrix exponential, dense linear solves
for PageRank, posterior variance and cross-validation, scipy.sparse.csgraph
search for Independent Cascade reach, per-edge Python loops for the edge
validation, the adjacency and the degrees, an n x n distance matrix for the
point-cloud generator, per-record readers and `json.dumps` for graph JSON).
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import breadth_first_order

import kernelim
from kernelim import Graph, laplacian
from kernelim.baselines import iteration_cap
from kernelim.errors import ConvergenceError, GraphFormatError
from kernelim.graphs import TIE_BAND_FACTOR, read_float, read_int


def random_connected_graph(rng, n, extra_edge_prob=0.15, weight_lo=0.5, weight_hi=1.5,
                           unit_spectral=False):
    """Random spanning tree plus extra edges, uniform weights.

    With unit_spectral=True the weights are rescaled so the standard Laplacian
    has largest eigenvalue 1; this keeps diffusion kernels finite and
    well-conditioned for any |t| <= 20.
    """
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(weight_lo, weight_hi))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges[(u, v)] = float(rng.uniform(weight_lo, weight_hi))
    g = Graph(n=n, edges=tuple((u, v, w) for (u, v), w in edges.items()))
    if unit_spectral:
        lam_max = float(np.linalg.eigvalsh(laplacian(g))[-1])
        g = Graph(n=n, edges=tuple((u, v, w / lam_max) for u, v, w in g.edges))
    return g


def random_graph(rng, n, edge_prob=0.1, weight_lo=0.5, weight_hi=1.5):
    """Erdos-Renyi style graph; may be disconnected, never edgeless."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v, float(rng.uniform(weight_lo, weight_hi))))
    if not edges:
        edges.append((0, min(1, n - 1) or 1, 1.0))
    return Graph(n=n, edges=tuple(edges))


def canonical_edges_loop(n, edges):
    """The per-edge loop `Graph` once validated its edges with: the canonical
    sorted (u, v, w) triples, or GraphFormatError naming the first bad record.
    A float id must be a whole number."""
    canon = []
    seen = set()
    for i, (u, v, w) in enumerate(edges):
        for x in (u, v):
            if isinstance(x, (float, np.floating)) and not float(x).is_integer():
                raise GraphFormatError(f"edge record {i}: node id {x} is not an integer")
        u, v, w = int(u), int(v), float(w)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u},{v}) references a node outside 0..{n - 1}")
        if u == v:
            raise GraphFormatError(f"self-loop on node {u} is not allowed")
        if not (w > 0 and math.isfinite(w)):
            raise GraphFormatError(f"edge ({u},{v}) has non-positive weight {w}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"duplicate edge ({key[0]},{key[1]})")
        seen.add(key)
        canon.append((key[0], key[1], w))
    return tuple(sorted(canon))


def parse_json_graph_loop(text: str) -> Graph:
    """The graph JSON reader `load_graph` once ran: every record checked, and every
    field converted, by its own helper call."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise GraphFormatError("graph JSON must be an object with 'nodes' and 'edges'")
    nodes = doc["nodes"]
    _check_records_loop(nodes, "node", ("id",))
    _check_records_loop(doc["edges"], "edge", ("u", "v"))
    n = len(nodes)
    ids = [_json_int_loop(m["id"], f"node record {i}: id") for i, m in enumerate(nodes)]
    if sorted(ids) != list(range(n)):
        raise GraphFormatError("node ids must be the contiguous integers 0..n-1")
    with_pos = [m for m in nodes if m.get("pos") is not None]
    positions = None
    if with_pos:
        if len(with_pos) != n:
            raise GraphFormatError("either every node or no node may carry a position")
        positions = np.zeros((n, 2))
        for v, m in zip(ids, nodes):
            pos = m["pos"]
            if not isinstance(pos, list) or len(pos) != 2:
                raise GraphFormatError(f"node {v}: 'pos' must be a pair [x, y]")
            positions[v] = [_json_number_loop(c, f"node {v}: 'pos' entry") for c in pos]
    labels = None
    if any("label" in m for m in nodes):
        labels = [m.get("label", m["id"]) for _, m in sorted(zip(ids, nodes))]  # ids are distinct
    edges = [
        (_json_int_loop(e["u"], f"edge record {i}: u"), _json_int_loop(e["v"], f"edge record {i}: v"),
         _json_number_loop(e.get("w", 1.0), f"edge record {i}: weight"))
        for i, e in enumerate(doc["edges"])
    ]
    return Graph(n=n, edges=edges, positions=positions, labels=labels)


def _json_number_loop(value, what: str) -> float:
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            if math.isfinite(out := read_float(value)):
                return out
        except (ValueError, OverflowError):
            pass
    raise GraphFormatError(f"{what} {json.dumps(value)} is not a finite number")


def _json_int_loop(value, what: str) -> int:
    try:
        return read_int(value)
    except ValueError:
        raise GraphFormatError(f"{what} {value!r} is not an integer") from None


def _check_records_loop(records, kind: str, keys: tuple[str, ...]) -> None:
    if not isinstance(records, list):
        raise GraphFormatError(f"graph JSON '{kind}s' must be an array")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict) or any(type(rec.get(k)) not in (int, str) for k in keys):
            fields = " and ".join(repr(k) for k in keys)
            raise GraphFormatError(f"{kind} record {i} must be an object with integer {fields}")


def graph_to_json_loop(g: Graph) -> str:
    """The canonical text `graph_to_json` once built: one dict per record, then `json.dumps`."""
    nodes = []
    for i in range(g.n):
        m = {"id": i}
        if g.positions is not None:
            m["pos"] = [float(g.positions[i, 0]), float(g.positions[i, 1])]
        if g.labels is not None:
            m["label"] = g.labels[i]
        nodes.append(m)
    edges = [{"u": u, "v": v, "w": w} for u, v, w in g.edges]
    return json.dumps({"nodes": nodes, "edges": edges}, sort_keys=True, separators=(",", ":")) + "\n"


def points_graph_oracle(points, thin_radius, link_radius) -> Graph:
    """The dense generator `generate_points_graph` once ran on finite (m, 2) points:
    greedy thinning one point at a time against every kept point, then linking
    from the n x n distance matrix."""
    pts = np.asarray(points, dtype=float)
    keep = np.zeros(pts.shape[0], dtype=bool)
    for i, p in enumerate(pts):
        keep[i] = np.all(_distances(p[None], pts[keep]) >= thin_radius)
    surv = pts[keep]

    rows, cols = np.nonzero(np.triu(_distances(surv, surv) <= link_radius, 1))
    return Graph(n=surv.shape[0], edges=np.column_stack((rows, cols, np.ones_like(rows))), positions=surv)


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows; thinning and linking both use this formula.

    A distance too large for a float is +inf, which compares as far apart."""
    with np.errstate(over="ignore"):
        return np.sqrt(((a[:, None] - b[None]) ** 2).sum(2))


def adjacency_loop(g: Graph) -> np.ndarray:
    """Dense adjacency written one edge at a time."""
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = w
        a[v, u] = w
    return a


def degrees_loop(g: Graph) -> np.ndarray:
    """Weighted degrees summed in Python floats, one edge at a time in edge order."""
    d = [0.0] * g.n
    for u, v, w in g.edges:
        d[u] += w
        d[v] += w
    return np.array(d)


def top_n_loop(scores, n_sel):
    """`top_n` as a Python loop: n_sel times, the smallest id whose score lies
    within TIE_BAND_FACTOR * max|score| of the largest score left."""
    band = TIE_BAND_FACTOR * max(abs(s) for s in scores)
    left = list(range(len(scores)))
    picks = []
    for _ in range(n_sel):
        best = max(scores[i] for i in left)
        picks.append(min(i for i in left if scores[i] >= best - band))
        left.remove(picks[-1])
    return picks


def mirrored_graph(rng, n, edge_prob=0.2):
    """A random graph on n nodes, weights drawn from {0.1, 0.2, 0.3, 0.7}, joined
    with a copy of itself relabelled by a random permutation, and the mirror
    pairs (i, n + perm[i]), whose scores are equal in exact arithmetic."""
    perm = rng.permutation(n)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                w = float(rng.choice([0.1, 0.2, 0.3, 0.7]))
                edges += [(u, v, w), (n + perm[u], n + perm[v], w)]
    return Graph(n=2 * n, edges=edges), [(i, n + int(perm[i])) for i in range(n)]


def adjacent_twins(g: Graph) -> list[tuple[int, int]]:
    """Edges (u, v) whose ends have the same closed neighbourhood."""
    closed = [{v} for v in range(g.n)]
    for u, v, _ in g.edges:
        closed[u].add(v)
        closed[v].add(u)
    return [(u, v) for u, v, _ in g.edges if closed[u] == closed[v]]


def run_python_at_blas_threads(threads, argv, cwd=None) -> str:
    """Stdout of `python *argv` in a child process with `threads` BLAS threads
    (BLAS reads its thread count at load time, so the count is set in a child)."""
    env = {**os.environ, "PYTHONPATH": str(Path(kernelim.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads),
           "MKL_NUM_THREADS": str(threads)}
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True,
                          check=True, text=True).stdout


def component_count(g: Graph) -> int:
    """Connected components by union-find, independent of any spectral code."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(i) for i in range(g.n)})


def component_of(g: Graph, node: int) -> set:
    """Nodes in the same component as `node` (breadth-first, adjacency lists)."""
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {node}
    queue = [node]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def expm_taylor(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a truncated Taylor series."""
    a = np.asarray(a, dtype=float)
    norm = float(np.abs(a).sum(axis=1).max()) if a.size else 0.0
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.5))))
    b = a / (2.0**squarings)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, 30):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def power_oracle(spectrum, kernel, sampling_set):
    """Posterior standard deviation from the full kernel matrix and np.linalg.solve."""
    from kernelim import kernel_matrix

    full = kernel_matrix(spectrum, kernel)
    nodes = list(sampling_set)
    if not nodes:
        return np.sqrt(np.diag(full))
    sub = full[np.ix_(nodes, nodes)]
    cross = full[:, nodes]
    quad = np.sum(cross * np.linalg.solve(sub, cross.T).T, axis=1)
    return np.sqrt(np.maximum(np.diag(full) - quad, 0.0))


def cv_oracle(spectrum, coefficients, folds, target, metric, jitter=0.0):
    """Mean k-fold error from the dense kernel U diag(f) U^T and np.linalg.solve."""
    u = spectrum.eigenvectors
    k = u @ np.diag(coefficients) @ u.T
    errors = []
    for fold in folds:
        train = np.setdiff1d(np.arange(len(target)), fold)
        a = k[np.ix_(train, train)] + jitter * np.eye(len(train))
        resid = target - k[:, train] @ np.linalg.solve(a, target[train])
        errors.append(np.mean(np.abs(resid)) if metric == "mae" else np.sqrt(np.mean(resid**2)))
    return float(np.mean(errors))


def pagerank_oracle(g: Graph, damping: float) -> np.ndarray:
    """Stationary scores from the dense linear system (I - d M^T) x = (1-d)/n."""
    a = adjacency_loop(g)
    deg = a.sum(axis=1)
    m = np.zeros((g.n, g.n))
    for i in range(g.n):
        m[i] = a[i] / deg[i] if deg[i] > 0 else 1.0 / g.n
    x = np.linalg.solve(np.eye(g.n) - damping * m.T, np.full(g.n, (1 - damping) / g.n))
    return x / x.sum()


def pagerank_copy_oracle(g: Graph, damping: float, tol: float = 1e-9) -> np.ndarray:
    """The dense power iteration `pagerank` once ran, with D^-1 A built as a
    second matrix: a zeros matrix, a row mask and a fancy-indexed copy."""
    max_iter = iteration_cap(damping, tol)
    n = g.n
    a = adjacency_loop(g)
    deg = a.sum(axis=1)
    dangling = deg == 0
    trans = np.zeros((n, n))
    nz = ~dangling
    trans[nz] = a[nz] / deg[nz, None]
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        x_new = damping * (trans.T @ x + x[dangling].sum() / n) + (1.0 - damping) / n
        x_new /= x_new.sum()
        if np.abs(x_new - x).sum() < tol:
            return x_new
        x = x_new
    raise ConvergenceError(f"pagerank did not converge within {max_iter} iterations")


def random_graph_with_isolated_nodes(rng, n):
    """Random weighted graph on n nodes in which at least one node has no edge.

    Half the graphs draw integer weights 1..3, so equal degrees and equal
    PageRank scores are common.
    """
    isolated = set(rng.choice(n, size=int(rng.integers(1, n // 2 + 2)), replace=False).tolist())
    prob = rng.uniform(0.05, 0.5)
    integer = rng.random() < 0.5
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if u not in isolated and v not in isolated and rng.random() < prob:
                w = float(rng.integers(1, 4)) if integer else float(rng.uniform(0.01, 10.0))
                edges.append((u, v, w))
    return Graph(n=n, edges=tuple(edges))


def ic_live_digraph(g: Graph, p: float, key) -> scipy.sparse.csr_matrix:
    """Live-edge digraph of one IC sample as a sparse matrix.

    Edge j = (u, v) is live, as both arcs u->v and v->u, when draw j of
    default_rng(key).random(m) is below p.
    """
    ends = np.stack([g.u, g.v], axis=1)
    live = ends[np.random.default_rng(key).random(len(ends)) < p]
    src = np.concatenate([live[:, 0], live[:, 1]])
    dst = np.concatenate([live[:, 1], live[:, 0]])
    return scipy.sparse.csr_matrix((np.ones(len(src)), (src, dst)), shape=(g.n, g.n))


def reach_oracle(live: scipy.sparse.csr_matrix, seeds) -> set:
    """Nodes reachable from any seed, by breadth-first search."""
    reached = set()
    for s in seeds:
        order = breadth_first_order(live, s, directed=True, return_predecessors=False)
        reached.update(order.tolist())
    return reached


def ic_reach_oracle(live: scipy.sparse.csr_matrix, seeds) -> int:
    """Number of nodes reachable from any seed, by breadth-first search."""
    return len(reach_oracle(live, seeds))


def log_grid_oracle(lo: float, hi: float, count: int) -> np.ndarray:
    """The hand-written log grid `log_grid` once computed: sign * 10**linspace, exact endpoints."""
    if count == 1:
        return np.array([float(lo)])
    sign = 1.0 if lo > 0 else -1.0
    vals = sign * 10.0 ** np.linspace(np.log10(abs(lo)), np.log10(abs(hi)), count)
    vals[0], vals[-1] = lo, hi
    return vals


def fix_signs_loop(u: np.ndarray) -> np.ndarray:
    """The per-column sign rule `spectral._fix_signs` once ran as a Python loop."""
    u = u.copy()
    for k in range(u.shape[1]):
        col = u[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            u[:, k] = -col
    return u
