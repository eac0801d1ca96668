"""Stochastic and centrality baselines on the edge arrays: Independent Cascade, PageRank.

Cascades are simulated in the live-edge form with one coin per undirected
edge, drawn once per run: a run's outcome is the union of the seeds'
connected components over the live edges.  A cascade tries each edge at most
once, from whichever end it reaches first, so this is the same law as
activating neighbors one attempt at a time, and it makes the coins
independent of the seed set, so runs sharing a sample are exactly monotone
under seed growth and safe to reuse across candidates.  Label propagation
over a sample's live edge arrays labels each node with its component's
smallest id; a seed set's spread is the summed size of its members' distinct
labels, so every candidate and every prefix is counted from the same labels.
Scoring draws run r from substream (master_seed, r); IC-greedy draws its one
sample set from the disjoint substreams (master_seed, r, 1), so its picks are
always scored out of sample.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .graphs import Graph, top_n

DEFAULT_DAMPING = 0.85


@dataclass(frozen=True)
class ICConfig:
    """Spread probability, Monte-Carlo repetitions, master seed."""

    p: float
    runs: int
    master_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"spread probability must be in [0, 1], got {self.p}")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")


@dataclass(frozen=True)
class SpreadEstimate:
    mean_spread: float
    std_err: float
    runs: int


def _component_roots(n: int, edges) -> np.ndarray:
    """Each node's label, the smallest id in its component of `edges` ((m, 2) ends): hook
    larger labels onto smaller, jump to roots, repeat on the pairs not yet joined."""
    u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    label = np.arange(n)
    while u.size:
        lu, lv = label[u], label[v]
        np.minimum.at(label, np.maximum(lu, lv), np.minimum(lu, lv))
        while ((jumped := label[label]) != label).any():
            label = jumped
        joins = label[u] != label[v]
        u, v = u[joins], v[joins]
    return label


def _samples(g: Graph, cfg: ICConfig, *key) -> tuple[np.ndarray, np.ndarray]:
    """Labels and sizes (int32, runs x n) of each run's live-edge components:
    label[r, v] is the smallest id in v's component (see `_component_roots`) and
    size[r, c] counts the nodes labelled c.  Run r draws from substream
    (master_seed, r, *key): edge j is live when draw j of `random(m)` is < p.

    numpy's SeedSequence pads its entropy with zero words, so a key must end
    in a nonzero word: (master_seed, r, 0) is the same stream as (master_seed, r).
    """
    label = np.empty((cfg.runs, g.n), dtype=np.int32)
    size = np.empty_like(label)
    for run in range(cfg.runs):
        live = np.random.default_rng((cfg.master_seed, run, *key)).random(g.edge_count) < cfg.p
        label[run] = _component_roots(g.n, np.column_stack([g.u[live], g.v[live]]))
        size[run] = np.bincount(label[run], minlength=g.n)
    return label, size


def _prefix_counts(g: Graph, node_lists, cfg: ICConfig) -> list[np.ndarray]:
    """Per-run reach counts of every prefix of every list, all on one sample
    per run: row k-1 of a list's array holds the counts of its first k nodes.
    """
    node_lists = [[int(v) for v in nodes] for nodes in node_lists]
    if any(not 0 <= v < g.n for nodes in node_lists for v in nodes):
        raise ValueError(f"seed id out of range 0..{g.n - 1}")
    gains = [np.zeros((len(nodes), cfg.runs), dtype=np.int64) for nodes in node_lists]
    label, size = _samples(g, cfg)
    runs = np.arange(cfg.runs)
    for nodes, out in zip(node_lists, gains):
        left = size.copy()  # per run, the nodes the prefix does not reach yet
        for k, v in enumerate(nodes):
            out[k] = left[runs, label[:, v]]
            left[runs, label[:, v]] = 0
    return [out.cumsum(axis=0) for out in gains]


def ic_spread(g: Graph, seeds, cfg: ICConfig) -> SpreadEstimate:
    """Monte-Carlo estimate of the expected number of activated nodes, on
    `ic_score`'s samples: run r draws from substream (master_seed, r)."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seed set must be nonempty")
    counts = _prefix_counts(g, [seeds], cfg)[0][-1]
    mean = float(counts.mean())
    err = float(counts.std(ddof=1) / np.sqrt(cfg.runs)) if cfg.runs > 1 else 0.0
    return SpreadEstimate(mean_spread=mean, std_err=err, runs=cfg.runs)


def ic_score(g: Graph, node_lists, cfg: ICConfig) -> list[list[float]]:
    """IC score of every prefix of every list: curve i holds, for k = 1..len,
    the mean fraction of nodes NOT reached by cascades from list i's first k
    nodes.  Every prefix is scored on the same samples.
    """
    return [
        [float(np.mean((g.n - row) / g.n)) for row in counts]
        for counts in _prefix_counts(g, node_lists, cfg)
    ]


def ic_greedy_select(g: Graph, budget: int, cfg: ICConfig) -> list[int]:
    """Greedy seed selection under estimated marginal spread, ties to the smallest id.

    One sample set, run r from substream (master_seed, r, 1), serves every
    round.  A node's gain is the number of nodes its components add to the
    chosen seeds', summed over the runs; on a fixed set it is monotone and
    submodular, so lazy (CELF) re-evaluation picks exactly what eager greedy would.
    """
    if not 1 <= budget <= g.n:
        raise ValueError(f"budget must be in 1..{g.n}, got {budget}")
    label, left = _samples(g, cfg, 1)  # left: per run, the nodes no chosen seed reaches
    runs = np.arange(cfg.runs)

    def gain(v: int) -> int:
        return int(left[runs, label[:, v]].sum())

    heap = [(-gain(v), v, 0) for v in range(g.n)]  # equal gains pop in id order
    heapq.heapify(heap)
    chosen: list[int] = []
    while len(chosen) < budget:
        _, v, evaluated = heapq.heappop(heap)
        if evaluated < len(chosen):  # stale bound: re-evaluate and put back
            heapq.heappush(heap, (-gain(v), v, len(chosen)))
            continue
        chosen.append(v)
        left[runs, label[:, v]] = 0
    return chosen


def check_damping(damping: float) -> None:
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie strictly between 0 and 1")


def iteration_cap(damping: float, tol: float) -> int:
    """Steps after which PageRank's L1 change is surely below `tol`.

    The iteration contracts by `damping` in L1 and its first change is at most
    2, so step k changes the iterate by at most 2 * damping**k.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    return max(1, math.ceil((math.log(tol) - math.log(2)) / math.log(damping)) + 1)


def pagerank(g: Graph, damping: float = DEFAULT_DAMPING, tol: float = 1e-9) -> np.ndarray:
    """Power iteration with uniform teleport and weighted transitions.

    Transitions divide by `Graph.degrees`; dangling nodes redistribute their
    mass uniformly.  A step is one `np.bincount` over the 2m arcs, not a BLAS
    product.  Converges when the L1 change between iterates drops below `tol`,
    within `iteration_cap(damping, tol)` steps (133 at 0.85, 2132 at 0.99)
    unless `tol` is below the rounding of the iterates.
    """
    check_damping(damping)
    max_iter = iteration_cap(damping, tol)
    n = g.n
    deg = g.degrees()
    dangling = deg == 0
    src, dst = np.concatenate([g.u, g.v]), np.concatenate([g.v, g.u])
    share = np.concatenate([g.w, g.w]) / deg[src]  # D^-1 A per arc; a dangling node has none

    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        spread = np.bincount(dst, weights=share * x[src], minlength=n)
        x_new = damping * (spread + x[dangling].sum() / n) + (1.0 - damping) / n
        x_new /= x_new.sum()
        if np.abs(x_new - x).sum() < tol:
            return x_new
        x = x_new
    raise ConvergenceError(f"pagerank did not converge within {max_iter} iterations")


def pagerank_top_n(g: Graph, n_sel: int, damping: float = DEFAULT_DAMPING) -> list[int]:
    """Top nodes by PageRank score, ties within the band broken by ascending id."""
    return top_n(pagerank(g, damping=damping), n_sel)
