"""Stochastic and centrality baselines: Independent Cascade, PageRank.

Cascades are simulated in the live-edge form: every directed edge keeps its
own coin, drawn once per run from a substream keyed by (master_seed, run), and
a run's outcome is the set reachable from the seeds over live edges.  This is
distributionally identical to activating neighbors one attempt at a time, and
it makes the coins independent of the seed set, so runs sharing a substream
are exactly monotone under seed growth and safe to reuse across candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .graphs import Graph


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


def _directed_adjacency(g: Graph) -> list[list[tuple[int, int]]]:
    # adj[u] holds (neighbor, directed-edge index); undirected edge j owns
    # directed indices 2j (u->v) and 2j+1 (v->u).
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for j, (u, v, _) in enumerate(g.edges):
        adj[u].append((v, 2 * j))
        adj[v].append((u, 2 * j + 1))
    for lst in adj:
        lst.sort()
    return adj


def _live_coins(key: tuple, m2: int, p: float) -> list[bool]:
    # Directed edge e is live when its uniform draw from substream `key` is < p.
    return (np.random.default_rng(key).random(m2) < p).tolist()


def _check_seeds(g: Graph, seeds) -> list[int]:
    out = sorted({int(v) for v in seeds})
    if out and (out[0] < 0 or out[-1] >= g.n):
        raise ValueError(f"seed id out of range 0..{g.n - 1}")
    return out


def _reach(adj, coins, v, seen, stamp) -> int:
    """Flood from `v` over live edges into nodes with seen < stamp; mark them
    seen = stamp and return how many were reached."""
    if seen[v] >= stamp:
        return 0
    seen[v] = stamp
    stack = [v]
    count = 1
    while stack:
        u = stack.pop()
        for w, e in adj[u]:
            if coins[e] and seen[w] < stamp:
                seen[w] = stamp
                stack.append(w)
                count += 1
    return count


def _run_counts(g: Graph, seeds: list[int], cfg: ICConfig) -> np.ndarray:
    adj = _directed_adjacency(g)
    m2 = 2 * len(g.edges)
    counts = np.zeros(cfg.runs, dtype=np.int64)
    for r in range(cfg.runs):
        coins = _live_coins((cfg.master_seed, r), m2, cfg.p)
        seen = [0] * g.n
        counts[r] = sum(_reach(adj, coins, s, seen, 1) for s in seeds)
    return counts


def ic_spread(g: Graph, seeds, cfg: ICConfig, workers: int = 1) -> SpreadEstimate:
    """Monte-Carlo estimate of the expected number of activated nodes.

    Run r draws from the substream (master_seed, r); runs execute serially in
    substream order.  `workers` is accepted for compatibility and has no effect.
    """
    seeds = _check_seeds(g, seeds)
    if not seeds:
        raise ValueError("seed set must be nonempty")
    counts = _run_counts(g, seeds, cfg)
    mean = float(counts.mean())
    err = float(counts.std(ddof=1) / np.sqrt(cfg.runs)) if cfg.runs > 1 else 0.0
    return SpreadEstimate(mean_spread=mean, std_err=err, runs=cfg.runs)


def ic_score(g: Graph, seeds, cfg: ICConfig, workers: int = 1) -> float:
    """Mean fraction of nodes NOT reached by cascades from the seed set.

    An empty seed set scores 1.0.  `workers` is accepted for compatibility and
    has no effect.
    """
    seeds = _check_seeds(g, seeds)
    if not seeds:
        return 1.0
    counts = _run_counts(g, seeds, cfg)
    return float(np.mean((g.n - counts) / g.n))


def ic_greedy_select(g: Graph, budget: int, cfg: ICConfig) -> list[int]:
    """Greedy seed selection under estimated marginal spread.

    Each round evaluates every remaining candidate on the same `runs` live-edge
    samples (common random numbers, substreams (master_seed, round, run)), then
    keeps the node with the largest mean spread, ties to the smallest id.
    """
    if not 1 <= budget <= g.n:
        raise ValueError(f"budget must be in 1..{g.n}, got {budget}")
    n = g.n
    adj = _directed_adjacency(g)
    m2 = 2 * len(g.edges)
    chosen: list[int] = []

    for round_idx in range(budget):
        totals = [0] * n
        for run in range(cfg.runs):
            coins = _live_coins((cfg.master_seed, round_idx, run), m2, cfg.p)
            # The chosen set floods with stamp n + 1 and candidate v with v + 1:
            # v's flood stops at the chosen set's reach (closed under live edges)
            # and at its own visits, and earlier candidates' marks need no reset.
            seen = [0] * n
            base = sum(_reach(adj, coins, s, seen, n + 1) for s in chosen)
            for v in range(n):
                totals[v] += base + _reach(adj, coins, v, seen, v + 1)
        masked = np.array(totals, dtype=float)
        masked[chosen] = -np.inf
        chosen.append(int(np.argmax(masked)))  # first maximum = smallest id among ties
    return chosen


def pagerank(
    g: Graph,
    damping: float = 0.85,
    tol: float = 1e-9,
    max_iter: int = 1000,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """Power iteration with uniform teleport and weighted transitions.

    Dangling nodes redistribute their mass uniformly.  Converges when the L1
    change between iterates drops below `tol`.
    """
    if not 0.0 < damping < 1.0:
        raise ValueError("damping must lie strictly between 0 and 1")
    n = g.n
    a = g.adjacency()
    deg = a.sum(axis=1)
    dangling = deg == 0
    trans = np.zeros((n, n))
    nz = ~dangling
    trans[nz] = a[nz] / deg[nz, None]

    if x0 is None:
        x = np.full(n, 1.0 / n)
    else:
        x = np.asarray(x0, dtype=float)
        if x.shape != (n,) or np.any(x < 0) or x.sum() <= 0:
            raise ValueError("x0 must be a nonnegative length-n vector with positive sum")
        x = x / x.sum()
    for _ in range(max_iter):
        x_new = damping * (trans.T @ x + x[dangling].sum() / n) + (1.0 - damping) / n
        x_new /= x_new.sum()
        if np.abs(x_new - x).sum() < tol:
            return x_new
        x = x_new
    raise ConvergenceError(f"pagerank did not converge within {max_iter} iterations")


def pagerank_top_n(g: Graph, n_sel: int, damping: float = 0.85, tol: float = 1e-9, max_iter: int = 1000) -> list[int]:
    """Top nodes by PageRank score, ties broken by ascending id."""
    if not 1 <= n_sel <= g.n:
        raise ValueError(f"n_sel must be in 1..{g.n}, got {n_sel}")
    scores = pagerank(g, damping=damping, tol=tol, max_iter=max_iter)
    order = np.lexsort((np.arange(g.n), -scores))
    return [int(i) for i in order[:n_sel]]
