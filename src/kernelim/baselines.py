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
from itertools import compress

import numpy as np

from .errors import ConvergenceError
from .graphs import Graph

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


def _reach(adj, coins, v, seen) -> int:
    """Flood from `v` over live edges into unseen nodes; mark them seen and
    return how many were reached."""
    if seen[v]:
        return 0
    seen[v] = True
    stack = [v]
    count = 1
    while stack:
        u = stack.pop()
        for w, e in adj[u]:
            if coins[e] and not seen[w]:
                seen[w] = True
                stack.append(w)
                count += 1
    return count


def _reach_masks(succ: list[list[int]]) -> list[int]:
    """Bitmask of the nodes reachable from each node (itself included) along
    the arcs `succ`, built once per strongly connected component.

    Iterative Tarjan: a component closes only after every component it reaches
    has closed, so its mask is its members OR the finished masks of their
    successors, and every member shares it.  A node is still on the Tarjan
    stack exactly when it has been visited and its mask is 0.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    reach = [0] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, arcs = work[-1]
            for w in arcs:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if not reach[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    members = []
                    mask = 0
                    u = -1
                    while u != v:
                        u = stack.pop()
                        members.append(u)
                        mask |= 1 << u
                        for w in succ[u]:
                            mask |= reach[w]  # 0 inside this component, final outside
                    for u in members:
                        reach[u] = mask
    return reach


def _run_counts(g: Graph, seeds: list[int], cfg: ICConfig) -> np.ndarray:
    adj = _directed_adjacency(g)
    m2 = 2 * len(g.edges)
    counts = np.zeros(cfg.runs, dtype=np.int64)
    for r in range(cfg.runs):
        coins = _live_coins((cfg.master_seed, r), m2, cfg.p)
        seen = [False] * g.n
        counts[r] = sum(_reach(adj, coins, s, seen) for s in seeds)
    return counts


def ic_spread(g: Graph, seeds, cfg: ICConfig) -> SpreadEstimate:
    """Monte-Carlo estimate of the expected number of activated nodes.

    Run r draws from the substream (master_seed, r); runs execute serially in
    substream order.
    """
    seeds = _check_seeds(g, seeds)
    if not seeds:
        raise ValueError("seed set must be nonempty")
    counts = _run_counts(g, seeds, cfg)
    mean = float(counts.mean())
    err = float(counts.std(ddof=1) / np.sqrt(cfg.runs)) if cfg.runs > 1 else 0.0
    return SpreadEstimate(mean_spread=mean, std_err=err, runs=cfg.runs)


def ic_score(g: Graph, seeds, cfg: ICConfig) -> float:
    """Mean fraction of nodes NOT reached by cascades from the seed set.

    An empty seed set scores 1.0.
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
    keeps the node with the largest mean spread, ties to the smallest id.  A
    sample's spread from chosen + [v] is the exact count of the union of their
    reach sets, taken from one reachability pass over the sample.
    """
    if not 1 <= budget <= g.n:
        raise ValueError(f"budget must be in 1..{g.n}, got {budget}")
    n = g.n
    # Arc 2j is u->v and arc 2j+1 is v->u of edge j, as in _directed_adjacency.
    arcs = [arc for u, v, _ in g.edges for arc in ((u, v), (v, u))]
    chosen: list[int] = []

    for round_idx in range(budget):
        totals = [0] * n
        for run in range(cfg.runs):
            coins = _live_coins((cfg.master_seed, round_idx, run), len(arcs), cfg.p)
            succ: list[list[int]] = [[] for _ in range(n)]
            for u, w in compress(arcs, coins):
                succ[u].append(w)
            reach = _reach_masks(succ)
            base = 0
            for s in chosen:
                base |= reach[s]
            size, outside = base.bit_count(), ~base
            for v in range(n):
                totals[v] += size + (reach[v] & outside).bit_count()
        masked = np.array(totals, dtype=float)
        masked[chosen] = -np.inf
        chosen.append(int(np.argmax(masked)))  # first maximum = smallest id among ties
    return chosen


def pagerank(
    g: Graph,
    damping: float = DEFAULT_DAMPING,
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


def pagerank_top_n(g: Graph, n_sel: int, damping: float = DEFAULT_DAMPING) -> list[int]:
    """Top nodes by PageRank score, ties broken by ascending id."""
    if not 1 <= n_sel <= g.n:
        raise ValueError(f"n_sel must be in 1..{g.n}, got {n_sel}")
    scores = pagerank(g, damping=damping)
    order = np.lexsort((np.arange(g.n), -scores))
    return [int(i) for i in order[:n_sel]]
