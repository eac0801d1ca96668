import tracemalloc
import warnings
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import breadth_first_order

from kernelim import (
    Graph,
    ICConfig,
    baselines,
    degree_top_n,
    generate_points_graph,
    ic_greedy_select,
    ic_score,
    ic_spread,
    pagerank,
    pagerank_top_n,
)
from kernelim.baselines import _component_roots, _prefix_counts, _samples, iteration_cap
from kernelim.errors import ConvergenceError, GraphFormatError
from kernelim.graphs import top_n

from helpers import (
    adjacent_twins,
    component_of,
    ic_live_digraph,
    ic_reach_oracle,
    mirrored_graph,
    pagerank_copy_oracle,
    pagerank_oracle,
    random_connected_graph,
    random_graph_with_isolated_nodes,
    run_python_at_blas_threads,
)


def two_components_graph():
    # component {0..4} (path) and component {5..7} (triangle)
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0),
             (5, 6, 1.0), (6, 7, 1.0), (5, 7, 1.0)]
    return Graph(n=8, edges=tuple(edges))


def test_spread_p0_exact(star4):
    est = ic_spread(star4, [0, 2], ICConfig(p=0.0, runs=50, master_seed=1))
    assert est.mean_spread == 2.0
    assert est.std_err == 0.0


def test_spread_p1_floods_components():
    g = two_components_graph()
    cfg = ICConfig(p=1.0, runs=20, master_seed=2)
    assert ic_spread(g, [0], cfg).mean_spread == len(component_of(g, 0))
    assert ic_spread(g, [6], cfg).mean_spread == len(component_of(g, 6))
    assert ic_spread(g, [0, 6], cfg).mean_spread == 8.0


def test_spread_two_node_half(two_node):
    # Exact enumeration: spread = 1 + Bernoulli(0.5), expectation 1.5.
    est = ic_spread(two_node, [0], ICConfig(p=0.5, runs=10000, master_seed=3))
    assert abs(est.mean_spread - 1.5) <= 3 * est.std_err


def test_spread_reproducible_and_seed_sensitive(star4):
    a = ic_spread(star4, [1], ICConfig(p=0.3, runs=200, master_seed=7))
    b = ic_spread(star4, [1], ICConfig(p=0.3, runs=200, master_seed=7))
    c = ic_spread(star4, [1], ICConfig(p=0.3, runs=200, master_seed=8))
    assert a == b
    assert a != c


def test_spread_monotone_under_shared_streams():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 30)
    cfg = ICConfig(p=0.2, runs=200, master_seed=13)
    small = _prefix_counts(g, [[3]], cfg)[0][-1]
    large = _prefix_counts(g, [[3, 8, 21]], cfg)[0][-1]
    assert np.all(large >= small)  # exact per-run monotonicity


def test_run_counts_match_sparse_oracle():
    # Every prefix of every list, counted on one sample per run, against a
    # breadth-first search of the same sample; node 30 has no edge, and two
    # lists repeat a node.
    rng = np.random.default_rng(8)
    g = Graph(n=31, edges=random_connected_graph(rng, 30).edges)
    lists = [[3, 8, 21], [30, 3, 3, 17], [0], [12, 30, 29, 5, 8, 21, 8]]
    for p in (0.0, 0.3, 1.0):
        cfg = ICConfig(p=p, runs=40, master_seed=19)
        live = [ic_live_digraph(g, p, (cfg.master_seed, r)) for r in range(cfg.runs)]
        counts = _prefix_counts(g, lists, cfg)
        for nodes, got in zip(lists, counts):
            expected = [[ic_reach_oracle(sample, nodes[:k]) for sample in live]
                        for k in range(1, len(nodes) + 1)]
            assert got.tolist() == expected, (p, nodes)


def test_spread_validation(star4):
    with pytest.raises(ValueError):
        ic_spread(star4, [], ICConfig(p=0.5, runs=10))
    for seeds in ([9], [-1]):  # a negative id would otherwise index from the end
        with pytest.raises(ValueError, match=r"seed id out of range 0\.\.3"):
            ic_spread(star4, seeds, ICConfig(p=0.5, runs=10))
    with pytest.raises(ValueError, match=r"seed id out of range 0\.\.3"):
        ic_score(star4, [[-1]], ICConfig(p=0.5, runs=10))
    with pytest.raises(ValueError):
        ICConfig(p=1.5, runs=10)
    with pytest.raises(ValueError):
        ICConfig(p=0.5, runs=0)


def test_score_endpoints(star4, two_node):
    assert ic_score(star4, [[0, 1, 2, 3]], ICConfig(p=0.7, runs=20, master_seed=1))[0][-1] == 0.0
    assert ic_score(star4, [[1, 3]], ICConfig(p=0.0, runs=20, master_seed=1))[0][-1] == 0.5
    assert ic_score(two_node, [[1]], ICConfig(p=1.0, runs=20, master_seed=1)) == [[0.0]]
    assert ic_score(star4, [[], [2, 1]], ICConfig(p=0.0, runs=20, master_seed=1)) == [[], [0.75, 0.5]]


def test_score_monotone_under_shared_streams():
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, 24)
    cfg = ICConfig(p=0.2, runs=150, master_seed=17)
    assert ic_score(g, [[2]], cfg)[0][-1] >= ic_score(g, [[2, 11]], cfg)[0][-1]


def test_greedy_star_center(star4):
    assert ic_greedy_select(star4, 1, ICConfig(p=1.0, runs=10, master_seed=1)) == [0]


def test_greedy_full_budget(star4):
    picks = ic_greedy_select(star4, 4, ICConfig(p=0.4, runs=50, master_seed=2))
    assert sorted(picks) == [0, 1, 2, 3]


def test_greedy_prefers_large_component():
    g = two_components_graph()
    picks = ic_greedy_select(g, 1, ICConfig(p=1.0, runs=10, master_seed=3))
    assert picks[0] in component_of(g, 0)  # 5-node component wins


def test_greedy_deterministic():
    rng = np.random.default_rng(7)
    g = random_connected_graph(rng, 20)
    cfg = ICConfig(p=0.2, runs=100, master_seed=5)
    assert ic_greedy_select(g, 4, cfg) == ic_greedy_select(g, 4, cfg)


@pytest.mark.parametrize("graph, p, budget", [
    ("random12", 0.0, 3),    # every live-edge sample is all singleton components
    ("random12", 0.3, 3),
    ("random12", 1.0, 3),    # one component per connected component
    ("two-components", 0.3, 3),
    ("two-components", 1.0, 8),  # budget n: every round ends in a tie
    ("random12", 0.3, 12),
    ("random12", 0.0, 12),   # every gain ties in every round: lazy picks 0, 1, ..., 11
], ids=["p0", "p0.3", "p1", "two-components", "budget-n", "budget-n-p0.3", "budget-n-p0"])
def test_greedy_matches_brute_force_oracle(graph, p, budget):
    # Eager greedy on the one sample set: every round re-evaluates every node.
    if graph == "two-components":
        g = two_components_graph()
    else:
        g = random_connected_graph(np.random.default_rng(9), 12)
    cfg = ICConfig(p=p, runs=40, master_seed=23)
    samples = [ic_live_digraph(g, cfg.p, (cfg.master_seed, run, 1)) for run in range(cfg.runs)]
    chosen = []
    for _ in range(budget):
        totals = {v: sum(ic_reach_oracle(live, chosen + [v]) for live in samples)
                  for v in range(g.n) if v not in chosen}
        chosen.append(max(totals, key=lambda v: (totals[v], -v)))
    assert ic_greedy_select(g, budget, cfg) == chosen


def test_greedy_samples_are_never_scoring_samples(monkeypatch):
    # Same master seed, same run count: no live-edge draw of the greedy set may
    # reappear among the samples that score its picks.
    g = random_connected_graph(np.random.default_rng(4), 40)
    assert len(g.edges) >= 100
    cfg = ICConfig(p=0.2, runs=20, master_seed=3)
    drawn = []
    component_roots = baselines._component_roots
    monkeypatch.setattr(baselines, "_component_roots",
                        lambda n, edges: drawn.append(repr(edges)) or component_roots(n, edges))
    ic_greedy_select(g, 5, cfg)
    greedy, drawn[:] = set(drawn), []
    ic_score(g, [[0]], cfg)
    assert greedy.isdisjoint(drawn)
    assert len(greedy) == len(set(drawn)) == cfg.runs


def _random_edges(rng, n, q):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < q]


def _undirected_cases():
    rng = np.random.default_rng(31)
    perm = rng.permutation(40).tolist()
    shuffled = np.random.default_rng(32).permutation(2000).tolist()
    return {
        "random-sparse": (40, _random_edges(rng, 40, 0.03)),
        "random-mixed": (60, _random_edges(rng, 60, 0.02)),
        "random-dense": (30, _random_edges(rng, 30, 0.2)),
        # a 40-cycle with a tail; 42..49 isolated
        "long-cycle": (50, [(i, (i + 1) % 40) for i in range(40)] + [(39, 40), (40, 41)]),
        # cycles joined by paths, some listed larger end first: {0..12, 15..17}
        # is one component; 13 and 14 are isolated
        "nested-sccs": (18, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (3, 1),
                             (5, 6), (2, 7), (6, 7), (7, 8), (8, 6), (8, 9), (9, 10),
                             (10, 9), (0, 10), (11, 12), (12, 11), (12, 0),
                             (15, 16), (16, 17), (17, 6)]),
        # {0..4} (a path) and {5..7} (a triangle), both listed larger end first
        "two-components": (8, [(1, 0), (2, 1), (3, 2), (4, 3), (6, 5), (7, 6), (7, 5)]),
        "isolated-only": (5, []),
        # a Hamiltonian cycle in shuffled order, a repeated edge and chords: one component
        "single-scc": (40, [(perm[i], perm[(i + 1) % 40]) for i in range(40)]
                       + [(perm[1], perm[0])] + _random_edges(rng, 40, 0.05)),
        "deep-path": (1200, [(i, i + 1) for i in range(1199)]),
        # a path whose ids follow a random permutation: labels must travel far
        "permuted-path": (2000, [(shuffled[i], shuffled[i + 1]) for i in range(1999)]),
        "complete": (60, list(combinations(range(60), 2))),
        "no-edges": (3, []),
    }


def _members(labels):
    """Each node's label class: the nodes that carry its label."""
    classes = defaultdict(set)
    for v, c in enumerate(labels):
        classes[c].add(v)
    return [classes[c] for c in labels]


@pytest.mark.parametrize("case", list(_undirected_cases()))
def test_reach_masks_match_sparse_oracle(case):
    # Two nodes share a label exactly when they share a connected component of
    # the live edges, the label is the component's smallest id, and a label's
    # size counts its component's nodes.
    n, edges = _undirected_cases()[case]
    ends = np.array(edges, dtype=int).reshape(-1, 2)
    graph = scipy.sparse.csr_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(n, n))
    expected = [set(breadth_first_order(graph, v, directed=False, return_predecessors=False).tolist())
                for v in range(n)]
    smallest = [min(component) for component in expected]
    labels = _component_roots(n, edges)
    assert _members(labels) == expected
    assert labels.tolist() == smallest
    # At p = 1 every edge of every run is live.
    g = Graph(n=n, edges=tuple({(min(e), max(e), 1.0) for e in edges}))
    label, size = _samples(g, ICConfig(p=1.0, runs=2))
    for row, counts in zip(label.tolist(), size):
        assert _members(row) == expected
        assert row == smallest
        assert counts[row].tolist() == [len(component) for component in expected]
        assert counts.sum() == n


@st.composite
def _sample_cases(draw):
    n = draw(st.integers(1, 16))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
                          max_size=30, unique_by=lambda e: frozenset(e)))
    g = Graph(n=n, edges=[(a, b, 1.0) for a, b in pairs])
    return g, ICConfig(p=draw(st.sampled_from([0.0, 0.2, 1.0])), runs=3, master_seed=draw(st.integers(0, 99)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_sample_cases())
def test_samples_label_each_component_by_its_smallest_id(case):
    # Run r's live edges (draw j of substream (master_seed, r) below p), searched
    # breadth-first: each node's label is its component's smallest id, and
    # that label's size is the component's node count.
    g, cfg = case
    label, size = _samples(g, cfg)
    for run in range(cfg.runs):
        live = np.random.default_rng((cfg.master_seed, run)).random(g.edge_count) < cfg.p
        sample = Graph(n=g.n, edges=np.column_stack([g.u[live], g.v[live], g.w[live]]))
        components = [component_of(sample, v) for v in range(g.n)]
        assert label[run].tolist() == [min(c) for c in components]
        assert size[run][label[run]].tolist() == [len(c) for c in components]
        assert size[run].sum() == g.n


def _arc_law(n, edges, seed_sets, p):
    """Law of each seed set's reached set with one coin per arc: every one of
    the 2^(2m) arc patterns, the reached set found by a directed BFS."""
    arcs = [arc for u, v in edges for arc in ((u, v), (v, u))]
    laws = [defaultdict(Fraction) for _ in seed_sets]
    for pattern in product((False, True), repeat=len(arcs)):
        live = sum(pattern)
        weight = p**live * (1 - p) ** (len(arcs) - live)
        succ = [[] for _ in range(n)]
        for (u, v), on in zip(arcs, pattern):
            if on:
                succ[u].append(v)
        for seeds, law in zip(seed_sets, laws):
            reached, queue = set(seeds), list(seeds)
            while queue:
                for w in succ[queue.pop()]:
                    if w not in reached:
                        reached.add(w)
                        queue.append(w)
            law[frozenset(reached)] += weight
    return laws


def _edge_law(n, edges, seed_sets, p):
    """Law of each seed set's reached set with one coin per edge: every one of
    the 2^m edge patterns, the reached set the nodes that share a seed's root."""
    laws = [defaultdict(Fraction) for _ in seed_sets]
    for pattern in product((False, True), repeat=len(edges)):
        live = sum(pattern)
        weight = p**live * (1 - p) ** (len(edges) - live)
        roots = _component_roots(n, [e for e, on in zip(edges, pattern) if on])
        for seeds, law in zip(seed_sets, laws):
            hit = {roots[s] for s in seeds}
            law[frozenset(v for v in range(n) if roots[v] in hit)] += weight
    return laws


@pytest.mark.parametrize("n, edges", [
    (2, [(0, 1)]),
    (3, [(0, 1), (1, 2)]),
    (4, [(0, 1), (0, 2), (1, 2), (2, 3)]),          # a triangle with a pendant
    (5, [(0, 1), (1, 2), (3, 4)]),                  # two components
    (5, [(0, 1), (0, 2), (0, 3)]),                  # a star and an isolated node
    (4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]),  # a 4-cycle with a chord
], ids=["edge", "path", "triangle-pendant", "two-components", "star-isolated", "cycle-chord"])
@pytest.mark.parametrize("p", [Fraction(1, 5), Fraction(2, 3)], ids=["p1/5", "p2/3"])
def test_one_coin_per_edge_has_the_per_arc_law(n, edges, p):
    # A cascade tries each edge at most once, from whichever end it reaches
    # first, so the reached set has the same law with one coin per edge as
    # with one coin per arc, exactly, for every seed set.
    seed_sets = [seeds for size in (1, 2) for seeds in combinations(range(n), size)]
    per_edge = _edge_law(n, edges, seed_sets, p)
    per_arc = _arc_law(n, edges, seed_sets, p)
    for seeds, by_edge, by_arc in zip(seed_sets, per_edge, per_arc):
        assert sum(by_edge.values()) == sum(by_arc.values()) == 1
        assert dict(by_edge) == dict(by_arc), seeds


def test_greedy_budget_validation(star4):
    with pytest.raises(ValueError):
        ic_greedy_select(star4, 0, ICConfig(p=0.5, runs=10))
    with pytest.raises(ValueError):
        ic_greedy_select(star4, 5, ICConfig(p=0.5, runs=10))


def test_pagerank_top_n_count_out_of_range(path3):
    for n_sel in (0, 4):
        with pytest.raises(ValueError, match=f"n_sel must be in 1..3, got {n_sel}"):
            pagerank_top_n(path3, n_sel)


@pytest.mark.parametrize("rank", [
    lambda g: pagerank(g),
    lambda g: pagerank_top_n(g, 2),
    lambda g: degree_top_n(g, 2),
    lambda g: g.degrees(),
], ids=["pagerank", "pagerank_top_n", "degree_top_n", "degrees"])
def test_rankings_refuse_an_overflowing_degree_without_a_warning(rank):
    # Each weight is finite; node 0's degree 2e308 is not, as `laplacian` finds too.
    g = Graph(n=4, edges=((0, 1, 1e308), (0, 2, 1e308), (2, 3, 1.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GraphFormatError, match="^weighted degree of node 0 overflows to inf$"):
            rank(g)


def test_pagerank_single_node():
    g = Graph(n=1, edges=())
    assert np.allclose(pagerank(g), [1.0])


def test_pagerank_two_node_symmetric(two_node):
    assert np.allclose(pagerank(two_node), [0.5, 0.5])


def test_pagerank_matches_linear_oracle(star4):
    scores = pagerank(star4, damping=0.85, tol=1e-12)
    assert np.abs(scores - pagerank_oracle(star4, 0.85)).max() <= 1e-8


def test_pagerank_weighted_matches_oracle():
    g = Graph(n=4, edges=((0, 1, 3.0), (1, 2, 0.5), (2, 3, 2.0), (0, 3, 1.0)))
    scores = pagerank(g, damping=0.9, tol=1e-13)
    assert np.abs(scores - pagerank_oracle(g, 0.9)).max() <= 1e-8


def test_pagerank_properties():
    rng = np.random.default_rng(8)
    g = random_connected_graph(rng, 30)
    scores = pagerank(g, tol=1e-11)
    assert np.all(scores >= 0)
    assert abs(scores.sum() - 1.0) <= 1e-9


def test_pagerank_dangling_node():
    g = Graph(n=3, edges=((0, 1, 1.0),))  # node 2 isolated = dangling
    scores = pagerank(g, tol=1e-12)
    assert abs(scores.sum() - 1.0) <= 1e-9
    assert np.abs(scores - pagerank_oracle(g, 0.85)).max() <= 1e-8


def test_pagerank_non_convergence():
    rng = np.random.default_rng(9)
    g = random_connected_graph(rng, 15)
    # Far below the rounding of the iterates: only an exact floating-point
    # fixed point could meet it, and this graph's iteration has none.
    with pytest.raises(ConvergenceError, match="did not converge within"):
        pagerank(g, tol=1e-30)


def test_pagerank_cap_follows_the_contraction_bound():
    assert [iteration_cap(d, 1e-9) for d in (0.5, 0.85, 0.99)] == [32, 133, 2132]
    assert iteration_cap(0.5, 5e-324) == 1076  # tol / 2 would underflow to 0
    for tol in (0.0, -1.0, float("nan"), float("inf")):  # no step count meets these
        with pytest.raises(ValueError, match="^tol must be positive and finite$"):
            pagerank(Graph(n=2, edges=((0, 1, 1.0),)), tol=tol)
    # A path is bipartite, so its L1 change shrinks only by the damping per step.
    path = Graph(n=5, edges=tuple((i, i + 1, 1.0) for i in range(4)))
    assert np.abs(pagerank(path, damping=0.99) - pagerank_oracle(path, 0.99)).max() <= 1e-8


@pytest.mark.parametrize("damping", [0.5, 0.85, 0.99])
def test_pagerank_keeps_the_bits_of_the_copied_transition_matrix(damping):
    # pagerank sums each step over the arcs; the dense oracle runs the same
    # iteration as a matrix-vector product, so the two agree to rounding, and
    # the tie band ranks both sets of scores alike.
    rng = np.random.default_rng(14)
    for _ in range(60):
        g = random_graph_with_isolated_nodes(rng, int(rng.integers(2, 40)))
        expected = pagerank_copy_oracle(g, damping)
        scores = pagerank(g, damping=damping)
        assert np.all(np.abs(scores - expected) <= 1e-13 * expected)
        ids = np.arange(g.n)
        for k in (1, int(rng.integers(1, g.n + 1)), g.n):
            assert pagerank_top_n(g, k, damping) == top_n(expected, k)
            assert degree_top_n(g, k) == np.lexsort((ids, -g.degrees()))[:k].tolist()


def _ranked_late(order, pairs):
    """The pairs whose larger id comes first in `order`."""
    rank = np.argsort(order)
    return [(a, b) for a, b in pairs if rank[min(a, b)] > rank[max(a, b)]]


def test_rankings_put_the_smaller_id_of_every_tie_first():
    # Mirror nodes of a graph joined with a relabelled copy, and adjacent twins,
    # have equal scores in exact arithmetic; rounding must not order them.
    rng = np.random.default_rng(27)
    for _ in range(60):
        g, mirrors = mirrored_graph(rng, int(rng.integers(3, 30)))
        assert _ranked_late(pagerank_top_n(g, g.n), mirrors) == []
        assert _ranked_late(degree_top_n(g, g.n), mirrors) == []
    g = generate_points_graph(count=500, seed=7, link_radius=0.08)
    twins = adjacent_twins(g)
    assert (131, 276) in twins  # their PageRank scores differed by 1 ulp under the dense product
    assert _ranked_late(pagerank_top_n(g, g.n), twins) == []
    assert _ranked_late(degree_top_n(g, g.n), twins) == []


def test_pagerank_does_not_depend_on_the_blas_thread_count():
    probe = ("import hashlib; from kernelim import generate_points_graph, pagerank; "
             "g = generate_points_graph(count=1500, seed=7, link_radius=0.06); "
             "print(hashlib.sha256(pagerank(g).tobytes()).hexdigest())")
    digests = [run_python_at_blas_threads(threads, ["-c", probe]) for threads in (1, 2)]
    assert digests[0] == digests[1]


def test_pagerank_builds_no_n_by_n_temporary():
    g = generate_points_graph(count=1000, seed=7, link_radius=0.08)
    tracemalloc.start()
    try:
        pagerank(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < g.n**2 * 8 / 4


def test_pagerank_top_n_ties_by_id(two_node):
    assert pagerank_top_n(two_node, 2) == [0, 1]
    assert pagerank_top_n(two_node, 1) == [0]
