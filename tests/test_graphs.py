import numpy as np
import pytest

from kernelim import (
    Graph,
    LaplacianKind,
    degree_top_n,
    generate_points_graph,
    graph_hash,
    laplacian,
    load_graph,
    save_graph,
    uniform_points,
)
from kernelim.errors import GraphFormatError

from helpers import component_count, random_graph

# Golden values for the pinned sensor generator (count=79, seed=7, thin 0,
# link 0.2), recorded from the first run.
SENSOR79_SEED = 7
SENSOR79_LINK_RADIUS = 0.2
SENSOR79_EDGES = 303


def test_edge_list_default_weight(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    g = load_graph(path)
    assert g.n == 3
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0))


def test_edge_list_explicit_weight(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1 2.5\n")
    g = load_graph(path)
    assert g.edges == ((0, 1, 2.5),)


def test_edge_list_self_loop_rejected(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 0\n")
    with pytest.raises(GraphFormatError, match="self-loop"):
        load_graph(path)


def test_edge_list_duplicate_rejected(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 0 2.0\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph(path)


def test_edge_list_bad_weight_reports_line(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2 abc\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        load_graph(path)


def test_edge_list_comments_and_labels(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# header\nalice bob 2.0  # trailing\n\nbob carol\n")
    g = load_graph(path)
    assert g.n == 3
    assert g.labels == ("alice", "bob", "carol")
    assert g.edges == ((0, 1, 2.0), (1, 2, 1.0))


def test_non_positive_weight_rejected():
    with pytest.raises(GraphFormatError, match="non-positive"):
        Graph(n=2, edges=((0, 1, 0.0),))
    with pytest.raises(GraphFormatError, match="non-positive"):
        Graph(n=2, edges=((0, 1, -1.0),))
    with pytest.raises(GraphFormatError):
        Graph(n=2, edges=((0, 1, float("nan")),))
    with pytest.raises(GraphFormatError):
        Graph(n=2, edges=((0, 1, float("inf")),))


def test_json_round_trip(tmp_path):
    g = generate_points_graph(count=12, seed=3, thin_radius=0.0, link_radius=0.4)
    path = tmp_path / "g.json"
    save_graph(g, path)
    back = load_graph(path)
    assert back.n == g.n
    assert back.edges == g.edges
    assert np.allclose(back.positions, g.positions)
    assert graph_hash(back) == graph_hash(g)


def test_explicit_format_override(tmp_path):
    path = tmp_path / "edges.dat"
    path.write_text("0 1 3.0\n")
    g = load_graph(path, fmt="edge-list")
    assert g.edges == ((0, 1, 3.0),)
    with pytest.raises(ValueError, match="format"):
        load_graph(path, fmt="xml")


def test_labels_survive_json_round_trip(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text("alice bob\nbob carol 0.5\n")
    g = load_graph(src)
    out = tmp_path / "g.json"
    save_graph(g, out)
    back = load_graph(out)
    assert back.labels == ("alice", "bob", "carol")
    assert back.edges == g.edges


def test_json_contiguous_ids_required(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"nodes":[{"id":0},{"id":2}],"edges":[{"u":0,"v":2}]}')
    with pytest.raises(GraphFormatError, match="contiguous"):
        load_graph(path)


def test_thinning_drops_close_point():
    pts = [(0.0, 0.0), (0.0, 0.001), (0.0, 1.0)]
    g = generate_points_graph(points=pts, thin_radius=0.0025, link_radius=0.01)
    assert g.n == 2
    assert g.edge_count == 0


def test_thinning_keeps_separated_points():
    pts = [(0.0, 0.0), (0.0, 0.005)]
    g = generate_points_graph(points=pts, thin_radius=0.0025, link_radius=0.01)
    assert g.n == 2
    assert g.edge_count == 1


def test_thinning_postcondition_random():
    rng = np.random.default_rng(5)
    for _ in range(10):
        pts = rng.random((40, 2))
        g = generate_points_graph(points=pts, thin_radius=0.1, link_radius=0.3)
        d = g.positions[:, None, :] - g.positions[None, :, :]
        dist = np.sqrt((d**2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        assert dist.min() >= 0.1


def test_generator_empty_input_rejected():
    with pytest.raises(GraphFormatError):
        generate_points_graph(points=np.zeros((0, 2)), thin_radius=0.1, link_radius=0.2)
    with pytest.raises(GraphFormatError):
        generate_points_graph(count=0, seed=1, thin_radius=0.1, link_radius=0.2)


@pytest.mark.parametrize("bad", [0, 1])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_generator_non_finite_point_rejected(bad, value):
    pts = np.array([[0.1, 0.1], [0.5, 0.5], [0.9, 0.9]])
    pts[bad, 1] = value
    with pytest.raises(GraphFormatError, match=f"point {bad} "):
        generate_points_graph(points=pts, thin_radius=0.05, link_radius=0.2)


def test_sensor79_golden_fixture():
    g = generate_points_graph(
        count=79, seed=SENSOR79_SEED, thin_radius=0.0, link_radius=SENSOR79_LINK_RADIUS
    )
    assert g.n == 79
    assert g.edge_count == SENSOR79_EDGES
    assert component_count(g) == 1
    # all weights 1.0, positions retained
    assert all(w == 1.0 for _, _, w in g.edges)
    assert np.array_equal(g.positions, uniform_points(79, SENSOR79_SEED))


def test_laplacian_two_node_both_kinds(two_node):
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(laplacian(two_node, LaplacianKind.STANDARD), expected)
    assert np.allclose(laplacian(two_node, LaplacianKind.NORMALIZED), expected)


def test_laplacian_path3(path3):
    ls = laplacian(path3)
    assert np.allclose(np.diag(ls), [1.0, 2.0, 1.0])
    assert ls[0, 1] == -1.0 and ls[1, 2] == -1.0 and ls[0, 2] == 0.0
    assert np.allclose(np.sort(np.linalg.eigvalsh(ls)), [0.0, 1.0, 3.0], atol=1e-12)


def test_laplacian_normalized_isolated_node_rejected():
    g = Graph(n=3, edges=((0, 1, 1.0),))
    with pytest.raises(GraphFormatError, match="isolated"):
        laplacian(g, LaplacianKind.NORMALIZED)


def test_laplacian_invariants_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(3, 50)), edge_prob=0.15)
        ls = laplacian(g)
        assert np.abs(ls @ np.ones(g.n)).max() <= 1e-10
        assert np.linalg.eigvalsh(ls)[0] >= -1e-10
        if np.all(g.degrees() > 0):
            lam = np.linalg.eigvalsh(laplacian(g, LaplacianKind.NORMALIZED))
            assert lam[0] >= -1e-10 and lam[-1] <= 2.0 + 1e-10
            assert np.allclose(np.diag(laplacian(g, LaplacianKind.NORMALIZED)), 1.0)


def test_zero_eigenvalue_multiplicity_equals_components():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = random_graph(rng, int(rng.integers(4, 30)), edge_prob=0.08)
        lam = np.linalg.eigvalsh(laplacian(g))
        zeros = int(np.sum(lam < 1e-8 * max(1.0, lam[-1])))
        assert zeros == component_count(g)


def test_degree_top_n_star(star4):
    assert degree_top_n(star4, 1) == [0]


def test_degree_top_n_tie_by_id(two_node):
    assert degree_top_n(two_node, 2) == [0, 1]


def test_degree_top_n_path(path3):
    assert degree_top_n(path3, 2) == [1, 0]


def test_degree_top_n_weighted():
    # degrees: node0 = 10.5, node1 = 0.7, node2 = 10.2
    g = Graph(n=3, edges=((0, 1, 0.5), (1, 2, 0.2), (0, 2, 10.0)))
    assert degree_top_n(g, 3) == [0, 2, 1]


def test_degree_top_n_bounds(path3):
    with pytest.raises(ValueError):
        degree_top_n(path3, 4)
    with pytest.raises(ValueError):
        degree_top_n(path3, 0)


def test_laplacian_kind_parse():
    assert LaplacianKind.parse("Standard") is LaplacianKind.STANDARD
    assert LaplacianKind.parse("normalized") is LaplacianKind.NORMALIZED
    with pytest.raises(ValueError):
        LaplacianKind.parse("fancy")
