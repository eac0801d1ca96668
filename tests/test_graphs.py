import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernelim
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
from kernelim.graphs import TIE_BAND_FACTOR, _parse_json_graph, graph_to_json, read_float, read_int, top_n

from helpers import (
    adjacency_loop,
    canonical_edges_loop,
    component_count,
    degrees_loop,
    graph_to_json_loop,
    parse_json_graph_loop,
    points_graph_oracle,
    random_graph,
    top_n_loop,
)

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


def test_edge_list_ids_do_not_depend_on_the_hash_seed(tmp_path):
    # "0" and "00" have one value, so only their text can order them; set order changes with PYTHONHASHSEED.
    path = tmp_path / "g.txt"
    path.write_text("0 1\n00 1\n1 2\n")
    probe = f"from kernelim import load_graph; g = load_graph({str(path)!r}); print(g.labels, g.edges)"
    src = str(Path(kernelim.__file__).parents[1])
    outputs = {
        subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                       env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")
    }
    assert outputs == {"('0', '00', '1', '2') ((0, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0))\n"}


@pytest.mark.parametrize("text, labels", [("\u00b2 2\n", ("2", "\u00b2")), ("--1 2\n", ("--1", "2"))],
                         ids=["superscript-two", "double-minus"])
def test_edge_list_tokens_int_cannot_read_are_labels(tmp_path, text, labels):
    path = tmp_path / "g.txt"
    path.write_text(text, encoding="utf-8")
    g = load_graph(path)
    assert g.labels == labels
    assert g.edges == ((0, 1, 1.0),)


def test_non_positive_weight_rejected():
    with pytest.raises(GraphFormatError, match="non-positive"):
        Graph(n=2, edges=((0, 1, 0.0),))
    with pytest.raises(GraphFormatError, match="non-positive"):
        Graph(n=2, edges=((0, 1, -1.0),))
    with pytest.raises(GraphFormatError):
        Graph(n=2, edges=((0, 1, float("nan")),))
    with pytest.raises(GraphFormatError):
        Graph(n=2, edges=((0, 1, float("inf")),))


@st.composite
def _edge_records(draw):
    # Small graphs whose records mix valid ids with out-of-range, huge, float and
    # non-integral ones, and valid weights with bad ones; some records repeat a pair
    # in either orientation.
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    weight = st.sampled_from([1.0, 2.5])
    good = node.flatmap(lambda u: st.tuples(st.just(u), node.filter(lambda v: v != u), weight))
    any_node = node | st.sampled_from([-1, n, 10**30, -(10**30), 2.0, 1.5, math.nan, math.inf])
    any_weight = weight | st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])
    record = st.integers(0, 5).flatmap(
        lambda k: st.tuples(any_node, any_node, any_weight) if k == 5 or n == 1 else good)
    edges = draw(st.lists(record, max_size=6))
    for u, v, _ in draw(st.lists(st.sampled_from(edges), max_size=1)) if edges else []:
        pair = (v, u) if draw(st.booleans()) else (u, v)
        edges.insert(draw(st.integers(0, len(edges))), (*pair, draw(any_weight)))
    return n, edges


@settings(derandomize=True, max_examples=600, deadline=None)
@given(case=_edge_records())
def test_graph_validation_matches_the_reference_loop(case):
    # The records as Python tuples (checked as Python ints) and as one float array
    n, edges = case
    for records in (edges, np.array(edges, dtype=float).reshape(-1, 3)):
        try:
            expected = canonical_edges_loop(n, records)
        except GraphFormatError as exc:
            with pytest.raises(GraphFormatError) as refused:
                Graph(n=n, edges=records)
            assert str(refused.value) == str(exc)
        else:
            assert Graph(n=n, edges=records).edges == expected


@pytest.mark.parametrize("edges, record, shown", [
    ([(0, 1.5, 1.0)], 0, "1.5"), (np.array([[0, 1.9, 1.0]]), 0, "1.9"), ([(0, math.nan, 1.0)], 0, "nan"),
    ([(0, 1, 1.0), (-math.inf, 2, 1.0)], 1, "-inf"),
    (np.array([[0, 1, 1.0], [2, 0.5, 1.0], [9, 9, 1.0]]), 1, "0.5"),
], ids=["tuple-1.5", "array-1.9", "nan", "second-record-inf", "before-a-later-range-error"])
def test_graph_refuses_a_non_integral_id(edges, record, shown):
    with pytest.raises(GraphFormatError, match=f"^edge record {record}: node id {shown} is not an integer$"):
        Graph(n=3, edges=edges)


@pytest.mark.parametrize("positions, node, shown", [
    ([[math.nan, 0.0], [0.0, math.inf]], 0, "NaN"),
    ([[0.0, 1.0], [0.5, math.inf]], 1, "Infinity"),
    (np.array([[0.0, -math.inf], [math.nan, 1.0]]), 0, "-Infinity"),
], ids=["nan", "inf", "minus-inf"])
def test_graph_refuses_a_non_finite_position_as_the_reader_does(tmp_path, positions, node, shown):
    # The reader refuses a non-finite 'pos' entry, so no graph holds one that
    # its file could not bring back.
    message = f"node {node}: 'pos' entry {shown} is not a finite number"
    with pytest.raises(GraphFormatError, match=f"^{message}$"):
        Graph(n=2, edges=[(0, 1, 1.0)], positions=positions)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"nodes": [{"id": i, "pos": list(map(float, xy))} for i, xy in enumerate(positions)],
                                "edges": [{"u": 0, "v": 1}]}))
    with pytest.raises(GraphFormatError, match=f"^{message}$"):
        load_graph(path)


def test_positions_are_a_frozen_copy():
    # A caller's later write cannot put a non-finite entry past the check.
    xy = np.zeros((2, 2))
    g = Graph(n=2, edges=[(0, 1, 1.0)], positions=xy)
    xy[0, 0] = math.nan
    assert g.positions.tolist() == [[0.0, 0.0], [0.0, 0.0]]
    with pytest.raises(ValueError, match="read-only"):
        g.positions[0, 0] = math.nan


def test_graph_takes_whole_float_ids():
    assert Graph(n=3, edges=np.array([[0, 2.0, 1.0], [-0.0, 1, 1.0]])).edges == ((0, 1, 1.0), (0, 2, 1.0))


def test_adjacency_and_degrees_keep_the_bits_of_the_edge_loop():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = random_graph(rng, int(rng.integers(2, 40)), edge_prob=float(rng.uniform(0.05, 0.5)),
                         weight_lo=1e-3, weight_hi=1e3)
        assert g.degrees().tobytes() == degrees_loop(g).tobytes()


def test_edge_arrays_are_canonical_and_frozen():
    g = Graph(n=4, edges=((3, 1, 0.5), (0, 2, 1.5), (1, 0, 2.0)))
    assert (g.u.dtype, g.v.dtype, g.w.dtype) == (np.int64, np.int64, np.float64)
    assert (g.u.tolist(), g.v.tolist(), g.w.tolist()) == ([0, 0, 1], [1, 2, 3], [2.0, 1.5, 0.5])
    for array in (g.u, g.v, g.w):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.w = np.ones(3)


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


@pytest.mark.parametrize("kwargs,nodes,edges,digest", [
    (dict(count=500, seed=7, link_radius=0.08), 500, 2317,
     "39e3b00dbf6d6002f2121bc0dd9ec2f7990a0a3018d3c7c796c7bc15ebf4b7af"),
    (dict(points=np.random.default_rng(5).random((400, 2)), thin_radius=0.03, link_radius=0.1),
     248, 785, "46a0d03789aca86a331d579f4a2f819e36cf2e2391d13168a605a0bb122852ea"),
], ids=["count500", "thinned400"])
def test_generator_golden_hash(kwargs, nodes, edges, digest):
    g = generate_points_graph(**kwargs)
    assert (g.n, g.edge_count, graph_hash(g)) == (nodes, edges, digest)


_LATTICE = 0.05 * np.stack(np.meshgrid(np.arange(20), np.arange(20)), axis=-1).reshape(-1, 2)
_LAYOUTS = {  # points in about the unit square; the lattice's spacing is the radius 0.05
    "random": lambda rng: rng.random((150, 2)),
    "duplicates": lambda rng: rng.random((50, 2))[rng.integers(0, 50, 150)],
    "rounded": lambda rng: np.round(rng.random((150, 2)), 1),
    "lattice": lambda rng: _LATTICE,
    "vertical": lambda rng: np.column_stack([np.full(150, 0.5), rng.random(150)]),
    "horizontal": lambda rng: np.column_stack([rng.random(150), np.full(150, 0.25)]),
}


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("layout", _LAYOUTS)
def test_generator_matches_the_dense_oracle(layout, scale):
    rng = np.random.default_rng(len(layout))
    r = 0.05 * scale
    for offset in (0.0, rng.uniform(-10, 10) * scale):
        pts = _LAYOUTS[layout](rng) * scale + offset
        for thin in (0.0, r, np.inf):
            for link in (r, 2 * r, np.inf):
                g = generate_points_graph(points=pts, thin_radius=thin, link_radius=link)
                want = points_graph_oracle(pts, thin, link)
                assert g.n == want.n
                assert np.array_equal(g.positions, want.positions)
                assert all(np.array_equal(a, b) for a, b in zip((g.u, g.v, g.w), (want.u, want.v, want.w)))
                assert graph_hash(g) == graph_hash(want)


def _boundary_pairs(x, r, strict):
    """Pairs (x, y), y the largest of the nine floats around the computed x + r whose computed
    y - x is < r (strict) or <= r.  An x with none of the nine within r is left out."""
    ys = [x + r]
    for _ in range(4):
        ys = [np.nextafter(ys[0], -np.inf), *ys, np.nextafter(ys[-1], np.inf)]
    ys = np.stack(ys)
    within = ys - x < r if strict else ys - x <= r  # falls with y: a run of True, then False
    some = within[0]
    return x[some], ys[within.sum(axis=0) - 1, np.arange(len(x))][some]


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_generator_matches_the_oracle_at_the_radius_boundary(scale):
    rng = np.random.default_rng(3)
    r = 0.05 * scale
    for thin, link in ((0.0, r), (r, r)):
        x, y = _boundary_pairs((rng.random(200) - 0.5) * scale, r, strict=thin > 0)
        pts = np.column_stack([np.concatenate([x, y]), np.zeros(2 * len(x))])
        if not thin:  # some pairs lie past the computed x + r, outside a window without a pad
            assert np.any(y > x + r)
        g = generate_points_graph(points=pts, thin_radius=thin, link_radius=link)
        assert graph_hash(g) == graph_hash(points_graph_oracle(pts, thin, link))


def test_generator_links_a_pair_whose_dx_squared_underflows():
    # dx = 1e-200 squares to 0, so the computed distance 0 is within 1e-300 while dx is not.
    pts = np.array([[0.0, 0.0], [1e-200, 0.0], [0.0, 1e-200]])
    g = generate_points_graph(points=pts, link_radius=1e-300)
    assert g.edges == points_graph_oracle(pts, 0.0, 1e-300).edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))


def test_generator_peak_stays_below_one_n_by_n_matrix():
    line = np.column_stack([np.full(1500, 0.5), uniform_points(1500, 7)[:, 1]])
    peaks = []
    for kwargs in (dict(count=1500, seed=7), dict(points=line)):
        tracemalloc.start()
        try:
            generate_points_graph(**kwargs, link_radius=0.06)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1500**2 * 8  # one n x n float64; the n x n distance matrix took 54 MB
    # On a vertical line a sweep along x measures every pair (72 MB); the distance matrix took 54 MB.
    assert peaks[1] <= 51.5e6


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**400), 10**400) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _mostly(valid):
    # Valid seven times in eight, so most documents get past the earlier checks.
    return st.integers(0, 7).flatmap(lambda k: _JSON_VALUES if k == 7 else valid)


_POS = _mostly(st.lists(_mostly(st.floats(-2, 2)), min_size=2, max_size=2))


def _nodes(n, with_pos):
    return st.tuples(*(
        st.fixed_dictionaries(
            {"id": _mostly(st.sampled_from([i, str(i)])), **({"pos": _POS} if with_pos else {})},
            optional={"label": _JSON_VALUES},
        )
        for i in range(n)
    )).map(list)


_NODE_ID = _mostly(st.integers(0, 3))
_EDGE = st.fixed_dictionaries({"u": _NODE_ID, "v": _NODE_ID}, optional={"w": _mostly(st.floats(0.1, 2))})
_GRAPH_DOC = _mostly(st.fixed_dictionaries({
    "nodes": _mostly(st.tuples(st.integers(1, 4), st.booleans()).flatmap(lambda a: _nodes(*a))),
    "edges": _mostly(st.lists(_EDGE, max_size=4)),
}))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(doc=_GRAPH_DOC)
def test_load_graph_json_fails_only_with_input_errors(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "property.json"
    path.write_text(json.dumps(doc))
    try:
        g = load_graph(path)
    except (GraphFormatError, ValueError):
        return  # the two error types the CLI maps to exit 1
    assert isinstance(g, Graph)


def _read_outcome(read, text):
    """The arrays, positions and labels `read` makes of `text`, or its exception."""
    try:
        g = read(text)
    except Exception as exc:  # noqa: BLE001  (the type and message are compared)
        return type(exc), str(exc)
    positions = None if g.positions is None else g.positions.tobytes()
    return g.n, g.u.tobytes(), g.v.tobytes(), g.w.tobytes(), positions, g.labels


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=_GRAPH_DOC)
def test_json_reader_matches_the_per_record_reader(doc):
    text = json.dumps(doc)
    assert _read_outcome(_parse_json_graph, text) == _read_outcome(parse_json_graph_loop, text)


_BAD_ID = st.sampled_from(["x", "1_0", "", " 2 ", "1.0", True, None, 1.5, -1, 2**53 + 1, 10**30, "9" * 30, [0], {}])
_BAD_NUMBER = st.sampled_from([None, True, "nan", "inf", "1_0", "abc", " 0.5 ", "1e400", 10**400, -(10**30),
                               0, -1.0, math.nan, math.inf, -math.inf, [1], {}, 1e308])
_BAD_POS = st.sampled_from([None, "ab", [0.1], [0.1, 0.2, 0.3], {}, 3, [None, 1.0], [1.0, "nan"]])


@st.composite
def _docs_with_bad_fields(draw):
    # A valid document of up to 60 nodes and 120 edges (ids listed in any order, some
    # as strings), in which one or two fields at random records are then replaced.
    n = draw(st.integers(2, 60))
    ids = draw(st.permutations(range(n)))
    with_pos, labelled = draw(st.booleans()), draw(st.booleans())
    nodes = [{"id": str(i) if draw(st.integers(0, 9)) == 0 else i} for i in ids]
    for m in nodes:
        if with_pos:
            m["pos"] = [draw(st.floats(-2, 2)), draw(st.sampled_from([0.5, -0.0, 5e-324, "0.25", 3]))]
        if labelled and draw(st.booleans()):
            m["label"] = draw(st.sampled_from(["a", "\u00e9", 7, None, [1, "b"], {"k": 2}]))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
                          max_size=120, unique_by=lambda p: frozenset(p)))
    edges = []
    for a, b in pairs:
        e = {"u": a, "v": b}
        if draw(st.integers(0, 2)):
            e["w"] = draw(st.sampled_from([1.0, 0.1, 2, "2.5", 1e-300]))
        edges.append(e)
    for _ in range(draw(st.integers(1, 2))):
        fields = ["id", "pos", "entry"] + ["u", "v", "w", "w", "loop", "repeat"] * bool(edges)
        field = draw(st.sampled_from(fields))
        if field == "repeat":  # the pair of an edge, listed again in either orientation later on
            k = draw(st.integers(0, len(edges) - 1))
            pair = edges[k]["u"], edges[k]["v"]
            edges.insert(draw(st.integers(k + 1, len(edges))), dict(zip("uv", pair[::draw(st.sampled_from([1, -1]))])))
        elif field in ("id", "pos", "entry"):
            m = nodes[draw(st.integers(0, n - 1))]
            if field == "id":
                m["id"] = draw(_BAD_ID | st.integers(0, n))
            elif field == "pos":
                m["pos"] = draw(_BAD_POS)
            elif isinstance(m.get("pos"), list) and m["pos"]:
                m["pos"][draw(st.integers(0, len(m["pos"]) - 1))] = draw(_BAD_NUMBER)
        else:
            e = edges[draw(st.integers(0, len(edges) - 1))]
            if field == "w":
                e["w"] = draw(_BAD_NUMBER)
            elif field == "loop":
                e["v"] = e["u"]
            else:
                e[field] = draw(_BAD_ID | st.integers(-1, n))
    return {"nodes": nodes, "edges": edges}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(doc=_docs_with_bad_fields())
def test_json_reader_names_the_bad_field_the_per_record_reader_names(doc):
    text = json.dumps(doc)
    assert _read_outcome(_parse_json_graph, text) == _read_outcome(parse_json_graph_loop, text)


_LABEL_TEXT = st.text(st.sampled_from(["a", "\u00e9", '"', "\\", "\n", "\x00", "\x1f", "\u2028", "\U0001f600",
                                       "\ud800", "/"]), max_size=5)
_POSITION = (st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 1 / 3, 0.1])
             | st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
                          max_size=12, unique_by=lambda p: frozenset(p)))
    weights = st.sampled_from([1.0, 1e-300, 0.1, 1 / 3, 1e308]) | st.floats(1e-300, 1e300)
    edges = [(a, b, draw(weights)) for a, b in pairs]
    positions = draw(st.none() | st.lists(st.tuples(_POSITION, _POSITION), min_size=n, max_size=n))
    labels = draw(st.none() | st.lists(_LABEL_TEXT, min_size=n, max_size=n))
    return Graph(n=n, edges=edges, positions=positions, labels=labels)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(g=_graphs())
def test_json_writer_gives_the_bytes_of_json_dumps(g):
    assert graph_to_json(g) == graph_to_json_loop(g)


def test_json_load_then_save_reproduces_the_benchmark_graph(tmp_path):
    # The n=1500 graph.json of perfbench's select_n1500 workload (seed 7)
    path, again = tmp_path / "graph.json", tmp_path / "again.json"
    g = generate_points_graph(count=1500, seed=7, link_radius=0.06)
    save_graph(g, path)
    save_graph(load_graph(path), again)
    assert again.read_bytes() == path.read_bytes() == graph_to_json_loop(g).encode("ascii")
    assert graph_hash(g) == "cfefb40a1d65300ff55e56e9ccab75da949e7a7df1ce34cfbc03add3ca53340f"


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


@pytest.mark.parametrize("kind", list(LaplacianKind))
def test_laplacian_refuses_an_overflowing_degree(kind):
    # Each weight is finite; node 1's degree 2e308 is not.
    g = Graph(n=3, edges=((0, 1, 1e308), (1, 2, 1e308)))
    with pytest.raises(GraphFormatError, match="weighted degree of node 1 overflows to inf"):
        laplacian(g, kind)


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


def test_laplacian_keeps_the_bits_of_the_dense_formula():
    # Built per edge, the Laplacian must match the dense D - A bit for bit, +0.0
    # off the edges included, with D the edge-order degrees the rankings use.
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_graph(rng, int(rng.integers(3, 40)), edge_prob=0.2)
        a = adjacency_loop(g)
        deg = degrees_loop(g)
        ls = np.diag(deg) - a
        assert laplacian(g).tobytes() == ls.tobytes()
        if np.all(deg > 0):
            dinv = 1.0 / np.sqrt(deg)
            ln = ls * dinv[:, None] * dinv[None, :]
            assert laplacian(g, LaplacianKind.NORMALIZED).tobytes() == ((ln + ln.T) / 2.0).tobytes()


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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(scores=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.0 - 2.0**-50, 0.25]), st.floats()),
                       min_size=1, max_size=30),
       data=st.data())
def test_top_n_ranks_like_lexsort(scores, data):
    # Equal scores, +0.0 against -0.0 among them, and scores within the tie band
    # (1 - 2**-50 against 1) go to the smallest id first.  At +-inf or NaN the
    # band has no meaning, so such scores are refused.
    scores = np.array(scores)
    n_sel = data.draw(st.integers(1, len(scores)))
    if not np.all(np.isfinite(scores)):
        with pytest.raises(ValueError, match="^scores to rank must be finite$"):
            top_n(scores, n_sel)
        return
    assert top_n(scores, n_sel) == top_n_loop(scores.tolist(), n_sel)
    if np.all(np.diff(np.unique(scores)) > TIE_BAND_FACTOR * np.abs(scores).max()):
        assert top_n(scores, n_sel) == np.lexsort((np.arange(len(scores)), -scores))[:n_sel].tolist()


def test_normalized_laplacian_builds_no_n_by_n_temporary():
    g = generate_points_graph(count=1000, seed=7, link_radius=0.08)
    tracemalloc.start()
    try:
        laplacian(g, LaplacianKind.NORMALIZED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * g.n**2 * 8  # the n x n output and O(m) besides


def test_laplacian_kind_parse():
    assert LaplacianKind.parse("Standard") is LaplacianKind.STANDARD
    assert LaplacianKind.parse("normalized") is LaplacianKind.NORMALIZED
    with pytest.raises(ValueError):
        LaplacianKind.parse("fancy")


def test_number_readers_refuse_digit_group_underscores():
    assert read_float(" -2.5e1 ") == -25.0 and np.isnan(read_float("nan"))
    assert read_int("-7") == -7 and read_float(3) == 3.0 and read_int(4) == 4
    for text in ("1_0", "-1_0.5", "1e1_0", "_1"):
        with pytest.raises(ValueError, match="could not convert string to float"):
            read_float(text)
    with pytest.raises(ValueError, match="invalid literal for int"):
        read_int("1_000")
    # argparse names the type in its "invalid ... value" messages
    assert (read_float.__name__, read_int.__name__) == ("float", "int")
