"""Weighted undirected graphs: construction, file I/O, point-cloud generation, Laplacians."""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GraphFormatError


def _refusing_underscores(convert, message):
    def read(text):
        if isinstance(text, str) and "_" in text:
            raise ValueError(f"{message}: {text!r}")
        return convert(text)

    read.__name__ = convert.__name__  # argparse names the type in "invalid float value"
    return read


# float() and int() for text from outside, except that the digit-group
# underscores Python accepts ("1_0" reads as 10) are refused.
read_float = _refusing_underscores(float, "could not convert string to float")
read_int = _refusing_underscores(int, "invalid literal for int() with base 10")


class LaplacianKind(Enum):
    STANDARD = "standard"
    NORMALIZED = "normalized"

    @classmethod
    def parse(cls, name: str) -> "LaplacianKind":
        try:
            return cls(str(name).lower())
        except ValueError:
            expected = " or ".join(repr(kind.value) for kind in cls)
            raise ValueError(f"unknown laplacian kind {name!r}; expected {expected}") from None


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Simple undirected graph with strictly positive edge weights and finite positions.

    Nodes are dense integers 0..n-1.  When a file used other identifiers,
    `labels` maps each dense id back to the original token.  The (u, v, w)
    triples of `edges` are stored as three read-only arrays sorted by (u, v):
    `u` and `v` (int64, u < v) and `w` (float64).  `positions`, if given, is a
    read-only (n, 2) float64 copy.
    """

    n: int
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    positions: np.ndarray | None
    labels: tuple[str, ...] | None

    def __init__(self, n: int, edges, positions=None, labels=None):
        if n < 1:
            raise GraphFormatError("graph needs at least one node")
        u, v, w = _edge_arrays(n, edges)
        if positions is not None:
            positions = np.array(positions, dtype=float)  # a copy: the caller's array may change
            if positions.shape != (n, 2):
                raise GraphFormatError(f"positions must have shape ({n}, 2), got {positions.shape}")
            if not (finite := np.isfinite(positions)).all():
                node, c = divmod(int(finite.argmin()), 2)
                raise GraphFormatError(f"node {node}: 'pos' entry {json.dumps(positions[node, c])} is not a finite number")
            positions.flags.writeable = False
        if labels is not None and len(labels := tuple(str(t) for t in labels)) != n:
            raise GraphFormatError("label table length must equal the node count")
        for array in (u, v, w):
            array.flags.writeable = False
        for name, value in dict(n=n, u=u, v=v, w=w, positions=positions, labels=labels).items():
            object.__setattr__(self, name, value)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.w.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.w)

    def degrees(self) -> np.ndarray:
        """Weighted degree of every node, summed in edge order (u0, v0, u1, v1, ...):
        the one degree of the Laplacian, PageRank and the degree ranking.  Finite
        weights can still sum to inf; such a degree is refused."""
        ends = np.stack([self.u, self.v], axis=1).ravel()
        deg = np.bincount(ends, weights=np.repeat(self.w, 2), minlength=self.n)
        if not np.all(np.isfinite(deg)):
            node = int(np.argmin(np.isfinite(deg)))
            raise GraphFormatError(f"weighted degree of node {node} overflows to {deg[node]}")
        return deg


def _edge_arrays(n: int, edges) -> tuple[np.ndarray, ...]:
    """(u, v, w) arrays of the triples `edges`, u < v, sorted by (u, v).  The
    first bad record in input order is refused by the first check it fails:
    whole-number id, range, self-loop, weight, duplicate.  The ids of an integer
    or float array are checked as arrays, any others as Python ints, so an id
    too large for int64 is named exactly."""
    if not (isinstance(edges, np.ndarray) and edges.dtype.kind in "if"):
        edges = np.array(edges, dtype=object)
    rec = edges.reshape(len(edges), 3)
    w = rec[:, 2].astype(float)
    if rec.dtype == object:
        ids = np.frompyfunc(_whole_int, 1, 1)(rec[:, :2])
        whole = np.not_equal(ids, None)
    else:
        ids = rec[:, :2]
        whole = np.isfinite(ids) & (ids == np.trunc(ids))
    ids = np.where(whole, ids, 0)
    inside = ((ids >= 0) & (ids < n)).all(axis=1)
    lo, hi = np.sort(np.where(inside[:, None], ids, 0).astype(np.int64), axis=1).T
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(key), dtype=bool)  # an earlier record joins the same pair
    repeat[order[1:]] = np.diff(key[order]) == 0
    bad = np.stack([~whole.all(axis=1), ~inside, lo == hi, ~((w > 0) & np.isfinite(w)), repeat])
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        a, b = (int(x) for x in ids[i])
        raise GraphFormatError([
            f"edge record {i}: node id {rec[i, int(whole[i, 0])]} is not an integer",
            f"edge ({a},{b}) references a node outside 0..{n - 1}",
            f"self-loop on node {a} is not allowed",
            f"edge ({a},{b}) has non-positive weight {float(w[i])}",
            f"duplicate edge ({lo[i]},{hi[i]})",
        ][bad[:, i].argmax()])
    return lo[order], hi[order], w[order]


def _whole_int(x):
    """int(x), or None for a float that is not a whole number (nan and inf included)."""
    if isinstance(x, (float, np.floating)) and not float(x).is_integer():
        return None
    return int(x)


def _parse_edge_list(text: str) -> Graph:
    raw = []
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        if len(tokens) not in (2, 3):
            raise GraphFormatError(f"line {lineno}: expected 'u v [w]', got {len(tokens)} fields")
        u, v, w = tokens[0], tokens[1], 1.0
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop on node {u!r}")
        if len(tokens) == 3:
            try:
                w = read_float(tokens[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: weight {tokens[2]!r} is not a number") from None
            if not (w > 0 and math.isfinite(w)):
                raise GraphFormatError(f"line {lineno}: edge ({u},{v}) has non-positive weight {w}")
        if frozenset((u, v)) in seen:  # distinct tokens get distinct ids
            raise GraphFormatError(f"line {lineno}: duplicate edge ({u},{v})")
        seen.add(frozenset((u, v)))
        raw.append((u, v, w))
    if not raw:
        raise GraphFormatError("edge list contains no edges")
    tokens = [t for u, v, _ in raw for t in (u, v)]
    # Numeric token sets sort by (value, text): 0-based files map to themselves, "0" before "00".
    numeric = all(t.removeprefix("-").isdecimal() for t in tokens)
    labels = tuple(sorted(set(tokens), key=(lambda t: (int(t), t)) if numeric else None))
    ids = {t: i for i, t in enumerate(labels)}
    if labels == tuple(str(i) for i in range(len(labels))):
        labels = None
    return Graph(n=len(ids), edges=[(ids[u], ids[v], w) for u, v, w in raw], labels=labels)


def _parse_json_graph(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "nodes" not in doc or "edges" not in doc:
        raise GraphFormatError("graph JSON must be an object with 'nodes' and 'edges'")
    nodes, edges = doc["nodes"], doc["edges"]
    (id_col,) = _record_columns(nodes, "node", ("id",))
    u_col, v_col = _record_columns(edges, "edge", ("u", "v"))
    n = len(nodes)
    ids, bad = _int_column(id_col)
    if bad < n:
        raise GraphFormatError(f"node record {bad}: id {id_col[bad]!r} is not an integer")
    if ids.dtype != np.int64 or not np.array_equal(np.sort(ids), np.arange(n)):
        raise GraphFormatError("node ids must be the contiguous integers 0..n-1")
    positions = None
    pos_col = [m.get("pos") for m in nodes]
    if (unplaced := pos_col.count(None)) < n:
        if unplaced:
            raise GraphFormatError("either every node or no node may carry a position")
        pairs = n
        if set(map(type, pos_col)) != {list} or set(map(len, pos_col)) != {2}:
            pairs = next(i for i, pos in enumerate(pos_col) if not (isinstance(pos, list) and len(pos) == 2))
        coords = [c for pos in pos_col[:pairs] for c in pos]
        xy, bad = _float_column(coords)
        if bad < len(coords):
            raise GraphFormatError(f"node {ids[bad // 2]}: 'pos' entry {json.dumps(coords[bad])} is not a finite number")
        if pairs < n:
            raise GraphFormatError(f"node {ids[pairs]}: 'pos' must be a pair [x, y]")
        positions = np.empty((n, 2))
        positions[ids] = xy.reshape(n, 2)
    labels = None
    if any("label" in m for m in nodes):
        raw = [m.get("label", m["id"]) for m in nodes]
        labels = [raw[k] for k in np.argsort(ids).tolist()]
    u, bad_u = _int_column(u_col)
    v, bad_v = _int_column(v_col)
    w_col = [e.get("w", 1.0) for e in edges]
    w, bad_w = _float_column(w_col)
    if (i := min(bad_u, bad_v, bad_w)) < len(edges):
        raise GraphFormatError(
            f"edge record {i}: u {u_col[i]!r} is not an integer" if bad_u == i else
            f"edge record {i}: v {v_col[i]!r} is not an integer" if bad_v == i else
            f"edge record {i}: weight {json.dumps(w_col[i])} is not a finite number")
    uv = np.stack([u, v])
    if uv.dtype == np.int64 and np.all((uv >= -(2**53)) & (uv <= 2**53)):
        rec = np.column_stack([u, v, w])  # every id is exact as a float
    else:
        rec = list(zip(u.tolist(), v.tolist(), w.tolist()))
    return Graph(n=n, edges=rec, positions=positions, labels=labels)


def _record_columns(records, kind: str, keys: tuple[str, ...]) -> list[list]:
    """The column [rec.get(k) for rec in records] of each of `keys`, whose every entry
    must be an integer or a string."""
    if not isinstance(records, list):
        raise GraphFormatError(f"graph JSON '{kind}s' must be an array")
    if set(map(type, records)) <= {dict}:
        columns = [[rec.get(k) for rec in records] for k in keys]
        # type(), not isinstance(): JSON true and false load as bool, an int subclass
        if all(set(map(type, col)) <= {int, str} for col in columns):
            return columns
    i = next(i for i, rec in enumerate(records)
             if not isinstance(rec, dict) or any(type(rec.get(k)) not in (int, str) for k in keys))
    fields = " and ".join(repr(k) for k in keys)
    raise GraphFormatError(f"{kind} record {i} must be an object with integer {fields}")


def _int_column(values: list) -> tuple[np.ndarray | None, int]:
    """JSON integers and strings holding one (what `_record_columns` admits) as one
    array, int64 unless a value does not fit, and the index of the first string that
    holds no integer (len(values) when none, else the array is None)."""
    if not set(map(type, values)) <= {int}:
        values = [_parsed(read_int, x) for x in values]
        if None in values:
            return None, values.index(None)
    try:
        return np.array(values, dtype=np.int64), len(values)
    except OverflowError:
        return np.array(values, dtype=object), len(values)


def _float_column(values: list) -> tuple[np.ndarray, int]:
    """Finite JSON numbers and strings holding one as float64, and the index of the
    first value that is neither (len(values) when none)."""
    out = None
    if set(map(type, values)) <= {int, float}:
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            out = np.array(values, dtype=float)
    if out is None:  # a refused value reads as None, so as nan
        out = np.array([_parsed(read_float, x) if type(x) in (int, float, str) else None for x in values], dtype=float)
    finite = np.isfinite(out)
    return out, len(values) if finite.all() else int(finite.argmin())


def _parsed(read, value):
    """read(value), or None where it refuses the value."""
    try:
        return read(value)
    except (ValueError, OverflowError):
        return None


def load_graph(path, fmt: str | None = None) -> Graph:
    """Read a graph from an edge-list or JSON file.

    The format is inferred from the extension unless `fmt` ('edge-list' or
    'json') is given.  Edge lists hold one 'u v [w]' record per line with '#'
    comments; missing weights default to 1.0.
    """
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "edge-list"
    if fmt == "json":
        return _parse_json_graph(text)
    if fmt == "edge-list":
        return _parse_edge_list(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def graph_to_json(g: Graph) -> str:
    """Canonical JSON serialization (stable byte-for-byte for equal graphs): the text
    `json.dumps(..., sort_keys=True, separators=(",", ":"))` gives for one object per
    node and edge, written from the arrays.  Floats take `float.__repr__`, as in
    `json`; labels go through `json.dumps` (ASCII, escaped)."""
    fields = [map('"id":{}'.format, range(g.n))]
    if g.labels is not None:
        fields.append(map('"label":{}'.format, map(json.dumps, g.labels)))
    if g.positions is not None:
        fields.append(map('"pos":[{!r},{!r}]'.format, *g.positions.T.tolist()))
    nodes = ",".join(map("{{{}}}".format, map(",".join, zip(*fields))))
    edges = ",".join(map('{{"u":{},"v":{},"w":{!r}}}'.format, g.u.tolist(), g.v.tolist(), g.w.tolist()))
    return f'{{"edges":[{edges}],"nodes":[{nodes}]}}\n'


def save_graph(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(graph_to_json(g))


def graph_hash(g: Graph) -> str:
    """SHA-256 of the canonical JSON serialization."""
    return hashlib.sha256(graph_to_json(g).encode("utf-8")).hexdigest()


def uniform_points(count: int, seed: int) -> np.ndarray:
    """Seeded uniform points in the unit square (the synthetic sensor recipe)."""
    if count < 1:
        raise GraphFormatError("point generator needs count >= 1")
    return np.random.default_rng(seed).random((count, 2))


def generate_points_graph(
    points=None,
    *,
    count: int | None = None,
    seed: int = 0,
    thin_radius: float = 0.0,
    link_radius: float,
) -> Graph:
    """Build a geometric graph from 2-D points.

    Points are thinned greedily in input order so that every surviving pair is
    at least `thin_radius` apart, then all surviving pairs within `link_radius`
    are linked with weight 1.0.  Pass either explicit `points` or a generator
    spec (`count`, `seed`) for uniform points in the unit square.
    """
    if not link_radius > 0:
        raise ValueError("link_radius must be positive")
    if not thin_radius >= 0:
        raise ValueError("thin_radius must be nonnegative")
    if points is None:
        if count is None:
            raise ValueError("pass points or a (count, seed) generator spec")
        points = uniform_points(count, seed)
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise GraphFormatError("points must be an (m, 2) array")
    if pts.shape[0] == 0:
        raise GraphFormatError("no points left after thinning (empty input)")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise GraphFormatError(f"point {int(np.argmin(finite))} has a non-finite coordinate")

    keep = [True] * len(pts)
    p, q = _close_pairs(pts, thin_radius, strict=True)
    by_later = np.argsort(q, kind="stable")
    for a, b in zip(p[by_later].tolist(), q[by_later].tolist()):
        if keep[a]:  # a < b: the pairs come by b, so whether a survives is settled
            keep[b] = False
    surv = pts[keep]

    rows, cols = _close_pairs(surv, link_radius, strict=False)
    return Graph(n=surv.shape[0], edges=np.column_stack((rows, cols, np.ones_like(rows))), positions=surv)


def _close_pairs(pts: np.ndarray, radius: float, strict: bool) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs (p, q), p < q, whose distance sqrt(((pts[p] - pts[q]) ** 2).sum(1)) is
    < radius (strict) or <= radius: thinning and linking both use this one formula.  A
    distance too large for a float is +inf, which compares as far apart.

    The points are sorted along the coordinate x of larger spread (points on a line along
    the other axis would all share one window), and each is paired with the later ones
    whose x lies within its window.  A computed distance is never below the computed |dx|:
    sqrt(fl(dx²)) is |dx| exactly in binary floating point, and adding fl(dy²) >= 0 cannot
    lower it.  Only where dx² underflows, |dx| < 2**-511, can the distance fall below |dx|.
    So the window up to x + radius, padded by 1e-9 relative for the rounding of dx and of
    x + radius and by 2**-511 for underflow, holds every close pair; a bound that overflows
    to inf still does."""
    with np.errstate(over="ignore"):
        axis = int(np.argmax(np.ptp(pts, axis=0)))
        order = np.argsort(pts[:, axis], kind="stable")
        x = pts[order, axis]
        end = np.searchsorted(x, x + radius + 1e-9 * (np.abs(x) + radius) + 2.0**-511, side="right")
        counts = end - np.arange(1, len(x) + 1)  # the later points in each one's window
        first = np.repeat(np.arange(len(x)), counts)
        second = np.arange(len(first)) - np.repeat(np.cumsum(counts) - end, counts)
        p, q = order[first], order[second]
        p, q = np.minimum(p, q), np.maximum(p, q)
        dist = np.sqrt(((pts[p] - pts[q]) ** 2).sum(1))
    close = dist < radius if strict else dist <= radius
    return p[close], q[close]


def laplacian(g: Graph, kind: LaplacianKind = LaplacianKind.STANDARD) -> np.ndarray:
    """Standard (D - A) or normalized (D^-1/2 L D^-1/2) graph Laplacian, D from
    `Graph.degrees`: each edge writes two entries, every other off-diagonal is +0.0."""
    deg = g.degrees()
    if kind is LaplacianKind.STANDARD:
        off, diag = -g.w, deg
    elif kind is LaplacianKind.NORMALIZED:
        if np.any(deg <= 0):
            isolated = int(np.argmax(deg <= 0))
            raise GraphFormatError(
                f"normalized Laplacian undefined: node {isolated} is isolated"
            )
        d = 1.0 / np.sqrt(deg)
        du, dv = d[g.u], d[g.v]
        # The dense (L + L^T) / 2 of the scaled (L_uv d_u) d_v and (L_vu d_v) d_u, bit for bit
        off = ((-g.w * du) * dv + (-g.w * dv) * du) / 2.0
        diag = deg * d * d
    else:
        raise ValueError(f"unknown Laplacian kind {kind!r}")
    ls = np.zeros((g.n, g.n))
    ls[g.u, g.v] = ls[g.v, g.u] = off
    np.fill_diagonal(ls, diag)
    return ls


# A score short of the maximum by at most 256 eps times a scale counts as tied with it, so
# rounding (another BLAS thread count, another summation order) does not pick between them.
TIE_BAND_FACTOR = 256 * 2.0**-52


def smallest_in_band(scores: np.ndarray, best: float, scale: float, among: np.ndarray) -> int:
    """Smallest id `among` the candidates whose score is in the tie band of `best`, their maximum."""
    return int((among & (scores >= best - TIE_BAND_FACTOR * scale)).argmax())


def top_n(scores: np.ndarray, n_sel: int) -> list[int]:
    """The `n_sel` nodes of highest score, ties broken by ascending id: scores in the tie band
    (scale: the largest magnitude) of the largest one left count as tied.  Scores must be finite."""
    if not 1 <= n_sel <= len(scores):
        raise ValueError(f"n_sel must be in 1..{len(scores)}, got {n_sel}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores to rank must be finite")
    scale = float(np.abs(scores).max())
    left = np.ones(len(scores), dtype=bool)
    picks = []
    for _ in range(n_sel):
        picks.append(smallest_in_band(scores, float(scores[left].max()), scale, left))
        left[picks[-1]] = False
    return picks


def degree_top_n(g: Graph, n_sel: int) -> list[int]:
    """Nodes by descending weighted degree, ties within the band broken by ascending id."""
    return top_n(g.degrees(), n_sel)
