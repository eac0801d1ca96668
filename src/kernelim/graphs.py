"""Weighted undirected graphs: construction, file I/O, point-cloud generation, Laplacians."""

from __future__ import annotations

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
    """Simple undirected graph with strictly positive edge weights.

    Nodes are dense integers 0..n-1.  When a file used other identifiers,
    `labels` maps each dense id back to the original token.  The (u, v, w)
    triples of `edges` are stored as three read-only arrays sorted by (u, v):
    `u` and `v` (int64, u < v) and `w` (float64).
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
        if positions is not None and (positions := np.asarray(positions, dtype=float)).shape != (n, 2):
            raise GraphFormatError(f"positions must have shape ({n}, 2), got {positions.shape}")
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
    range, self-loop, weight, duplicate.  Ids are compared as Python ints."""
    rec = np.array(edges, dtype=object).reshape(len(edges), 3)
    ids = np.frompyfunc(int, 1, 1)(rec[:, :2])
    w = rec[:, 2].astype(float)
    inside = ((ids >= 0) & (ids < n)).all(axis=1)
    lo, hi = np.sort(np.where(inside[:, None], ids, 0).astype(np.int64), axis=1).T
    key = lo * n + hi
    order = np.argsort(key, kind="stable")
    repeat = np.zeros(len(key), dtype=bool)  # an earlier record joins the same pair
    repeat[order[1:]] = np.diff(key[order]) == 0
    bad = np.stack([~inside, lo == hi, ~((w > 0) & np.isfinite(w)), repeat])
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        a, b = ids[i]
        raise GraphFormatError([
            f"edge ({a},{b}) references a node outside 0..{n - 1}",
            f"self-loop on node {a} is not allowed",
            f"edge ({a},{b}) has non-positive weight {float(w[i])}",
            f"duplicate edge ({lo[i]},{hi[i]})",
        ][bad[:, i].argmax()])
    return lo[order], hi[order], w[order]


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
    nodes = doc["nodes"]
    _check_records(nodes, "node", ("id",))
    _check_records(doc["edges"], "edge", ("u", "v"))
    n = len(nodes)
    ids = [_json_int(m["id"], f"node record {i}: id") for i, m in enumerate(nodes)]
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
            positions[v] = [_json_number(c, f"node {v}: 'pos' entry") for c in pos]
    labels = None
    if any("label" in m for m in nodes):
        labels = [m.get("label", m["id"]) for _, m in sorted(zip(ids, nodes))]  # ids are distinct
    edges = [
        (_json_int(e["u"], f"edge record {i}: u"), _json_int(e["v"], f"edge record {i}: v"),
         _json_number(e.get("w", 1.0), f"edge record {i}: weight"))
        for i, e in enumerate(doc["edges"])
    ]
    return Graph(n=n, edges=edges, positions=positions, labels=labels)


def _json_number(value, what: str) -> float:
    """A finite JSON number, or a string holding one, as a float."""
    if isinstance(value, (int, float, str)) and not isinstance(value, bool):
        try:
            if math.isfinite(out := read_float(value)):
                return out
        except (ValueError, OverflowError):
            pass
    raise GraphFormatError(f"{what} {json.dumps(value)} is not a finite number")


def _json_int(value, what: str) -> int:
    """An integer or a string holding one (`_check_records` admits only these)."""
    try:
        return read_int(value)
    except ValueError:
        raise GraphFormatError(f"{what} {value!r} is not an integer") from None


def _check_records(records, kind: str, keys: tuple[str, ...]) -> None:
    if not isinstance(records, list):
        raise GraphFormatError(f"graph JSON '{kind}s' must be an array")
    for i, rec in enumerate(records):
        # type(), not isinstance(): JSON true and false load as bool, an int subclass
        if not isinstance(rec, dict) or any(type(rec.get(k)) not in (int, str) for k in keys):
            fields = " and ".join(repr(k) for k in keys)
            raise GraphFormatError(f"{kind} record {i} must be an object with integer {fields}")


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
    """Canonical JSON serialization (stable byte-for-byte for equal graphs)."""
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
