"""Minimal self-contained SVG scatter plots (no plotting dependency)."""

from __future__ import annotations

import numpy as np

from .graphs import Graph

# Five-stop dark-blue -> yellow ramp, interpolated linearly.
_RAMP = (
    (68, 1, 84),
    (59, 82, 139),
    (33, 145, 140),
    (94, 201, 98),
    (253, 231, 37),
)

# Canvas side and border, and node radius, in SVG user units.
_SIZE = 640
_MARGIN = 30
_RADIUS = 5.0


def _color(t: float) -> str:
    t = min(max(t, 0.0), 1.0)
    pos = t * (len(_RAMP) - 1)
    i = min(int(pos), len(_RAMP) - 2)
    frac = pos - i
    r, g, b = (
        round(a + (b2 - a) * frac) for a, b2 in zip(_RAMP[i], _RAMP[i + 1])
    )
    return f"rgb({r},{g},{b})"


def check_positions(graph: Graph) -> None:
    if graph.positions is None:
        raise ValueError("graph has no node positions; nothing to plot")


def selection_svg(graph: Graph, values: np.ndarray, chosen=()) -> str:
    """Scatter of node positions colored by `values`, chosen nodes circled."""
    check_positions(graph)
    values = np.asarray(values, dtype=float)
    pos = graph.positions
    lo = pos.min(axis=0)
    span = np.maximum(pos.max(axis=0) - lo, 1e-30)
    scale = (_SIZE - 2 * _MARGIN) / span.max()
    vmax = max(float(values.max()), 1e-30)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="0 0 {_SIZE} {_SIZE}">',
        f'<rect width="{_SIZE}" height="{_SIZE}" fill="white"/>',
    ]
    chosen = set(int(v) for v in chosen)
    for i in range(graph.n):
        x = _MARGIN + (pos[i, 0] - lo[0]) * scale
        y = _SIZE - _MARGIN - (pos[i, 1] - lo[1]) * scale  # flip: SVG y grows downward
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{_RADIUS}" '
            f'fill="{_color(values[i] / vmax)}"/>'
        )
        if i in chosen:
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{_RADIUS + 2.5:.1f}" '
                f'fill="none" stroke="black" stroke-width="1.5"/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"

