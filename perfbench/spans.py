"""In-memory spans around kernelim's public functions, installed from outside.

A `Tracer` replaces a function at the module attribute where its caller looks
it up (e.g. `kernelim.cli.eigendecompose`), records one span per call and puts
the original back when the traced block ends.  Spans are plain dicts, kept in
memory and written out by the caller once the run is over.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

# (module, attribute, span name).  The module is where the caller looks the
# function up, so one library function can appear at several call sites.
TARGETS = (
    ("kernelim.cli", "generate_points_graph", "graphs.generate_points_graph"),
    ("kernelim.cli", "save_graph", "graphs.save_graph"),
    ("kernelim.cli", "load_graph", "graphs.load_graph"),
    ("kernelim.cli", "laplacian", "graphs.laplacian"),
    ("kernelim.cli", "eigendecompose", "spectral.eigendecompose"),
    ("kernelim.cli", "parse_kernel_spec", "kernels.parse_kernel_spec"),
    ("kernelim.cli", "select_nodes", "pgreedy.select_nodes"),
    ("kernelim.cli", "grid_search", "tuning.grid_search"),
    ("kernelim.cli", "run_comparison", "compare.run_comparison"),
    ("kernelim.cli", "write_report_csv", "compare.write_report_csv"),
    ("kernelim.pgreedy", "power_update_step", "pgreedy.power_update_step"),
    ("kernelim.pgreedy", "kernel_column", "kernels.kernel_column"),
    ("kernelim.pgreedy", "kernel_diag", "kernels.kernel_diag"),
    ("kernelim.compare", "select_nodes", "pgreedy.select_nodes"),
    ("kernelim.compare", "ic_greedy_select", "baselines.ic_greedy_select"),
    ("kernelim.compare", "ic_score", "baselines.ic_score"),
    ("kernelim.compare", "pagerank_top_n", "baselines.pagerank_top_n"),
    ("kernelim.compare", "degree_top_n", "graphs.degree_top_n"),
    ("kernelim.compare", "power_direct", "gpr.power_direct"),
    ("kernelim.gpr", "kernel_matrix", "kernels.kernel_matrix"),
    ("kernelim.gpr", "kernel_diag", "kernels.kernel_diag"),
    ("kernelim.tuning", "kernel_matrix", "kernels.kernel_matrix"),
    ("kernelim.tuning", "fit_coefficients", "gpr.fit_coefficients"),
    ("kernelim.tuning", "build_kernel", "kernels.build_kernel"),
)


class Tracer:
    """Span recorder for one process; spans share the tracer's run id."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[dict] = []
        self.missing: list[str] = []   # targets absent from this version of the code
        self._stack: list[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the currently open one."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
        )

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"name": name, "start": self.clock(), "end": None, "parent": parent, "run": self.run_id}
        )
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx]["end"] = self.clock()

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets=TARGETS):
        """Wrap every target that exists; restore all originals on exit."""
        saved = []
        try:
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "missing": self.missing, "spans": self.spans}, fh)


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    out = []
    for idx, span in enumerate(spans):
        start, end = span["start"], span["end"]
        clipped = [
            (max(s, start), min(e, end)) for s, e in children.get(idx, ()) if e > start and s < end
        ]
        out.append((end - start) - covered(clipped))
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = out.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += self_s
    return out
