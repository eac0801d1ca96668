"""Command-line interface: gen | select | tune | compare | spectrum.

All randomness flows from --seed (fixed default 0), so identical command lines produce
byte-identical outputs at a fixed BLAS thread count on one machine.  Another thread count
moves the last bits of the floats computed from the eigenbasis and the kernel (PageRank and
degrees never call BLAS), and for tune more: a grid point's score can switch between finite
and +inf, and a finite score moved by up to 23% on the measured graphs.  The greedy's tie
band keeps the selected node lists equal on the measured cases.
Usage and input errors exit 1; numerical failures exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .baselines import DEFAULT_DAMPING, ICConfig
from .compare import METHODS, check_request, run_comparison, write_csv, write_report_csv
from .errors import KernelimError, NumericalError
from .gpr import check_sigma2
from .graphs import (
    GraphFormatError,
    LaplacianKind,
    generate_points_graph,
    laplacian,
    load_graph,
    read_float,
    read_int,
    save_graph,
)
from .kernels import (
    DEFAULT_CLAMP_FLOOR,
    FAMILY_PARAMETERS,
    build_kernel,
    check_clamp_floor,
    check_kernel_params,
    clamp_spectrum,
    kernel_matrix,
    parse_kernel_spec,  # noqa: F401  (unused; perfbench's spans look it up here until ROADMAP item 2)
    read_kernel_spec,
)
from .pgreedy import DEFAULT_TOLERANCE, SelectorConfig, select_nodes
from .plots import check_positions, selection_svg
from .spectral import eigendecompose
from .tuning import CV_METRICS, CvSpec, check_folds, grid_search, log_grid

# Default lo:hi:count grid of every tunable parameter; each gets a --NAME-grid flag.
DEFAULT_GRIDS = {
    "t": "-1e2:-1e-2:25",
    "eps": "1e-16:1e0:25",
    "s": "-1e1:-1e-1:25",
}


class _Parser(argparse.ArgumentParser):
    # usage problems take main's one error path: "kernelim: error: tune: ...", exit 1
    def error(self, message):
        command = self.prog.partition(" ")[2]
        raise ValueError(f"{command}: {message}" if command else message)


GRID_FLAGS = tuple(f"--{name}-grid" for name in DEFAULT_GRIDS)


def _fuse_grid_flags(argv):
    # "--s-grid -1e1:-1e-1:25" would read as a flag followed by an option;
    # rewrite the pair as "--s-grid=-1e1:-1e-1:25" so argparse accepts it.
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in GRID_FLAGS and i + 1 < len(argv):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid {text!r} must look like lo:hi:count")
    grid = read_float(parts[0]), read_float(parts[1]), read_int(parts[2])
    log_grid(*grid)  # refuse a bad grid before the graph is read
    return grid


def _spectrum(graph, args):
    kind = LaplacianKind.parse(args.laplacian)
    return eigendecompose(laplacian(graph, kind)), kind


def _read_kernel(args):
    # every check of --kernel and --clamp-spectrum that needs no graph
    family, params = read_kernel_spec(args.kernel)
    if args.clamp_spectrum is not None:
        check_clamp_floor(args.clamp_spectrum)
    return family, params


def _kernel(args, family, params, spectrum):
    kern = build_kernel(family, params, spectrum)
    return kern if args.clamp_spectrum is None else clamp_spectrum(kern, args.clamp_spectrum)


# The output flags by argparse dest; each names a file that a command writes after its work.
OUTPUT_FLAGS = {"out": "-o", "meta": "--meta", "table": "--table", "svg": "--svg", "vectors": "--vectors"}


def _check_outputs(args) -> None:
    # refuse, before the graph is read or built, an output that is a directory or sits
    # in a missing one, and two outputs naming one file (the second would replace the first)
    named = {}
    for dest, flag in OUTPUT_FLAGS.items():
        path = getattr(args, dest, None)
        if not path:
            continue
        if os.path.isdir(path):
            raise ValueError(f"{flag} {path}: is a directory")
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{flag} {path}: directory {os.path.dirname(path)} does not exist")
        if (other := named.setdefault(os.path.realpath(path), flag)) != flag:
            raise ValueError(f"{flag} {path}: names the same file as {other}")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path, payload) -> None:
    _write_text(path, json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n")


def cmd_gen(args) -> int:
    if args.kind == "sensor":
        graph = generate_points_graph(
            count=args.nodes,
            seed=args.seed,
            thin_radius=args.thin_radius,
            link_radius=args.link_radius,
        )
    else:
        if not args.points_file:
            raise ValueError("--kind points requires --points-file")
        points = []
        with open(args.points_file, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip().replace(",", " ")
                if not body:
                    continue
                tokens = body.split()
                if len(tokens) != 2:
                    raise GraphFormatError(f"{args.points_file}:{lineno}: expected 'x y'")
                points.append((read_float(tokens[0]), read_float(tokens[1])))
        graph = generate_points_graph(
            points=np.array(points),
            thin_radius=args.thin_radius,
            link_radius=args.link_radius,
        )
    save_graph(graph, args.out)
    print(f"wrote {args.out}: {graph.n} nodes, {graph.edge_count} edges")
    return 0


def cmd_select(args) -> int:
    initial = tuple(read_int(tok) for tok in args.initial.split(",")) if args.initial else ()
    config = SelectorConfig(budget=args.budget, initial=initial, tolerance=args.tol)
    family, params = _read_kernel(args)
    graph = load_graph(args.graph)
    if args.svg:
        check_positions(graph)
    config.check(graph.n)
    check_kernel_params(family, params, graph.n)
    spectrum, kind = _spectrum(graph, args)
    state = select_nodes(kernel_matrix(spectrum, _kernel(args, family, params, spectrum)), config)
    payload = {
        "nodes": state.chosen,
        "max_power": [rec.max_power for rec in state.history],
        "max_residual": [rec.max_residual for rec in state.history],
        "kernel": args.kernel,
        "laplacian": kind.value,
        "tolerance": args.tol,
    }
    _write_json(args.out, payload)
    if args.svg:
        _write_text(args.svg, selection_svg(graph, np.sqrt(np.maximum(state.p2, 0.0)), state.chosen))
    print(f"wrote {args.out}: {len(state.chosen)} nodes ({state.stop_reason})")
    return 0


def cmd_spectrum(args) -> int:
    graph = load_graph(args.graph)
    spectrum, _ = _spectrum(graph, args)
    eigenvalues = ([i, repr(float(lam))] for i, lam in enumerate(spectrum.eigenvalues))
    write_csv(args.out, ["index", "eigenvalue"], eigenvalues)
    if args.vectors:
        rows = ([repr(float(x)) for x in row] for row in spectrum.eigenvectors)
        write_csv(args.vectors, [f"u{k}" for k in range(spectrum.n)], rows)
    print(f"wrote {args.out}: {spectrum.n} eigenvalues")
    return 0


def cmd_tune(args) -> int:
    family = args.kernel
    grids = {}
    for name, default in DEFAULT_GRIDS.items():
        grids[name] = _parse_grid(getattr(args, f"{name}_grid") or default)
    spec = CvSpec(folds=args.folds, seed=args.seed, grids=grids, metric=args.cv_metric)
    check_sigma2(args.jitter)
    graph = load_graph(args.graph)
    check_folds(graph.n, args.folds)
    spectrum, kind = _spectrum(graph, args)
    result = grid_search(spectrum, family, spec, jitter=args.jitter)
    _write_json(
        args.out,
        {
            "family": family,
            "params": result.best_params,
            "score": result.best_score,
            "folds": args.folds,
            "seed": args.seed,
            "metric": args.cv_metric,
            "laplacian": kind.value,
        },
    )
    if args.table:
        names = sorted(result.table[0].params)
        rows = ([repr(row.params[p]) for p in names] + [repr(row.score)] for row in result.table)
        write_csv(args.table, names + ["score"], rows)
    print(f"wrote {args.out}: best {result.best_params} (score {result.best_score:.6g})")
    return 0


def cmd_compare(args) -> int:
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    cfg = ICConfig(p=args.ic_p, runs=args.ic_runs, master_seed=args.seed)
    family, params = _read_kernel(args)
    graph = load_graph(args.graph)
    check_request(graph.n, args.budget, methods, args.pr_damping, args.jitter, args.tol)
    check_kernel_params(family, params, graph.n)
    spectrum, kind = _spectrum(graph, args)
    report = run_comparison(
        graph,
        spectrum,
        _kernel(args, family, params, spectrum),
        budget=args.budget,
        ic_cfg=cfg,
        methods=methods,
        damping=args.pr_damping,
        tolerance=args.tol,
        jitter=args.jitter,
        laplacian=kind,
    )
    write_report_csv(report, args.out)
    if args.meta:
        _write_json(args.meta, report.metadata)
    for curve in report.curves:
        if curve.error is not None:
            print(f"method {curve.method} failed: {curve.error}", file=sys.stderr)
    print(f"wrote {args.out}: {len(methods)} methods, budget {args.budget}")
    return 0


def _add_common(sub, kernel=False, tol=False):
    sub.add_argument("--graph", required=True, help="graph file (JSON or edge list)")
    sub.add_argument(
        "--laplacian", default=LaplacianKind.STANDARD.value,
        choices=[kind.value for kind in LaplacianKind],
        help="Laplacian feeding the Fourier basis (default: %(default)s)",
    )
    if kernel:
        sub.add_argument(
            "--kernel", required=True,
            help="kernel spec, e.g. diffusion:t=-10 | spline:eps=0.01,s=-1 | custom:file=coeffs.csv",
        )
        sub.add_argument(
            "--clamp-spectrum", nargs="?", const=DEFAULT_CLAMP_FLOOR, default=None,
            type=read_float, metavar="FLOOR",
            help="replace spectral coefficients below FLOOR (default %(const)s) to force positive definiteness",
        )
    if tol:
        sub.add_argument(
            "--tol", type=read_float, default=DEFAULT_TOLERANCE, help="stopping tolerance (default %(default)s)"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kernelim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kernelim {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a graph", parents=[], description="Generate a point-cloud graph.")
    gen.add_argument("--kind", choices=["sensor", "points"], default="sensor")
    gen.add_argument("--nodes", type=read_int, default=79, help="node count for --kind sensor")
    gen.add_argument("--seed", type=read_int, default=0)
    gen.add_argument("--points-file", help="x y per line, for --kind points")
    gen.add_argument("--thin-radius", type=read_float, default=0.0)
    gen.add_argument("--link-radius", type=read_float, default=0.2)
    gen.add_argument("-o", "--out", required=True)
    gen.set_defaults(func=cmd_gen)

    sel = subs.add_parser("select", help="greedy influential-node selection")
    _add_common(sel, kernel=True, tol=True)
    sel.add_argument("--budget", type=read_int, required=True)
    sel.add_argument("--initial", default="", help="comma-separated warm-start node ids")
    sel.add_argument("--svg", help="optional SVG scatter colored by final standard deviation")
    sel.add_argument("-o", "--out", required=True)
    sel.set_defaults(func=cmd_select)

    spec = subs.add_parser("spectrum", help="dump Laplacian eigenvalues")
    _add_common(spec)
    spec.add_argument("--vectors", help="optional CSV for the eigenvector matrix")
    spec.add_argument("-o", "--out", required=True)
    spec.set_defaults(func=cmd_spectrum)

    tune = subs.add_parser("tune", help="cross-validated kernel parameter search")
    _add_common(tune)
    tune.add_argument("--kernel", required=True, choices=list(FAMILY_PARAMETERS), help="kernel family")
    for flag, default in zip(GRID_FLAGS, DEFAULT_GRIDS.values()):
        tune.add_argument(flag, help=f"lo:hi:count (default {default})")
    tune.add_argument("--folds", type=read_int, default=5)
    tune.add_argument("--seed", type=read_int, default=0)
    tune.add_argument("--cv-metric", choices=CV_METRICS, default=CV_METRICS[0])
    tune.add_argument("--jitter", type=read_float, default=0.0, help="diagonal regularization for CV solves")
    tune.add_argument("--table", help="optional CSV score table")
    tune.add_argument("-o", "--out", required=True)
    tune.set_defaults(func=cmd_tune)

    cmp_ = subs.add_parser("compare", help="compare selection methods on shared metrics")
    _add_common(cmp_, kernel=True, tol=True)
    cmp_.add_argument("--budget", type=read_int, required=True)
    cmp_.add_argument("--methods", default=",".join(METHODS), help=f"comma list from {list(METHODS)}")
    cmp_.add_argument("--ic-p", type=read_float, default=0.2)
    cmp_.add_argument("--ic-runs", type=read_int, default=500)
    cmp_.add_argument("--seed", type=read_int, default=0)
    cmp_.add_argument("--pr-damping", type=read_float, default=DEFAULT_DAMPING)
    cmp_.add_argument("--jitter", type=read_float, default=0.0)
    cmp_.add_argument("--meta", help="optional metadata JSON path")
    cmp_.add_argument("-o", "--out", required=True)
    cmp_.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_fuse_grid_flags(argv))
        _check_outputs(args)
        return args.func(args)
    except SystemExit:  # --help and --version
        return 0
    except NumericalError as exc:
        print(f"kernelim: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (KernelimError, ValueError, OSError) as exc:
        print(f"kernelim: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy names the size it could not allocate
        print(f"kernelim: error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
