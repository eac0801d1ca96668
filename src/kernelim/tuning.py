"""Kernel parameter selection by k-fold cross-validation over log-spaced grids."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import KernelimError, NotPositiveDefiniteError
from .gpr import fit_coefficients
from .kernels import FAMILY_PARAMETERS, build_kernel, kernel_matrix
from .spectral import Spectrum

CV_METRICS = ("mae", "rmse")  # the first is the default


def log_grid(lo: float, hi: float, count: int) -> np.ndarray:
    """`count` logarithmically equally spaced values from lo to hi.

    Both endpoints must be finite, nonzero and share a sign; the sign is
    preserved and the endpoints are returned exactly.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError(f"grid endpoints must be finite, got [{lo}, {hi}]")
    if lo == 0 or hi == 0 or (lo > 0) != (hi > 0):
        raise ValueError(f"grid endpoints must be nonzero with equal signs, got [{lo}, {hi}]")
    return np.geomspace(lo, hi, count)


def check_folds(n: int, folds: int) -> None:
    if not 2 <= folds <= n:
        raise ValueError(f"folds must be in 2..{n}, got {folds}")


def kfold_partition(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Seeded partition of 0..n-1 into `folds` parts with sizes differing by at most 1."""
    check_folds(n, folds)
    perm = np.random.default_rng(seed).permutation(n)
    return [np.sort(part) for part in np.array_split(perm, folds)]


@dataclass(frozen=True)
class CvSpec:
    """Cross-validation setup: fold count, seed, per-parameter (lo, hi, count) grids."""

    folds: int
    seed: int
    grids: dict
    target: np.ndarray | None = None   # defaults to the constant-1 signal
    metric: str = CV_METRICS[0]

    def __post_init__(self):
        if self.metric not in CV_METRICS:
            choices = " or ".join(repr(m) for m in CV_METRICS)
            raise ValueError(f"metric must be {choices}, got {self.metric!r}")


@dataclass(frozen=True)
class GridPointScore:
    params: dict
    score: float
    fold_errors: tuple[float, ...]


@dataclass(frozen=True)
class CvResult:
    best_params: dict
    best_score: float
    table: tuple[GridPointScore, ...] = field(repr=False)


def _target(spec: CvSpec, n: int) -> np.ndarray:
    if spec.target is None:
        return np.ones(n)
    t = np.asarray(spec.target, dtype=float)
    if t.shape != (n,):
        raise ValueError(f"target signal must have length {n}")
    return t


def _point_scorer(spectrum: Spectrum, family: str, spec: CvSpec, jitter: float):
    """Scorer of one search: parameter point -> GridPointScore.

    The fold training sets and the target are built once, here.  Unusable
    points (singular, indefinite, overflowing, or failing to factorize) score
    +inf with no fold errors.
    """
    folds = kfold_partition(spectrum.n, spec.folds, spec.seed)
    trains = [np.setdiff1d(np.arange(spectrum.n), fold) for fold in folds]
    target = _target(spec, spectrum.n)

    def score(params: dict) -> GridPointScore:
        unusable = GridPointScore(params=params, score=float("inf"), fold_errors=())
        try:
            k = kernel_matrix(spectrum, build_kernel(family, params, spectrum))
        except KernelimError:
            return unusable
        errors = []
        for train in trains:
            rows = k[train]  # K is exactly symmetric: these rows are also its columns
            try:
                coeff = fit_coefficients(rows[:, train], target[train], sigma2=jitter)
            except NotPositiveDefiniteError:
                return unusable
            resid = target - coeff @ rows
            err = float(np.mean(np.abs(resid)) if spec.metric == "mae" else np.sqrt(np.mean(resid**2)))
            if not np.isfinite(err):
                return unusable
            errors.append(err)
        return GridPointScore(params=params, score=float(np.mean(errors)), fold_errors=tuple(errors))

    return score


def cv_error(spectrum: Spectrum, family: str, params: dict, spec: CvSpec, jitter: float = 0.0) -> float:
    """Mean error of sigma=0 fold-complement interpolants of the target signal.

    Every fold in turn is held out: the interpolant is fitted on the remaining
    nodes and the error is measured over the entire graph.  Unusable parameter
    points score +inf instead of raising.
    """
    return _point_scorer(spectrum, family, spec, jitter)(params).score


def grid_search(spectrum: Spectrum, family: str, spec: CvSpec, jitter: float = 0.0) -> CvResult:
    """Evaluate cv_error over the full Cartesian grid and return the argmin.

    Grid points iterate in row-major order over the family's documented
    parameter order; the first minimum wins ties.
    """
    if family not in FAMILY_PARAMETERS:
        raise ValueError(f"grid search supports {sorted(FAMILY_PARAMETERS)}, not {family!r}")
    names = FAMILY_PARAMETERS[family]
    missing = [p for p in names if p not in spec.grids]
    if missing:
        raise ValueError(f"missing grid for parameter(s) {missing}")
    axes = [log_grid(*spec.grids[p]) for p in names]
    score = _point_scorer(spectrum, family, spec, jitter)
    table = tuple(score(dict(zip(names, map(float, values)))) for values in itertools.product(*axes))
    best = min(table, key=lambda row: row.score)
    if not np.isfinite(best.score):
        raise KernelimError("every grid point failed; nothing to select")
    return CvResult(best_params=dict(best.params), best_score=best.score, table=table)
