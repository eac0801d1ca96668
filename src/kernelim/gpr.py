"""Gaussian-process regression on graphs: coefficients, prediction, power function."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import IndefiniteKernelError, NotPositiveDefiniteError
from .kernels import GbfKernel, kernel_diag, kernel_matrix
from .spectral import Spectrum

# Negative posterior variances within this relative band are rounding noise
# and clamp to zero; anything more negative signals an indefinite kernel.
ROUNDOFF_BAND = 1e-10


def _cho_factor(k_w: np.ndarray, sigma2: float):
    """Lower Cholesky factor of K_W + sigma^2 I; a failed factorization is NotPositiveDefiniteError."""
    if not 0 <= sigma2 < np.inf:
        raise ValueError("sigma2 must be nonnegative and finite")
    try:
        return scipy.linalg.cho_factor(k_w + sigma2 * np.eye(k_w.shape[0]), lower=True)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "kernel submatrix is not positive definite; "
            "consider --jitter or --clamp-spectrum"
        ) from None


def fit_coefficients(k_w: np.ndarray, y: np.ndarray, sigma2: float = 0.0) -> np.ndarray:
    """Solve (K_W + sigma^2 I) c = y via Cholesky (no explicit inverse)."""
    k_w = np.asarray(k_w, dtype=float)
    y = np.asarray(y, dtype=float)
    return scipy.linalg.cho_solve(_cho_factor(k_w, sigma2), y)


@dataclass(frozen=True)
class GprModel:
    """Zero-mean GP regressor fitted on a sampling set."""

    nodes: tuple[int, ...]
    coefficients: np.ndarray
    sigma2: float
    kernel: GbfKernel
    values: np.ndarray

    def __post_init__(self):
        if len(self.nodes) != len(set(self.nodes)) or len(self.nodes) < 1:
            raise ValueError("sampling set must be nonempty with distinct nodes")


def fit(spectrum: Spectrum, kernel: GbfKernel, nodes, values, sigma2: float = 0.0) -> GprModel:
    nodes = tuple(int(v) for v in nodes)
    values = np.asarray(values, dtype=float)
    k_w = kernel_matrix(spectrum, kernel, nodes, nodes)
    coeff = fit_coefficients(k_w, values, sigma2)
    return GprModel(nodes=nodes, coefficients=coeff, sigma2=float(sigma2), kernel=kernel, values=values)


def predict(model: GprModel, spectrum: Spectrum, at=None):
    """Posterior mean at one node (int) or at every node (None)."""
    cross = kernel_matrix(spectrum, model.kernel, at if at is None else [at], list(model.nodes))
    out = cross @ model.coefficients
    return out if at is None else float(out[0])


def power_direct(
    spectrum: Spectrum,
    kernel: GbfKernel,
    sampling_set,
    sigma2: float = 0.0,
    at=None,
):
    """Posterior standard deviation from the explicit Schur-complement formula.

    `sampling_set` may be empty, in which case the value is sqrt(K(v, v)).
    Returns a vector over all nodes (at=None) or a scalar for a single node.
    """
    nodes = [int(v) for v in sampling_set]
    rows = None if at is None else [int(at)]
    diag = kernel_diag(spectrum, kernel) if rows is None else np.array(
        [kernel_matrix(spectrum, kernel, rows, rows)[0, 0]]
    )
    if nodes:
        k_w = kernel_matrix(spectrum, kernel, nodes, nodes)
        cross = kernel_matrix(spectrum, kernel, rows, nodes)
        cho = _cho_factor(k_w, sigma2)
        p2 = diag - np.sum(cross * scipy.linalg.cho_solve(cho, cross.T).T, axis=1)
        if sigma2 == 0.0:
            # At sampled nodes the cross-covariance is a column of K_W, so the
            # Schur complement vanishes identically; write the exact zero.
            for w in nodes:
                if rows is None:
                    p2[w] = 0.0
                elif rows[0] == w:
                    p2[0] = 0.0
    else:
        p2 = diag.copy()
    scale = np.maximum(np.abs(diag), np.finfo(float).tiny)
    if np.any(p2 < -ROUNDOFF_BAND * scale):
        worst = int(np.argmin(p2 / scale))
        raise IndefiniteKernelError(
            f"squared power {p2[worst]:.3e} at node {worst} is below the rounding band; "
            "the kernel is not positive definite"
        )
    out = np.sqrt(np.maximum(p2, 0.0))
    return out if at is None else float(out[0])
