"""Gaussian-process regression on graphs: coefficients, prediction, power function."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndefiniteKernelError, NotPositiveDefiniteError
from .kernels import GbfKernel, kernel_diag, kernel_matrix
from .spectral import Spectrum

# Negative posterior variances within this relative band are rounding noise
# and clamp to zero; anything more negative signals an indefinite kernel.
ROUNDOFF_BAND = 1e-10


def check_sigma2(sigma2: float) -> None:
    if not 0 <= sigma2 < np.inf:
        raise ValueError("sigma2 must be nonnegative and finite")


def fit_coefficients(k_w: np.ndarray, y: np.ndarray, sigma2: float = 0.0) -> np.ndarray:
    """Solve (K_W + sigma^2 I) c = y via Cholesky (no explicit inverse); a
    failed factorization is NotPositiveDefiniteError.

    The caller's matrix is copied once, into the Fortran order in which LAPACK
    factors it in place; no identity, sum or further copy is built.
    """
    import scipy.linalg  # on first use: only the solves need scipy

    check_sigma2(sigma2)
    a = np.array(k_w, dtype=float, order="F")
    if sigma2:
        a[np.diag_indices_from(a)] += sigma2
    try:
        factor = scipy.linalg.cho_factor(a, lower=True, overwrite_a=True)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            "kernel submatrix is not positive definite; "
            "consider --jitter or --clamp-spectrum"
        ) from None
    return scipy.linalg.cho_solve(factor, np.asarray(y, dtype=float))


@dataclass(frozen=True)
class GprModel:
    """Zero-mean GP regressor fitted on a sampling set."""

    nodes: tuple[int, ...]
    coefficients: np.ndarray
    sigma2: float
    kernel: GbfKernel
    values: np.ndarray

    def __post_init__(self):
        check_sampling_set(self.nodes)


def check_sampling_set(nodes) -> None:
    if len(nodes) != len(set(nodes)) or len(nodes) < 1:
        raise ValueError("sampling set must be nonempty with distinct nodes")


def fit(spectrum: Spectrum, kernel: GbfKernel, nodes, values, sigma2: float = 0.0) -> GprModel:
    nodes = tuple(int(v) for v in nodes)
    check_sampling_set(nodes)  # before the solve, which fails on a repeated node at sigma2 = 0
    values = np.asarray(values, dtype=float)
    k_w = kernel_matrix(spectrum, kernel, nodes, nodes)
    coeff = fit_coefficients(k_w, values, sigma2)
    return GprModel(nodes=nodes, coefficients=coeff, sigma2=float(sigma2), kernel=kernel, values=values)


def predict(model: GprModel, spectrum: Spectrum) -> np.ndarray:
    """Posterior mean at every node."""
    return kernel_matrix(spectrum, model.kernel, None, list(model.nodes)) @ model.coefficients


def power_direct(spectrum: Spectrum, kernel: GbfKernel, sampling_set, sigma2: float = 0.0) -> np.ndarray:
    """Posterior standard deviation at every node from the explicit
    Schur-complement formula.

    `sampling_set` may be empty, in which case the value is sqrt(K(v, v)).
    """
    nodes = [int(v) for v in sampling_set]
    diag = kernel_diag(spectrum, kernel)
    p2 = diag.copy()
    if nodes:
        k_w = kernel_matrix(spectrum, kernel, nodes, nodes)
        cross = kernel_matrix(spectrum, kernel, None, nodes)
        p2 -= np.sum(cross * fit_coefficients(k_w, cross.T, sigma2).T, axis=1)
        if sigma2 == 0.0:
            # At sampled nodes the cross-covariance is a column of K_W, so the
            # Schur complement vanishes identically; write the exact zero.
            p2[nodes] = 0.0
    scale = np.maximum(np.abs(diag), np.finfo(float).tiny)
    if np.any(p2 < -ROUNDOFF_BAND * scale):
        worst = int(np.argmin(p2 / scale))
        raise IndefiniteKernelError(
            f"squared power {p2[worst]:.3e} at node {worst} is below the rounding band; "
            "the kernel is not positive definite"
        )
    return np.sqrt(np.maximum(p2, 0.0))
