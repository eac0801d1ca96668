"""Laplacian eigendecomposition and graph Fourier transform."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricError, SolverError

SIGN_ZERO_THRESHOLD = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition L = U diag(eigenvalues) U^T of a graph Laplacian.

    Eigenvalues are ascending; column k of `eigenvectors` is the orthonormal
    eigenvector for eigenvalue k (the k-th graph Fourier mode).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


def _fix_signs(u: np.ndarray) -> np.ndarray:
    # First entry above the zero threshold is made positive so repeated runs
    # produce identical bases.  Row 0 settles almost every column; only those
    # whose row-0 entry is within the threshold are scanned further down.  A
    # C-ordered u is flipped in place and returned; any other is copied to C
    # order first.  Multiplying by -1.0 is exact negation (-0.0 included).
    lead = u[0].copy()
    flat = ~((lead > SIGN_ZERO_THRESHOLD) | (lead < -SIGN_ZERO_THRESHOLD))
    if flat.any():
        rest = u[:, flat]
        big = (rest > SIGN_ZERO_THRESHOLD) | (rest < -SIGN_ZERO_THRESHOLD)
        first = big.argmax(axis=0)  # 0 for a column with no entry above the threshold
        cols = np.arange(rest.shape[1])
        lead[flat] = np.where(big[first, cols], rest[first, cols], 0.0)
    u = np.ascontiguousarray(u)
    u *= np.where(lead < 0, -1.0, 1.0)
    return u


def eigendecompose(lap: np.ndarray) -> Spectrum:
    """Full dense eigendecomposition with a deterministic sign convention.

    LAPACK's divide-and-conquer driver reads the upper triangle of `lap`
    (the lower triangle of its transpose) from numpy's own copy, so `lap`
    is left as it was.  A non-finite eigenvalue is a SolverError.
    """
    lap = np.asarray(lap, dtype=float)
    if lap.ndim != 2 or lap.shape[0] != lap.shape[1] or lap.shape[0] == 0:
        raise NotSymmetricError(f"expected a non-empty square matrix, got shape {lap.shape}")
    peak = float(np.max(np.abs(lap)))  # NaN if any entry is NaN
    if not np.isfinite(peak):
        i, j = np.argwhere(~np.isfinite(lap))[0]
        raise NotSymmetricError(f"matrix entry ({i}, {j}) is not finite ({lap[i, j]})")
    scale = max(1.0, peak)
    if float(np.max(np.abs(lap - lap.T))) > 1e-10 * scale:
        raise NotSymmetricError("matrix is not symmetric within 1e-10")
    try:
        lam, u = np.linalg.eigh(lap.T)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"dense symmetric eigensolver failed: {exc}") from None
    if not np.all(np.isfinite(lam)):
        k = int(np.argmax(~np.isfinite(lam)))
        raise SolverError(f"eigensolver returned a non-finite eigenvalue at index {k} ({lam[k]})")
    return Spectrum(eigenvalues=lam, eigenvectors=_fix_signs(u))


def gft(s: Spectrum, x: np.ndarray, direction: str = "forward") -> np.ndarray:
    """Graph Fourier transform U^T x (forward) or its inverse U x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (s.n,):
        raise ValueError(f"signal length {x.shape} does not match n={s.n}")
    if direction == "forward":
        return s.eigenvectors.T @ x
    if direction == "inverse":
        return s.eigenvectors @ x
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
