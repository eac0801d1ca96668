"""Graph basis function kernels defined by spectral (Mercer) coefficients.

Each kernel is a vector of coefficients over the Laplacian eigenbasis: entry
(v, w) of the kernel matrix is sum_k f_k u_k(v) u_k(w).  The kernel is positive
definite exactly when every coefficient is strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    ComplexPowerError,
    CoefficientOverflowError,
    IndefiniteKernelError,
    KernelSpecError,
    SplineSingularityError,
)
from .graphs import read_float
from .spectral import Spectrum, gft

DIFFUSION = "diffusion"
SPLINE = "spline"
CUSTOM = "custom"

# Real parameters of each analytic family, in spec and grid order; a custom
# kernel takes its coefficients from a file instead.
FAMILY_PARAMETERS = {DIFFUSION: ("t",), SPLINE: ("eps", "s")}

DEFAULT_CLAMP_FLOOR = 1e-14


@dataclass(frozen=True)
class GbfKernel:
    """Kernel family, its parameters, and the derived spectral coefficients."""

    family: str
    params: dict
    coefficients: np.ndarray

    @property
    def n(self) -> int:
        return self.coefficients.shape[0]

    @property
    def is_positive_definite(self) -> bool:
        return bool(np.min(self.coefficients) > 0)


def spectral_coefficients(family: str, params: dict, eigenvalues: np.ndarray) -> np.ndarray:
    """Coefficient vector of a kernel family evaluated on a Laplacian spectrum.

    diffusion: exp(-t * lambda_k); spline: (eps + lambda_k)^(-s).  Parameters
    are unrestricted reals subject to the singularity rules: a spline needs
    eps + lambda_k != 0 everywhere, and a strictly positive base whenever s is
    not an integer.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    check_kernel_params(family, params, lam.shape[0])
    if family == DIFFUSION:
        with np.errstate(over="ignore"):
            coeff = np.exp(-float(params["t"]) * lam)
    elif family == SPLINE:
        eps, s = float(params["eps"]), float(params["s"])
        base = eps + lam
        if np.any(base == 0.0):
            raise SplineSingularityError(
                f"eps + lambda vanishes at eigenvalue index {int(np.argmax(base == 0.0))}"
            )
        if not s.is_integer() and np.any(base < 0.0):
            raise ComplexPowerError(
                f"negative base eps + lambda with non-integer exponent s={s}"
            )
        with np.errstate(over="ignore"):
            coeff = np.power(base, -s)
    else:
        coeff = np.asarray(params["coefficients"], dtype=float).copy()
    if not np.all(np.isfinite(coeff)):
        raise CoefficientOverflowError(
            f"{family} coefficients overflowed for params {params}"
        )
    return coeff


def check_kernel_params(family: str, params: dict, n: int | None = None) -> None:
    """Refuse a kernel spec by every rule that needs no spectrum.

    The family must be known and its parameters finite; custom coefficients
    must be finite and, once the node count n is known, one per node.
    """
    if family in FAMILY_PARAMETERS:
        for key in FAMILY_PARAMETERS[family]:
            value = float(params[key])
            if not np.isfinite(value):
                raise KernelSpecError(f"kernel parameter {key}={value} is not finite")
    elif family == CUSTOM:
        coeff = np.asarray(params["coefficients"], dtype=float)
        if n is not None and coeff.shape != (n,):
            raise KernelSpecError(f"custom coefficients have length {coeff.shape[0]}, expected {n}")
        bad = ~np.isfinite(coeff)
        if bad.any():
            i = int(np.argmax(bad))
            raise KernelSpecError(f"custom coefficient {i} is not finite ({coeff[i]})")
    else:
        raise KernelSpecError(f"unknown kernel family {family!r}")


def build_kernel(family: str, params: dict, spectrum: Spectrum) -> GbfKernel:
    coeff = spectral_coefficients(family, params, spectrum.eigenvalues)
    stored = {k: v for k, v in params.items() if k != "coefficients"}
    return GbfKernel(family=family, params=stored, coefficients=coeff)


def diffusion_kernel(spectrum: Spectrum, t: float) -> GbfKernel:
    return build_kernel(DIFFUSION, {"t": float(t)}, spectrum)


def spline_kernel(spectrum: Spectrum, eps: float, s: float) -> GbfKernel:
    return build_kernel(SPLINE, {"eps": float(eps), "s": float(s)}, spectrum)


def custom_kernel(spectrum: Spectrum, coefficients) -> GbfKernel:
    return build_kernel(CUSTOM, {"coefficients": coefficients}, spectrum)


def check_clamp_floor(floor: float) -> None:
    if not 0 < floor < np.inf:
        raise ValueError("clamp floor must be positive and finite")


def clamp_spectrum(kernel: GbfKernel, floor: float = DEFAULT_CLAMP_FLOOR) -> GbfKernel:
    """Replace each coefficient by max(coefficient, floor).

    Makes an indefinite configuration usable as a covariance; the clamp floor
    is recorded in the kernel parameters.
    """
    check_clamp_floor(floor)
    clamped = np.maximum(kernel.coefficients, floor)
    return replace(
        kernel,
        params={**kernel.params, "clamp_floor": float(floor)},
        coefficients=clamped,
    )


def _check_nodes(nodes, n: int) -> np.ndarray:
    idx = np.asarray(nodes, dtype=int)
    if idx.ndim != 1:
        raise ValueError("node subset must be one-dimensional")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise ValueError(f"node id out of range 0..{n - 1}")
    return idx


def kernel_matrix(spectrum: Spectrum, kernel: GbfKernel, rows=None, cols=None) -> np.ndarray:
    """Kernel (sub)matrix from the Mercer sum; `None` selects all nodes.

    The full matrix needs a positive definite kernel: it is the Gram matrix
    V V^T of V = U * sqrt(f), which numpy runs as one symmetric rank update
    (syrk) and mirrors, so it is C-ordered and exactly symmetric and its row w
    is its column w.  A submatrix, for any kernel, is one general product.
    """
    u = spectrum.eigenvectors
    if rows is None and cols is None:
        if not kernel.is_positive_definite:
            raise IndefiniteKernelError(
                "the full kernel matrix needs a positive definite kernel; clamp the spectrum to proceed"
            )
        v = u * np.sqrt(kernel.coefficients)
        return v @ v.T
    ur = u if rows is None else u[_check_nodes(rows, spectrum.n)]
    uc = u if cols is None else u[_check_nodes(cols, spectrum.n)]
    return (ur * kernel.coefficients) @ uc.T


def kernel_column(spectrum: Spectrum, kernel: GbfKernel, w: int) -> np.ndarray:
    """Column w of the full kernel matrix, without materializing the matrix."""
    if not 0 <= w < spectrum.n:
        raise ValueError(f"node id {w} out of range 0..{spectrum.n - 1}")
    return spectrum.eigenvectors @ (kernel.coefficients * spectrum.eigenvectors[w])


def kernel_diag(spectrum: Spectrum, kernel: GbfKernel) -> np.ndarray:
    """Diagonal entries K(v, v) for every node."""
    return (spectrum.eigenvectors**2) @ kernel.coefficients


def rkhs_inner(kernel: GbfKernel, spectrum: Spectrum, x: np.ndarray, y: np.ndarray) -> float:
    """Native-space inner product sum_k x_k y_k / f_k (positive definite only)."""
    if not kernel.is_positive_definite:
        raise IndefiniteKernelError("native-space inner product needs all coefficients > 0")
    return float(np.sum(gft(spectrum, x) * gft(spectrum, y) / kernel.coefficients))


def rkhs_norm(kernel: GbfKernel, spectrum: Spectrum, x: np.ndarray) -> float:
    return float(np.sqrt(rkhs_inner(kernel, spectrum, x, x)))


def _parse_params(body: str, spec: str) -> dict:
    params = {}
    for part in body.split(","):
        if "=" not in part:
            raise KernelSpecError(f"bad kernel spec {spec!r}: expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key in params:
            raise KernelSpecError(f"bad kernel spec {spec!r}: repeated key {key!r}")
        params[key] = value.strip()
    return params


def read_kernel_spec(spec: str) -> tuple[str, dict]:
    """Family and parameters of a CLI/config string, checked without a spectrum.

    Formats: "diffusion:t=-10", "spline:eps=0.01,s=-1", "custom:file=coeffs.csv"
    (one coefficient per line in the file, read here into params["coefficients"]).
    """
    family, sep, body = spec.partition(":")
    family = family.strip().lower()
    if not sep or not body:
        raise KernelSpecError(f"bad kernel spec {spec!r}: expected 'family:key=value,...'")
    params = _parse_params(body, spec)
    expected = {**FAMILY_PARAMETERS, CUSTOM: ("file",)}.get(family)
    if expected is None:
        raise KernelSpecError(f"unknown kernel family {family!r}")
    if set(params) != set(expected):
        raise KernelSpecError(
            f"bad kernel spec {spec!r}: {family} takes exactly {sorted(expected)}"
        )
    try:
        if family != CUSTOM:
            params = {p: read_float(params[p]) for p in expected}
        else:
            with open(params["file"], "r", encoding="utf-8") as fh:
                params = {"coefficients": [read_float(line) for line in fh if line.strip()]}
    except (ValueError, OSError) as exc:
        raise KernelSpecError(f"bad kernel spec {spec!r}: {exc}") from None
    check_kernel_params(family, params)
    return family, params


def parse_kernel_spec(spec: str, spectrum: Spectrum) -> GbfKernel:
    """Build a kernel from a CLI/config string (formats as in `read_kernel_spec`)."""
    return build_kernel(*read_kernel_spec(spec), spectrum)


def format_kernel_spec(kernel: GbfKernel) -> str:
    """Spec string for report metadata (custom kernels render as 'custom:n=...').

    A clamped kernel also names its floor, e.g. 'diffusion:t=-10.0,clamp_floor=1e-14'.
    """
    if kernel.family not in FAMILY_PARAMETERS:
        body = f"n={kernel.n}"
    else:
        body = ",".join(f"{p}={kernel.params[p]!r}" for p in FAMILY_PARAMETERS[kernel.family])
    if "clamp_floor" in kernel.params:
        body += f",clamp_floor={kernel.params['clamp_floor']!r}"
    return f"{kernel.family}:{body}"
