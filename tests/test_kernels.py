import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelim import (
    GbfKernel,
    Graph,
    Spectrum,
    clamp_spectrum,
    custom_kernel,
    diffusion_kernel,
    eigendecompose,
    gft,
    kernel_column,
    kernel_diag,
    kernel_matrix,
    laplacian,
    parse_kernel_spec,
    spectral_coefficients,
    spline_kernel,
)
from kernelim.errors import (
    CoefficientOverflowError,
    ComplexPowerError,
    IndefiniteKernelError,
    KernelimError,
    KernelSpecError,
    SplineSingularityError,
)
from kernelim.kernels import check_kernel_params, read_kernel_spec

from helpers import expm_taylor, random_connected_graph

E2 = np.exp(-2.0)


def test_diffusion_t0_is_identity(path3_spectrum):
    kern = diffusion_kernel(path3_spectrum, 0.0)
    assert np.array_equal(kern.coefficients, np.ones(3))
    assert np.abs(kernel_matrix(path3_spectrum, kern) - np.eye(3)).max() <= 1e-10


def test_spline_coefficients_hand_values(two_node_spectrum):
    kern = spline_kernel(two_node_spectrum, eps=1.0, s=1.0)
    assert np.allclose(kern.coefficients, [1.0, 1.0 / 3.0])
    k = kernel_matrix(two_node_spectrum, kern)
    assert np.allclose(k, [[2 / 3, 1 / 3], [1 / 3, 2 / 3]], atol=1e-12)


def test_diffusion_coefficients_hand_values(two_node_spectrum):
    kern = diffusion_kernel(two_node_spectrum, 1.0)
    assert np.allclose(kern.coefficients, [1.0, E2])
    k = kernel_matrix(two_node_spectrum, kern)
    assert abs(k[0, 0] - (1 + E2) / 2) <= 1e-12
    assert abs(k[0, 1] - (1 - E2) / 2) <= 1e-12


def test_spline_singularity_rejected(two_node_spectrum):
    with pytest.raises(SplineSingularityError):
        spline_kernel(two_node_spectrum, eps=0.0, s=1.0)   # eps + lambda_1 = 0
    with pytest.raises(SplineSingularityError):
        spline_kernel(two_node_spectrum, eps=-2.0, s=2.0)  # eps + lambda_2 = 0


def test_spline_complex_power_rejected(two_node_spectrum):
    with pytest.raises(ComplexPowerError):
        spline_kernel(two_node_spectrum, eps=-0.5, s=0.5)


def test_spline_negative_base_integer_exponent_allowed(two_node_spectrum):
    kern = spline_kernel(two_node_spectrum, eps=-0.5, s=-1.0)  # coefficients eps + lambda
    assert np.allclose(kern.coefficients, [-0.5, 1.5])
    assert not kern.is_positive_definite


def test_tuned_negative_eps_configuration(two_node_spectrum):
    # eps = -2.15e-11 with s = -1 gives a negative first coefficient: the
    # kernel is constructible but indefinite until clamped.
    kern = spline_kernel(two_node_spectrum, eps=-2.15e-11, s=-1.0)
    assert kern.coefficients[0] < 0
    assert not kern.is_positive_definite
    clamped = clamp_spectrum(kern)
    assert clamped.is_positive_definite
    assert clamped.coefficients[0] == 1e-14
    assert clamped.params["clamp_floor"] == 1e-14


@pytest.mark.parametrize("floor", [0.0, -1e-14, float("nan"), float("inf")])
def test_clamp_floor_must_be_positive_and_finite(two_node_spectrum, floor):
    with pytest.raises(ValueError, match="clamp floor must be positive and finite"):
        clamp_spectrum(diffusion_kernel(two_node_spectrum, -1.0), floor)


def test_diffusion_overflow_rejected(two_node_spectrum):
    with pytest.raises(CoefficientOverflowError):
        diffusion_kernel(two_node_spectrum, -500.0)  # exp(1000) overflows


def test_pd_flag_examples(two_node_spectrum, path3_spectrum):
    assert diffusion_kernel(two_node_spectrum, 13.7).is_positive_definite
    assert diffusion_kernel(two_node_spectrum, -13.7).is_positive_definite
    assert not custom_kernel(path3_spectrum, [1.0, 0.0, 2.0]).is_positive_definite
    assert spline_kernel(two_node_spectrum, eps=1.0, s=1.0).is_positive_definite


def test_pd_flag_matches_kernel_matrix_eigenvalues():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_connected_graph(rng, int(rng.integers(3, 31)))
        s = eigendecompose(laplacian(g))
        coeff = rng.uniform(-0.5, 1.0, size=g.n)
        kern = custom_kernel(s, coeff)
        k = (s.eigenvectors * coeff) @ s.eigenvectors.T  # U diag(f) U^T
        min_eig = np.linalg.eigvalsh(k)[0]
        if kern.is_positive_definite:
            assert min_eig > -1e-9 * np.abs(k).max()
        else:
            assert min_eig <= 1e-9 * np.abs(k).max()


def test_kernel_matrix_matches_dense_construction():
    rng = np.random.default_rng(17)
    g = random_connected_graph(rng, 18)
    s = eigendecompose(laplacian(g))
    kern = spline_kernel(s, eps=0.3, s=2.0)
    dense = s.eigenvectors @ np.diag(kern.coefficients) @ s.eigenvectors.T
    assert np.abs(kernel_matrix(s, kern) - dense).max() <= 1e-9


@pytest.mark.parametrize("n", [1, 7, 128, 300])
@pytest.mark.parametrize("signs", ["positive", "mixed", "negative", "with-zeros", "zero"])
def test_full_kernel_matrix_is_an_exactly_symmetric_gram_matrix(n, signs, capfd):
    # A positive definite kernel's K is one symmetric rank update that fills
    # one triangle, mirrored into the other; any other kernel is refused
    # before BLAS runs (OpenBLAS would print a rank-0 update's error to
    # stdout).  A subset serves every kernel.  ("mixed" at n = 1 is a single
    # positive draw.)
    rng = np.random.default_rng(n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = Spectrum(eigenvalues=np.sort(rng.uniform(0.0, 2.0, n)), eigenvectors=np.ascontiguousarray(u))
    f = {
        "positive": rng.uniform(0.1, 2.0, n),
        "mixed": rng.uniform(-2.0, 2.0, n),
        "negative": -rng.uniform(0.1, 2.0, n),
        "with-zeros": np.where(rng.random(n) < 0.5, 0.0, rng.uniform(-2.0, 2.0, n)),
        "zero": np.zeros(n),
    }[signs]
    kern = custom_kernel(s, f)
    dense = s.eigenvectors @ np.diag(f) @ s.eigenvectors.T
    scale = max(np.abs(dense).max(), np.finfo(float).tiny)
    assert np.abs(kernel_matrix(s, kern, None, range(n)) - dense).max() <= 1e-13 * scale
    if signs == "positive" or (signs == "mixed" and n == 1):
        k = kernel_matrix(s, kern)
        assert k.flags.c_contiguous
        assert np.array_equal(k, k.T)
        assert np.abs(k - dense).max() <= 1e-13 * scale
    else:
        with pytest.raises(IndefiniteKernelError):
            kernel_matrix(s, kern)
    assert capfd.readouterr() == ("", "")


def test_kernel_column_matches_kernel_matrix():
    rng = np.random.default_rng(29)
    s = eigendecompose(laplacian(random_connected_graph(rng, 60, unit_spectral=True)))
    kern = diffusion_kernel(s, -3.0)
    scale = np.abs(kernel_matrix(s, kern)).max()
    for w in range(s.n):
        col = kernel_column(s, kern, w)
        assert np.abs(col - kernel_matrix(s, kern, None, [w])[:, 0]).max() <= 1e-12 * scale
    with pytest.raises(ValueError, match="out of range"):
        kernel_column(s, kern, s.n)


def test_kernel_matrix_submatrix_consistency(path3_spectrum):
    kern = diffusion_kernel(path3_spectrum, -1.5)
    full = kernel_matrix(path3_spectrum, kern)
    sub = kernel_matrix(path3_spectrum, kern, [2, 0], [1])
    assert np.allclose(sub, full[np.ix_([2, 0], [1])])
    with pytest.raises(ValueError):
        kernel_matrix(path3_spectrum, kern, [0, 3], None)


def test_diffusion_equals_matrix_exponential():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(4, 21)), weight_lo=0.2, weight_hi=1.0)
        lap = laplacian(g)
        s = eigendecompose(lap.copy())
        t = float(rng.uniform(-10, 10))
        k = kernel_matrix(s, diffusion_kernel(s, t))
        oracle = expm_taylor(-t * lap)
        assert np.abs(k - oracle).max() <= 1e-8 * np.abs(oracle).max()


def test_signal_lengths_are_checked_by_gft(path3_spectrum):
    for direction in ("forward", "inverse"):
        with pytest.raises(ValueError, match=re.escape("signal length (2,) does not match n=3")):
            gft(path3_spectrum, np.ones(2), direction)


def test_reproducing_property():
    rng = np.random.default_rng(57)
    g = random_connected_graph(rng, 14)
    s = eigendecompose(laplacian(g))
    kern = spline_kernel(s, eps=0.7, s=1.5)
    full = kernel_matrix(s, kern)
    for _ in range(5):
        x = rng.normal(size=g.n)
        w = int(rng.integers(0, g.n))
        # native-space inner product <x, K(., w)> = sum_k x^_k K(., w)^_k / f_k
        inner = np.sum(gft(s, x) * gft(s, full[:, w]) / kern.coefficients)
        assert abs(inner - x[w]) <= 1e-8


def test_spectral_coefficients_direct_call(two_node_spectrum):
    lam = two_node_spectrum.eigenvalues
    assert np.allclose(spectral_coefficients("diffusion", {"t": 1.0}, lam), [1.0, E2])
    assert np.allclose(spectral_coefficients("spline", {"eps": 1.0, "s": 1.0}, lam), [1.0, 1 / 3])
    with pytest.raises(KernelSpecError):
        spectral_coefficients("mystery", {}, lam)


def test_kernel_diag_matches_matrix(path3_spectrum):
    kern = spline_kernel(path3_spectrum, eps=1.0, s=1.0)
    assert np.allclose(kernel_diag(path3_spectrum, kern), np.diag(kernel_matrix(path3_spectrum, kern)))
    # hand Mercer diagonals with eigenvalues (0, 1, 3): ends 0.625, center 0.5
    assert np.allclose(kernel_diag(path3_spectrum, kern), [0.625, 0.5, 0.625], atol=1e-12)


def test_parse_kernel_spec(two_node_spectrum, tmp_path):
    kern = parse_kernel_spec("diffusion:t=-10", two_node_spectrum)
    assert kern.family == "diffusion" and kern.params["t"] == -10.0
    kern = parse_kernel_spec("spline:eps=0.01,s=-1", two_node_spectrum)
    assert kern.params == {"eps": 0.01, "s": -1.0}
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text("1.0\n0.5\n")
    kern = parse_kernel_spec(f"custom:file={coeffs}", two_node_spectrum)
    assert np.allclose(kern.coefficients, [1.0, 0.5])
    for bad in ("diffusion", "diffusion:t=abc", "spline:eps=1", "nope:t=1",
                "custom:file=/missing", "diffusion:t=1,extra=2", "diffusion:t=nan",
                "diffusion:t=1e999", "spline:eps=nan,s=-1", "spline:eps=0.01,s=inf",
                "diffusion:t=-10,t=3"):
        with pytest.raises(KernelSpecError):
            parse_kernel_spec(bad, two_node_spectrum)
    with pytest.raises(CoefficientOverflowError):
        parse_kernel_spec("diffusion:t=-500", two_node_spectrum)  # finite, but exp(1000) overflows


def test_kernel_params_are_checked_without_a_spectrum():
    for spec, message in [("diffusion:t=nan", "kernel parameter t=nan is not finite"),
                          ("spline:eps=0.01,s=-inf", "kernel parameter s=-inf is not finite")]:
        with pytest.raises(KernelSpecError, match=message):
            read_kernel_spec(spec)
    custom = {"coefficients": [1.0, 2.0]}
    check_kernel_params("custom", custom)  # the length is checked once n is known
    with pytest.raises(KernelSpecError, match="custom coefficients have length 2, expected 3"):
        check_kernel_params("custom", custom, 3)
    with pytest.raises(KernelSpecError, match=r"custom coefficient 1 is not finite \(inf\)"):
        check_kernel_params("custom", {"coefficients": [1.0, np.inf]})
    with pytest.raises(KernelSpecError, match="unknown kernel family 'heat'"):
        check_kernel_params("heat", {})


_PATH3_SPECTRUM = eigendecompose(laplacian(Graph(n=3, edges=((0, 1, 1.0), (1, 2, 1.0)))))
_VALUE = st.floats().map(repr) | st.sampled_from(["-500", "1e-320", "1e999", "-0", "abc", ""])
_PAIR = st.tuples(st.sampled_from(["t", "eps", "s", "file", ""]), _VALUE).map("=".join)
_SPECS = (
    st.text(max_size=20)
    | st.builds("diffusion:t={}".format, _VALUE)
    | st.builds("spline:eps={},s={}".format, _VALUE, _VALUE)
    | st.builds(lambda family, pairs: family + ":" + ",".join(pairs),
                st.sampled_from(["diffusion", " Spline", "custom", "heat"]),
                st.lists(_PAIR | st.text(max_size=4), max_size=3))
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spec=_SPECS)
def test_parse_kernel_spec_fails_only_with_kernelim_errors(spec):
    try:
        kern = parse_kernel_spec(spec, _PATH3_SPECTRUM)
    except KernelimError:  # KernelSpecError (exit 1) or a numerical error (exit 2)
        return
    assert isinstance(kern, GbfKernel)
