import numpy as np
import pytest
import scipy.linalg

from kernelim import (
    Spectrum,
    custom_kernel,
    diffusion_kernel,
    eigendecompose,
    fit,
    fit_coefficients,
    gpr,
    kernel_diag,
    kernel_matrix,
    laplacian,
    power_direct,
    predict,
    spline_kernel,
)
from kernelim.errors import IndefiniteKernelError, NotPositiveDefiniteError

from helpers import power_oracle, random_connected_graph

E2 = np.exp(-2.0)


def test_scalar_solve_noiseless():
    c = fit_coefficients(np.array([[4.0]]), np.array([2.0]))
    assert np.allclose(c, [0.5])


def test_scalar_solve_with_noise():
    c = fit_coefficients(np.array([[4.0]]), np.array([2.0]), sigma2=1.0)
    assert np.allclose(c, [0.4])


def test_two_by_two_row_sums(two_node_spectrum):
    k_w = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    c = fit_coefficients(k_w, np.ones(2))
    assert np.abs(c - 1.0).max() <= 1e-12


def test_not_positive_definite_mentions_remedies(path3_spectrum):
    kern = custom_kernel(path3_spectrum, [1.0, -0.5, 1.0])  # indefinite
    k_w = kernel_matrix(path3_spectrum, kern, [0, 1, 2], [0, 1, 2])
    with pytest.raises(NotPositiveDefiniteError, match="jitter"):
        fit_coefficients(k_w, np.ones(3))


def test_model_invariant_residual():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 20)
    s = eigendecompose(laplacian(g))
    kern = diffusion_kernel(s, -0.8)
    nodes = [1, 4, 9, 15]
    y = rng.normal(size=4)
    model = fit(s, kern, nodes, y, sigma2=0.1)
    k_w = kernel_matrix(s, kern, nodes, nodes)
    resid = (k_w + 0.1 * np.eye(4)) @ model.coefficients - y
    assert np.abs(resid).max() <= 1e-8


def test_predict_interpolates_at_samples():
    rng = np.random.default_rng(5)
    g = random_connected_graph(rng, 15)
    s = eigendecompose(laplacian(g))
    kern = spline_kernel(s, eps=0.5, s=2.0)
    nodes = [0, 3, 7, 11]
    y = rng.normal(size=4)
    model = fit(s, kern, nodes, y)
    for j, w in enumerate(nodes):
        assert abs(predict(model, s)[w] - y[j]) <= 1e-8


def test_predict_zero_coefficients(two_node_spectrum):
    kern = diffusion_kernel(two_node_spectrum, 1.0)
    model = fit(two_node_spectrum, kern, [0], [0.0])
    assert predict(model, two_node_spectrum)[1] == 0.0
    assert np.allclose(predict(model, two_node_spectrum), 0.0)


def test_predict_invalid_node(two_node_spectrum):
    kern = diffusion_kernel(two_node_spectrum, 1.0)
    with pytest.raises(ValueError):
        fit(two_node_spectrum, kern, [5], [1.0])
    with pytest.raises(ValueError):
        power_direct(two_node_spectrum, kern, [5])


def test_two_node_spline_predicts_constant(two_node_spectrum):
    kern = spline_kernel(two_node_spectrum, eps=1.0, s=1.0)
    model = fit(two_node_spectrum, kern, [0, 1], [1.0, 1.0])
    assert np.abs(predict(model, two_node_spectrum) - 1.0).max() <= 1e-12


def test_power_empty_set_identity_kernel(path3_spectrum):
    kern = diffusion_kernel(path3_spectrum, 0.0)
    assert np.abs(power_direct(path3_spectrum, kern, []) - 1.0).max() <= 1e-10


def test_power_zero_at_samples(two_node_spectrum):
    kern = diffusion_kernel(two_node_spectrum, 1.0)
    assert power_direct(two_node_spectrum, kern, [0])[0] == 0.0
    assert power_direct(two_node_spectrum, kern, [0, 1])[1] == 0.0


def test_power_two_node_hand_value(two_node_spectrum):
    kern = diffusion_kernel(two_node_spectrum, 1.0)
    k11 = (1 + E2) / 2
    k12 = (1 - E2) / 2
    expected = np.sqrt(k11 - k12**2 / k11)
    assert abs(power_direct(two_node_spectrum, kern, [0])[1] - expected) <= 1e-12
    assert abs(expected - 0.488269) <= 1e-6


def test_power_matches_inverse_oracle():
    # Compared away from the sampling set: there both routes hold exact zeros
    # by the Schur identity while the oracle's solve leaves sqrt(eps) noise.
    rng = np.random.default_rng(8)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(5, 30)), unit_spectral=True)
        s = eigendecompose(laplacian(g))
        kern = diffusion_kernel(s, float(rng.uniform(-5, 5)))
        nodes = sorted(rng.choice(g.n, size=min(5, g.n - 1), replace=False).tolist())
        others = np.setdiff1d(np.arange(g.n), nodes)
        diff = power_direct(s, kern, nodes) - power_oracle(s, kern, nodes)
        assert np.abs(diff[others]).max() <= 1e-8


def test_power_bounds_and_monotonicity():
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, 22, unit_spectral=True)
    s = eigendecompose(laplacian(g))
    kern = diffusion_kernel(s, 2.5)
    bound = np.sqrt(power_direct(s, kern, [])).max() ** 2  # max sqrt(K_vv)
    nodes: list[int] = []
    prev = power_direct(s, kern, nodes)
    for w in (3, 11, 7, 19):
        nodes.append(w)
        cur = power_direct(s, kern, nodes)
        assert np.all(cur <= prev + 1e-9)
        assert np.all(cur >= 0.0) and cur.max() <= bound + 1e-9
        prev = cur


def test_power_with_noise_positive_at_samples(two_node_spectrum):
    kern = diffusion_kernel(two_node_spectrum, 1.0)
    assert power_direct(two_node_spectrum, kern, [0], sigma2=0.5)[0] > 0.0


def test_power_indefinite_kernel_raises(two_node_spectrum):
    kern = custom_kernel(two_node_spectrum, [1.0, -0.5])
    with pytest.raises(IndefiniteKernelError):
        power_direct(two_node_spectrum, kern, [0])


def test_singular_submatrix_raises():
    # Cholesky of [[1, 1], [1, 1]] meets the exact pivot 1 - 1 = 0.
    with pytest.raises(NotPositiveDefiniteError):
        fit_coefficients(np.ones((2, 2)), np.ones(2))


def test_power_singular_submatrix_raises():
    # Half a 4 x 4 Hadamard matrix is an exactly orthonormal basis, so the
    # rank-1 kernel u0 u0^T is 0.25 in every entry and K_W is exactly singular.
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
    spectrum = Spectrum(eigenvalues=np.arange(4.0), eigenvectors=hadamard)
    kern = custom_kernel(spectrum, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NotPositiveDefiniteError):
        power_direct(spectrum, kern, [0, 1])


def test_power_on_a_rank_one_kernel_raises_or_stays_at_rounding(path3_spectrum):
    # K = u0 u0^T is singular on any two nodes in exact arithmetic, but the
    # rounded entries of u0 can leave K_W a pivot of order eps; the solve may
    # then succeed, and every std it returns is rounding noise.
    kern = custom_kernel(path3_spectrum, [1.0, 0.0, 0.0])
    try:
        std = power_direct(path3_spectrum, kern, [0, 1])
    except NotPositiveDefiniteError:
        return
    bound = np.sqrt(np.finfo(float).eps) * np.sqrt(kernel_diag(path3_spectrum, kern).max())
    assert std.max() <= bound


@pytest.mark.parametrize("sigma2", [-0.5, float("nan"), float("inf")])
def test_bad_sigma2_refused_by_both_solves(two_node_spectrum, sigma2):
    kern = diffusion_kernel(two_node_spectrum, t=-1.0)
    with pytest.raises(ValueError, match="sigma2 must be nonnegative and finite"):
        fit_coefficients(np.eye(2), np.ones(2), sigma2=sigma2)
    with pytest.raises(ValueError, match="sigma2 must be nonnegative and finite"):
        power_direct(two_node_spectrum, kern, [0], sigma2=sigma2)


@pytest.mark.parametrize("sigma2", [0.0, 0.1])
def test_fit_refuses_a_repeated_node_before_the_solve(two_node_spectrum, monkeypatch, sigma2):
    # At sigma2 = 0 the solve would fail first, as a numerical error advising --jitter.
    kern = diffusion_kernel(two_node_spectrum, t=-1.0)
    calls = []
    monkeypatch.setattr(gpr, "kernel_matrix", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="sampling set must be nonempty with distinct nodes"):
        fit(two_node_spectrum, kern, [0, 0], [1.0, 1.0], sigma2=sigma2)
    assert calls == []


@pytest.mark.parametrize("sigma2", [0.0, 1e-3])
def test_solves_leave_their_inputs_alone_and_match_the_reference_factor(sigma2):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((30, 30))
    k_w = a @ a.T + np.eye(30)
    y = rng.standard_normal(30)
    want = scipy.linalg.cho_solve(scipy.linalg.cho_factor(k_w + sigma2 * np.eye(30), lower=True), y)
    for mat in (k_w, np.asfortranarray(k_w)):
        before, y_before = mat.copy(), y.copy()
        assert np.array_equal(fit_coefficients(mat, y, sigma2), want)  # bit for bit
        assert np.array_equal(mat, before) and np.array_equal(y, y_before)

    s = eigendecompose(laplacian(random_connected_graph(rng, 30, unit_spectral=True)))
    kern = diffusion_kernel(s, -2.0)
    nodes = [3, 7, 19]
    saved = [arr.copy() for arr in (s.eigenvalues, s.eigenvectors, kern.coefficients)]
    first = power_direct(s, kern, nodes, sigma2)
    for arr, old in zip((s.eigenvalues, s.eigenvectors, kern.coefficients), saved):
        assert np.array_equal(arr, old)
    assert nodes == [3, 7, 19]
    assert np.array_equal(power_direct(s, kern, nodes, sigma2), first)

    k_w[4, 9] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        fit_coefficients(k_w, y, sigma2)
