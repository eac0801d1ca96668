import warnings

import numpy as np
import pytest

from kernelim import (
    LaplacianKind,
    diffusion_kernel,
    eigendecompose,
    gft,
    kernel_matrix,
    laplacian,
)
from kernelim.errors import NotSymmetricError
from kernelim.spectral import _fix_signs

from helpers import fix_signs_loop, random_connected_graph

SQ2 = np.sqrt(2.0)


def test_diagonal_matrix():
    s = eigendecompose(np.diag([3.0, 5.0]))
    assert np.allclose(s.eigenvalues, [3.0, 5.0])
    assert np.allclose(s.eigenvectors, np.eye(2))  # sign rule makes this exact


def test_eigenvectors_are_c_contiguous():
    # An F-ordered basis with the same values takes other BLAS paths in the
    # kernel products, so the outputs would no longer be byte-identical.
    g = random_connected_graph(np.random.default_rng(3), 12)
    for kind in LaplacianKind:
        assert eigendecompose(laplacian(g, kind)).eigenvectors.flags.c_contiguous


def test_two_node_hand_decomposition(two_node_spectrum):
    s = two_node_spectrum
    assert np.allclose(s.eigenvalues, [0.0, 2.0], atol=1e-12)
    assert np.allclose(s.eigenvectors[:, 0], [1 / SQ2, 1 / SQ2])
    assert np.allclose(s.eigenvectors[:, 1], [1 / SQ2, -1 / SQ2])


def test_path3_eigenvalues(path3_spectrum):
    assert np.allclose(path3_spectrum.eigenvalues, [0.0, 1.0, 3.0], atol=1e-12)


def test_non_symmetric_rejected():
    with pytest.raises(NotSymmetricError):
        eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(NotSymmetricError):
        eigendecompose(np.zeros((2, 3)))


@pytest.mark.parametrize("matrix, entry", [
    ([[np.nan]], "(0, 0)"),
    ([[1.0, np.inf], [np.inf, 1.0]], "(0, 1)"),  # symmetric, but not finite
    ([[1.0, 2.0], [np.nan, 1.0]], "(1, 0)"),
], ids=["nan", "symmetric-inf", "nan-below"])
def test_non_finite_matrix_rejected(matrix, entry):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSymmetricError) as info:
            eigendecompose(np.array(matrix))
    assert str(info.value).startswith(f"matrix entry {entry} is not finite")


def test_empty_matrix_rejected():
    for empty in (np.zeros((0, 0)), np.zeros((0, 3))):
        with pytest.raises(NotSymmetricError, match="non-empty square"):
            eigendecompose(empty)


def test_spectrum_invariants_random():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_connected_graph(rng, int(rng.integers(3, 40)))
        lap = laplacian(g)
        s = eigendecompose(lap.copy())
        u = s.eigenvectors
        assert np.abs(u.T @ u - np.eye(g.n)).max() <= 1e-9
        assert np.abs((u * s.eigenvalues) @ u.T - lap).max() <= 1e-8 * max(1.0, np.abs(lap).max())
        assert np.all(np.diff(s.eigenvalues) >= -1e-12)


def test_eigendecompose_deterministic():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 25)
    lap = laplacian(g, LaplacianKind.NORMALIZED)
    s1, s2 = eigendecompose(lap.copy()), eigendecompose(lap.copy())
    lap.flags.writeable = False
    s3 = eigendecompose(lap)  # a read-only input is copied, not used up
    assert np.array_equal(lap, laplacian(g, LaplacianKind.NORMALIZED))
    for s in (s2, s3):
        assert s.eigenvalues.tobytes() == s1.eigenvalues.tobytes()
        assert s.eigenvectors.tobytes() == s1.eigenvectors.tobytes()
        assert s.eigenvectors.flags.c_contiguous


def test_a_writeable_laplacian_keeps_its_bytes():
    rng = np.random.default_rng(8)
    for kind in (LaplacianKind.STANDARD, LaplacianKind.NORMALIZED):
        lap = laplacian(random_connected_graph(rng, 40), kind)
        before = lap.tobytes()
        assert lap.flags.writeable
        eigendecompose(lap)
        assert lap.tobytes() == before


def test_only_the_upper_triangle_is_read():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((6, 6))
    upper = np.triu(a) + np.triu(a, 1).T
    skewed = upper.copy()
    skewed[np.tril_indices(6, -1)] += 1e-12  # within the symmetry check
    s, ref = eigendecompose(skewed), eigendecompose(upper)
    assert s.eigenvalues.tobytes() == ref.eigenvalues.tobytes()
    assert s.eigenvectors.tobytes() == ref.eigenvectors.tobytes()


def test_fix_signs_matches_the_column_loop():
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(50):
        u = rng.standard_normal((int(rng.integers(1, 20)), int(rng.integers(1, 20))))
        u *= rng.choice([1.0, 1e-13], size=u.shape)  # entries on both sides of the threshold
        u[:, int(rng.integers(u.shape[1]))] = 0.0
        cases.append(u)
    # A few hundred rows and columns, most of whose row-0 entries are at or below the
    # threshold (exactly +-1e-12 among them), so that their signs are settled further
    # down; some columns are all zero, some hold nothing above the threshold.
    for rows, cols in ((300, 250), (257, 400)):
        u = rng.standard_normal((rows, cols))
        above = np.arange(rows)[:, None] < rng.integers(0, rows // 2, size=cols)  # above the first large entry
        u[above] = rng.choice([0.0, -0.0, 1e-12, -1e-12, 3e-13], size=int(above.sum()))
        u[:, rng.choice(cols, size=10, replace=False)] = 0.0
        u[:, rng.choice(cols, size=10, replace=False)] = rng.choice([1e-12, -1e-12, 0.0], size=(rows, 10))
        assert np.mean(np.abs(u[0]) <= 1e-12) > 0.5
        cases += [u, u.copy()]  # once C-ordered, once F-ordered
    for trial, u in enumerate(cases):
        if trial % 2:
            u = np.asfortranarray(u)
        want = fix_signs_loop(u)  # before the call, which flips a C-ordered u in place
        out = _fix_signs(u)
        assert out.tobytes() == want.tobytes() and out.flags.c_contiguous
        assert (out is u) == u.flags.c_contiguous


def test_gft_first_mode(two_node_spectrum):
    u1 = two_node_spectrum.eigenvectors[:, 0]
    assert np.allclose(gft(two_node_spectrum, u1), [1.0, 0.0], atol=1e-12)


def test_gft_round_trip():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 20)
    s = eigendecompose(laplacian(g))
    x = rng.normal(size=20)
    back = gft(s, gft(s, x), direction="inverse")
    assert np.abs(back - x).max() <= 1e-10


def test_gft_delta_gives_vertex_row(path3_spectrum):
    delta = np.array([0.0, 1.0, 0.0])
    assert np.allclose(gft(path3_spectrum, delta), path3_spectrum.eigenvectors[1])


def test_gft_parseval():
    rng = np.random.default_rng(6)
    g = random_connected_graph(rng, 30)
    s = eigendecompose(laplacian(g))
    for _ in range(5):
        x = rng.normal(size=30)
        assert abs(np.linalg.norm(x) - np.linalg.norm(gft(s, x))) <= 1e-10


def test_gft_validation(path3_spectrum):
    with pytest.raises(ValueError):
        gft(path3_spectrum, np.ones(2))
    with pytest.raises(ValueError):
        gft(path3_spectrum, np.ones(3), direction="sideways")


def test_convolve_delta_is_kernel_column(path3_spectrum):
    # The GBF definition: column w of K is the delta at w filtered by the coefficients f.
    kern = diffusion_kernel(path3_spectrum, 0.7)
    full = kernel_matrix(path3_spectrum, kern)
    for w in range(3):
        delta = np.zeros(3)
        delta[w] = 1.0
        filtered = gft(path3_spectrum, kern.coefficients * gft(path3_spectrum, delta), "inverse")
        assert np.abs(filtered - full[:, w]).max() <= 1e-10
