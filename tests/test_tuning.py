import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kernelim import (
    CvSpec,
    cv_error,
    eigendecompose,
    grid_search,
    kfold_partition,
    laplacian,
    log_grid,
)
from kernelim.errors import KernelimError

from helpers import cv_oracle, log_grid_oracle, random_connected_graph


def test_log_grid_wide_eps_interval():
    grid = log_grid(1e-16, 1e0, 25)
    assert grid[0] == 1e-16
    assert grid[-1] == 1e0
    assert len(grid) == 25
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])


def test_log_grid_negative_interval():
    grid = log_grid(-1e2, -1e-2, 25)
    assert grid[0] == -1e2
    assert grid[-1] == -1e-2
    assert np.all(grid < 0)


def test_log_grid_three_points():
    assert np.allclose(log_grid(1.0, 100.0, 3), [1.0, 10.0, 100.0])


def test_log_grid_single_point():
    assert log_grid(2.5, 9.0, 1).tolist() == [2.5]


@pytest.mark.parametrize("lo, hi", [(-1e2, -float("inf")), (float("inf"), 1.0), (1.0, float("nan"))])
def test_log_grid_refuses_non_finite_endpoints(lo, hi):
    with pytest.raises(ValueError, match="grid endpoints must be finite"):
        log_grid(lo, hi, 3)


def test_log_grid_validation():
    with pytest.raises(ValueError):
        log_grid(-1.0, 1.0, 5)
    with pytest.raises(ValueError):
        log_grid(0.0, 1.0, 5)
    with pytest.raises(ValueError):
        log_grid(1.0, 10.0, 0)


_MAGNITUDE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=500, deadline=None)
@given(lo=_MAGNITUDE, hi=_MAGNITUDE, sign=st.sampled_from([1.0, -1.0]), count=st.integers(1, 60))
@example(lo=1e2, hi=1e-2, sign=-1.0, count=25)     # the default t grid
@example(lo=1e-16, hi=1e0, sign=1.0, count=25)     # the default eps grid
@example(lo=1e1, hi=1e-1, sign=-1.0, count=25)     # the default s grid
@example(lo=1e-16, hi=1e0, sign=1.0, count=12)
@example(lo=1e1, hi=1e-1, sign=-1.0, count=12)
def test_log_grid_matches_the_hand_written_formula(lo, hi, sign, count):
    # Near the float maximum both overflow in 10**log10(hi) before hi is written back.
    with np.errstate(over="ignore"):
        got = log_grid(sign * lo, sign * hi, count)
        want = log_grid_oracle(sign * lo, sign * hi, count)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_kfold_partition_properties():
    folds = kfold_partition(23, 5, seed=42)
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1
    joined = np.sort(np.concatenate(folds))
    assert np.array_equal(joined, np.arange(23))
    again = kfold_partition(23, 5, seed=42)
    assert all(np.array_equal(a, b) for a, b in zip(folds, again))
    assert not all(np.array_equal(a, b) for a, b in zip(folds, kfold_partition(23, 5, seed=43)))


def test_kfold_validation():
    with pytest.raises(ValueError):
        kfold_partition(3, 4, seed=0)
    with pytest.raises(ValueError):
        kfold_partition(5, 1, seed=0)


def test_cv_error_zero_target(path3_spectrum):
    spec = CvSpec(folds=3, seed=1, grids={}, target=np.zeros(3))
    assert cv_error(path3_spectrum, "spline", {"eps": 1.0, "s": 1.0}, spec) == 0.0


def test_cv_error_two_node_leave_one_out(two_node_spectrum):
    # Train on {0}: c = 3/2, predictions (1, 1/2), mean abs error 1/4;
    # symmetric for the other fold, so the mean over folds is 1/4.
    spec = CvSpec(folds=2, seed=0, grids={})
    err = cv_error(two_node_spectrum, "spline", {"eps": 1.0, "s": 1.0}, spec)
    assert abs(err - 0.25) <= 1e-12


def test_cv_error_singular_point_scores_inf(two_node_spectrum):
    spec = CvSpec(folds=2, seed=0, grids={})
    assert cv_error(two_node_spectrum, "spline", {"eps": 0.0, "s": 1.0}, spec) == np.inf
    assert cv_error(two_node_spectrum, "diffusion", {"t": -900.0}, spec) == np.inf


def test_cv_error_non_finite_fold_error_scores_inf(two_node_spectrum):
    # Residuals of 5e199 are finite, but their squares overflow, so the rmse of
    # each fold is +inf and the point is unusable; the mae stays finite.
    target = np.full(2, 1e200)
    mae = CvSpec(folds=2, seed=0, grids={}, target=target, metric="mae")
    rmse = CvSpec(folds=2, seed=0, grids={}, target=target, metric="rmse")
    assert cv_error(two_node_spectrum, "spline", {"eps": 1.0, "s": 1.0}, mae) == 2.5e199
    with np.errstate(over="ignore"):
        assert cv_error(two_node_spectrum, "spline", {"eps": 1.0, "s": 1.0}, rmse) == np.inf


def test_cv_error_indefinite_point_scores_inf(two_node_spectrum):
    spec = CvSpec(folds=2, seed=0, grids={})
    assert cv_error(two_node_spectrum, "spline", {"eps": -2.15e-11, "s": -1.0}, spec) == np.inf


def test_grid_search_single_point(path3_spectrum):
    spec = CvSpec(folds=3, seed=2, grids={"eps": (1.0, 1.0, 1), "s": (1.0, 1.0, 1)})
    result = grid_search(path3_spectrum, "spline", spec)
    assert result.best_params == {"eps": 1.0, "s": 1.0}
    assert len(result.table) == 1
    assert result.best_score == result.table[0].score


def test_grid_search_picks_lower_score():
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 16)
    s = eigendecompose(laplacian(g))
    spec = CvSpec(folds=4, seed=5, grids={"t": (-10.0, -0.01, 6)})
    result = grid_search(s, "diffusion", spec)
    assert result.best_score == min(row.score for row in result.table)
    assert all(result.best_score <= row.score for row in result.table)
    best_row = next(r for r in result.table if r.params == result.best_params)
    assert best_row.score == result.best_score
    assert len(best_row.fold_errors) == 4
    assert abs(np.mean(best_row.fold_errors) - best_row.score) <= 1e-12


def test_grid_search_deterministic():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 14)
    s = eigendecompose(laplacian(g))
    spec = CvSpec(folds=3, seed=9, grids={"eps": (1e-4, 1.0, 4), "s": (-2.0, -0.5, 3)})
    a = grid_search(s, "spline", spec)
    b = grid_search(s, "spline", spec)
    assert a.best_params == b.best_params
    assert [r.score for r in a.table] == [r.score for r in b.table]
    assert len(a.table) == 12


def test_grid_search_all_invalid(two_node_spectrum):
    spec = CvSpec(folds=2, seed=0, grids={"t": (-2000.0, -1000.0, 3)})
    with pytest.raises(KernelimError, match="every grid point"):
        grid_search(two_node_spectrum, "diffusion", spec)


def test_grid_search_validation(path3_spectrum):
    with pytest.raises(ValueError, match="missing grid"):
        grid_search(path3_spectrum, "spline", CvSpec(folds=3, seed=0, grids={"eps": (1.0, 2.0, 2)}))
    with pytest.raises(ValueError):
        grid_search(path3_spectrum, "custom", CvSpec(folds=3, seed=0, grids={}))
    with pytest.raises(ValueError):
        CvSpec(folds=3, seed=0, grids={}, metric="median")


def test_cv_metric_rmse(two_node_spectrum):
    # LOO residuals are (0, 1/2) per fold: rmse = sqrt(1/8), mae = 1/4.
    mae_spec = CvSpec(folds=2, seed=0, grids={}, metric="mae")
    rmse_spec = CvSpec(folds=2, seed=0, grids={}, metric="rmse")
    params = {"eps": 1.0, "s": 1.0}
    assert abs(cv_error(two_node_spectrum, "spline", params, mae_spec) - 0.25) <= 1e-12
    assert abs(cv_error(two_node_spectrum, "spline", params, rmse_spec) - np.sqrt(0.125)) <= 1e-12


@pytest.mark.parametrize("metric", ["mae", "rmse"])
@pytest.mark.parametrize("jitter", [0.0, 1e-3])
@pytest.mark.parametrize("family,params", [
    ("diffusion", {"t": -2.0}),
    ("spline", {"eps": 0.5, "s": 1.0}),
])
def test_cv_error_matches_dense_oracle(metric, jitter, family, params):
    rng = np.random.default_rng(8)
    s = eigendecompose(laplacian(random_connected_graph(rng, 40, unit_spectral=True)))
    target = rng.standard_normal(s.n)
    spec = CvSpec(folds=5, seed=2, grids={}, target=target, metric=metric)
    lam = s.eigenvalues
    coeff = np.exp(2.0 * lam) if family == "diffusion" else 1.0 / (0.5 + lam)
    want = cv_oracle(s, coeff, kfold_partition(s.n, 5, 2), target, metric, jitter)
    assert abs(cv_error(s, family, params, spec, jitter=jitter) - want) <= 1e-9 * want


def test_grid_search_builds_each_training_set_once(monkeypatch):
    s = eigendecompose(laplacian(random_connected_graph(np.random.default_rng(5), 12)))
    calls = []
    setdiff1d = np.setdiff1d
    monkeypatch.setattr(np, "setdiff1d", lambda *a: calls.append(1) or setdiff1d(*a))
    result = grid_search(s, "diffusion", CvSpec(folds=3, seed=1, grids={"t": (-2.0, -0.5, 4)}))
    assert len(result.table) == 4
    assert len(calls) == 3
    assert all(len(row.fold_errors) == 3 for row in result.table)
