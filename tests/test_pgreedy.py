import numpy as np
import pytest

from kernelim import (
    Graph,
    SelectorConfig,
    custom_kernel,
    diffusion_kernel,
    eigendecompose,
    fit,
    kernel_column,
    kernel_diag,
    kernel_matrix,
    laplacian,
    power_direct,
    power_update_step,
    predict,
    select_nodes,
    spline_kernel,
)
from kernelim.errors import IndefiniteKernelError, ZeroPivotError
from kernelim.graphs import TIE_BAND_FACTOR
from kernelim.pgreedy import SelectionState, new_state

from helpers import random_connected_graph

E2 = np.exp(-2.0)


def test_two_node_diffusion_budget_two(two_node_spectrum):
    kern = diffusion_kernel(two_node_spectrum, 1.0)
    state = select_nodes(kernel_matrix(two_node_spectrum, kern), SelectorConfig(budget=2))
    assert state.chosen == [0, 1]  # symmetric diagonal: tie broken to id 0
    assert state.p2.max() <= 1e-9
    assert state.stop_reason == "budget"


def test_path3_spline_budget_one(path3_spectrum):
    kern = spline_kernel(path3_spectrum, eps=1.0, s=1.0)
    state = select_nodes(kernel_matrix(path3_spectrum, kern), SelectorConfig(budget=1))
    assert state.chosen == [0]  # end diagonal 0.625 beats center 0.5, tie to id 0


def test_full_budget_interpolates_everything():
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 12, unit_spectral=True)
    s = eigendecompose(laplacian(g))
    kern = diffusion_kernel(s, -1.0)
    state = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=12))
    assert len(state.chosen) == 12 or state.stop_reason in ("power-tolerance", "residual-tolerance")
    assert state.p2.max() <= 1e-12 or state.stop_reason == "budget"
    assert state.p2.max() <= 1e-9


def test_first_step_recursion_base_case(path3_spectrum):
    kern = spline_kernel(path3_spectrum, eps=1.0, s=1.0)
    diag = kernel_diag(path3_spectrum, kern)
    state = new_state(kernel_matrix(path3_spectrum, kern), 1)
    power_update_step(state, 0)
    col = kernel_column(path3_spectrum, kern, 0)
    n1 = col / np.sqrt(diag[0])
    assert np.abs(state.newton[:, 0] - n1).max() <= 1e-12
    expected_p2 = diag - n1**2
    expected_p2[0] = 0.0
    assert np.abs(state.p2 - expected_p2).max() <= 1e-12
    assert state.p2[0] == 0.0  # self-interpolation is exact


def test_two_node_step_matches_direct_schur(two_node_spectrum):
    kern = diffusion_kernel(two_node_spectrum, 1.0)
    state = new_state(kernel_matrix(two_node_spectrum, kern), 1)
    power_update_step(state, 0)
    k11 = (1 + E2) / 2
    k12 = (1 - E2) / 2
    assert abs(state.p2[1] - (k11 - k12**2 / k11)) <= 1e-12
    assert abs(np.sqrt(state.p2[1]) - 0.488269) <= 1e-6


def test_incremental_agrees_with_direct():
    rng = np.random.default_rng(7)
    for _ in range(8):
        n = int(rng.integers(8, 40))
        g = random_connected_graph(rng, n, unit_spectral=True)
        s = eigendecompose(laplacian(g))
        kern = diffusion_kernel(s, float(rng.uniform(-10, 10)))
        p_init = np.sqrt(kernel_diag(s, kern).max())
        state = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=min(10, n - 1)))
        direct = power_direct(s, kern, state.chosen)
        assert np.abs(np.sqrt(state.p2) - direct).max() <= 1e-8 * p_init


def test_each_pick_is_brute_force_argmax():
    rng = np.random.default_rng(9)
    for _ in range(6):
        n = int(rng.integers(6, 26))
        g = random_connected_graph(rng, n, unit_spectral=True)
        s = eigendecompose(laplacian(g))
        kern = diffusion_kernel(s, float(rng.uniform(-10, 10)))
        state = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=min(6, n - 1)))
        for k, rec in enumerate(state.history):
            direct = power_direct(s, kern, state.chosen[:k])
            direct[state.chosen[:k]] = -np.inf
            oracle = int(np.flatnonzero(direct == direct.max())[0])
            assert oracle == rec.node


def test_max_power_monotone_in_history():
    rng = np.random.default_rng(11)
    g = random_connected_graph(rng, 30, unit_spectral=True)
    s = eigendecompose(laplacian(g))
    kern = diffusion_kernel(s, -4.0)
    state = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=15))
    powers = [rec.max_power for rec in state.history]
    assert all(powers[i + 1] <= powers[i] + 1e-9 for i in range(len(powers) - 1))


def test_selection_deterministic():
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, 25, unit_spectral=True)
    s = eigendecompose(laplacian(g))
    kern = diffusion_kernel(s, 3.0)
    a = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=10))
    b = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=10))
    assert a.chosen == b.chosen
    assert np.array_equal(a.p2, b.p2)
    assert [r.max_power for r in a.history] == [r.max_power for r in b.history]


def test_residual_tracks_constant_one_interpolant():
    rng = np.random.default_rng(17)
    g = random_connected_graph(rng, 20, unit_spectral=True)
    s = eigendecompose(laplacian(g))
    kern = spline_kernel(s, eps=1.0, s=2.0)
    state = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=6))
    model = fit(s, kern, state.chosen, np.ones(len(state.chosen)))
    recomputed = 1.0 - predict(model, s)
    assert np.abs(state.residual - recomputed).max() <= 1e-6


def test_warm_start_matches_manual_steps():
    rng = np.random.default_rng(19)
    g = random_connected_graph(rng, 15, unit_spectral=True)
    s = eigendecompose(laplacian(g))
    kern = diffusion_kernel(s, -2.0)
    warm = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=3, initial=(4, 9)))
    assert warm.chosen[:2] == [4, 9]
    manual = new_state(kernel_matrix(s, kern), 2)
    power_update_step(manual, 4)
    power_update_step(manual, 9)
    assert np.abs(warm.newton[:, :2] - manual.newton).max() <= 1e-12
    assert len(warm.chosen) == 5
    assert len(warm.history) == 5  # warm-start absorption is recorded too


def test_repeat_node_rejected(two_node_spectrum):
    kern = diffusion_kernel(two_node_spectrum, 1.0)
    state = new_state(kernel_matrix(two_node_spectrum, kern), 1)
    power_update_step(state, 0)
    with pytest.raises(ValueError, match="already"):
        power_update_step(state, 0)


def test_zero_pivot_rejected(two_node_spectrum):
    kern = diffusion_kernel(two_node_spectrum, 1.0)
    state = new_state(kernel_matrix(two_node_spectrum, kern), 2)
    power_update_step(state, 0)
    power_update_step(state, 1)
    state.chosen.clear()  # force a step on an exhausted node
    with pytest.raises(ZeroPivotError):
        power_update_step(state, 0)


@pytest.mark.parametrize("coeff", ["diffusion", "rank-1"])
def test_noisy_update_is_the_noisy_posterior(coeff):
    # With sigma2 > 0 the squared powers are the noisy GP posterior variance and
    # the residual is 1 minus the noisy posterior mean of the constant-1 signal.
    # On the numerically rank-1 kernel the second node's Newton value vanishes
    # (its pivot is sigma2 alone), so a residual divided by it would blow up.
    rng = np.random.default_rng(3)
    g = random_connected_graph(rng, 10)
    s = eigendecompose(laplacian(g))
    if coeff == "rank-1":
        kern = custom_kernel(s, [1.0] + [1e-30] * 9)
    else:
        kern = diffusion_kernel(s, 1.0)
    sigma2 = 1e-3
    state = new_state(kernel_matrix(s, kern), 3, sigma2=sigma2)
    for w in (0, 5, 9):
        power_update_step(state, w)
        np.testing.assert_allclose(np.sqrt(state.p2), power_direct(s, kern, state.chosen, sigma2),
                                   rtol=1e-9, atol=1e-12)
        model = fit(s, kern, state.chosen, np.ones(len(state.chosen)), sigma2)
        np.testing.assert_allclose(state.residual, 1.0 - predict(model, s), rtol=0, atol=1e-9)
    assert state.p2[state.chosen].min() > 0  # noise leaves variance at the chosen nodes


def test_pivot_includes_the_noise_variance():
    # The rank-1 kernel of the test above: without noise the second node's
    # pivot is at the guard, and a negative noise variance is refused.
    rng = np.random.default_rng(3)
    s = eigendecompose(laplacian(random_connected_graph(rng, 10)))
    kern = custom_kernel(s, [1.0] + [1e-30] * 9)
    state = new_state(kernel_matrix(s, kern), 2)
    power_update_step(state, 0)
    with pytest.raises(ZeroPivotError, match="at node 5 is at or below the guard"):
        power_update_step(state, 5)
    with pytest.raises(ValueError, match="sigma2 must be nonnegative and finite"):
        new_state(kernel_matrix(s, kern), 2, sigma2=-1.0)


@pytest.mark.parametrize("w", [-1, 3])
def test_out_of_range_node_rejected_before_the_state_moves(path3_spectrum, w):
    # A row of K is read by index, and K[-1] would silently be the last row.
    kern = diffusion_kernel(path3_spectrum, 1.0)
    state = new_state(kernel_matrix(path3_spectrum, kern), 2)
    power_update_step(state, 1)
    chosen, p2, residual = list(state.chosen), state.p2.copy(), state.residual.copy()
    with pytest.raises(ValueError, match="out of range"):
        power_update_step(state, w)
    assert state.chosen == chosen
    assert np.array_equal(state.p2, p2)
    assert np.array_equal(state.residual, residual)


def test_newton_basis_holds_budget_plus_warm_start_columns(path3_spectrum):
    kern = diffusion_kernel(path3_spectrum, 1.0)
    state = select_nodes(kernel_matrix(path3_spectrum, kern), SelectorConfig(budget=1, initial=(2,)))
    assert state.basis.shape == (3, 2) and len(state.chosen) == 2
    chosen, p2, residual = list(state.chosen), state.p2.copy(), state.residual.copy()
    (w,) = {0, 1, 2} - set(chosen)
    with pytest.raises(ValueError, match="full"):
        power_update_step(state, w)
    assert state.chosen == chosen
    assert np.array_equal(state.p2, p2)
    assert np.array_equal(state.residual, residual)


def test_state_kernel_matrix_is_the_c_ordered_full_matrix():
    # The steps take their columns from rows of K; an F-ordered K (like an
    # F-ordered eigenbasis or Newton basis) takes other BLAS paths, so the
    # bits of every output would move.
    rng = np.random.default_rng(31)
    s = eigendecompose(laplacian(random_connected_graph(rng, 20, unit_spectral=True)))
    kern = diffusion_kernel(s, -2.0)
    state = new_state(kernel_matrix(s, kern), 5)
    assert state.k.flags.c_contiguous and state.basis.flags.c_contiguous
    assert np.array_equal(state.k, kernel_matrix(s, kern))
    assert np.array_equal(state.p2, np.diag(state.k))


def test_newton_columns_match_a_kernel_column_replay():
    # The selector reads rows and the diagonal of its own K; the replay runs
    # the same recursion on columns and a diagonal from the eigenbasis
    # (kernel_column, kernel_diag), which share neither with it.
    rng = np.random.default_rng(37)
    for _ in range(5):
        n = int(rng.integers(10, 40))
        s = eigendecompose(laplacian(random_connected_graph(rng, n, unit_spectral=True)))
        kern = diffusion_kernel(s, float(rng.uniform(-10, 10)))
        chosen = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=min(10, n - 1))).chosen
        state = new_state(kernel_matrix(s, kern), len(chosen))
        scale = np.sqrt(state.p2_scale)
        p2 = kernel_diag(s, kern)
        newton = np.zeros((n, len(chosen)))
        for j, w in enumerate(chosen):
            power_update_step(state, w)
            col = kernel_column(s, kern, w) - newton[:, :j] @ newton[w, :j]
            newton[:, j] = col / np.sqrt(p2[w])
            p2 = np.maximum(p2 - newton[:, j] ** 2, 0.0)
            assert np.abs(state.newton - newton[:, : j + 1]).max() <= 1e-12 * scale
            assert np.abs(state.p2 - p2).max() <= 1e-12 * state.p2_scale


def test_indefinite_kernel_refused(path3_spectrum):
    # The selector's only input is the full K, whose build is the one
    # positive-definiteness gate.
    kern = custom_kernel(path3_spectrum, [1.0, -1.0, 1.0])
    with pytest.raises(IndefiniteKernelError):
        kernel_matrix(path3_spectrum, kern)


def test_budget_infeasible(path3_spectrum):
    kern = diffusion_kernel(path3_spectrum, 1.0)
    with pytest.raises(ValueError, match="budget"):
        select_nodes(kernel_matrix(path3_spectrum, kern), SelectorConfig(budget=3, initial=(0,)))
    with pytest.raises(ValueError):
        SelectorConfig(budget=0)


def _state(p2):
    return SelectionState(chosen=[], k=np.zeros((0, 0)), basis=np.zeros((0, 0)), p2=np.array(p2),
                          residual=np.ones(len(p2)), p2_scale=1.0)


def test_best_node_takes_the_smallest_id_within_the_tie_band():
    band = TIE_BAND_FACTOR
    assert _state([1.0 - 0.5 * band, 1.0, 1.0]).best_node(1.0) == 0
    assert _state([1.0 - 2.0 * band, 1.0, 1.0]).best_node(1.0) == 1


def test_best_node_is_never_a_chosen_node():
    # The band (256 eps) reaches below the pivot guard (10 eps), so with the
    # maximum at 100 eps it covers p2 = 0; chosen nodes hold exactly that.
    eps = np.finfo(float).eps
    state = _state([0.0, 5.0 * eps, 0.0, 100.0 * eps, 99.0 * eps])
    state.chosen = [0, 2]
    assert state.best_node(100.0 * eps) == 3
    rng = np.random.default_rng(15)
    for _ in range(200):
        p2 = rng.uniform(0.0, 300.0, 12) * eps
        p2[rng.integers(12)] = 300.0 * eps  # a step is taken only above the guard
        chosen = sorted(rng.choice(np.flatnonzero(p2 < 300.0 * eps), size=int(rng.integers(1, 11)),
                                   replace=False).tolist())
        p2[chosen] = 0.0
        state = _state(p2)
        w = state.best_node(p2.max())
        assert w not in chosen and p2[w] > state.pivot_guard
        assert p2[w] >= p2.max() - TIE_BAND_FACTOR
        assert not np.any((p2[:w] >= p2.max() - TIE_BAND_FACTOR) & (p2[:w] > state.pivot_guard))


def test_tolerance_stop_before_budget():
    # t = +12 on a unit-spectral graph damps the high Mercer weights hard, so
    # the squared power collapses below a loose tolerance well inside budget.
    rng = np.random.default_rng(23)
    g = random_connected_graph(rng, 20, unit_spectral=True)
    s = eigendecompose(laplacian(g))
    kern = diffusion_kernel(s, 12.0)
    state = select_nodes(kernel_matrix(s, kern), SelectorConfig(budget=19, tolerance=1e-3))
    assert state.stop_reason in ("power-tolerance", "residual-tolerance")
    assert len(state.chosen) < 19
    assert state.p2.max() < 1e-3


def test_numerical_exhaustion_stop():
    # t = +20 on a 30-node path leaves half the Mercer weights below rounding,
    # so the largest pivot falls under the guard while it is still far above
    # a tolerance of 1e-300.
    g = Graph(n=30, edges=tuple((i, i + 1, 1.0) for i in range(29)))
    s = eigendecompose(laplacian(g))
    state = select_nodes(kernel_matrix(s, diffusion_kernel(s, 20.0)), SelectorConfig(budget=30, tolerance=1e-300))
    assert state.stop_reason == "numerical-exhaustion"
    assert len(state.chosen) == 15
    assert 1e-300 < state.p2.max() <= state.pivot_guard
