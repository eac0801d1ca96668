"""Greedy node selection by maximal posterior standard deviation.

Each step adds the node with the largest current squared power, then updates
all powers through one new Newton-basis column in O(n * k).  The column starts
from a row of the dense kernel matrix, the selection's only input (pivoted
Cholesky in Newton-basis form).  A residual of the constant-1 validation signal
is maintained through the same triangular recursion and both quantities feed
the stopping rule.  With a noise variance sigma^2 the same recursion, with
pivot p2(w) + sigma^2, factors K_W + sigma^2 I and gives the noisy posterior.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroPivotError
from .gpr import check_sigma2
from .graphs import smallest_in_band
from .kernels import kernel_column, kernel_diag  # noqa: F401  (unused; perfbench's spans look them up here until ROADMAP item 2)

DEFAULT_TOLERANCE = 1e-12

# Pivots below 10 eps times the largest initial squared power are numerically
# exhausted; stepping on them would divide rounding noise by itself.
PIVOT_GUARD_FACTOR = 10 * np.finfo(float).eps


@dataclass(frozen=True)
class SelectorConfig:
    """Budget of new nodes, optional warm-start set, stopping tolerance.

    Ties in the greedy argmax, up to a band of rounding noise, break to the
    smallest node id.
    """

    budget: int
    initial: tuple[int, ...] = ()
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        ini = tuple(int(v) for v in self.initial)
        if len(set(ini)) != len(ini):
            raise ValueError("initial set contains duplicate nodes")
        object.__setattr__(self, "initial", ini)

    def check(self, n: int) -> None:
        """Refuse a request that does not fit an n-node graph."""
        if self.budget + len(self.initial) > n:
            raise ValueError(
                f"budget {self.budget} plus warm-start size {len(self.initial)} "
                f"exceeds the node count {n}"
            )
        for v in self.initial:
            if not 0 <= v < n:
                raise ValueError(f"node id {v} out of range 0..{n - 1}")


@dataclass(frozen=True)
class StepRecord:
    node: int
    max_power: float
    max_residual: float


@dataclass
class SelectionState:
    """Running state of a selection: chosen nodes, kernel matrix, Newton basis,
    powers, residual, noise variance."""

    chosen: list[int]
    k: np.ndarray                 # (n, n) kernel matrix, C order, exactly symmetric
    basis: np.ndarray             # (n, capacity), C order; column j is the j-th Newton column
    p2: np.ndarray                # current squared power per node
    residual: np.ndarray          # constant-1 signal minus current interpolant
    history: list[StepRecord] = field(default_factory=list)
    p2_scale: float = 1.0         # max initial squared power, for the pivot guard
    stop_reason: str | None = None
    sigma2: float = 0.0           # noise variance; node w enters with pivot p2(w) + sigma2

    @property
    def newton(self) -> np.ndarray:
        """(n, k) Newton-basis columns at every node, one per chosen node."""
        return self.basis[:, : len(self.chosen)]

    @property
    def pivot_guard(self) -> float:
        return PIVOT_GUARD_FACTOR * self.p2_scale

    def best_node(self, best: float) -> int:
        """Smallest id whose squared power lies within the tie band of `best`, the
        maximum of `p2`, on the scale of the largest initial squared power.

        Nodes at or below the pivot guard never count, so a chosen node (p2 = 0)
        is never returned even when the band reaches down to zero.  The maximum
        must lie above the guard, as it does whenever a step is taken.
        """
        return smallest_in_band(self.p2, best, self.p2_scale, self.p2 > self.pivot_guard)

    def max_power(self) -> float:
        return float(np.sqrt(max(self.p2.max(), 0.0)))

    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residual)))


def new_state(k: np.ndarray, capacity: int, sigma2: float = 0.0) -> SelectionState:
    """Fresh state for up to `capacity` nodes on the full kernel matrix `k`:
    empty set, squared powers equal to its diagonal, noise variance `sigma2`.

    Each step reads one row of `k`, which must be C-ordered and exactly
    symmetric, as `kernel_matrix` builds it.  The Newton basis holds
    `capacity` columns.
    """
    check_sigma2(sigma2)
    n = k.shape[0]
    p2 = np.diag(k).copy()
    return SelectionState(
        chosen=[],
        k=k,
        basis=np.zeros((n, capacity)),
        p2=p2,
        residual=np.ones(n),
        p2_scale=float(max(p2.max(), np.finfo(float).tiny)),
        sigma2=float(sigma2),
    )


def power_update_step(state: SelectionState, w_new: int) -> SelectionState:
    """Add one node: new Newton column, squared-power and residual downdate.

    Mutates and returns `state`.  The pivot p2(w_new) + sigma2 must sit above
    the numerical guard or the selection is exhausted.
    """
    w_new = int(w_new)
    n = state.p2.shape[0]
    if not 0 <= w_new < n:  # before any indexing: K[-1] would wrap around
        raise ValueError(f"node id {w_new} out of range 0..{n - 1}")
    if w_new in state.chosen:
        raise ValueError(f"node {w_new} is already selected")
    if len(state.chosen) == state.basis.shape[1]:
        raise ValueError(f"the state is full: it holds {len(state.chosen)} nodes")
    col = state.k[w_new]  # K is exactly symmetric: row w is column w
    p2_w = float(state.p2[w_new])
    pivot = p2_w + state.sigma2
    if pivot <= state.pivot_guard:
        raise ZeroPivotError(
            f"pivot {pivot:.3e} at node {w_new} is at or below the guard "
            f"{state.pivot_guard:.3e}; the node set is numerically exhausted"
        )
    root = np.sqrt(pivot)
    newton_col = (col - state.newton @ state.newton[w_new]) / root

    state.p2 -= newton_col**2
    np.maximum(state.p2, 0.0, out=state.p2)
    # N_k(w_new) = p2_w / root identically, so the variance left at w_new is
    # p2_w * sigma2 / pivot (0 without noise); write it rather than trust the
    # downdate's cancellation.
    state.p2[w_new] = p2_w * state.sigma2 / pivot

    # The signal's new Newton coefficient is residual(w_new) / root; without
    # noise root = N_k(w_new), whose rounded value wipes the residual at w_new
    # exactly, while with noise N_k(w_new) may vanish.
    gamma = state.residual[w_new] / (newton_col[w_new] if state.sigma2 == 0 else root)
    state.residual -= gamma * newton_col

    state.basis[:, len(state.chosen)] = newton_col
    state.chosen.append(w_new)
    state.history.append(
        StepRecord(node=w_new, max_power=state.max_power(), max_residual=state.max_residual())
    )
    return state


def select_nodes(k: np.ndarray, config: SelectorConfig) -> SelectionState:
    """Run the greedy selection on the full kernel matrix `k` (as in
    `new_state`) until the budget or a tolerance stop.

    Stops when `budget` nodes beyond the warm-start set are chosen, or when
    the maximal squared power or the maximal absolute residual of the
    constant-1 signal falls below the tolerance.
    """
    config.check(k.shape[0])
    state = new_state(k, config.budget + len(config.initial))
    for w in config.initial:
        power_update_step(state, w)

    while len(state.chosen) - len(config.initial) < config.budget:
        best = float(state.p2.max())
        if best < config.tolerance:
            state.stop_reason = "power-tolerance"
            return state
        if state.max_residual() < config.tolerance:
            state.stop_reason = "residual-tolerance"
            return state
        if best <= state.pivot_guard:
            state.stop_reason = "numerical-exhaustion"
            return state
        power_update_step(state, state.best_node(best))
    state.stop_reason = "budget"
    return state
