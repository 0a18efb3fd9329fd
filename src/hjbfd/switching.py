"""Obstacle-coupled switching systems.

A switching system assigns each mode i a control subset A_i of a base
problem and couples the modes through the constraint

    v_i <= min_{j != i} v_j + k,     k > 0 the switching cost,

all modes starting from the same initial data.  The modes travel as one
stacked array of shape (M, *grid).  One time level advances by (a)
computing each mode's candidate value with the plain theta-scheme step
restricted to A_i and (b) projecting the stacked candidates onto the
constraint in closed form (`obstacle_projection`).

k may also be a 1-D sequence of K costs; the state is then (M, K, *grid)
and each mode's step advances all K costs as one stack (B = K), bit for
bit as K separate solves would.  The mode axis stays a loop: stacking
the modes too would change the rounding of the per-mode products.

As k shrinks, every component approaches (from above) the solution of
the scalar problem with the union control set; `k_rate_experiment`
measures the decay of max_i |(v_i - u_ref)^+| against the scalar solve
on the same grid, marching all its costs at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SchemeError
from .grid import GridFunction, SpaceTimeGrid, first_non_finite
from .harness import RateReport, rate_report, signed_errors, study_levels
from .problem import HJBProblem
from .scheme import STUDY_TOL, ThetaScheme

__all__ = [
    "SwitchingProblem",
    "SwitchingSolution",
    "obstacle_projection",
    "switching_step",
    "switching_solve",
    "k_rate_experiment",
]


@dataclass
class SwitchingProblem:
    """M modes over subsets of a base problem's controls, coupled with cost
    k: one number, or a 1-D sequence of costs, stored as a float array, to
    solve together."""

    base: HJBProblem
    mode_controls: list
    k: float | np.ndarray
    grid: SpaceTimeGrid
    theta: float = 0.0
    builder: str = "kushner"
    schemes: list = field(init=False, repr=False)  # one ThetaScheme per mode

    def __post_init__(self):
        if np.ndim(self.k) > 0:
            self.k = np.array(self.k, dtype=float)
            if self.k.ndim != 1 or self.k.size == 0:
                raise ConfigError(f"switching costs must form a non-empty 1-D list, "
                                  f"got shape {self.k.shape}")
        if not np.all(np.asarray(self.k) > 0.0):
            raise ConfigError(f"switching cost k must be positive, got {self.k}")
        if len(self.mode_controls) < 2:
            raise ConfigError("switching system needs at least two modes")
        n = self.base.controls.count
        seen = set()
        for mode in self.mode_controls:
            if not mode:
                raise ConfigError("every mode needs at least one control")
            for idx in mode:
                if not (0 <= idx < n):
                    raise ConfigError(f"mode control index {idx} out of range")
                seen.add(idx)
        if seen != set(range(n)):
            raise ConfigError("mode control subsets must cover the full control set")
        self.schemes = [
            ThetaScheme(self.base.restrict(mode), self.grid, self.theta,
                        builder=self.builder, tol=STUDY_TOL)
            for mode in self.mode_controls
        ]


@dataclass
class SwitchingSolution:
    """What a switching solve keeps: every mode at the final time,
    final[i] of shape grid.shape, and the largest spread max_i v_i - min_i v_i
    over all nodes and levels, folded as the solve marches.  For a 1-D k,
    final is (M, K, *grid) and spread holds one value per cost."""

    final: np.ndarray = field(repr=False)
    k: float | np.ndarray
    spread: float | np.ndarray

    def coupling_band_violation(self):
        """Worst max_i v_i - min_i v_i - k over all nodes and levels (<= 0 is
        clean), one value per cost for a 1-D k."""
        return self.spread - self.k

    def cost(self, j: int) -> "SwitchingSolution":
        """The solution at the j-th cost of a 1-D k, as a scalar-k solve gives it."""
        return SwitchingSolution(final=self.final[:, j], k=float(self.k[j]),
                                 spread=float(self.spread[j]))


def obstacle_projection(v: np.ndarray, k) -> np.ndarray:
    """Project stacked mode values v, shape (M, *grid), onto the constraint:
    v_i <- min(v_i, min_{j != i} v_j + k), every mode from the same input.
    A 1-D k of K costs takes v of shape (M, K, *grid), cost j on v[:, j].

    For k > 0 this one pass gives the values that Gauss-Seidel sweeps in
    mode order settle on.  A sweep lowers v_i only to w = fl(v_l + k),
    l != i.  A later mode j then sees fl(w + k) >= w in place of
    fl(v_i + k) >= fl(w + k), as rounding is monotone and fl(x + k) >= x;
    and w is one of mode j's own candidates (l != j) or at least v_j
    (l = j).  So neither decides the minimum, and a second sweep changes
    nothing.  Only the sign of a zero at a -0.0/+0.0 tie can differ, which
    no later step or error norm turns into a different value.  A nan at a
    node spreads to every mode there, through min and minimum.
    """
    k = np.reshape(k, np.shape(k) + (1,) * (v.ndim - 1 - np.ndim(k)))
    return np.stack([np.minimum(v[i], np.delete(v, i, axis=0).min(axis=0) + k)
                     for i in range(len(v))])


def switching_step(sp: SwitchingProblem, v: np.ndarray, t: float) -> np.ndarray:
    """Advance the stacked modes v, shape (M, *grid) or (M, K, *grid), one
    level from t: one candidate scheme step per mode, then the projection."""
    return obstacle_projection(
        np.stack([scheme.step(vi, t)[0] for scheme, vi in zip(sp.schemes, v)]), sp.k)


def switching_solve(sp: SwitchingProblem) -> SwitchingSolution:
    """March the coupled system from v_0 = (u0, ..., u0) to the horizon,
    keeping only the current level and the folded coupling spread of each
    cost."""
    for scheme in sp.schemes:
        scheme.cfl_guard()
    g = sp.grid
    u0 = GridFunction(g, sp.schemes[0].initial_values()).values  # finite u0
    costs = np.shape(sp.k)  # () or (K,)
    # equal components satisfy the constraint
    v = np.broadcast_to(u0, (len(sp.schemes),) + costs + g.shape).copy()
    grid_axes = tuple(range(-g.dim, 0))
    spread = np.zeros(costs)
    for n in range(g.n_t):
        v = switching_step(sp, v, n * g.dt)
        # a nan or inf in a cost's members makes that cost's spread nan or inf
        level = (np.maximum.reduce(v) - np.minimum.reduce(v)).max(axis=grid_axes)
        if not np.isfinite(level).all() and (bad := first_non_finite(v)) is not None:
            i, *node = bad
            k = sp.k if not costs else sp.k[node.pop(0)]
            raise SchemeError(f"switching mode {i}: non-finite value at level {n + 1}, "
                              f"node {tuple(node)} (cost k={float(k)!r})")
        spread = np.maximum(spread, level)
    return SwitchingSolution(final=v, k=sp.k, spread=spread if costs else float(spread))


def k_rate_experiment(base: HJBProblem, mode_controls: list, grid: SpaceTimeGrid,
                      k_list, theta: float = 0.0,
                      builder: str = "kushner") -> tuple[RateReport, SwitchingSolution]:
    """Decay of the switching gap as the cost k shrinks, on one fixed grid.

    All costs are solved in one march (a 1-D k) and compared at the final
    time against the scalar solve with the union control set on the same
    grid and time step.  The errors go through the harness's rate path with
    the mode values in the reference's place, so the orientation is
    v - u_ref, the opposite of the other studies: err_plus(k) =
    max_i |(v_i - u_ref)^+|_0 is the switched value above the reference,
    and err_minus(k) = max_i |(v_i - u_ref)^-|_0 is the one-sided violation
    that stays at grid tolerance.  The slope of err_plus vs k is fitted
    log-log; identical errors across all k flag the report degenerate.

    Returns (report, solution at the smallest k), so a caller can check
    that solution without solving it again.
    """
    ks = study_levels([float(k) for k in k_list], "k rate experiment")
    u_ref = ThetaScheme(base, grid, theta, builder=builder).solve().final.values
    sol = switching_solve(SwitchingProblem(base=base, mode_controls=mode_controls, k=ks,
                                           grid=grid, theta=theta, builder=builder))
    rows = [(k, grid.dx, grid.dt, *signed_errors(sol.final[:, j], u_ref))
            for j, k in enumerate(ks)]
    return rate_report("k", rows, 1.0 / 3.0, fit_plus=True), sol.cost(len(ks) - 1)
