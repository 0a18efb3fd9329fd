"""Obstacle-coupled switching systems.

A switching system assigns each mode i a control subset A_i of a base
problem and couples the modes through the constraint

    v_i <= min_{j != i} v_j + k,     k > 0 the switching cost,

all modes starting from the same initial data.  The modes travel as one
stacked array of shape (M, *grid).  One time level advances by (a)
computing each mode's candidate value with the plain theta-scheme step
restricted to A_i and (b) projecting the stacked candidates onto the
constraint in closed form (`obstacle_projection`).

As k shrinks, every component approaches (from above) the solution of
the scalar problem with the union control set; `k_rate_experiment`
measures the decay of max_i |(v_i - u_ref)^+| against the scalar solve
on the same grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SchemeError
from .grid import GridFunction, SpaceTimeGrid, first_non_finite
from .harness import RateReport, rate_report, signed_errors
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
    """M modes over subsets of a base problem's controls, coupled with cost k."""

    base: HJBProblem
    mode_controls: list
    k: float
    grid: SpaceTimeGrid
    theta: float = 0.0
    builder: str = "kushner"
    schemes: list = field(init=False, repr=False)  # one ThetaScheme per mode

    def __post_init__(self):
        if self.k <= 0.0:
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
    over all nodes and levels, folded as the solve marches."""

    final: np.ndarray = field(repr=False)
    k: float
    spread: float

    def coupling_band_violation(self) -> float:
        """Worst max_i v_i - min_i v_i - k over all nodes and levels (<= 0 is clean)."""
        return self.spread - self.k


def obstacle_projection(v: np.ndarray, k: float) -> np.ndarray:
    """Project stacked mode values v, shape (M, *grid), onto the constraint:
    v_i <- min(v_i, min_{j != i} v_j + k), every mode from the same input.

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
    return np.stack([np.minimum(v[i], np.delete(v, i, axis=0).min(axis=0) + k)
                     for i in range(len(v))])


def switching_step(sp: SwitchingProblem, v: np.ndarray, t: float) -> np.ndarray:
    """Advance the stacked modes v, shape (M, *grid), one level from t:
    candidate scheme steps, then the projection."""
    return obstacle_projection(
        np.stack([scheme.step(vi, t)[0] for scheme, vi in zip(sp.schemes, v)]), sp.k)


def switching_solve(sp: SwitchingProblem) -> SwitchingSolution:
    """March the coupled system from v_0 = (u0, ..., u0) to the horizon,
    keeping only the current level and the folded coupling spread."""
    for scheme in sp.schemes:
        scheme.cfl_guard()
    g = sp.grid
    u0 = GridFunction(g, sp.schemes[0].initial_values()).values  # finite u0
    v = np.stack([u0] * len(sp.schemes))  # equal components satisfy the constraint
    spread = 0.0
    for n in range(g.n_t):
        v = switching_step(sp, v, n * g.dt)
        # a nan or inf anywhere in v makes this level's spread nan or inf
        level = float((np.maximum.reduce(v) - np.minimum.reduce(v)).max())
        if not math.isfinite(level) and (bad := first_non_finite(v)) is not None:
            i, *node = bad
            raise SchemeError(f"switching mode {i}: non-finite value at level {n + 1}, "
                              f"node {tuple(node)}")
        spread = max(spread, level)
    return SwitchingSolution(final=v, k=sp.k, spread=spread)


def k_rate_experiment(base: HJBProblem, mode_controls: list, grid: SpaceTimeGrid,
                      k_list, theta: float = 0.0,
                      builder: str = "kushner") -> tuple[RateReport, SwitchingSolution]:
    """Decay of the switching gap as the cost k shrinks, on one fixed grid.

    For each k the system is solved and compared at the final time against
    the scalar solve with the union control set on the same grid and time
    step.  The errors go through the harness's rate path with the mode
    values in the reference's place, so the orientation is v - u_ref, the
    opposite of the other studies: err_plus(k) = max_i |(v_i - u_ref)^+|_0
    is the switched value above the reference, and err_minus(k) =
    max_i |(v_i - u_ref)^-|_0 is the one-sided violation that stays at grid
    tolerance.  The slope of err_plus vs k is fitted log-log; identical
    errors across all k flag the report degenerate.

    Returns (report, solution at the smallest k), so a caller can check
    that solution without solving it again.
    """
    ks = sorted((float(k) for k in k_list), reverse=True)
    if len(ks) < 2:
        raise ConfigError("k rate experiment needs at least two k values")
    u_ref = ThetaScheme(base, grid, theta, builder=builder).solve().final.values

    rows = []
    for k in ks:
        sol = switching_solve(SwitchingProblem(base=base, mode_controls=mode_controls, k=k,
                                               grid=grid, theta=theta, builder=builder))
        rows.append((k, grid.dx, grid.dt, *signed_errors(sol.final, u_ref)))
    return rate_report("k", rows, 1.0 / 3.0, fit_plus=True), sol
