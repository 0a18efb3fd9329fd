"""Obstacle-coupled switching systems.

A switching system assigns each mode i a control subset A_i of a base
problem and couples the modes through the constraint

    v_i <= min_{j != i} v_j + k,     k > 0 the switching cost,

all modes starting from the same initial data.  One time level advances
by (a) computing each mode's candidate value with the plain theta-scheme
step restricted to A_i and (b) projecting onto the constraint by
Gauss-Seidel sweeps in fixed mode order until nothing changes; positive
k forbids switching cycles, so at most M sweeps are ever needed.

`switching_solve` holds only the current level of every mode and folds
the coupling-band spread as it marches.

As k shrinks, every component approaches (from above) the solution of
the scalar problem with the union control set; `k_rate_experiment`
measures the decay of max_i |(v_i - u_ref)^+| against the scalar solve
on the same grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CFLError, ConfigError, SchemeError
from .grid import GridFunction, SpaceTimeGrid
from .harness import RateReport, rate_report, signed_errors
from .problem import HJBProblem
from .scheme import STUDY_TOL, ThetaScheme

__all__ = [
    "SwitchingProblem",
    "SwitchingSolution",
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
        self._schemes = [
            ThetaScheme(self.base.restrict(mode), self.grid, self.theta,
                        builder=self.builder, tol=STUDY_TOL)
            for mode in self.mode_controls
        ]

    @property
    def n_modes(self) -> int:
        return len(self.mode_controls)

    def mode_schemes(self) -> list:
        return self._schemes


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


def _obstacle_sweeps(vals: list, k: float) -> list:
    """Gauss-Seidel projection v_i <- min(v_i, min_{j != i} v_j + k) to a fixed point.

    Positive k allows at most M changing sweeps; 2M + 2 leaves a margin."""
    M = len(vals)
    vals = [v.copy() for v in vals]
    for _ in range(2 * M + 2):
        changed = False
        for i in range(M):
            others = np.min(np.stack([vals[j] for j in range(M) if j != i]), axis=0)
            clipped = np.minimum(vals[i], others + k)
            if np.any(clipped != vals[i]):
                vals[i] = clipped
                changed = True
        if not changed:
            return vals
    if not all(np.isfinite(v).all() for v in vals):
        return vals  # nan != nan keeps a sweep "changing"; the caller names the node
    raise SchemeError("obstacle projection did not reach a fixed point")


def switching_step(sp: SwitchingProblem, v_prev: list, t_prev: float) -> list:
    """Advance all modes one level: candidate scheme steps, then projection."""
    cands = []
    for scheme, v in zip(sp.mode_schemes(), v_prev):
        w, _ = scheme.step(np.asarray(v, dtype=float), t_prev)
        cands.append(w)
    return _obstacle_sweeps(cands, sp.k)


def switching_solve(sp: SwitchingProblem, check_cfl: bool = True,
                    force: bool = False) -> SwitchingSolution:
    """March the coupled system from v_0 = (u0, ..., u0) to the horizon,
    keeping only the current level and the folded coupling spread."""
    if check_cfl:
        for scheme in sp.mode_schemes():
            rep = scheme.cfl_check()
            if not rep.ok and not force:
                raise CFLError(
                    f"CFL violated for a switching mode: explicit lhs "
                    f"{rep.worst_explicit:.6g}, implicit lhs {rep.worst_implicit:.6g}", rep)
    g = sp.grid
    u0 = GridFunction(g, sp.mode_schemes()[0].initial_values()).values  # finite u0
    v = np.stack([u0] * sp.n_modes)  # equal components satisfy the constraint
    spread = 0.0
    for n in range(g.n_t):
        v = np.array(switching_step(sp, v, n * g.dt))
        # a nan or inf anywhere in v makes this level's spread nan or inf
        level = float((np.maximum.reduce(v) - np.minimum.reduce(v)).max())
        if not math.isfinite(level) and not np.all(np.isfinite(v)):
            i, *node = (int(x) for x in np.argwhere(~np.isfinite(v))[0])
            raise SchemeError(f"switching mode {i}: non-finite value at level {n + 1}, "
                              f"node {tuple(node)}")
        spread = max(spread, level)
    return SwitchingSolution(final=v, k=sp.k, spread=spread)


def k_rate_experiment(base: HJBProblem, mode_controls: list, grid: SpaceTimeGrid,
                      k_list, theta: float = 0.0, builder: str = "kushner",
                      finest: list | None = None) -> RateReport:
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

    When `finest` is given, the SwitchingSolution at the smallest k is
    appended to it, so a caller can check that solution without solving
    it again.
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
        if finest is not None and k == ks[-1]:
            finest.append(sol)
    return rate_report("k", rows, 1.0 / 3.0, fit_plus=True)
