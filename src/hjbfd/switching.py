"""Obstacle-coupled switching systems.

A switching system assigns each mode i a control subset A_i of a base
problem and couples the modes through the constraint

    v_i <= min_{j != i} v_j + k,     k > 0 the switching cost,

all modes starting from the same initial data.  One time level advances
by (a) computing each mode's candidate value with the plain theta-scheme
step restricted to A_i and (b) projecting onto the constraint by
Gauss-Seidel sweeps in fixed mode order until nothing changes; positive
k forbids switching cycles, so at most M sweeps are ever needed.

As k shrinks, every component approaches (from above) the solution of
the scalar problem with the union control set; `k_rate_experiment`
measures the decay of max_i |(v_i - u_ref)^+| against the scalar solve
on the same grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SchemeError
from .grid import GridFunction, SpaceTimeGrid
from .harness import RateReport, rate_report, signed_errors
from .problem import HJBProblem
from .scheme import SolveResult, ThetaScheme

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
    tol: float = 1e-11

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
                        builder=self.builder, tol=self.tol)
            for mode in self.mode_controls
        ]

    @property
    def n_modes(self) -> int:
        return len(self.mode_controls)

    def mode_schemes(self) -> list:
        return self._schemes


@dataclass
class SwitchingSolution:
    """Per-mode trajectories (lists of GridFunction over time levels)."""

    grid: SpaceTimeGrid
    trajectories: list = field(repr=False)
    k: float = 0.0

    def values(self, mode: int, n: int) -> np.ndarray:
        return self.trajectories[mode][n].values

    @property
    def n_modes(self) -> int:
        return len(self.trajectories)

    def final_values(self) -> list:
        return [traj[-1].values for traj in self.trajectories]

    def coupling_band_violation(self) -> float:
        """Worst max_i v_i - min_i v_i - k over all nodes and levels (<= 0 is clean)."""
        worst = -np.inf
        for n in range(len(self.trajectories[0])):
            stack = np.stack([self.values(i, n) for i in range(self.n_modes)])
            worst = max(worst, float(np.max(stack.max(axis=0) - stack.min(axis=0))) - self.k)
        return worst


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
    """March the coupled system from v_0 = (u0, ..., u0) to the horizon."""
    if check_cfl:
        for scheme in sp.mode_schemes():
            rep = scheme.cfl_check()
            if not rep.ok and not force:
                from .errors import CFLError
                raise CFLError(
                    f"CFL violated for a switching mode: explicit lhs "
                    f"{rep.worst_explicit:.6g}, implicit lhs {rep.worst_implicit:.6g}", rep)
    g = sp.grid
    u0 = sp.mode_schemes()[0].initial_values()
    vals = [u0.copy() for _ in range(sp.n_modes)]
    # initial data already satisfies the constraint (all components equal)
    trajs = [[GridFunction(g, v.copy())] for v in vals]
    for n in range(g.n_t):
        vals = switching_step(sp, vals, n * g.dt)
        for i, v in enumerate(vals):
            if not np.all(np.isfinite(v)):
                bad = np.argwhere(~np.isfinite(v))[0]
                raise SchemeError(
                    f"switching mode {i}: non-finite value at level {n + 1}, "
                    f"node {tuple(int(x) for x in bad)}")
            trajs[i].append(GridFunction(g, v.copy()))
    return SwitchingSolution(grid=g, trajectories=trajs, k=sp.k)


def k_rate_experiment(base: HJBProblem, mode_controls: list, grid: SpaceTimeGrid,
                      k_list, theta: float = 0.0, builder: str = "kushner",
                      reference: SolveResult | None = None) -> RateReport:
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
    """
    ks = sorted((float(k) for k in k_list), reverse=True)
    if len(ks) < 2:
        raise ConfigError("k rate experiment needs at least two k values")
    if reference is None:
        ref_scheme = ThetaScheme(base, grid, theta, builder=builder)
        reference = ref_scheme.solve()
    u_ref = reference.final.values

    rows = []
    for k in ks:
        sp = SwitchingProblem(base=base, mode_controls=mode_controls, k=k,
                              grid=grid, theta=theta, builder=builder)
        modes = np.stack(switching_solve(sp).final_values())
        rows.append((k, grid.dx, grid.dt, *signed_errors(modes, u_ref)))
    return rate_report("k", rows, 1.0 / 3.0, fit_plus=True)
