"""Theta-method time stepping for the Bellman equation on the torus.

One step from t-dt to t solves, at every node x,

    u(t,x) = u(t-dt,x) - (1-theta) dt G(t-dt, u(t-dt))(x)
                       -      theta dt G(t,    u(t)   )(x),

    G(s, w)(x) = max_alpha { -L_h^alpha w(x) - c^alpha(s,x) w(x) - f^alpha(s,x) },

where L_h^alpha is a positive-type stencil for tr[a^alpha D^2] +
b^alpha . D built from sigma sigma^T (see stencil module).  theta = 0 is
explicit, theta = 1 implicit; the implicit part is solved by policy
iteration (freeze the per-node argmax, solve the resulting linear system
by Jacobi sweeps, re-select) with lowest-index tie breaking.

Probes (monotonicity, comparison bound, a-priori bound) are first-class
operations so CI can assert structure, not just convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CFLError, ConfigError, SchemeError
from .grid import GridFunction, SpaceTimeGrid
from .problem import HJBProblem
from .stencil import bz_decompose, bz_stencil, kushner_stencil

__all__ = [
    "ThetaScheme",
    "ComparisonConstants",
    "StepReport",
    "CFLReport",
    "ProbeResult",
    "SolveResult",
]

MAX_SWEEPS = 1_000_000  # Jacobi sweeps allowed per frozen-policy solve


@dataclass
class StepReport:
    """Per-step diagnostics: policy iterations, final residual, argmax field."""

    t: float
    policy_iterations: int
    max_residual: float
    argmax: np.ndarray = field(repr=False)


@dataclass
class CFLReport:
    """Worst left-hand sides of the two step-size conditions.

    explicit part: dt (1-theta) (-c + sum C) <= 1  at each node/control
    implicit part: dt theta (c - sum C) <= 1
    """

    ok: bool
    worst_explicit: float
    worst_implicit: float
    dt: float
    theta: float
    note: str = ""


@dataclass
class ProbeResult:
    passed: bool
    checked: int
    worst: float
    witness: str = ""


@dataclass
class SolveResult:
    grid: SpaceTimeGrid
    trajectory: list
    reports: list

    @property
    def final(self) -> GridFunction:
        return self.trajectory[-1]

    def values(self, n: int) -> np.ndarray:
        return self.trajectory[n].values


@dataclass
class ComparisonConstants:
    """lam = sup (c^alpha)^+ over controls/nodes/levels; mu = lam + 1."""

    lam: float

    @property
    def mu(self) -> float:
        return self.lam + 1.0

    @classmethod
    def for_scheme(cls, scheme: "ThetaScheme") -> "ComparisonConstants":
        pr, g = scheme.problem, scheme.grid
        X = g.nodes()
        lam = 0.0
        times = [0.0] if scheme._coeffs_static else g.times()
        for t in times:
            for i in range(pr.controls.count):
                lam = max(lam, float(np.max(np.maximum(pr.coeffs.c(i, t, X), 0.0))))
        return cls(lam=lam)


class _Ops:
    """Stacked per-control operator data at one time level."""

    __slots__ = ("offsets", "W", "csum", "c", "f", "per_node")

    def __init__(self, offsets, W, csum, c, f, per_node):
        self.offsets = offsets
        self.W = W            # (n_c, n_o) or (n_c, n_o, *grid)
        self.csum = csum      # (n_c,) or (n_c, *grid)
        self.c = c            # (n_c, *grid)
        self.f = f            # (n_c, *grid)
        self.per_node = per_node


class ThetaScheme:
    """Theta-method scheme for an HJBProblem on a SpaceTimeGrid."""

    def __init__(self, problem: HJBProblem, grid: SpaceTimeGrid, theta: float,
                 builder: str = "kushner", bz_order: int = 2, tol: float = 1e-10,
                 max_policy_iters: int = 100, forcing=None):
        if not (0.0 <= theta <= 1.0):
            raise ConfigError(f"theta must lie in [0, 1], got {theta}")
        if builder not in ("kushner", "bz"):
            raise ConfigError(f"unknown stencil builder {builder!r}")
        if problem.dim != grid.dim:
            raise ConfigError("problem and grid dimensions differ")
        if abs(problem.period - grid.period) > 1e-12 * problem.period:
            raise ConfigError("problem and grid periods differ")
        if abs(problem.T - grid.T) > 1e-12 * problem.T:
            raise ConfigError("problem horizon and grid horizon differ")
        self.problem = problem
        self.grid = grid
        self.theta = float(theta)
        self.builder = builder
        self.bz_order = bz_order
        self.tol = float(tol)
        self.max_policy_iters = int(max_policy_iters)
        self.forcing = forcing
        self._nodes = grid.nodes()
        self._coeffs_static = all(problem.coeffs.fully_static(i)
                                  for i in range(problem.controls.count))
        self._stencils_static = all(problem.coeffs.stencil_static(i)
                                    for i in range(problem.controls.count))
        self._static_ops = None
        self._static_stencils = None
        self._static_weights = None

    # ----- operator assembly -------------------------------------------------

    def _build_stencil(self, i: int, t: float):
        pr, g = self.problem, self.grid
        X = self._nodes
        ssq = pr.coeffs.ssq(i, t, X)
        b = pr.coeffs.b(i, t, X)
        # constant-coefficient fast path: collapse per-node arrays to scalars
        flat_m = ssq.reshape(-1, pr.dim, pr.dim)
        flat_b = b.reshape(-1, pr.dim)
        uniform = bool(np.all(flat_m == flat_m[0]) and np.all(flat_b == flat_b[0]))
        if self.builder == "kushner":
            if uniform:
                return kushner_stencil(flat_m[0], flat_b[0], g.dx)
            return kushner_stencil(ssq, b, g.dx)
        # direction-decomposition route, consistent scaling: the operator
        # (1/2) sum w_beta (second difference along beta) matches
        # (1/2) tr[ssq D^2] when sum w_beta beta beta^T = ssq.
        if not uniform:
            raise ConfigError("bz builder requires space-independent sigma, b")
        dec = bz_decompose(flat_m[0], max_order=self.bz_order)
        if dec.residual_norm > 1e-12:
            raise ConfigError(
                f"bz builder: decomposition residual {dec.residual_norm:.3e} too large"
            )
        scaled = type(dec)(dim=dec.dim, directions=dec.directions,
                           weights=np.asarray(dec.weights) * np.array(
                               [sum(c * c for c in d) for d in dec.directions], dtype=float) / 2.0,
                           residual=dec.residual)
        return bz_stencil(scaled, flat_b[0], g.dx)

    def _stencils_at(self, t: float):
        if self._stencils_static:
            if self._static_stencils is None:
                self._static_stencils = [self._build_stencil(i, 0.0)
                                         for i in range(self.problem.controls.count)]
            return self._static_stencils
        return [self._build_stencil(i, t) for i in range(self.problem.controls.count)]

    def _weights_at(self, t: float):
        """Stacked stencil weights (offsets, W, csum, per_node) at time t."""
        if self._stencils_static and self._static_weights is not None:
            return self._static_weights
        g = self.grid
        n_c = self.problem.controls.count
        stencils = self._stencils_at(t)
        offsets = tuple(sorted({off for st in stencils for off in st.entries}))
        per_node = any(np.ndim(w) != 0 for st in stencils for w in st.entries.values())
        if per_node:
            W = np.zeros((n_c, len(offsets)) + g.shape)
            for k, st in enumerate(stencils):
                for o, off in enumerate(offsets):
                    W[k, o] = np.broadcast_to(np.asarray(st.weight(off), dtype=float), g.shape)
        else:
            W = np.zeros((n_c, len(offsets)))
            for k, st in enumerate(stencils):
                for o, off in enumerate(offsets):
                    W[k, o] = float(st.weight(off))
        packed = (offsets, W, W.sum(axis=1), per_node)
        if self._stencils_static:
            self._static_weights = packed
        return packed

    def _ops_at(self, t: float) -> _Ops:
        if self._coeffs_static and self._static_ops is not None:
            return self._static_ops
        pr, g = self.problem, self.grid
        n_c = pr.controls.count
        offsets, W, csum, per_node = self._weights_at(t)
        X = self._nodes
        c = np.stack([np.broadcast_to(pr.coeffs.c(i, t, X), g.shape) for i in range(n_c)])
        f = np.stack([np.broadcast_to(pr.coeffs.f(i, t, X), g.shape) for i in range(n_c)])
        if self.forcing is not None:
            f = f + np.broadcast_to(np.asarray(self.forcing, dtype=float), g.shape)
        ops = _Ops(offsets, W, csum, c, f, per_node)
        if self._coeffs_static:
            self._static_ops = ops
        return ops

    def _rolls(self, u: np.ndarray, offsets) -> np.ndarray:
        if not offsets:  # zero-order problem: no neighbor terms
            return np.zeros((0,) + u.shape)
        axes = tuple(range(u.ndim))
        return np.stack([np.roll(u, tuple(-c for c in off), axis=axes) for off in offsets])

    def _hamiltonian(self, ops: _Ops, u: np.ndarray):
        """G(s, u) = max_alpha(-L_h u - c u - f) and its argmax field."""
        R = self._rolls(u, ops.offsets)
        if ops.per_node:
            Lu = np.einsum("co...,o...->c...", ops.W, R) - ops.csum * u[None]
        else:
            Lu = np.tensordot(ops.W, R, axes=([1], [0]))
            Lu -= ops.csum.reshape((-1,) + (1,) * u.ndim) * u[None]
        vals = -Lu - ops.c * u[None] - ops.f
        P = np.argmax(vals, axis=0)
        G = np.take_along_axis(vals, P[None], axis=0)[0]
        return G, P

    def _policy_solve(self, ops: _Ops, P: np.ndarray, rhs: np.ndarray, inner_tol: float):
        """Solve (1 + theta dt (sumC - c)) u - theta dt sum_beta C u(.+beta)
        = rhs + theta dt f for the frozen policy, by Jacobi sweeps."""
        th_dt = self.theta * self.grid.dt
        if ops.per_node:
            W_P = np.take_along_axis(ops.W, P[None, None], axis=0)[0]  # (n_o, *grid)
            csum_P = np.take_along_axis(ops.csum, P[None], axis=0)[0]
        else:
            W_P = ops.W[P]                                             # (*grid, n_o)
            csum_P = ops.csum[P]
        c_P = np.take_along_axis(ops.c, P[None], axis=0)[0]
        f_P = np.take_along_axis(ops.f, P[None], axis=0)[0]
        diag = 1.0 + th_dt * (csum_P - c_P)
        if np.any(diag <= 0.0):
            raise SchemeError("implicit step: nonpositive diagonal (step too large for c)")
        b_rhs = rhs + th_dt * f_P
        u = rhs.copy()
        for _ in range(MAX_SWEEPS):
            R = self._rolls(u, ops.offsets)
            if ops.per_node:
                off = np.einsum("o...,o...->...", W_P, R)
            else:
                off = np.einsum("...o,o...->...", W_P, R)
            res = diag * u - th_dt * off - b_rhs
            if float(np.max(np.abs(res))) <= inner_tol:
                return u
            u = (b_rhs + th_dt * off) / diag
        raise SchemeError(
            f"implicit step: Jacobi sweeps failed to reach {inner_tol:.1e} "
            f"within {MAX_SWEEPS} sweeps"
        )

    # ----- stepping -----------------------------------------------------------

    def implicit_step(self, rhs: np.ndarray, t: float, inner_tol: float | None = None):
        """Solve u + theta dt G(t, u) = rhs by policy iteration."""
        ops = self._ops_at(t)
        th_dt = self.theta * self.grid.dt
        tol = self.tol if inner_tol is None else inner_tol
        u = rhs.copy()
        for it in range(self.max_policy_iters + 1):
            G, P = self._hamiltonian(ops, u)
            res = float(np.max(np.abs(u + th_dt * G - rhs)))
            if res <= tol:
                return u, StepReport(t=t, policy_iterations=it, max_residual=res, argmax=P)
            if it == self.max_policy_iters:
                break
            u = self._policy_solve(ops, P, rhs, inner_tol=0.2 * tol)
        raise SchemeError(
            f"policy iteration did not converge within {self.max_policy_iters} "
            f"iterations at t={t!r} (residual {res:.3e})"
        )

    def step(self, u_prev: np.ndarray, t_prev: float, inner_tol: float | None = None):
        """Advance one level from t_prev.  Returns (values, report)."""
        dt = self.grid.dt
        if self.theta < 1.0:
            ops = self._ops_at(t_prev)
            G, P = self._hamiltonian(ops, u_prev)
            rhs = u_prev - (1.0 - self.theta) * dt * G
        else:
            rhs, P = u_prev, None
        if self.theta == 0.0:
            report = StepReport(t=t_prev + dt, policy_iterations=0, max_residual=0.0, argmax=P)
            return rhs, report
        vals, report = self.implicit_step(rhs, t_prev + dt, inner_tol=inner_tol)
        return vals, report

    def initial_values(self) -> np.ndarray:
        return self.problem.u0_values(self._nodes)

    def solve(self, check_cfl: bool = True, force: bool = False) -> SolveResult:
        """March from u0 to T.  Raises CFLError unless forced; fails fast on NaN."""
        if check_cfl:
            rep = self.cfl_check()
            if not rep.ok and not force:
                raise CFLError(
                    f"CFL violated: explicit lhs {rep.worst_explicit:.6g}, "
                    f"implicit lhs {rep.worst_implicit:.6g} (must be <= 1)", rep)
        g = self.grid
        u = self.initial_values()
        traj = [GridFunction(g, u.copy())]
        reports = []
        for n in range(g.n_t):
            u, rep = self.step(u, n * g.dt)
            if not np.all(np.isfinite(u)):
                bad = np.argwhere(~np.isfinite(u))[0]
                raise SchemeError(
                    f"non-finite value at t={rep.t!r}, node {tuple(int(k) for k in bad)}"
                )
            traj.append(GridFunction(g, u.copy()))
            reports.append(rep)
        return SolveResult(grid=g, trajectory=traj, reports=reports)

    # ----- checks and probes --------------------------------------------------

    def cfl_check(self) -> CFLReport:
        """Report-only check of both step-size conditions at every node,
        control and time level (single level when coefficients are static)."""
        pr, g = self.problem, self.grid
        X = self._nodes
        worst_e = -math.inf
        worst_i = -math.inf
        times = [0.0] if self._coeffs_static and self._stencils_static else list(g.times())
        for t in times:
            ops = self._ops_at(t)
            csum = ops.csum if ops.per_node else ops.csum.reshape((-1,) + (1,) * g.dim)
            lhs_e = g.dt * (1.0 - self.theta) * (-ops.c + csum)
            lhs_i = g.dt * self.theta * (ops.c - csum)
            worst_e = max(worst_e, float(np.max(lhs_e)))
            worst_i = max(worst_i, float(np.max(lhs_i)))
        ok = worst_e <= 1.0 + 1e-12 and worst_i <= 1.0 + 1e-12
        return CFLReport(ok=ok, worst_explicit=worst_e, worst_implicit=worst_i,
                         dt=g.dt, theta=self.theta)

    def monotonicity_probe(self, trials: int = 100, seed: int = 0,
                           slack: float = 1e-12) -> ProbeResult:
        """Step random ordered pairs u <= v once; order must be preserved
        nodewise up to `slack`.  Implicit steps run with a tightened inner
        tolerance so solver error cannot masquerade as a violation."""
        rng = np.random.default_rng(seed)
        g = self.grid
        worst = 0.0
        witness = ""
        inner = min(self.tol, 1e-13)
        for trial in range(trials):
            u = rng.uniform(-1.0, 1.0, size=g.shape)
            v = u + rng.uniform(0.0, 1.0, size=g.shape)
            su, _ = self.step(u, 0.0, inner_tol=inner)
            sv, _ = self.step(v, 0.0, inner_tol=inner)
            gap = float(np.min(sv - su))
            if gap < -worst:
                worst = -gap
                node = np.unravel_index(int(np.argmin(sv - su)), g.shape)
                witness = (f"trial {trial}: step(v) - step(u) = {gap:.3e} at node "
                           f"{tuple(int(k) for k in node)}")
        return ProbeResult(passed=worst <= slack, checked=trials, worst=worst, witness=witness)

    def comparison_bound_check(self, u_result: SolveResult, v_result: SolveResult,
                               g1, g2, slack: float = 1e-9) -> ProbeResult:
        """Check u - v <= e^{mu t} |(u(0)-v(0))^+| + 2 t e^{mu t} |(g1-g2)^+|
        at every time level, with mu = sup (c^alpha)^+ + 1."""
        mu = ComparisonConstants.for_scheme(self).mu
        d0 = float(np.max(np.maximum(u_result.values(0) - v_result.values(0), 0.0)))
        gdiff = np.asarray(g1, dtype=float) - np.asarray(g2, dtype=float)
        gplus = float(np.max(np.maximum(gdiff, 0.0)))
        worst = -math.inf
        witness = ""
        for n, t in enumerate(self.grid.times()):
            lhs = float(np.max(u_result.values(n) - v_result.values(n)))
            bound = math.exp(mu * t) * d0 + 2.0 * t * math.exp(mu * t) * gplus
            excess = lhs - bound
            if excess > worst:
                worst = excess
                witness = f"t={t!r}: max(u-v)={lhs!r} vs bound {bound!r}"
        return ProbeResult(passed=worst <= slack, checked=self.grid.n_t + 1,
                           worst=worst, witness=witness)

    def apriori_bounds_check(self, result: SolveResult, slack: float = 0.05) -> ProbeResult:
        """Check |u(t)|_0 <= e^{lam t} (|u0|_0 + t sup|f|) (1 + slack) at every level."""
        pr, g = self.problem, self.grid
        lam = ComparisonConstants.for_scheme(self).lam
        X = self._nodes
        supf = 0.0
        times = [0.0] if self._coeffs_static else g.times()
        for t in times:
            for i in range(pr.controls.count):
                supf = max(supf, float(np.max(np.abs(pr.coeffs.f(i, t, X)))))
        if self.forcing is not None:
            supf += float(np.max(np.abs(np.asarray(self.forcing, dtype=float))))
        u0 = float(np.max(np.abs(result.values(0))))
        worst = -math.inf
        witness = ""
        for n, t in enumerate(g.times()):
            lhs = float(np.max(np.abs(result.values(n))))
            bound = math.exp(lam * t) * (u0 + t * supf) * (1.0 + slack)
            if lhs - bound > worst:
                worst = lhs - bound
                witness = f"t={t!r}: |u|={lhs!r} vs bound {bound!r}"
        return ProbeResult(passed=worst <= 0.0, checked=g.n_t + 1, worst=max(worst, 0.0),
                           witness=witness)
