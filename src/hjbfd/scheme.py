"""Theta-method time stepping for the Bellman equation on the torus.

One step from t-dt to t solves, at every node x,

    u(t,x) = u(t-dt,x) - (1-theta) dt G(t-dt, u(t-dt))(x)
                       -      theta dt G(t,    u(t)   )(x),

    G(s, w)(x) = max_alpha { -L_h^alpha w(x) - c^alpha(s,x) w(x) - f^alpha(s,x) },

where L_h^alpha is a positive-type stencil for tr[a^alpha D^2] +
b^alpha . D built from sigma sigma^T (see stencil module).  At each time
level the stencils of all controls form one stacked operator (a weight
array and a neighbour index, see `_Ops`), applied by one gather and one
contraction wherever the scheme needs L_h.  theta = 0 is
explicit, theta = 1 implicit; the implicit part is solved by policy
iteration (freeze the per-node argmax, solve the resulting linear system
by Jacobi sweeps, re-select) with lowest-index tie breaking.  Each
operator keeps the frozen-policy systems of its last FROZEN_POLICIES
distinct policies (least recently used out), so a policy seen again
reuses its weights, diagonal and scaled source; reuse repeats the same
arithmetic, so results are bit-identical to rebuilding them.  Likewise an
implicit step returns its level read-only and keeps the Hamiltonian it last
evaluated there, which the next theta = 1 step from that level reuses.

`ThetaScheme.march` is the only time loop: it yields each level as it is
computed and keeps none.  `solve` folds it into the final level and the
largest policy-iteration count, so memory does not grow with n_t; a caller
that needs every level walks `march()` or replays `SolveResult.levels()`.

Probes (monotonicity, comparison bound, a-priori bound) are first-class
operations so CI can assert structure, not just convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CFLError, ConfigError, SchemeError
from .grid import GridFunction, SpaceTimeGrid, first_non_finite
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
MAX_POLICY_ITERS = 100  # policy iterations allowed per implicit step
FROZEN_POLICIES = 4     # frozen-policy systems an operator keeps, least recently used out
BZ_ORDER = 2            # largest direction component the 'bz' builder tries
STUDY_TOL = 1e-11       # policy-iteration tolerance of the semigroup and switching studies
MONOTONE_SLACK = 1e-12  # order violation the scheme's monotonicity probe forgives
COMPARISON_SLACK = 1e-9  # excess over the discrete comparison bound that is forgiven
APRIORI_SLACK = 0.05    # relative margin on the a-priori sup-norm bound


@dataclass
class StepReport:
    """Per-step diagnostics: policy iterations, Jacobi sweeps summed over
    them (0 for an explicit step), final residual, Hamiltonian evaluations
    (one per call of the scheme's Hamiltonian, a stacked call counting once),
    argmax field."""

    t: float
    policy_iterations: int
    sweeps: int
    max_residual: float
    hamiltonians: int
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


def probe_monotone(step_fn, shape, trials: int, seed: int, slack: float) -> ProbeResult:
    """Apply step_fn to `trials` random ordered pairs u <= v of the given
    shape; step_fn(v) - step_fn(u) must stay >= -slack at every node.  The
    witness names the trial and node of the worst violation."""
    if trials < 1:
        raise ConfigError(f"monotonicity probe needs trials >= 1, got {trials}")
    if seed < 0:
        raise ConfigError(f"monotonicity probe needs seed >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = ""
    for trial in range(trials):
        u = rng.uniform(-1.0, 1.0, size=shape)
        v = u + rng.uniform(0.0, 1.0, size=shape)
        diff = step_fn(v) - step_fn(u)
        gap = float(np.min(diff))
        if gap < -worst:
            worst = -gap
            node = np.unravel_index(int(np.argmin(diff)), diff.shape)
            witness = (f"trial {trial}: step(v) - step(u) = {gap:.3e} at node "
                       f"{tuple(int(k) for k in node)}")
    return ProbeResult(passed=worst <= slack, checked=trials, worst=worst, witness=witness)


@dataclass
class SolveResult:
    """What a solve keeps: the final level and the largest policy-iteration
    count.  `levels()` replays the march, so no level is stored."""

    scheme: "ThetaScheme" = field(repr=False)
    final: GridFunction
    max_policy_iters: int

    def levels(self):
        """Yield u at t_0, ..., t_{n_t} by marching again; the march is
        deterministic, so the replay is bit-identical to the solve.  The
        replay is forced: the solve already passed, or was forced past, the
        step-size check."""
        return (u for u, _ in self.scheme.march(force=True))


@dataclass
class ComparisonConstants:
    """lam = sup (c^alpha)^+ over controls/nodes/levels; mu = lam + 1."""

    lam: float

    @property
    def mu(self) -> float:
        return self.lam + 1.0

    @classmethod
    def for_scheme(cls, scheme: "ThetaScheme") -> "ComparisonConstants":
        times = [0.0] if scheme._stencils_static else scheme.grid.times()
        lam = max(float(np.max(np.maximum(scheme._c_at(t), 0.0))) for t in times)
        return cls(lam=lam)


class _Ops:
    """Stacked per-control operator at one time level:

        L_h^alpha u = sum_o W[alpha, o] u.flat[nbr[o]] - csum[alpha] u.

    The weight arrays end in the grid shape, or in ones when no weight
    varies in space, so broadcasting serves both cases.  `csum`, `c` and
    `f` carry a unit axis after the control axis, where a stack of B
    states puts its member axis.  The Hamiltonian contracts
    space-independent weights as one dense matrix product, whose rounding
    matches a BLAS product over the whole grid.

    `frozen` maps a policy's bytes to its frozen-policy system (W_P, the
    diagonal, theta dt f_P), most recently used last; an entry is stored
    only once its diagonal has passed the positivity check."""

    __slots__ = ("W", "Wmat", "csum", "nbr", "c", "f", "frozen", "stacks")

    def __init__(self, W, csum, nbr, c, f):
        n_c, n_o = W.shape[:2]
        self.W = W            # (n_c, n_o, *grid) or (n_c, n_o, 1, ..., 1)
        # (n_c, n_o) when no weight varies in space, else None
        self.Wmat = W.reshape(n_c, n_o) if math.prod(W.shape[2:]) == 1 else None
        self.csum = csum[:, None]  # W summed over offsets: (n_c, 1, *grid) or (n_c, 1, ..., 1)
        self.nbr = nbr        # (n_o, *grid) flat index of each node's neighbour per offset
        self.c = c[:, None]   # (n_c, 1, *grid)
        self.f = f[:, None]   # (n_c, 1, *grid)
        self.frozen = {}
        self.stacks = {}

    def stack_index(self, size: int):
        """Flat neighbour index (n_o, size) of a stack of size // N states,
        N the node count; built once per size."""
        nbr = self.stacks.get(size)
        if nbr is None:
            n_o, N = len(self.nbr), self.c[0].size
            nbr = self.nbr.reshape(n_o, N)  # a view when size == N
            if size != N:
                nbr = (nbr[:, None] + np.arange(0, size, N)[:, None]).reshape(n_o, size)
            self.stacks[size] = nbr
        return nbr


class ThetaScheme:
    """Theta-method scheme for an HJBProblem on a SpaceTimeGrid."""

    def __init__(self, problem: HJBProblem, grid: SpaceTimeGrid, theta: float,
                 builder: str = "kushner", tol: float = 1e-10, forcing=None):
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
        self.tol = float(tol)
        self.forcing = forcing
        self._nodes = grid.nodes()
        self._coeffs_static = all(problem.coeffs.fully_static(i)
                                  for i in range(len(problem.coeffs)))
        self._stencils_static = all(problem.coeffs.stencil_static(i)
                                    for i in range(len(problem.coeffs)))
        self._static_ops = None
        self._static_weights = None
        self._carry = None  # (ops, u, G, P) of the last implicit step, see implicit_step

    # ----- operator assembly -------------------------------------------------

    def _build_stencil(self, i: int, t: float):
        """Stencil of control i at time t: scalar weights when its sigma and b
        are constants (evaluated at one node), per-node weights otherwise."""
        pr, g = self.problem, self.grid
        if callable(pr.coeffs[i].sigma) or callable(pr.coeffs[i].b):
            if self.builder == "bz":
                raise ConfigError("bz builder requires constant sigma and b")
            return kushner_stencil(pr.coeffs.ssq(i, t, self._nodes),
                                   pr.coeffs.b(i, t, self._nodes), g.dx)
        X = self._nodes.reshape(-1, pr.dim)[:1]
        ssq, b = pr.coeffs.ssq(i, t, X)[0], pr.coeffs.b(i, t, X)[0]
        if self.builder == "kushner":
            return kushner_stencil(ssq, b, g.dx)
        return bz_stencil(bz_decompose(ssq, max_order=BZ_ORDER), b, g.dx)

    def _weights_at(self, t: float):
        """Stacked stencil weights W, their offset sums csum and the neighbour
        index nbr at time t (built once when the stencils are static)."""
        if self._static_weights is not None:
            return self._static_weights
        g = self.grid
        stencils = [self._build_stencil(i, t) for i in range(len(self.problem.coeffs))]
        offsets = sorted({off for st in stencils for off in st.entries})
        varies = any(np.ndim(w) != 0 for st in stencils for w in st.entries.values())
        W = np.zeros((len(stencils), len(offsets)) + (g.shape if varies else (1,) * g.dim))
        for k, st in enumerate(stencils):
            for o, off in enumerate(offsets):
                W[k, o] = st.weight(off)
        idx = np.arange(g.n_nodes).reshape(g.shape)
        axes = tuple(range(g.dim))
        nbr = np.array([np.roll(idx, tuple(-c for c in off), axis=axes) for off in offsets],
                       dtype=np.intp).reshape((len(offsets),) + g.shape)
        packed = (W, W.sum(axis=1), nbr)
        if self._stencils_static:
            self._static_weights = packed
        return packed

    def _c_at(self, t: float) -> np.ndarray:
        """Stacked discount rates c^alpha(t, .), shape (n_c, *grid)."""
        pr, g = self.problem, self.grid
        return np.stack([np.broadcast_to(pr.coeffs.c(i, t, self._nodes), g.shape)
                         for i in range(len(pr.coeffs))])

    def _ops_at(self, t: float) -> _Ops:
        if self._static_ops is not None:
            return self._static_ops
        pr, g = self.problem, self.grid
        W, csum, nbr = self._weights_at(t)
        f = np.stack([np.broadcast_to(pr.coeffs.f(i, t, self._nodes), g.shape)
                      for i in range(len(pr.coeffs))])
        if self.forcing is not None:
            f = f + np.broadcast_to(np.asarray(self.forcing, dtype=float), g.shape)
        ops = _Ops(W, csum, nbr, self._c_at(t), f)
        if self._coeffs_static:
            self._static_ops = ops
        return ops

    def _hamiltonian(self, ops: _Ops, u: np.ndarray):
        """G(s, u) = max_alpha(-L_h u - c u - f) and its argmax field, for
        one state of the grid's shape or a stack of B states (B, *grid).

        The max is one running selection over the controls: control k
        replaces the best so far where its value is larger or NaN.  A tie,
        -0.0 against +0.0 included, goes to the lowest index, and G holds
        the chosen value's own bits; a NaN is selected, so it reaches the
        callers' non-finite checks."""
        nb = u.reshape(-1)[ops.stack_index(u.size)]                          # (n_o, B N)
        stack = (-1,) + self.grid.shape                                      # (B, *grid)
        if ops.Wmat is None:
            Lu = np.einsum("co...,ob...->cb...", ops.W, nb.reshape((len(nb),) + stack))
        else:  # space-independent weights: one (n_c, n_o) @ (n_o, B N) matrix product
            Lu = (ops.Wmat @ nb).reshape((len(ops.Wmat),) + stack)
        Lu -= ops.csum * u
        vals = np.negative(Lu, out=Lu)  # -Lu - c u - f, one temporary fewer
        vals -= ops.c * u
        vals -= ops.f
        G, P = vals[0], np.zeros(vals.shape[1:], np.intp)
        for k in range(1, len(vals)):
            v = vals[k]
            better = v > G
            better |= v != v
            G = np.where(better, v, G)
            P = np.where(better, k, P)
        return G.reshape(u.shape), P.reshape(u.shape)

    def _frozen_system(self, ops: _Ops, P: np.ndarray):
        """(W_P, diag, theta dt f_P) of the frozen policy P, from the operator's
        cache when P was seen among its last FROZEN_POLICIES policies."""
        key = P.tobytes()
        system = ops.frozen.pop(key, None)
        if system is None:
            th_dt = self.theta * self.grid.dt
            W_P = np.take_along_axis(ops.W, P[None, None], axis=0)[0]          # (n_o, *grid)
            csum_P, c_P, f_P = (np.take_along_axis(a, P[None, None], axis=0)[0, 0]
                                for a in (ops.csum, ops.c, ops.f))
            diag = 1.0 + th_dt * (csum_P - c_P)
            if np.any(diag <= 0.0):
                raise SchemeError("implicit step: nonpositive diagonal (step too large for c)")
            system = (W_P, diag, th_dt * f_P)
            if len(ops.frozen) >= FROZEN_POLICIES:
                del ops.frozen[next(iter(ops.frozen))]
        ops.frozen[key] = system
        return system

    def _policy_solve(self, ops: _Ops, P: np.ndarray, rhs: np.ndarray, t):
        """Solve (1 + theta dt (sumC - c)) u - theta dt sum_beta C u(.+beta)
        = rhs + theta dt f for the frozen policy, by Jacobi sweeps down to a
        residual of 0.2 tol.  Returns u and the number of sweeps."""
        th_dt = self.theta * self.grid.dt
        target = 0.2 * self.tol
        W_P, diag, th_f = self._frozen_system(ops, P)
        b_rhs = rhs + th_f
        u = rhs.copy()
        for sweep in range(1, MAX_SWEEPS + 1):
            off = th_dt * np.einsum("o...,o...->...", W_P, u.reshape(-1)[ops.nbr])
            res = diag * u - off - b_rhs
            worst = np.abs(res).max()
            if worst <= target:
                return u, sweep
            if not math.isfinite(worst):  # no further sweep can bring it down
                raise SchemeError(f"implicit step: non-finite Jacobi residual at t={t!r}, "
                                  f"node {first_non_finite(res)}")
            u = (b_rhs + off) / diag
        raise SchemeError(
            f"implicit step: Jacobi sweeps failed to reach {target:.1e} "
            f"within {MAX_SWEEPS} sweeps"
        )

    # ----- stepping -----------------------------------------------------------

    def implicit_step(self, rhs: np.ndarray, t: float):
        """Solve u + theta dt G(t, u) = rhs by policy iteration.

        The returned u and its report's argmax are read-only.  When the
        coefficients are static, the scheme keeps the operator, u, G(t, u)
        and that argmax; a next call under that operator whose rhs is that
        very array (theta = 1) starts policy iteration from the kept G
        instead of evaluating it again.  Nothing can write into u, so the
        result is bit-identical."""
        ops = self._ops_at(t)
        th_dt = self.theta * self.grid.dt
        u = rhs.copy()
        sweeps = 0
        carry, self._carry = self._carry, None
        if carry is not None and carry[0] is ops and carry[1] is rhs:
            G, P, evals = carry[2], carry[3], 0
        else:
            (G, P), evals = self._hamiltonian(ops, u), 1
        for it in range(MAX_POLICY_ITERS + 1):
            r = u + th_dt * G - rhs
            res = np.abs(r).max()
            if res <= self.tol:
                u.flags.writeable = P.flags.writeable = False
                if ops is self._static_ops:  # a rebuilt operator is never the next one
                    self._carry = (ops, u, G, P)
                return u, StepReport(t=t, policy_iterations=it, sweeps=sweeps,
                                     max_residual=res, hamiltonians=evals, argmax=P)
            if not math.isfinite(res):  # no further iteration can bring it down
                raise SchemeError(f"implicit step: non-finite residual at t={t!r}, "
                                  f"node {first_non_finite(r)}")
            if it == MAX_POLICY_ITERS:
                break
            u, n = self._policy_solve(ops, P, rhs, t)
            sweeps += n
            G, P = self._hamiltonian(ops, u)
            evals += 1
        raise SchemeError(
            f"policy iteration did not converge within {MAX_POLICY_ITERS} "
            f"iterations at t={t!r} (residual {res:.3e})"
        )

    def step(self, u_prev: np.ndarray, t_prev: float):
        """Advance one level from t_prev.  Returns (values, report).

        u_prev is one state of the grid's shape or a stack (B, *grid) of
        states, each advanced bit for bit as if alone: the explicit part
        takes the whole stack in one gather, one contraction and one running
        max over the controls (ties to the lowest index, NaN selected; see
        _hamiltonian), the implicit part solves member by member.  A stack's
        report holds the largest iteration count and residual, the summed
        sweeps and the stacked argmax."""
        dt = self.grid.dt
        if self.theta < 1.0:
            ops = self._ops_at(t_prev)
            G, P = self._hamiltonian(ops, u_prev)
            rhs, explicit = u_prev - (1.0 - self.theta) * dt * G, 1
        else:
            rhs, P, explicit = u_prev, None, 0
        if self.theta == 0.0:
            report = StepReport(t=t_prev + dt, policy_iterations=0, sweeps=0,
                                max_residual=0.0, hamiltonians=explicit, argmax=P)
            return rhs, report
        if rhs.ndim == self.grid.dim:
            u, report = self.implicit_step(rhs, t_prev + dt)
            report.hamiltonians += explicit
            return u, report
        members = [self.implicit_step(r, t_prev + dt) for r in rhs]
        reps = [rep for _, rep in members]
        return np.stack([u for u, _ in members]), StepReport(
            t=t_prev + dt, policy_iterations=max(r.policy_iterations for r in reps),
            sweeps=sum(r.sweeps for r in reps), max_residual=max(r.max_residual for r in reps),
            hamiltonians=explicit + sum(r.hamiltonians for r in reps),
            argmax=np.stack([r.argmax for r in reps]))

    def initial_values(self) -> np.ndarray:
        return self.problem.u0_values(self._nodes)

    def march(self, force: bool = False):
        """Yield (u, report) at every level from u0 to T, u0 first with report
        None.  Raises CFLError unless forced; fails fast on NaN.  Each u is a
        fresh array that later steps do not touch."""
        self.cfl_guard(force)
        g = self.grid
        u = GridFunction(g, self.initial_values()).values  # rejects non-finite u0
        yield u, None
        for n in range(g.n_t):
            u, rep = self.step(u, n * g.dt)
            bad = first_non_finite(u)
            if bad is not None:
                raise SchemeError(f"non-finite value at t={rep.t!r}, node {bad}")
            yield u, rep

    def solve(self, force: bool = False) -> SolveResult:
        """Fold the march into its last level and largest policy-iteration count."""
        iters = 0
        for u, rep in self.march(force):
            if rep is not None:
                iters = max(iters, rep.policy_iterations)
        return SolveResult(self, GridFunction(self.grid, u), iters)

    # ----- checks and probes --------------------------------------------------

    def cfl_guard(self, force: bool = False) -> None:
        """Run `cfl_check` and raise CFLError on a violation, unless forced."""
        rep = self.cfl_check()
        if not rep.ok and not force:
            raise CFLError(
                f"CFL violated: explicit lhs {rep.worst_explicit:.6g}, "
                f"implicit lhs {rep.worst_implicit:.6g} (must be <= 1)", rep)

    def cfl_check(self) -> CFLReport:
        """Report-only check of both step-size conditions at every node,
        control and time level (single level when sigma, b and c are
        constant).  Only the weights and c are read, never the source."""
        g = self.grid
        worst_e = -math.inf
        worst_i = -math.inf
        for t in [0.0] if self._stencils_static else g.times():
            csum, c = self._weights_at(t)[1], self._c_at(t)
            lhs_e = g.dt * (1.0 - self.theta) * (-c + csum)
            lhs_i = g.dt * self.theta * (c - csum)
            worst_e = max(worst_e, float(np.max(lhs_e)))
            worst_i = max(worst_i, float(np.max(lhs_i)))
        ok = worst_e <= 1.0 + 1e-12 and worst_i <= 1.0 + 1e-12
        return CFLReport(ok=ok, worst_explicit=worst_e, worst_implicit=worst_i,
                         dt=g.dt, theta=self.theta)

    def monotonicity_probe(self, trials: int = 100, seed: int = 0) -> ProbeResult:
        """Step random ordered pairs u <= v once; order must be preserved
        nodewise up to MONOTONE_SLACK.  The pairs step through a twin scheme
        with the tolerance tightened to at most 1e-13, so solver error cannot
        masquerade as a violation."""
        twin = ThetaScheme(self.problem, self.grid, self.theta, builder=self.builder,
                           tol=min(self.tol, 1e-13), forcing=self.forcing)
        return probe_monotone(lambda u: twin.step(u, 0.0)[0],
                              self.grid.shape, trials, seed, MONOTONE_SLACK)

    def comparison_bound_check(self, u_result: SolveResult, v_result: SolveResult,
                               g1, g2) -> ProbeResult:
        """Check u - v <= e^{mu t} |(u(0)-v(0))^+| + 2 t e^{mu t} |(g1-g2)^+|
        at every time level, with mu = sup (c^alpha)^+ + 1.  Both solves are
        replayed in lockstep."""
        mu = ComparisonConstants.for_scheme(self).mu
        gdiff = np.asarray(g1, dtype=float) - np.asarray(g2, dtype=float)
        gplus = float(np.max(np.maximum(gdiff, 0.0)))
        worst = -math.inf
        witness = ""
        for t, u, v in zip(self.grid.times(), u_result.levels(), v_result.levels(), strict=True):
            if t == 0.0:
                d0 = float(np.max(np.maximum(u - v, 0.0)))
            lhs = float(np.max(u - v))
            bound = math.exp(mu * t) * d0 + 2.0 * t * math.exp(mu * t) * gplus
            excess = lhs - bound
            if excess > worst:
                worst = excess
                witness = f"t={t!r}: max(u-v)={lhs!r} vs bound {bound!r}"
        return ProbeResult(passed=worst <= COMPARISON_SLACK, checked=self.grid.n_t + 1,
                           worst=worst, witness=witness)

    def apriori_bounds_check(self, result: SolveResult) -> ProbeResult:
        """Check |u(t)|_0 <= e^{lam t} (|u0|_0 + t sup|f|) (1 + APRIORI_SLACK)
        at every level of a replay of the solve."""
        pr, g = self.problem, self.grid
        lam = ComparisonConstants.for_scheme(self).lam
        X = self._nodes
        supf = 0.0
        times = [0.0] if self._coeffs_static else g.times()
        for t in times:
            for i in range(len(pr.coeffs)):
                supf = max(supf, float(np.max(np.abs(pr.coeffs.f(i, t, X)))))
        if self.forcing is not None:
            supf += float(np.max(np.abs(np.asarray(self.forcing, dtype=float))))
        worst = -math.inf
        witness = ""
        for t, u in zip(g.times(), result.levels(), strict=True):
            lhs = float(np.max(np.abs(u)))
            if t == 0.0:
                u0 = lhs
            bound = math.exp(lam * t) * (u0 + t * supf) * (1.0 + APRIORI_SLACK)
            if lhs - bound > worst:
                worst = lhs - bound
                witness = f"t={t!r}: |u|={lhs!r} vs bound {bound!r}"
        return ProbeResult(passed=worst <= 0.0, checked=g.n_t + 1, worst=max(worst, 0.0),
                           witness=witness)
