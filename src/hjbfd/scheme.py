"""Theta-method time stepping for the Bellman equation on the torus.

One step from t-dt to t solves, at every node x,

    u(t,x) = u(t-dt,x) - (1-theta) dt G(t-dt, u(t-dt))(x)
                       -      theta dt G(t,    u(t)   )(x),

    G(s, w)(x) = max_alpha { -L_h^alpha w(x) - c^alpha(s,x) w(x) - f^alpha(s,x) },

where L_h^alpha is a positive-type stencil for tr[a^alpha D^2] +
b^alpha . D built from sigma sigma^T (see stencil module).  At each time
level the stencils of all controls form one stacked operator (a weight
array over controls, offsets and nodes, see `_Ops`), applied by one gather
of the neighbour values (`_Ops.gather`) and one contraction wherever the
scheme needs L_h.  A small state is gathered through a flat neighbour
index, a large one by copying windows of one wrap-padded copy; both give
the same values, so the size only picks the faster.  theta = 0 is
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
computed and keeps none.  `solve` returns its last level, so memory does
not grow with n_t; a caller that needs every level walks `march()`.

Probes (monotonicity, comparison bound, a-priori bound) are first-class
operations so CI can assert structure, not just convergence.  The bound
checks march their own schemes, level n at time n dt: the comparison check
runs this scheme on its data and on data shifted by du0 and df, the one
pair the discrete comparison principle covers.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CFLError, ConfigError, SchemeError
from .grid import GridFunction, SpaceTimeGrid, first_non_finite
from .problem import CoefficientField, HJBProblem, sum_sources
from .stencil import bz_decompose, bz_stencil, kushner_stencil

__all__ = [
    "ThetaScheme",
    "StepReport",
    "CFLReport",
    "ProbeResult",
]

MAX_SWEEPS = 1_000_000  # Jacobi sweeps allowed per frozen-policy solve
MAX_POLICY_ITERS = 100  # policy iterations allowed per implicit step
FROZEN_POLICIES = 4     # frozen-policy systems an operator keeps, least recently used out
BZ_ORDER = 2            # largest direction component the 'bz' builder tries
STUDY_TOL = 1e-11       # policy-iteration tolerance of the semigroup and switching studies
MONOTONE_SLACK = 1e-12  # order violation the scheme's monotonicity probe forgives
COMPARISON_SLACK = 1e-9  # excess over the discrete comparison bound that is forgiven
APRIORI_SLACK = 0.05    # relative margin on the a-priori sup-norm bound
# gathered values (offsets x state size) from which _Ops.gather copies windows
# of a wrap-padded copy instead of indexing every neighbour.  Measured with
# numpy 2.4 on a 2-core x86-64 Xeon (medians of 9 x 300 calls), the window
# gather's extra numpy calls cost more than they save below about 4,000
# values in 1D (2 offsets) and about 8,000 to 10,000 in 2D (6 offsets): index
# 0.9 us against window 3.4 us at 48 nodes, 190 us against 98 us at 128 x 128.
# End to end, sending every gather through windows made the 48-node split
# study about 18% and the 128-node trajectory solve about 22% slower, and a
# 1D switching study's peak RSS about 0.2 MB larger (BENCH_24.json).
WINDOW_GATHER = 8192


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


class _Ops:
    """Stacked per-control operator at one time level:

        L_h^alpha u(x) = sum_o W[alpha, o] u(x + offsets[o] dx) - csum[alpha] u(x).

    `gather` is the only place the scheme reads neighbour values.  The
    weight arrays, `c` and `f` end in the grid shape, or in ones when they
    do not vary in space, so broadcasting serves both cases.  `csum`, `c`
    and `f` carry a unit axis after the control axis, where a stack of B
    states puts its member axis.  The Hamiltonian contracts
    space-independent weights as one dense matrix product, whose rounding
    matches a BLAS product over the whole grid.

    `frozen` maps a policy's bytes to its frozen-policy system (W_P, the
    diagonal, theta dt f_P), most recently used last; an entry is stored
    only once its diagonal has passed the positivity check."""

    __slots__ = ("W", "Wmat", "csum", "offsets", "gathers", "c", "f", "frozen")

    def __init__(self, W, csum, offsets, gathers, c, f):
        n_c, n_o = W.shape[:2]
        self.W = W            # (n_c, n_o, *grid) or (n_c, n_o, 1, ..., 1)
        # (n_c, n_o) when no weight varies in space, else None
        self.Wmat = W.reshape(n_c, n_o) if math.prod(W.shape[2:]) == 1 else None
        self.csum = csum[:, None]  # W summed over offsets: (n_c, 1, *grid) or (n_c, 1, ..., 1)
        self.offsets = offsets  # (n_o, dim) intp, in the order of W's offset axis
        # state shape -> its gather, chosen on first use; one dict serves
        # every operator built on the same weights
        self.gathers = gathers
        self.c = c[:, None]   # (n_c, 1, *grid) or (n_c, 1, 1, ..., 1)
        self.f = f[:, None]   # (n_c, 1, *grid) or (n_c, 1, 1, ..., 1)
        self.frozen = {}

    def gather(self, u: np.ndarray) -> np.ndarray:
        """u(x + offsets[o] dx) at every node x, shape (n_o, *u.shape), for
        one state of the grid's shape or a stack (*B, *grid) of states, in a
        new array."""
        return self.gather_for(u.shape)(u)

    def gather_for(self, shape):
        """`gather` for states of this shape, chosen on first use: the index
        gather below WINDOW_GATHER gathered values, the window gather from
        there on.  Both copy the same values; a loop over many states of one
        shape looks its gather up once."""
        gather = self.gathers.get(shape)
        if gather is None:
            windows = len(self.offsets) * math.prod(shape) >= WINDOW_GATHER
            gather = (self._by_windows if windows else self._by_index)(shape)
            self.gathers[shape] = gather
        return gather

    def _by_index(self, shape):
        """Index path: one take through the flat index of each node's
        neighbour, built with np.roll."""
        grid_axes = tuple(range(len(shape) - self.offsets.shape[1], len(shape)))
        idx = np.arange(math.prod(shape)).reshape(shape)
        index = np.array([np.roll(idx, tuple(-c for c in off), axis=grid_axes)
                          for off in self.offsets.tolist()],
                         dtype=np.intp).reshape((len(self.offsets),) + shape)
        return lambda u: u.take(index)

    def _by_windows(self, shape):
        """Window path: one take fills a copy of the states padded by r
        cells of wrap-around on each side of every grid axis (r the largest
        offset component), then one copy per offset moves its window of
        that copy into a new (n_o, *shape) array.  The padded copy is kept
        for the next call.  The result is not, and the Hamiltonian frees it
        as soon as it is contracted: kept across calls, or freed only when
        the Hamiltonian returns, it let glibc trim the step's temporaries
        from the heap and fault them in again at every step, in some heap
        layouts of the process (45,000 to 178,000 page faults on a
        rates_2d_explicit run)."""
        dim = self.offsets.shape[1]
        members, grid = shape[:len(shape) - dim], shape[len(shape) - dim:]
        r = int(np.abs(self.offsets).max(initial=0))
        wrapped = np.ravel_multi_index(np.ix_(*(np.arange(-r, n + r) % n for n in grid)), grid)
        starts = np.arange(0, math.prod(shape), math.prod(grid)).reshape(members + (1,) * dim)
        pad_index = starts + wrapped                      # (*B, n_1 + 2r, ..., n_dim + 2r)
        pad = np.empty(pad_index.shape)
        windows = [(Ellipsis,) + tuple(slice(r + c, r + c + n) for c, n in zip(off, grid))
                   for off in self.offsets.tolist()]

        def gather(u):
            # take writes into `pad` only from an array of its own type
            u.reshape(-1).astype(float, copy=False).take(pad_index, out=pad, mode="clip")
            out = np.empty((len(windows),) + shape)
            for o, window in enumerate(windows):
                out[o] = pad[window]
            return out

        return gather


class ThetaScheme:
    """Theta-method scheme for an HJBProblem on a SpaceTimeGrid."""

    def __init__(self, problem: HJBProblem, grid: SpaceTimeGrid, theta: float,
                 builder: str = "kushner", tol: float = 1e-10):
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
        self._nodes = grid.nodes()
        self._static_ops = None
        self._static_weights = None
        self._carry = None  # (ops, u, G, P) of the last implicit step, see implicit_step
        self._scan = None   # (worst explicit lhs, worst implicit lhs, lam), see _level_scan

    # ----- operator assembly -------------------------------------------------

    def _build_stencil(self, i: int, t: float):
        """Weight rows of control i at time t: scalar weights when its sigma and
        b are constants (evaluated at one node), per-node weights otherwise."""
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
        """Stacked stencil weights W, their offset sums csum, the offsets
        (n_o, dim) and an empty gather cache for them (`_Ops.gathers`) at
        time t, built once when no sigma or b depends on t
        (`CoefficientField.varies_in_t`).  The offsets are the union of the
        controls' rows in lexicographic order; W is per node only when some
        control has a per-node row."""
        if self._static_weights is not None:
            return self._static_weights
        g = self.grid
        rows = [self._build_stencil(i, t) for i in range(len(self.problem.coeffs))]
        keys = [[tuple(off) for off in offs.tolist()] for offs, _ in rows]
        offsets = sorted(set().union(*keys))
        position = {off: o for o, off in enumerate(offsets)}
        per_node = any(w.ndim > 1 and len(w) for _, w in rows)
        W = np.zeros((len(rows), len(offsets)) + (g.shape if per_node else (1,) * g.dim))
        for k, ((_, w), ks) in enumerate(zip(rows, keys)):
            if ks:  # scalar rows broadcast over the nodes
                at = [position[off] for off in ks]
                W[k, at] = w.reshape(len(w), *w.shape[1:] or (1,) * g.dim)
        packed = (W, W.sum(axis=1), np.array(offsets, dtype=np.intp).reshape(-1, g.dim), {})
        if not self.problem.coeffs.varies_in_t("sigma", "b"):
            self._static_weights = packed
        return packed

    def _stacked(self, name: str, t: float) -> np.ndarray:
        """Coefficient `name` ("c" or "f") of every control at time t, in W's
        layout: (n_c, *grid), or (n_c, 1, ..., 1) evaluated at one node when
        no control's `name` is callable."""
        pr, g = self.problem, self.grid
        if any(callable(getattr(pr.coeffs[i], name)) for i in range(len(pr.coeffs))):
            X, shape = self._nodes, g.shape
        else:
            X, shape = self._nodes[(slice(1),) * g.dim], (1,) * g.dim
        evaluate = getattr(pr.coeffs, name)
        return np.stack([np.broadcast_to(evaluate(i, t, X), shape) for i in range(len(pr.coeffs))])

    def _c_at(self, t: float) -> np.ndarray:
        """Stacked discount rates c^alpha(t, .), see `_stacked`."""
        return self._stacked("c", t)

    def _ops_at(self, t: float) -> _Ops:
        if self._static_ops is not None:
            return self._static_ops
        ops = _Ops(*self._weights_at(t), self._c_at(t), self._stacked("f", t))
        if not self.problem.coeffs.varies_in_t():
            self._static_ops = ops
        return ops

    def _hamiltonian(self, ops: _Ops, u: np.ndarray):
        """G(s, u) = max_alpha(-L_h u - c u - f) and its argmax field, for
        one state of the grid's shape or a stack of B states (B, *grid).
        Space-independent weights contract a stack as one (n_c, n_o) @
        (n_o, B N) product, whose rounding may depend on B N: a member's G
        can then differ from its G alone in the last bits (a 3D bz stencil
        with 10 offsets does).

        The max is one running selection over the controls: control k
        replaces the best so far where its value is larger or NaN.  A tie,
        -0.0 against +0.0 included, goes to the lowest index, and G holds
        the chosen value's own bits; a NaN is selected, so it reaches the
        callers' non-finite checks.  The max is written into the first
        control's values in place, so G is a view of all n_c of them."""
        nb = ops.gather(u)                                                   # (n_o, *u.shape)
        stack = (-1,) + self.grid.shape                                      # (B, *grid)
        if ops.Wmat is None:
            Lu = np.einsum("co...,ob...->cb...", ops.W, nb.reshape((len(nb),) + stack))
        else:  # space-independent weights: one (n_c, n_o) @ (n_o, B N) matrix product
            Lu = (ops.Wmat @ nb.reshape(len(nb), u.size)).reshape((len(ops.Wmat),) + stack)
        del nb  # freed before the other temporaries are made, see _Ops._by_windows
        Lu -= ops.csum * u
        vals = np.negative(Lu, out=Lu)  # -Lu - c u - f, one temporary fewer
        vals -= ops.c * u
        vals -= ops.f
        G, P = vals[0], np.zeros(vals.shape[1:], np.intp)
        for k in range(1, len(vals)):
            v = vals[k]
            better = v > G
            better |= v != v
            np.copyto(G, v, where=better)
            np.copyto(P, k, where=better)
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
        gather = ops.gather_for(u.shape)
        for sweep in range(1, MAX_SWEEPS + 1):
            off = th_dt * np.einsum("o...,o...->...", W_P, gather(u))
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

        The returned u and its report's argmax are read-only.  When no
        coefficient depends on t, the scheme keeps the operator, u, G(t, u)
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
                    # G is a view of the Hamiltonian's (n_c, *grid) values; its
                    # copy lets those go
                    self._carry = (ops, u, G.copy(), P)
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
        states: the explicit part takes the whole stack in one Hamiltonian,
        which may round a member otherwise than alone (see _hamiltonian),
        the implicit part solves member by member.  A stack's report holds
        the largest iteration count and residual, the summed sweeps and the
        stacked argmax."""
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

    def solve(self, force: bool = False) -> GridFunction:
        """The last level of the march."""
        for u, _ in self.march(force):
            pass
        return GridFunction(self.grid, u)

    # ----- checks and probes --------------------------------------------------

    def cfl_guard(self, force: bool = False) -> None:
        """Run `cfl_check` and raise CFLError on a violation, unless forced."""
        rep = self.cfl_check()
        if not rep.ok and not force:
            raise CFLError(
                f"CFL violated: explicit lhs {rep.worst_explicit:.6g}, "
                f"implicit lhs {rep.worst_implicit:.6g} (must be <= 1)", rep)

    def _level_scan(self):
        """(worst explicit CFL lhs, worst implicit CFL lhs, lam) over every
        node, control and time level (a single level when no sigma, b or c
        depends on t), with lam = sup (c^alpha)^+.  Only the weights and c are
        read, never the source, so the scan is made once per scheme and its
        twins inherit it."""
        if self._scan is None:
            pr, g = self.problem, self.grid
            worst_e = worst_i = lam = -math.inf
            for t in g.times() if pr.coeffs.varies_in_t("sigma", "b", "c") else [0.0]:
                csum, c = self._weights_at(t)[1], self._c_at(t)
                lhs_e = g.dt * (1.0 - self.theta) * (-c + csum)
                lhs_i = g.dt * self.theta * (c - csum)
                worst_e = max(worst_e, float(np.max(lhs_e)))
                worst_i = max(worst_i, float(np.max(lhs_i)))
                lam = max(lam, float(np.max(np.maximum(c, 0.0))))
            self._scan = (worst_e, worst_i, lam)
        return self._scan

    def cfl_check(self) -> CFLReport:
        """Report-only check of both step-size conditions, read off the
        level scan."""
        g = self.grid
        worst_e, worst_i, _ = self._level_scan()
        ok = worst_e <= 1.0 + 1e-12 and worst_i <= 1.0 + 1e-12
        return CFLReport(ok=ok, worst_explicit=worst_e, worst_implicit=worst_i,
                         dt=g.dt, theta=self.theta)

    def _twin(self, du0: float = 0.0, df: float = 0.0, tol: float | None = None):
        """This scheme's grid, theta and builder on its problem with u0 + du0
        and every control's f + df, at tolerance `tol` (default this
        scheme's); a zero shift leaves its datum untouched.  Neither shift
        reaches the weights or c, so the twin inherits this scheme's level
        scan."""
        pr = self.problem
        if du0 != 0.0:
            def u0(X, _p=pr, _s=du0):
                return _p.u0_values(np.asarray(X, dtype=float)) + _s

            pr = dataclasses.replace(pr, u0=u0)
        if df != 0.0:
            coeffs = pr.coeffs
            pr = dataclasses.replace(pr, coeffs=CoefficientField(
                [dataclasses.replace(coeffs[i], f=sum_sources(coeffs[i].f, df))
                 for i in range(len(coeffs))]))
        twin = ThetaScheme(pr, self.grid, self.theta, builder=self.builder,
                           tol=self.tol if tol is None else tol)
        twin._scan = self._scan
        return twin

    def monotonicity_probe(self, trials: int = 100, seed: int = 0) -> ProbeResult:
        """Step random ordered pairs u <= v once; order must be preserved
        nodewise up to MONOTONE_SLACK.  The pairs step through a twin scheme
        with the tolerance tightened to at most 1e-13, so solver error cannot
        masquerade as a violation."""
        twin = self._twin(tol=min(self.tol, 1e-13))
        return probe_monotone(lambda u: twin.step(u, 0.0)[0],
                              self.grid.shape, trials, seed, MONOTONE_SLACK)

    def comparison_bound_check(self, *, du0: float = 0.0, df: float = 0.0,
                               force: bool = False) -> ProbeResult:
        """March this scheme (u) and its twin on u0 + du0 and f + df (v) in
        lockstep and check
        u - v <= e^{mu t} max(u(0)-v(0))^+ + 2 t e^{mu t} (-df)^+
        at every level, with mu = lam + 1 (lam = sup (c^alpha)^+, see _level_scan)."""
        g = self.grid
        mu = self._level_scan()[2] + 1.0
        fplus = max(0.0, -df)
        worst = -math.inf
        witness = ""
        levels = zip(self.march(force), self._twin(du0, df).march(force))
        for n, ((u, _), (v, _)) in enumerate(levels):
            t = n * g.dt
            if n == 0:
                d0 = float(np.max(np.maximum(u - v, 0.0)))
            lhs = float(np.max(u - v))
            bound = math.exp(mu * t) * d0 + 2.0 * t * math.exp(mu * t) * fplus
            excess = lhs - bound
            if excess > worst:
                worst = excess
                witness = f"t={t!r}: max(u-v)={lhs!r} vs bound {bound!r}"
        return ProbeResult(passed=worst <= COMPARISON_SLACK, checked=g.n_t + 1,
                           worst=worst, witness=witness)

    def apriori_bounds_check(self, force: bool = False) -> ProbeResult:
        """March the scheme and check |u(t)|_0 <= e^{lam t} (|u0|_0 + t sup|f|)
        (1 + APRIORI_SLACK) at every level; sup|f| is read at every level
        only when some f depends on t."""
        pr, g = self.problem, self.grid
        lam = self._level_scan()[2]
        supf = 0.0
        for n in range(g.n_t + 1) if pr.coeffs.varies_in_t("f") else [0]:
            for i in range(len(pr.coeffs)):
                supf = max(supf, float(np.max(np.abs(pr.coeffs.f(i, n * g.dt, self._nodes)))))
        worst = -math.inf
        witness = ""
        for n, (u, _) in enumerate(self.march(force)):
            t = n * g.dt
            lhs = float(np.max(np.abs(u)))
            if n == 0:
                u0 = lhs
            bound = math.exp(lam * t) * (u0 + t * supf) * (1.0 + APRIORI_SLACK)
            if lhs - bound > worst:
                worst = lhs - bound
                witness = f"t={t!r}: |u|={lhs!r} vs bound {bound!r}"
        return ProbeResult(passed=worst <= 0.0, checked=g.n_t + 1, worst=max(worst, 0.0),
                           witness=witness)
