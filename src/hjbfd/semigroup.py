"""Semigroup-style schemes: operator splitting and piecewise-constant controls.

Both schemes advance the solution by composing sub-semigroups that are
themselves realized numerically as implicit (theta = 1) finite-difference
flows on a shared spatial grid:

* splitting: S(dt) = S_1(dt) S_2(dt), where S_j solves the Bellman flow
  of coefficient family j alone and family 2 is applied first;
* piecewise-constant controls: S(dt) = min_i S_i(dt), where S_i is the
  linear flow of mode i.

Mode normalization for the piecewise-constant scheme: a mode with data
(sigma, b, c, f) evolves v_t - tr[sigma sigma^T D^2 v] - b.Dv - c v - f = 0,
i.e. the diffusion matrix is sigma sigma^T without the half factor that
the nonlinear scheme attaches.  The implementation absorbs the factor by
scaling sigma with sqrt(2) before handing the mode to the solver.

Errors go through the harness's single rate path (`harness.signed_errors`,
`harness.rate_report`) with its orientation: d = u_ref - u_h, err_plus =
|d^+|_0, err_minus = |d^-|_0.  For the piecewise-constant scheme err_plus is
the one-sided violation (the scheme must dominate the reference).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .grid import SpaceTimeGrid, sup_norm
from .harness import RateReport, rate_report, signed_errors
from .problem import CoefficientField, make_problem
from .scheme import STUDY_TOL, ProbeResult, ThetaScheme, probe_monotone

__all__ = [
    "SemigroupFlow",
    "SplitProblem",
    "PCControlProblem",
    "SplitCheck",
    "sigma_from_diffusion",
    "splitting_step",
    "splitting_solve",
    "calibrate_inner_steps",
    "semigroup_rate_experiment",
    "splitting_rate_experiment",
    "splitting_vs_inner_check",
    "pc_step",
    "pcc_solve",
    "pcc_rate_experiment",
    "semigroup_monotonicity_probe",
    "semigroup_nonexpansive_probe",
]

REF_FACTOR = 16     # reference solves step at (finest step) / REF_FACTOR
PROBE_SLACK = 1e-9  # violation the semigroup probes forgive


def sigma_from_diffusion(a):
    """Return sigma with (1/2) sigma sigma^T = a.

    Scalars and vectors map to sqrt(2 a) (entrywise); symmetric PSD
    matrices go through an eigendecomposition.
    """
    arr = np.asarray(a, dtype=float)
    if arr.ndim == 0:
        if arr < 0.0:
            raise ConfigError("sigma_from_diffusion: negative diffusion")
        return float(math.sqrt(2.0 * float(arr)))
    if arr.ndim == 1:
        if np.any(arr < 0.0):
            raise ConfigError("sigma_from_diffusion: negative diagonal diffusion")
        return np.sqrt(2.0 * arr)
    w, v = np.linalg.eigh(0.5 * (arr + arr.T))
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.min(w) < -1e-10 * scale:
        raise ConfigError("sigma_from_diffusion: diffusion matrix is not PSD")
    return v @ np.diag(np.sqrt(2.0 * np.clip(w, 0.0, None))) @ v.T


def _norm_family(entries, dim: int, what: str):
    """Constant sigma (dim x p), b (dim,) and c of each entry, read through
    `CoefficientField`; f is kept as given."""
    if not entries:
        raise ConfigError(f"{what}: family needs at least one control")
    coeffs = CoefficientField.from_specs(entries, dim)
    X0 = np.zeros((1, dim))
    out = []
    for i, spec in enumerate(entries):
        if not coeffs.stencil_static(i):
            raise ConfigError(f"{what}[{i}]: semigroup families need constant sigma, b and c")
        out.append({"sigma": coeffs.sigma(i, 0.0, X0)[0], "b": coeffs.b(i, 0.0, X0)[0],
                    "c": float(coeffs.c(i, 0.0, X0)[0]), "f": spec.get("f", 0.0)})
    return out


def _sum_f(f1, f2):
    if not callable(f1) and not callable(f2):
        return float(f1) + float(f2)

    def f(t, X):
        out = 0.0
        for piece in (f1, f2):
            if callable(piece):
                out = out + np.asarray(piece(t, X), dtype=float)
            else:
                out = out + float(piece)
        return out

    return f


class SemigroupFlow:
    """Implicit-Euler realization of the flow of one coefficient family.

    apply(values, dt, m) advances `values` by time dt using m implicit
    substeps of size dt/m; the family clock restarts at 0 each call
    (families are treated as autonomous).
    """

    def __init__(self, dim: int, period: float, n_x: int, controls,
                 builder: str = "kushner", label: str = "flow"):
        if not controls:
            raise ConfigError("semigroup flow needs at least one control")
        self.dim = dim
        self.period = period
        self.n_x = n_x
        self.controls = list(controls)
        self.builder = builder
        self.label = label
        self._cache = {}

    def _scheme(self, dt: float, m: int) -> ThetaScheme:
        key = (float(dt), int(m))
        sch = self._cache.get(key)
        if sch is None:
            grid = SpaceTimeGrid.build(self.dim, self.period, self.n_x, float(dt),
                                       float(dt) / int(m))
            if grid.n_t != int(m):
                raise ConfigError(f"flow substep count mismatch: {grid.n_t} != {m}")
            problem = make_problem(self.dim, self.period, float(dt), self.controls,
                                   u0=0.0, label=self.label)
            sch = ThetaScheme(problem, grid, theta=1.0, builder=self.builder, tol=STUDY_TOL)
            self._cache[key] = sch
        return sch

    def apply(self, values: np.ndarray, dt: float, m: int) -> np.ndarray:
        if not (dt > 0.0) or m < 1:
            raise ConfigError("flow apply needs dt > 0 and m >= 1")
        sch = self._scheme(dt, m)
        u = np.asarray(values, dtype=float).copy()
        delta = sch.grid.dt
        for k in range(m):
            u, _ = sch.step(u, k * delta)
        return u


@dataclass
class SplitProblem:
    """Two coefficient families on a shared torus grid and horizon.

    Each family entry is a dict {sigma, b, c, f} with constant sigma, b, c
    (f may be callable(t, X)).  The combined problem takes the sup over
    the product control set, which is the equation the splitting scheme
    approximates.
    """

    dim: int
    period: float
    T: float
    family1: list
    family2: list
    u0: object
    n_x: int
    builder: str = "kushner"
    label: str = "split"

    def __post_init__(self):
        if self.n_x < 3:
            raise ConfigError("split problem needs n_x >= 3")
        self.family1 = _norm_family(self.family1, self.dim, f"{self.label} family1")
        self.family2 = _norm_family(self.family2, self.dim, f"{self.label} family2")
        self._flows = None
        self._combined = None

    def spatial_grid(self) -> SpaceTimeGrid:
        return SpaceTimeGrid.build(self.dim, self.period, self.n_x, self.T, self.T)

    def flows(self):
        if self._flows is None:
            self._flows = tuple(
                SemigroupFlow(self.dim, self.period, self.n_x, fam, builder=self.builder,
                              label=f"{self.label} family{j + 1}")
                for j, fam in enumerate((self.family1, self.family2))
            )
        return self._flows

    def combined_problem(self):
        """Sup over the product control set: one control per family pair."""
        if self._combined is None:
            specs = []
            for e1 in self.family1:
                for e2 in self.family2:
                    specs.append({
                        "sigma": np.hstack([e1["sigma"], e2["sigma"]]),
                        "b": e1["b"] + e2["b"],
                        "c": e1["c"] + e2["c"],
                        "f": _sum_f(e1["f"], e2["f"]),
                    })
            self._combined = make_problem(self.dim, self.period, self.T, specs,
                                          u0=self.u0, label=f"{self.label} combined")
        return self._combined

    def initial_values(self) -> np.ndarray:
        return self.combined_problem().u0_values(self.spatial_grid().nodes())


def splitting_step(sp: SplitProblem, values: np.ndarray, dt: float, m: int) -> np.ndarray:
    """One macro step S_1(dt) S_2(dt): family 2 first, then family 1."""
    f1, f2 = sp.flows()
    return f1.apply(f2.apply(values, dt, m), dt, m)


def _macro_count(T: float, dt: float, what: str) -> int:
    n = int(round(T / dt))
    if n < 1 or abs(n * dt - T) > 1e-9 * max(T, 1.0):
        raise ConfigError(f"{what}: dt={dt!r} does not divide the horizon T={T!r}")
    return n


def splitting_solve(sp: SplitProblem, dt: float, m: int) -> np.ndarray:
    """March the splitting scheme from u0 to T with macro step dt."""
    n = _macro_count(sp.T, dt, "splitting_solve")
    u = sp.initial_values()
    for _ in range(n):
        u = splitting_step(sp, u, dt, m)
    return u


def _inner_estimate(u_m: np.ndarray, u_2m: np.ndarray) -> float:
    """First-order Richardson estimate of the inner-stepping error of the
    m-substep run: for an O(dt/m) inner method it is about 2 |U_m - U_2m|_0."""
    return 2.0 * sup_norm(u_m - u_2m)


def calibrate_inner_steps(sp: SplitProblem, dt: float, reference: np.ndarray,
                          m0: int = 2, cap: int = 256, fraction: float = 0.01,
                          notes: list | None = None) -> int:
    """Double m until the inner-stepping error estimate is at most `fraction`
    of the splitting error against `reference`, or until the doubling
    reaches the cap (an m0 at or above the cap is returned as it is).  The
    finer run of each Richardson pair seeds the next iteration, and no run
    finer than the cap is made.

    When the cap stops the doubling before the target is met, a line
    saying so, with the last estimate (m = cap/2 against cap) and its
    target, is appended to `notes`.
    """
    m = int(m0)
    if m >= cap:
        return m
    u_m = splitting_solve(sp, dt, m)
    while True:
        u_2m = splitting_solve(sp, dt, 2 * m)
        est = _inner_estimate(u_m, u_2m)
        target = fraction * signed_errors(reference, u_2m)[2]
        if est <= target:
            return m
        m *= 2
        if m >= cap:
            if notes is not None:
                notes.append(f"inner substeps capped at m={m}: inner error estimate "
                             f"{est:.3e} misses the target {target:.3e} "
                             f"({100 * fraction:g}% of the splitting error)")
            return m
        u_m = u_2m


def _combined_reference(problem, grid_template: SpaceTimeGrid, dt_ref: float,
                        builder: str) -> np.ndarray:
    grid = SpaceTimeGrid.build(grid_template.dim, grid_template.period,
                               grid_template.n_x, grid_template.T, dt_ref)
    scheme = ThetaScheme(problem, grid, theta=1.0, builder=builder, tol=STUDY_TOL)
    return scheme.solve().final.values


def semigroup_rate_experiment(stepper, reference, dt_list, exponent: float,
                              dx: float = float("nan"), notes=None) -> RateReport:
    """Macro-step rate study for any one-parameter stepper.

    stepper(dt) must return final-time values on the reference's grid;
    the signed errors reference - stepper(dt) are fitted log-log against
    dt (levels sorted descending).
    """
    dts = sorted((float(d) for d in dt_list), reverse=True)
    if len(dts) < 2:
        raise ConfigError("semigroup_rate_experiment needs at least two macro steps")
    rows = [(d, dx, d, *signed_errors(reference, np.asarray(stepper(d), dtype=float)))
            for d in dts]
    return rate_report("dt", rows, exponent, notes or ())


def splitting_rate_experiment(sp: SplitProblem, dt_list, m: int | None = None,
                              exponent: float = 1.0 / 13.0) -> RateReport:
    """Errors of the splitting scheme against an implicit combined-problem
    solve at dt_min/REF_FACTOR, fitted against the macro step.

    When m is None the substep count is calibrated at the finest macro
    step so the inner error is at most 1% of the splitting error.
    """
    dts = sorted((float(d) for d in dt_list), reverse=True)
    if len(dts) < 2:
        raise ConfigError("splitting_rate_experiment needs at least two macro steps")
    for d in dts:
        _macro_count(sp.T, d, "splitting_rate_experiment")
    tmpl = sp.spatial_grid()
    ref = _combined_reference(sp.combined_problem(), tmpl, dts[-1] / REF_FACTOR,
                              sp.builder)
    notes = [f"reference dt={dts[-1] / REF_FACTOR!r}"]
    if m is None:
        m = calibrate_inner_steps(sp, dts[-1], ref, notes=notes)
        notes.append(f"inner substeps calibrated: m={m}")
    else:
        notes.append(f"inner substeps m={m}")
    return semigroup_rate_experiment(lambda d: splitting_solve(sp, d, m), ref, dts,
                                     exponent, dx=tmpl.dx, notes=notes)


@dataclass
class SplitCheck:
    """Commutation diagnostic: splitting error vs inner-stepping error."""

    splitting_error: float
    inner_estimate: float
    reference_dt: float

    @property
    def ratio(self) -> float:
        if self.inner_estimate == 0.0:
            return math.inf if self.splitting_error > 0.0 else 0.0
        return self.splitting_error / self.inner_estimate


def splitting_vs_inner_check(sp: SplitProblem, dt: float, m: int) -> SplitCheck:
    """Compare the total splitting error at one macro step against the
    Richardson inner-error estimate.  For families with commuting
    generators the two are of the same size (no splitting defect)."""
    u_m = splitting_solve(sp, dt, m)
    inner_est = _inner_estimate(u_m, splitting_solve(sp, dt, 2 * m))
    dt_ref = (dt / m) / REF_FACTOR
    ref = _combined_reference(sp.combined_problem(), sp.spatial_grid(), dt_ref,
                              sp.builder)
    return SplitCheck(splitting_error=signed_errors(ref, u_m)[2],
                      inner_estimate=inner_est, reference_dt=dt_ref)


@dataclass
class PCControlProblem:
    """Piecewise-constant-control scheme data: a finite list of modes.

    Each mode dict {sigma, b, c, f} defines the linear flow
    v_t - tr[sigma sigma^T D^2 v] - b.Dv - c v - f = 0 (note: diffusion
    sigma sigma^T, no half factor); the scheme steps every mode and takes
    the pointwise min.  The coupled reference problem is the Bellman
    equation with the same modes as controls.
    """

    dim: int
    period: float
    T: float
    modes: list
    u0: object
    n_x: int
    builder: str = "kushner"
    label: str = "pcc"

    def __post_init__(self):
        norm = _norm_family(self.modes, self.dim, f"{self.label} modes")
        # absorb the solver's half factor: a_eff = sigma sigma^T
        self._effective = [
            {"sigma": math.sqrt(2.0) * e["sigma"], "b": e["b"], "c": e["c"], "f": e["f"]}
            for e in norm
        ]
        self._flows = None
        self._coupled = None

    def spatial_grid(self) -> SpaceTimeGrid:
        return SpaceTimeGrid.build(self.dim, self.period, self.n_x, self.T, self.T)

    def flows(self):
        if self._flows is None:
            self._flows = tuple(
                SemigroupFlow(self.dim, self.period, self.n_x, [eff], builder=self.builder,
                              label=f"{self.label} mode{i}")
                for i, eff in enumerate(self._effective)
            )
        return self._flows

    def coupled_problem(self):
        if self._coupled is None:
            self._coupled = make_problem(self.dim, self.period, self.T, self._effective,
                                         u0=self.u0, label=f"{self.label} coupled")
        return self._coupled

    def initial_values(self) -> np.ndarray:
        return self.coupled_problem().u0_values(self.spatial_grid().nodes())


def pc_step(pp: PCControlProblem, values: np.ndarray, dt: float, m: int) -> np.ndarray:
    """Pointwise min over the per-mode flows applied for time dt."""
    out = None
    for flow in pp.flows():
        cand = flow.apply(values, dt, m)
        out = cand if out is None else np.minimum(out, cand)
    return out


def pcc_solve(pp: PCControlProblem, dt: float, m: int) -> np.ndarray:
    """March the piecewise-constant-control scheme from u0 to T."""
    n = _macro_count(pp.T, dt, "pcc_solve")
    u = pp.initial_values()
    for _ in range(n):
        u = pc_step(pp, u, dt, m)
    return u


def pcc_rate_experiment(pp: PCControlProblem, dt_list, min_inner: int = 16,
                        exponent: float = 0.1) -> RateReport:
    """One-sided rate study for the piecewise-constant-control scheme.

    All levels and the coupled reference use the same inner step
    delta = dt_min/min_inner, so the discrete comparison argument applies
    step by step and err_plus (reference exceeding the scheme) stays at
    solver tolerance while err_total carries the rate.
    """
    dts = sorted((float(d) for d in dt_list), reverse=True)
    if len(dts) < 2:
        raise ConfigError("pcc_rate_experiment needs at least two macro steps")
    if min_inner < 1:
        raise ConfigError(f"pcc_rate_experiment needs min_inner >= 1, got {min_inner}")
    delta = dts[-1] / int(min_inner)
    for d in dts:
        _macro_count(pp.T, d, "pcc_rate_experiment")
        mj = int(round(d / delta))
        if abs(mj * delta - d) > 1e-9 * d:
            raise ConfigError(
                f"pcc_rate_experiment: dt={d!r} is not a multiple of the common "
                f"inner step {delta!r}")
    tmpl = pp.spatial_grid()
    ref = _combined_reference(pp.coupled_problem(), tmpl, delta, pp.builder)
    notes = [f"common inner step delta={delta!r}",
             "one-sided: err_plus is the reference-above-scheme violation"]
    return semigroup_rate_experiment(
        lambda d: pcc_solve(pp, d, int(round(d / delta))), ref, dts, exponent,
        dx=tmpl.dx, notes=notes)


def semigroup_monotonicity_probe(step_fn, shape, trials: int = 50,
                                 seed: int = 0) -> ProbeResult:
    """Apply step_fn to random ordered pairs u <= v; order must be preserved
    up to PROBE_SLACK."""
    return probe_monotone(step_fn, shape, trials, seed, PROBE_SLACK)


def semigroup_nonexpansive_probe(step_fn, shape, trials: int = 50,
                                 seed: int = 0) -> ProbeResult:
    """|S u - S v|_0 <= |u - v|_0 + PROBE_SLACK over random pairs."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    witness = ""
    for trial in range(trials):
        u = rng.uniform(-1.0, 1.0, size=shape)
        v = rng.uniform(-1.0, 1.0, size=shape)
        lhs = float(np.max(np.abs(step_fn(u) - step_fn(v))))
        rhs = float(np.max(np.abs(u - v)))
        if lhs - rhs > worst:
            worst = lhs - rhs
            witness = f"trial {trial}: |Su-Sv|={lhs!r} vs |u-v|={rhs!r}"
    return ProbeResult(passed=worst <= PROBE_SLACK, checked=trials, worst=worst,
                       witness=witness)
