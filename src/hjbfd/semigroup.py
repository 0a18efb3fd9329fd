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
from typing import ClassVar

import numpy as np

from .errors import ConfigError
from .grid import SpaceTimeGrid, check_level_count, sup_norm
from .harness import RateReport, rate_report, signed_errors, study_levels
from .problem import CoefficientField, make_problem, sum_sources
from .scheme import STUDY_TOL, ThetaScheme

__all__ = [
    "SemigroupFlow",
    "SemigroupProblem",
    "SplitProblem",
    "PCControlProblem",
    "SplitCheck",
    "splitting_solve",
    "calibrate_inner_steps",
    "semigroup_rate_experiment",
    "splitting_rate_experiment",
    "splitting_vs_inner_check",
    "pcc_rate_experiment",
]

REF_FACTOR = 16        # reference solves step at (finest step) / REF_FACTOR
HALVING_TOL = 0.05     # |ratio - 1/2| of two estimates that calibration reads as first order
INNER_M0 = 2           # calibration's first substep count
INNER_CAP = 256        # calibration makes no run with more substeps
INNER_FRACTION = 0.01  # calibration's target: this share of the splitting error


def _norm_family(entries, dim: int, what: str):
    """Each entry's coefficients as stored by `CoefficientField`: constant
    sigma (dim x p), b (dim,) and c, and f a float or an evaluator that does
    not depend on t (a flow's clock restarts at every apply)."""
    if not entries:
        raise ConfigError(f"{what}: family needs at least one control")
    coeffs = CoefficientField.from_specs(entries, dim)
    out = []
    for i in range(len(coeffs)):
        e = coeffs[i]
        if any(callable(v) for v in (e.sigma, e.b, e.c)):
            raise ConfigError(f"{what}[{i}]: semigroup families need constant sigma, b and c")
        out.append({"sigma": e.sigma, "b": e.b, "c": e.c, "f": e.f})
    if coeffs.varies_in_t():
        raise ConfigError(f"{what}: semigroup families must be autonomous; a source depends on t")
    return out


class SemigroupFlow:
    """Implicit-Euler realization of the flow of one coefficient family.

    apply(values, dt, m) advances `values` by time dt using m implicit
    substeps of size dt/m; the family clock restarts at 0 each call, so the
    controls pass the check of `SemigroupProblem`'s families (`_norm_family`):
    constant sigma, b and c, and a source that does not depend on t.
    """

    def __init__(self, dim: int, period: float, n_x: int, controls,
                 builder: str = "kushner", label: str = "flow"):
        self.dim = dim
        self.period = period
        self.n_x = n_x
        self.controls = _norm_family(controls, dim, label)
        self.builder = builder
        self.label = label
        self._cache = {}

    def _scheme(self, delta: float) -> ThetaScheme:
        """The implicit scheme of one substep delta, built once per distinct
        delta: every (dt, m) with dt/m == delta steps with the same bits."""
        sch = self._cache.get(delta)
        if sch is None:
            grid = SpaceTimeGrid.build(self.dim, self.period, self.n_x, delta, delta)
            problem = make_problem(self.dim, self.period, delta, self.controls,
                                   u0=0.0, label=self.label)
            sch = ThetaScheme(problem, grid, theta=1.0, builder=self.builder, tol=STUDY_TOL)
            self._cache[delta] = sch
        return sch

    def apply(self, values: np.ndarray, dt: float, m: int) -> np.ndarray:
        if not (dt > 0.0) or m < 1:
            raise ConfigError("flow apply needs dt > 0 and m >= 1")
        delta = float(dt) / int(m)
        sch = self._scheme(delta)
        u = np.asarray(values, dtype=float).copy()
        for k in range(m):
            u, _ = sch.step(u, k * delta)
        return u


@dataclass(kw_only=True)
class SemigroupProblem:
    """What both semigroup schemes share: a torus grid, one implicit flow per
    coefficient family, and the Bellman problem the scheme approximates.

    `__post_init__` builds the spatial `grid`, the `flows` and the
    `reference_problem` once, from the (name, controls) families and the
    (name, controls) reference that the subclass's `_controls` returns.
    A subclass also supplies `step(values, dt, m)`, one macro step.
    """

    dim: int
    period: float
    T: float
    u0: object
    n_x: int
    builder: str = "kushner"
    label: ClassVar[str] = "semigroup"

    def __post_init__(self):
        self.grid = SpaceTimeGrid.build(self.dim, self.period, self.n_x, self.T, self.T)
        families, (ref_name, ref_controls) = self._controls()
        self.flows = tuple(
            SemigroupFlow(self.dim, self.period, self.n_x, controls, builder=self.builder,
                          label=f"{self.label} {name}")
            for name, controls in families
        )
        self.reference_problem = make_problem(self.dim, self.period, self.T, ref_controls,
                                              u0=self.u0, label=f"{self.label} {ref_name}")

    def initial_values(self) -> np.ndarray:
        return self.reference_problem.u0_values(self.grid.nodes())

    def reference(self, dt: float) -> np.ndarray:
        """Final-time values of an implicit solve of the reference problem
        with time step dt."""
        grid = SpaceTimeGrid.build(self.dim, self.period, self.n_x, self.T, dt)
        scheme = ThetaScheme(self.reference_problem, grid, theta=1.0, builder=self.builder,
                             tol=STUDY_TOL)
        return scheme.solve().values

    def solve(self, dt: float, m: int) -> np.ndarray:
        """March the scheme from u0 to T with macro step dt, each flow taking
        m implicit substeps per macro step."""
        n = _macro_count(self.T, dt, f"{type(self).__name__}.solve")
        u = self.initial_values()
        for _ in range(n):
            u = self.step(u, dt, m)
        return u


@dataclass(kw_only=True)
class SplitProblem(SemigroupProblem):
    """Two coefficient families on a shared torus grid and horizon.

    Each family entry is a dict {sigma, b, c, f} with constant sigma, b, c
    (f may vary in x, as a SpaceOnly, but not in t).  The reference problem
    takes the sup over the product control set, which is the equation the
    splitting scheme approximates.
    """

    family1: list
    family2: list
    label: ClassVar[str] = "split"

    def _controls(self):
        fam1 = _norm_family(self.family1, self.dim, f"{self.label} family1")
        fam2 = _norm_family(self.family2, self.dim, f"{self.label} family2")
        combined = []  # the product control set: one control per family pair
        for e1 in fam1:
            for e2 in fam2:
                combined.append({
                    "sigma": np.hstack([e1["sigma"], e2["sigma"]]),
                    "b": e1["b"] + e2["b"],
                    "c": e1["c"] + e2["c"],
                    "f": sum_sources(e1["f"], e2["f"]),
                })
        return [("family1", fam1), ("family2", fam2)], ("combined", combined)

    def step(self, values: np.ndarray, dt: float, m: int) -> np.ndarray:
        """One macro step S_1(dt) S_2(dt): family 2 first, then family 1."""
        f1, f2 = self.flows
        return f1.apply(f2.apply(values, dt, m), dt, m)


def _macro_count(T: float, dt: float, what: str) -> int:
    # no count of steps reaches T when dt <= 0 or T / dt overflows
    n = int(round(T / dt)) if dt > 0.0 and T / dt < math.inf else 0
    if n < 1 or abs(n * dt - T) > 1e-9 * max(T, 1.0):
        raise ConfigError(f"{what}: dt={dt!r} does not divide the horizon T={T!r}")
    check_level_count(T, dt, what)
    return n


def _macro_steps(T: float, dt_list, what: str) -> list:
    """The macro steps of a rate study through `study_levels`; each must
    also divide the horizon T."""
    dts = study_levels([float(d) for d in dt_list], what)
    for d in dts:
        _macro_count(T, d, what)
    return dts


def splitting_solve(sp: SplitProblem, dt: float, m: int) -> np.ndarray:
    """March the splitting scheme from u0 to T with macro step dt."""
    # A module function, not only the method: perfbench/spans.py traces
    # the splitting solves under this name.
    return sp.solve(dt, m)


def _inner_estimate(u_m: np.ndarray, u_2m: np.ndarray) -> float:
    """First-order Richardson estimate of the inner-stepping error of the
    m-substep run: for an O(dt/m) inner method it is about 2 |U_m - U_2m|_0."""
    return 2.0 * sup_norm(u_m - u_2m)


def calibrate_inner_steps(sp: SplitProblem, dt: float, reference: np.ndarray,
                          notes: list, solution: list) -> int:
    """Double m from INNER_M0 until the Richardson estimate of the pair
    (m, 2m) is at most INNER_FRACTION of the splitting error of the 2m run
    against `reference` (its target), or until the pair (L, 2L) has missed,
    L the largest INNER_M0 2^k with 2L <= INNER_CAP.  No run finer than the
    cap is made.

    The estimate of a first-order inner method halves as m doubles.  When
    two consecutive pairs miss their targets and the second estimate is
    half the first within HALVING_TOL, the model predicts the last pair's
    estimate as est m / L.  If that misses the current target too, the
    pair (L, 2L) is run at once: when it misses, the pairs between are
    skipped; when it meets its target, the doubling goes on where it
    jumped, reusing every run made, so no m is solved twice.  The chosen m
    and `solution` are what plain doubling gives, except when the estimate
    over the target is not monotone in m: a skipped pair that would have
    met its target while (L, 2L) misses is not found, and 2L is returned.

    When the pair (L, 2L) misses, a line saying so, with its estimate and
    target, is appended to `notes` and 2L is returned.  The final-time
    values of the run at the returned m are appended to `solution`, so a
    caller need not solve it again.
    """
    m = top = INNER_M0  # top is L
    while 4 * top <= INNER_CAP:
        top *= 2
    runs = {}

    def pair(k):
        for j in (k, 2 * k):
            if j not in runs:
                runs[j] = splitting_solve(sp, dt, j)
        return (_inner_estimate(runs[k], runs[2 * k]),
                INNER_FRACTION * signed_errors(reference, runs[2 * k])[2])

    last = math.inf  # the previous pair's estimate
    while True:
        est, target = pair(m)
        if est <= target:
            break
        if abs(est / last - 0.5) <= HALVING_TOL and est * m / top > target:
            top_est, top_target = pair(top)
            if top_est > top_target:
                m, est, target = top, top_est, top_target
        if m == top:
            m *= 2
            notes.append(f"inner substeps capped at m={m}: inner error estimate "
                         f"{est:.3e} misses the target {target:.3e} "
                         f"({100 * INNER_FRACTION:g}% of the splitting error)")
            break
        last = est
        m *= 2
    solution.append(runs[m])
    return m


def semigroup_rate_experiment(stepper, reference, dt_list, exponent: float,
                              dx: float = float("nan"), notes=None) -> RateReport:
    """Macro-step rate study for any one-parameter stepper.

    stepper(dt) must return final-time values on the reference's grid;
    the signed errors reference - stepper(dt) are fitted log-log against
    dt (levels sorted descending).
    """
    dts = study_levels([float(d) for d in dt_list], "semigroup_rate_experiment")
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
    dts = _macro_steps(sp.T, dt_list, "splitting_rate_experiment")
    if m is not None and m < 1:
        raise ConfigError(f"splitting_rate_experiment needs m >= 1, got {m}")
    ref = sp.reference(dts[-1] / REF_FACTOR)
    notes = [f"reference dt={dts[-1] / REF_FACTOR!r}"]
    finest = []  # calibration's run at dts[-1] and the chosen m, when it made one
    if m is None:
        m = calibrate_inner_steps(sp, dts[-1], ref, notes=notes, solution=finest)
        notes.append(f"inner substeps calibrated: m={m}")
    else:
        notes.append(f"inner substeps m={m}")

    def stepper(d):
        return finest[0] if finest and d == dts[-1] else splitting_solve(sp, d, m)

    return semigroup_rate_experiment(stepper, ref, dts, exponent, dx=sp.grid.dx, notes=notes)


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
    return SplitCheck(splitting_error=signed_errors(sp.reference(dt_ref), u_m)[2],
                      inner_estimate=inner_est, reference_dt=dt_ref)


@dataclass(kw_only=True)
class PCControlProblem(SemigroupProblem):
    """Piecewise-constant-control scheme data: a finite list of modes.

    Each mode dict {sigma, b, c, f} defines the linear flow
    v_t - tr[sigma sigma^T D^2 v] - b.Dv - c v - f = 0 (note: diffusion
    sigma sigma^T, no half factor); the scheme steps every mode and takes
    the pointwise min.  The reference problem is the coupled Bellman
    equation with the same modes as controls.
    """

    modes: list
    label: ClassVar[str] = "pcc"

    def _controls(self):
        norm = _norm_family(self.modes, self.dim, f"{self.label} modes")
        # absorb the solver's half factor: a_eff = sigma sigma^T
        effective = [
            {"sigma": math.sqrt(2.0) * e["sigma"], "b": e["b"], "c": e["c"], "f": e["f"]}
            for e in norm
        ]
        return [(f"mode{i}", [eff]) for i, eff in enumerate(effective)], ("coupled", effective)

    def step(self, values: np.ndarray, dt: float, m: int) -> np.ndarray:
        """Pointwise min over the per-mode flows applied for time dt."""
        out = None
        for flow in self.flows:
            cand = flow.apply(values, dt, m)
            out = cand if out is None else np.minimum(out, cand)
        return out


def pcc_rate_experiment(pp: PCControlProblem, dt_list, min_inner: int = 16,
                        exponent: float = 0.1) -> RateReport:
    """One-sided rate study for the piecewise-constant-control scheme.

    All levels and the coupled reference use the same inner step
    delta = dt_min/min_inner, so the discrete comparison argument applies
    step by step and err_plus (reference exceeding the scheme) stays at
    solver tolerance while err_total carries the rate.
    """
    dts = _macro_steps(pp.T, dt_list, "pcc_rate_experiment")
    if min_inner < 1:
        raise ConfigError(f"pcc_rate_experiment needs min_inner >= 1, got {min_inner}")
    delta = dts[-1] / int(min_inner)
    for d in dts:
        mj = int(round(d / delta))
        if abs(mj * delta - d) > 1e-9 * d:
            raise ConfigError(
                f"pcc_rate_experiment: dt={d!r} is not a multiple of the common "
                f"inner step {delta!r}")
    notes = [f"common inner step delta={delta!r}",
             "one-sided: err_plus is the reference-above-scheme violation"]
    return semigroup_rate_experiment(
        lambda d: pp.solve(d, int(round(d / delta))), pp.reference(delta), dts, exponent,
        dx=pp.grid.dx, notes=notes)

