"""Refinement studies, error norms, and log-log order fitting.

Every rate study in the package runs one way.  `study_levels` sorts its
levels by decreasing parameter and rejects fewer than two or a repeated
one, before anything is solved; each level is then solved, and any
numerical failure ends the study; `signed_errors` computes the sup norms of each level's signed error and `rate_report`
fits and assembles the report.  Error orientation follows the
two-sided rate statements: the signed error is d = u_ref - u_h, split into
err_plus = |d^+|_0 (scheme below the reference) and err_minus = |d^-|_0
(scheme above); err_total is the plain sup norm.  The switching study
(`switching.k_rate_experiment`) is the one exception: it passes the mode
values first, so there err_plus means the switched value lies above the
reference, the opposite of the piecewise-constant-control study.  The
refinement parameter for space-time studies is h = sqrt(dx^2 + dt).

Reports are written as CSV (`grid.write_csv`) with a gnuplot companion
script; identical configurations produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .grid import SpaceTimeGrid, first_non_finite, write_csv, write_plot

__all__ = [
    "FitResult",
    "RateReport",
    "Verdict",
    "fit_order",
    "study_levels",
    "signed_errors",
    "rate_report",
    "compare_bounds",
    "run_refinement",
    "write_rate_csv",
    "write_plot_script",
]

SLOPE_TOLERANCE = 0.05  # a fitted slope may fall this far below its exponent floor


@dataclass
class FitResult:
    slope: float
    r2: float
    n_used: int
    degenerate: bool
    note: str = ""


def fit_order(params, errors) -> FitResult:
    """Least-squares slope of log(error) against log(param).

    Zero errors are excluded (with a note); fewer than two positive
    entries makes the fit degenerate with slope 0.  A nan or infinite
    param or error is rejected, as is a param <= 0, a repeated param
    (the fit would be meaningless) or an error < 0.
    """
    params = [float(p) for p in params]
    errors = [float(e) for e in errors]
    if len(params) != len(errors):
        raise ConfigError("fit_order: params and errors must have equal length")
    if not all(0.0 < p < math.inf for p in params):
        raise ConfigError("fit_order: params must be finite and strictly positive")
    if len(set(params)) != len(params):
        raise ConfigError(f"fit_order: params must be distinct, got {params}")
    if not all(0.0 <= e < math.inf for e in errors):
        raise ConfigError("fit_order: errors must be finite and nonnegative")
    pairs = [(p, e) for p, e in zip(params, errors) if e > 0.0]
    dropped = len(params) - len(pairs)
    note = f"{dropped} zero-error level(s) excluded" if dropped else ""
    if len(pairs) < 2:
        return FitResult(slope=0.0, r2=0.0, n_used=len(pairs), degenerate=True,
                         note=note or "degenerate: zero error")
    lx = np.log([p for p, _ in pairs])
    ly = np.log([e for _, e in pairs])
    slope, intercept = np.polyfit(lx, ly, 1)
    fitted = slope * lx + intercept
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    if ss_tot < 1e-30:
        r2 = 1.0 if ss_res < 1e-30 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return FitResult(slope=float(slope), r2=r2, n_used=len(pairs), degenerate=False, note=note)


@dataclass
class RateReport:
    """Per-level signed errors against a refinement parameter, plus the fit."""

    param_name: str
    params: list
    err_plus: list
    err_minus: list
    err_total: list
    slope: float
    r2: float
    exponent: float
    degenerate: bool = False
    fit_plus: bool = False  # the fit was taken on err_plus, not on err_total
    dxs: list = field(default_factory=list)
    dts: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.params) < 2:
            raise ConfigError("rate report needs at least two levels")
        if any(b > a + 1e-15 for a, b in zip(self.params, self.params[1:])):
            raise ConfigError("rate report levels must be sorted descending in parameter")
        if not math.isfinite(self.slope):
            raise ConfigError("rate report slope must be finite")

    def monotone_nonincreasing(self) -> bool:
        return all(b <= a * (1.0 + 1e-12) + 1e-300
                   for a, b in zip(self.err_total, self.err_total[1:]))


def study_levels(levels, what: str, key=lambda level: level) -> list:
    """The levels of a rate study sorted by decreasing key(level).

    Every study calls this before it solves anything: with fewer than two
    levels, or two with the same key, the log-log slope is undefined, so
    either raises ConfigError.
    """
    levels = sorted(levels, key=key, reverse=True)
    if len(levels) < 2:
        raise ConfigError(f"{what} needs at least two levels, got {len(levels)}")
    params = [key(lv) for lv in levels]
    if len(set(params)) != len(params):
        raise ConfigError(f"{what}: levels must be distinct, got {params}")
    return levels


def signed_errors(ref, u):
    """Sup norms (err_plus, err_minus, err_total) of the signed error d = ref - u.

    This is the only place the package measures an error: err_plus =
    |d^+|_0, err_minus = |d^-|_0, err_total = |d|_0.  Callers put the
    reference first, except the switching study, which puts the mode
    values first to measure v - u_ref.  A nan or inf anywhere in d raises
    NumericalError: such a level has no error to fit.
    """
    d = np.asarray(ref, dtype=float) - u
    total = float(np.max(np.abs(d)))
    if not math.isfinite(total):
        raise NumericalError(f"non-finite error {total!r} at node {first_non_finite(d)}")
    return (float(np.max(np.maximum(d, 0.0))),
            float(np.max(np.maximum(-d, 0.0))),
            total)


def rate_report(param_name: str, rows, exponent: float, notes=(),
                fit_plus: bool = False) -> RateReport:
    """Build the RateReport of a study from per-level rows.

    Each row is (param, dx, dt, err_plus, err_minus, err_total).  Rows are
    sorted by decreasing parameter and the log-log fit is taken on
    err_total, or on err_plus when `fit_plus` is set; the fit's note, if
    any, is appended to `notes`.
    """
    rows = sorted(rows, key=lambda r: -r[0])
    params, dxs, dts, err_plus, err_minus, err_total = (list(c) for c in zip(*rows))
    fit = fit_order(params, err_plus if fit_plus else err_total)
    notes = list(notes) + ([fit.note] if fit.note else [])
    return RateReport(param_name=param_name, params=params, err_plus=err_plus,
                      err_minus=err_minus, err_total=err_total, slope=fit.slope,
                      r2=fit.r2, exponent=exponent, degenerate=fit.degenerate,
                      fit_plus=fit_plus, dxs=dxs, dts=dts, notes=notes)


@dataclass
class Verdict:
    passed: bool
    reason: str


def compare_bounds(report: RateReport) -> Verdict:
    """Pass iff fitted slope >= report.exponent - SLOPE_TOLERANCE and total
    errors are monotone nonincreasing across levels.  A degenerate report
    (fewer than two nonzero fitted errors) passes vacuously only when every
    fitted error is zero; one nonzero level leaves no slope, so it fails."""
    if report.degenerate:
        fitted = report.err_plus if report.fit_plus else report.err_total
        zero = [i for i, e in enumerate(fitted) if e == 0.0]
        if len(zero) == len(fitted):
            return Verdict(True, "degenerate: zero error at every level; bound holds trivially")
        return Verdict(False, f"degenerate: zero error only at level(s) {zero} "
                              f"({report.param_name}={[report.params[i] for i in zero]}), "
                              "too few nonzero errors to fit a slope")
    if not report.monotone_nonincreasing():
        return Verdict(False, f"errors not monotone nonincreasing: {report.err_total}")
    floor = report.exponent - SLOPE_TOLERANCE
    if report.slope < floor:
        return Verdict(False, f"slope {report.slope:.4f} below floor {floor:.4f}")
    return Verdict(True, f"slope {report.slope:.4f} >= {floor:.4f} and errors monotone")


def run_refinement(problem, scheme_options: dict, levels, reference,
                   exponent: float = 0.0) -> RateReport:
    """Solve `problem` at each (n_x, dt_target) level and fit the errors at
    the final time T against h.

    `reference` is either an evaluator exact(t, X), read at each level's
    final time on its nodes, or the (n_x, dt_target) of a fine solve of the
    same scheme, which each level reads through a stride slice.  Every grid
    is built first: the levels go through `study_levels` on h, and the fine
    n_x must be a power of 2, at least 2, times each level's, so a study
    with fewer than two levels, a repeated h or a bad reference fails
    before any solve.  The fine reference is solved first, then the levels
    by decreasing h; a CFL violation or any other NumericalError ends the
    study.
    """
    from .scheme import ThetaScheme  # local import to avoid a cycle

    def grid_of(n_x, dt_target):
        return SpaceTimeGrid.build(problem.dim, problem.period, int(n_x), problem.T,
                                   float(dt_target))

    def solve(grid):
        return ThetaScheme(problem, grid, **scheme_options).solve().values

    grids = study_levels([grid_of(*level) for level in levels], "run_refinement",
                         key=SpaceTimeGrid.h)
    if not callable(reference):
        fine = grid_of(*reference)
        for grid in grids:
            ratio, rest = divmod(fine.n_x, grid.n_x)
            if rest or ratio < 2 or ratio & (ratio - 1):
                raise ConfigError(f"reference n_x={fine.n_x} must be a power-of-2 multiple, "
                                  f"at least 2, of level n_x={grid.n_x}")
        u_fine = solve(fine)
    rows = []
    for grid in grids:
        ref = (reference(grid.T, grid.nodes()) if callable(reference)
               else u_fine[(slice(None, None, fine.n_x // grid.n_x),) * grid.dim])
        rows.append((grid.h(), grid.dx, grid.dt, *signed_errors(ref, solve(grid))))
    return rate_report("h", rows, exponent)


def write_rate_csv(report: RateReport, path, verdict: Verdict) -> None:
    """CSV rows: level, dx, dt, h, err_plus, err_minus, err_total, slope, verdict.

    The slope and verdict cells are filled on the last row only.  The
    h column carries the report's refinement parameter (h, dt, or k).
    """
    n = len(report.params)
    blank = [""] * (n - 1)
    block = ([str(i) for i in range(n)], report.dxs, report.dts, report.params,
             report.err_plus, report.err_minus, report.err_total,
             blank + [report.slope], blank + ["pass" if verdict.passed else "fail"])
    write_csv(path, ["level", "dx", "dt", "h", "err_plus", "err_minus", "err_total",
                     "slope", "verdict"], [block])
    write_plot_script(path, report.param_name)


def write_plot_script(csv_path, param_name: str) -> None:
    """Emit the convergence plot of a rate CSV through `grid.write_plot`."""
    name = str(csv_path).rsplit("/", 1)[-1]
    write_plot(csv_path, [
        f"# convergence plot for {name}",
        'set datafile separator ","',
        "set key autotitle columnhead left top",
        "set logscale xy",
        f'set xlabel "{param_name}"',
        'set ylabel "sup error"',
        f'plot "{name}" using 4:7 with linespoints, \\',
        f'     "{name}" using 4:5 with linespoints, \\',
        f'     "{name}" using 4:6 with linespoints',
        "pause -1",
    ])
