"""Batch command line interface.

Subcommands:

    solve      march one problem, streaming the trajectory, and dump the final slice
    rates      space-time refinement study against a fine-grid reference
    switching  switching-cost decay study (one-sided, fixed grid)
    split      operator-splitting macro-step study
    pcc        piecewise-constant-control macro-step study
    decompose  direction decomposition of a symmetric matrix
    probe      structural checks: monotonicity, comparison, a-priori bounds

Each subcommand accepts only the flags it reads.  Exit codes: 0 success,
1 bad configuration or usage (unknown flag, malformed or non-finite
number, out-of-range count), 2 numerical failure (CFL violation,
divergence, rate below its floor), 3 probe failure.  Errors print exactly
one line on stderr of the form "error: <kind>: <reason>".  A stdout closed
by its reader (`hjbfd probe ... | head -1`) is such an error, exit 1, as
the command could not finish.  Commands run with numpy's floating-point
warnings off: an overflow or nan is reported by the solvers' own
finiteness checks, as that one line.

Outputs are deterministic: identical configs and flags give byte-identical
CSV files and gnuplot scripts (floats via repr, no timestamps).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys

import numpy as np

from .config import (load_json, parse_matrix, parse_pcc, parse_problem,
                     parse_split, parse_switching)
from .errors import ConfigError, HJBError, NumericalError, ProbeFailure
from .grid import Cells, GridFunction, SpaceTimeGrid, csv_cell, write_csv
from .harness import (SLOPE_TOLERANCE, ReferenceSolution, compare_bounds,
                      run_refinement, study_levels, write_rate_csv)
from .scheme import ThetaScheme
from .semigroup import (PCControlProblem, SplitProblem, pcc_rate_experiment,
                        splitting_rate_experiment)
from .stencil import bz_decompose
from .switching import k_rate_experiment

__all__ = ["main"]


_DT_LIST = (0.1, 0.05, 0.025, 0.0125)  # default macro steps of split and pcc


def _floats(text: str, what: str) -> list:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"{what}: expected comma-separated numbers, got {text!r}") from None
    if not vals:
        raise ConfigError(f"{what}: empty list")
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{what}: expected finite numbers, got {text!r}")
    return vals


def _ints(text: str, what: str) -> list:
    vals = _floats(text, what)
    out = []
    for v in vals:
        if v != int(v):
            raise ConfigError(f"{what}: expected integers, got {text!r}")
        out.append(int(v))
    return out


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _grid_for(problem, n_x: int, dt, cfl_factor: float) -> SpaceTimeGrid:
    if n_x < 3:
        raise ConfigError(f"n_x must be >= 3, got {n_x}")
    dx = problem.period / n_x
    dt_target = float(dt) if dt is not None else cfl_factor * dx * dx
    return SpaceTimeGrid.build(problem.dim, problem.period, n_x, problem.T, dt_target)


def _write_trajectory(grid, levels, path) -> tuple:
    """Stream each (u, report) of `levels` into t,x_1,...,value rows as it
    arrives, one block per level: the time is formatted once per level and
    the coordinates once per run.  Returns the last u and the largest
    policy-iteration count."""
    coords = [Cells(map(csv_cell, axis)) for axis in grid.nodes().reshape(-1, grid.dim).T]
    last = [None, 0]

    def blocks():
        for n, (u, rep) in enumerate(levels):
            last[0] = u
            if rep is not None:
                last[1] = max(last[1], rep.policy_iterations)
            yield (csv_cell(n * grid.dt), *coords, u.reshape(-1))

    write_csv(path, ["t"] + [f"x_{i + 1}" for i in range(grid.dim)] + ["value"], blocks())
    return tuple(last)


def _write_solution_plot(csv_path, dim: int) -> None:
    if dim > 2:
        return
    gp_path = str(csv_path)[:-4] + ".gp"
    name = str(csv_path).rsplit("/", 1)[-1]
    lines = ['set datafile separator ","', "set key autotitle columnhead"]
    if dim == 1:
        lines.append(f'plot "{name}" using 1:2 with linespoints')
    else:
        lines.append(f'splot "{name}" using 1:2:3 with points')
    lines.append("pause -1")
    with open(gp_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_solve(args) -> int:
    problem = parse_problem(load_json(args.config))
    grid = _grid_for(problem, args.nx, args.dt, args.cfl_factor)
    scheme = ThetaScheme(problem, grid, theta=args.theta, builder=args.builder)
    levels = scheme.march(force=args.force)
    first = next(levels)  # the CFL guard and the u0 check run before any file is written
    out = _outdir(args)
    u, iters = _write_trajectory(grid, itertools.chain([first], levels),
                                 os.path.join(out, "trajectory.csv"))
    final = GridFunction(grid, u)
    sol_path = os.path.join(out, "solution.csv")
    final.to_csv(sol_path)
    _write_solution_plot(sol_path, grid.dim)
    print(f"solve ok: label={problem.label} n_x={grid.n_x} n_t={grid.n_t} "
          f"dt={csv_cell(grid.dt)} theta={csv_cell(args.theta)} "
          f"sup|u(T)|={csv_cell(np.max(np.abs(final.values)))} "
          f"max_policy_iters={iters}")
    return 0


def _finish_study(args, name: str, report, extra=(), guards=()) -> int:
    """The end of every rate study: judge `report` against its own exponent,
    write <name>.csv and <name>.gp, print the one summary line (the `extra`
    (key, value) pairs go between errors and verdict), then raise the first
    failed (failed, message) guard, else a failed verdict."""
    verdict = compare_bounds(report, report.exponent)
    write_rate_csv(report, os.path.join(_outdir(args), f"{name}.csv"), verdict)
    print(f"{name}: slope={csv_cell(report.slope)} r2={csv_cell(report.r2)} "
          f"floor={csv_cell(report.exponent - SLOPE_TOLERANCE)} "
          f"errors={[csv_cell(e) for e in report.err_total]} "
          + "".join(f"{key}={csv_cell(value)} " for key, value in extra)
          + f"verdict={'pass' if verdict.passed else 'fail'} notes={report.notes!r}")
    for failed, message in guards:
        if failed:
            raise NumericalError(message)
    if not verdict.passed:
        raise NumericalError(f"{name}: rate check failed: {verdict.reason}")
    return 0


def _study_list(flag, what: str, doc_list, default) -> list:
    """A study's parameter list: the flag's, else the document's, else `default`."""
    if flag is not None:
        return _floats(flag, what)
    return list(doc_list if doc_list is not None else default)


def cmd_rates(args) -> int:
    problem = parse_problem(load_json(args.config))
    levels = study_levels(_ints(args.levels, "--levels"), "--levels")
    ref_nx = args.ref_nx if args.ref_nx is not None else 2 * levels[0]
    if min(levels[-1], ref_nx) < 3:
        raise ConfigError(f"every level and the reference need n_x >= 3, got --levels "
                          f"{args.levels} and reference n_x={ref_nx}")
    for nx in levels:
        if ref_nx % nx != 0 or ((ref_nx // nx) & (ref_nx // nx - 1)):
            raise ConfigError(
                f"reference n_x={ref_nx} must be a power-of-2 multiple of level n_x={nx}")
    ref_grid = _grid_for(problem, ref_nx, None, args.cfl_factor)
    ref_scheme = ThetaScheme(problem, ref_grid, theta=args.theta, builder=args.builder)
    reference = ReferenceSolution("fine", fine=ref_scheme.solve())
    dx_levels = [(nx, args.cfl_factor * (problem.period / nx) ** 2) for nx in levels]
    report = run_refinement(problem, {"theta": args.theta, "builder": args.builder},
                            dx_levels, reference, exponent=args.exponent)
    return _finish_study(args, "rates", report)


def cmd_switching(args) -> int:
    problem, modes, k_doc = parse_switching(load_json(args.config))
    k_list = _study_list(args.k_list, "--k-list", k_doc, (0.4, 0.2, 0.1, 0.05))
    grid = _grid_for(problem, args.nx, args.dt, args.cfl_factor)
    report, finest = k_rate_experiment(problem, modes, grid, k_list, theta=args.theta,
                                       builder=args.builder)
    band = finest.coupling_band_violation()
    scale = 1.0 + float(np.max(np.abs(finest.final)))
    one_sided = max(report.err_minus)
    return _finish_study(
        args, "switching", report,
        extra=[("one_sided_violation", one_sided), ("band_violation", band)],
        guards=[(one_sided > 1e-6 * scale,
                 f"one-sided bound violated: {one_sided!r} > 1e-6*{scale!r}"),
                (band > 1e-9 * scale, f"coupling band exceeded: violation {band!r}")])


def cmd_split(args) -> int:
    fields, doc_dts = parse_split(load_json(args.config))
    sp = SplitProblem(**fields, n_x=args.nx, builder=args.builder)
    dts = _study_list(args.dt_list, "--dt-list", doc_dts, _DT_LIST)
    report = splitting_rate_experiment(sp, dts, m=args.inner, exponent=args.exponent)
    return _finish_study(args, "split", report)


def cmd_pcc(args) -> int:
    fields, doc_dts = parse_pcc(load_json(args.config))
    pp = PCControlProblem(**fields, n_x=args.nx, builder=args.builder)
    dts = _study_list(args.dt_list, "--dt-list", doc_dts, _DT_LIST)
    report = pcc_rate_experiment(pp, dts, min_inner=args.min_inner, exponent=args.exponent)
    one_sided = max(report.err_plus)
    scale = 1.0 + float(np.max(np.abs(pp.initial_values())))
    return _finish_study(args, "pcc", report, extra=[("one_sided_violation", one_sided)],
                         guards=[(one_sided > 1e-6 * scale,
                                  f"one-sided bound violated: {one_sided!r} > 1e-6*{scale!r}")])


def cmd_decompose(args) -> int:
    a, max_order = parse_matrix(load_json(args.config))
    dec = bz_decompose(a, max_order=max_order)
    out = _outdir(args)
    write_csv(os.path.join(out, "decomposition.csv"), ["direction", "weight"],
              [([f"\"{' '.join(str(int(x)) for x in beta)}\"" for beta in dec.directions],
                dec.weights)])
    scale = max(1.0, float(np.max(np.abs(a))))
    resid = dec.residual_norm
    print(f"decompose: directions={len(dec.weights)} residual={csv_cell(resid)} "
          f"max_order={max_order}")
    if resid > 1e-12 * scale:
        raise NumericalError(
            f"matrix not decomposable over stencil order {max_order}: residual {resid!r}")
    return 0


def cmd_probe(args) -> int:
    problem = parse_problem(load_json(args.config))
    grid = _grid_for(problem, args.nx, args.dt, args.cfl_factor)
    scheme = ThetaScheme(problem, grid, theta=args.theta, builder=args.builder)
    mono = scheme.monotonicity_probe(trials=args.trials, seed=args.seed)
    print(f"probe monotonicity: {'pass' if mono.passed else 'FAIL'} "
          f"worst={csv_cell(mono.worst)} checked={mono.checked}")
    if not mono.passed:
        raise ProbeFailure(f"monotonicity: worst violation {mono.worst!r} ({mono.witness})",
                           witness=mono.witness)

    checks = [
        ("comparison forced", scheme.comparison_bound_check(df=1.0, force=args.force)),
        ("comparison forced reverse", scheme.comparison_bound_check(df=-1.0, force=args.force)),
        ("comparison shifted", scheme.comparison_bound_check(du0=-0.3, force=args.force)),
        ("a-priori bound", scheme.apriori_bounds_check(args.force)),
    ]
    for name, res in checks:
        print(f"probe {name}: {'pass' if res.passed else 'FAIL'} "
              f"worst={csv_cell(res.worst)} checked={res.checked}")
        if not res.passed:
            raise ProbeFailure(f"{name}: worst excess {res.worst!r} ({res.witness})",
                               witness=res.witness)
    return 0


def _finite(text: str) -> float:
    """argparse type of the float flags: a number that is neither nan nor inf."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return val


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError, so they exit 1 with one 'error: config:' line."""

    def error(self, message):
        raise ConfigError(message)


def _command(sub, name: str, help: str, fn, nx: int | None = None,
             theta: float | None = None, dt: bool = False, cfl: bool = False,
             force: bool = False):
    """Subparser with `config`, `--out`, `--builder` and only the other shared
    flags `fn` reads: --nx and --theta when their default is given, --dt,
    --cfl-factor and --force when set."""
    p = sub.add_parser(name, help=help)
    p.add_argument("config", help="JSON problem description")
    p.add_argument("--out", default="out", help="output directory (default: out)")
    if nx is not None:
        p.add_argument("--nx", type=int, default=nx,
                       help=f"spatial points per axis (default: {nx})")
    if dt:
        p.add_argument("--dt", type=_finite, default=None,
                       help="target time step (default: cfl-factor * dx^2)")
    if cfl:
        p.add_argument("--cfl-factor", dest="cfl_factor", type=_finite, default=0.45,
                       help=f"dt = factor * dx^2{' when --dt is absent' if dt else ''} "
                            "(default: 0.45)")
    if theta is not None:
        p.add_argument("--theta", type=_finite, default=theta,
                       help=f"time-stepping weight in [0,1] (default: {theta})")
    p.add_argument("--builder", choices=("kushner", "bz"), default="kushner",
                   help="stencil construction (default: kushner)")
    if force:
        p.add_argument("--force", action="store_true",
                       help="run even when a step-size check fails")
    p.set_defaults(fn=fn)
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hjbfd",
        description="Monotone finite-difference solvers and rate studies for "
                    "parabolic Bellman equations on the torus.")
    sub = ap.add_subparsers(dest="command", required=True)

    _command(sub, "solve", "solve one problem and dump CSV output", cmd_solve,
             nx=64, theta=1.0, dt=True, cfl=True, force=True)

    p = _command(sub, "rates", "refinement study against a fine-grid reference", cmd_rates,
                 theta=0.0, cfl=True)
    p.add_argument("--levels", default="16,32,64",
                   help="comma-separated n_x levels (default: 16,32,64)")
    p.add_argument("--ref-nx", dest="ref_nx", type=int, default=None,
                   help="reference n_x (default: 2 * max level)")
    p.add_argument("--exponent", type=_finite, default=0.2,
                   help="rate exponent lower bound (default: 0.2)")

    p = _command(sub, "switching", "switching-cost decay study", cmd_switching,
                 nx=64, theta=0.0, dt=True, cfl=True)
    p.add_argument("--k-list", dest="k_list", default=None,
                   help="comma-separated switching costs (default: 0.4,0.2,0.1,0.05)")

    dt_help = f"comma-separated macro steps (default: {','.join(map(str, _DT_LIST))})"
    p = _command(sub, "split", "operator-splitting macro-step study", cmd_split, nx=48)
    p.add_argument("--dt-list", dest="dt_list", default=None, help=dt_help)
    p.add_argument("--inner", type=int, default=None,
                   help="inner substeps per macro step (default: calibrated)")
    p.add_argument("--exponent", type=_finite, default=1.0 / 13.0,
                   help="rate exponent lower bound (default: 1/13)")

    p = _command(sub, "pcc", "piecewise-constant-control macro-step study", cmd_pcc, nx=48)
    p.add_argument("--dt-list", dest="dt_list", default=None, help=dt_help)
    p.add_argument("--min-inner", dest="min_inner", type=int, default=16,
                   help="inner steps at the finest level (default: 16)")
    p.add_argument("--exponent", type=_finite, default=0.1,
                   help="rate exponent lower bound (default: 1/10)")

    p = sub.add_parser("decompose", help="direction decomposition of a symmetric matrix")
    p.add_argument("config", help="JSON file with 'matrix' and optional 'max_order'")
    p.add_argument("--out", default="out")
    p.set_defaults(fn=cmd_decompose)

    p = _command(sub, "probe", "monotonicity, comparison and bound checks", cmd_probe,
                 nx=32, theta=1.0, dt=True, cfl=True, force=True)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the monotonicity probe's random pairs (default: 0)")
    p.add_argument("--trials", type=int, default=100,
                   help="random pairs for the monotonicity probe (default: 100)")

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(all="ignore"):
            code = args.fn(args)
        if sys.stdout is not None:  # None when the process started without one
            sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the output still buffered goes to the null device, so that the
        # flush at interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except (OSError, ValueError):  # stdout is not a file, as under a capture
            pass
        finally:
            os.close(devnull)
        print("error: config: standard output was closed before the command finished",
              file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return 2
    except ProbeFailure as exc:
        print(f"error: probe: {exc}", file=sys.stderr)
        return 3
    except HJBError as exc:  # pragma: no cover - safety net
        print(f"error: internal: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
