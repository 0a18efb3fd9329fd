"""Order fitting, refinement studies, verdicts, and report files."""

import math

import numpy as np
import pytest

from hjbfd import (
    GridFunction,
    RateReport,
    compare_bounds,
    decaying_wave,
    fit_order,
    make_problem,
    rate_report,
    run_refinement,
    signed_errors,
    write_rate_csv,
)
from hjbfd.errors import CFLError, ConfigError, NumericalError, SchemeError
from hjbfd.scheme import ThetaScheme

L2PI = 2 * np.pi


def test_fit_order_exact_half_power():
    hs = [1.0, 0.25, 0.0625]
    errs = [h ** 0.5 for h in hs]
    fit = fit_order(hs, errs)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.r2 >= 1.0 - 1e-9
    assert fit.n_used == 3
    assert not fit.degenerate


def test_fit_order_prefactor_does_not_matter():
    hs = [1.0, 0.5, 0.25]
    fit = fit_order(hs, [3.0 * h ** 0.2 for h in hs])
    assert fit.slope == pytest.approx(0.2, abs=1e-12)


def test_fit_order_noisy_slope_near_one():
    rng = np.random.default_rng(9)
    hs = [0.5 ** j for j in range(6)]
    errs = [h * math.exp(rng.uniform(-0.02, 0.02)) for h in hs]
    fit = fit_order(hs, errs)
    assert 0.9 <= fit.slope <= 1.1


def test_fit_order_time_step_pairs():
    fit = fit_order([0.1, 0.05, 0.025], [1.0, 0.5, 0.25])
    assert fit.slope == pytest.approx(1.0, abs=1e-12)


def test_fit_order_zero_errors_excluded():
    fit = fit_order([1.0, 0.5, 0.25], [0.5, 0.0, 0.125])
    assert fit.n_used == 2
    assert "excluded" in fit.note
    assert not fit.degenerate
    deg = fit_order([1.0, 0.5], [0.0, 0.0])
    assert deg.degenerate
    assert deg.slope == 0.0


def test_fit_order_input_validation():
    with pytest.raises(ConfigError):
        fit_order([1.0, 0.5], [1.0])
    with pytest.raises(ConfigError):
        fit_order([1.0, -0.5], [1.0, 0.5])
    with pytest.raises(ConfigError):
        fit_order([1.0, 0.5], [1.0, -0.5])
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite and nonnegative"):
            fit_order([1.0, 2.0, 3.0], [bad, 1e-3, 2e-3])
        with pytest.raises(ConfigError, match="finite and strictly positive"):
            fit_order([bad, 0.5, 0.25], [1.0, 0.5, 0.25])


def make_report(errs, params=None, slope=None, exponent=0.5, degenerate=False):
    params = params or [0.4, 0.2, 0.1]
    if slope is None:
        slope = fit_order(params, errs).slope if not degenerate else 0.0
    return RateReport(param_name="h", params=params,
                      err_plus=errs, err_minus=[0.0] * len(errs), err_total=errs,
                      slope=slope, r2=1.0, exponent=exponent, degenerate=degenerate,
                      dxs=params, dts=[p * p for p in params])


def test_rate_report_validation():
    with pytest.raises(ConfigError):
        make_report([1.0], params=[0.4])
    with pytest.raises(ConfigError):
        make_report([1.0, 2.0], params=[0.1, 0.4])
    with pytest.raises(ConfigError):
        make_report([1.0, 0.5], params=[0.4, 0.2], slope=float("nan"))


def test_monotone_nonincreasing():
    assert make_report([0.4, 0.2, 0.1]).monotone_nonincreasing()
    assert make_report([0.4, 0.4, 0.4]).monotone_nonincreasing()
    assert not make_report([0.4, 0.5, 0.1]).monotone_nonincreasing()


def test_compare_bounds_verdicts():
    # slope 0.5 against floor 0.5 - 0.05 passes
    rep = make_report([p ** 0.5 for p in (0.4, 0.2, 0.1)])
    assert compare_bounds(rep).passed
    # slope 0.18 against exponent 0.2 passes inside the default tolerance
    rep = make_report([p ** 0.18 for p in (0.4, 0.2, 0.1)], exponent=0.2)
    v = compare_bounds(rep)
    assert v.passed
    # slope 0.1 against exponent 0.2 fails
    rep = make_report([p ** 0.1 for p in (0.4, 0.2, 0.1)], exponent=0.2)
    v = compare_bounds(rep)
    assert not v.passed
    assert "below floor" in v.reason
    # non-monotone errors fail regardless of slope
    rep = make_report([0.4, 0.5, 0.01], exponent=0.1)
    assert not compare_bounds(rep).passed
    # a degenerate report passes vacuously only when every fitted error is 0
    rep = make_report([0.0, 0.0, 0.0], slope=0.0, exponent=5.0, degenerate=True)
    assert compare_bounds(rep).passed
    # one nonzero level leaves no slope: it fails and names the zero-error level
    rows = [(0.4, 0.4, 0.16, 0.002, 0.0, 0.002), (0.2, 0.2, 0.04, 0.0, 0.0, 0.0)]
    v = compare_bounds(rate_report("h", rows, 0.5))
    assert not v.passed
    assert v.reason.startswith("degenerate: zero error only at level(s) [1] (h=[0.2])")
    # the fitted column decides: err_plus is zero at every level here, while
    # err_total is not, so a fit on err_plus passes vacuously
    rows = [(0.4, 0.4, 0.16, 0.0, 0.002, 0.002), (0.2, 0.2, 0.04, 0.0, 0.0, 0.0)]
    assert not compare_bounds(rate_report("k", rows, 0.5)).passed
    assert compare_bounds(rate_report("k", rows, 0.5, fit_plus=True)).passed


def test_reference_solution_exact():
    # an evaluator is read at each level's final time T on its nodes
    pr = make_problem(1, 1.0, 1.0, [{"sigma": 0.0}], u0=0.0)
    seen = []

    def exact(t, X):
        seen.append((t, X.copy()))
        return t + X[..., 0]

    rep = run_refinement(pr, {"theta": 1.0}, [(4, 0.5), (8, 0.5)], exact)
    assert [t for t, _ in seen] == [1.0, 1.0]
    np.testing.assert_array_equal(seen[0][1][..., 0], np.arange(4) * 0.25)
    np.testing.assert_array_equal(seen[1][1][..., 0], np.arange(8) * 0.125)
    # u stays 0, so the error is the largest of 1 + x on each level's nodes
    assert rep.err_total == [1.75, 1.875]


def test_reference_solution_fine_restriction(monkeypatch):
    # a fine reference is solved once, before the levels, and each level
    # reads it through a stride slice
    pr = make_problem(1, 1.0, 1.0, [{"sigma": 0.0}], u0=0.0)
    solved = []
    solve = ThetaScheme.solve

    def recorded(self, *args, **kwargs):
        solved.append(self.grid.n_x)
        out = solve(self, *args, **kwargs)
        return GridFunction(self.grid, np.arange(16.0)) if self.grid.n_x == 16 else out

    monkeypatch.setattr(ThetaScheme, "solve", recorded)
    rep = run_refinement(pr, {"theta": 1.0}, [(4, 0.5), (8, 0.5)], (16, 0.5))
    assert solved == [16, 4, 8]  # the fine grid, then decreasing h
    assert rep.err_plus == [12.0, 14.0]  # the largest of 0, 4, 8, 12 and of 0, 2, ..., 14


def test_fine_reference_ratio_is_checked_before_any_solve(monkeypatch):
    # the fine n_x must be a power of 2, at least 2, times every level's:
    # 24/8 is 3, 16/6 is not an integer, and 16/16 makes the finest level
    # its own reference
    pr, _ = heat_study()
    monkeypatch.setattr(ThetaScheme, "solve", lambda self, *a, **k: pytest.fail("solved"))
    for levels, ref_nx in (([8, 16], 24), ([6, 12], 16), ([8, 16], 16), ([8, 16], 8)):
        with pytest.raises(ConfigError, match=f"reference n_x={ref_nx} must be a power-of-2"):
            run_refinement(pr, {"theta": 0.0}, heat_levels(levels),
                           (ref_nx, 0.4 * (L2PI / ref_nx) ** 2))


def heat_exact(t, X):
    return math.exp(-0.5 * t) * np.sin(X[..., 0])


def heat_levels(n_list, factor=0.4):
    return [(n, factor * (L2PI / n) ** 2) for n in n_list]


def test_run_refinement_heat_rate():
    pr = make_problem(1, L2PI, 0.5, [{"sigma": 1.0}],
                      u0=lambda X: np.sin(X[..., 0]))
    rep = run_refinement(pr, {"theta": 0.0}, heat_levels([16, 32, 64]), heat_exact,
                         exponent=0.5)
    assert rep.param_name == "h"
    assert rep.slope > 0.9
    assert rep.monotone_nonincreasing()
    assert compare_bounds(rep).passed
    assert len(rep.dxs) == 3 and len(rep.dts) == 3


def test_run_refinement_constant_data_degenerate():
    # stationary balance: errors vanish at machine precision on every level
    pr = make_problem(1, L2PI, 0.5, [{"c": 1.0, "f": -2.0}], u0=2.0)
    rep = run_refinement(pr, {"theta": 0.0}, [(8, 0.05), (16, 0.025)],
                         lambda t, X: np.full(np.shape(X)[:-1], 2.0))
    assert max(rep.err_total) <= 1e-12


def test_run_refinement_cfl_violation_aborts():
    pr = make_problem(1, L2PI, 0.5, [{"sigma": 1.0}],
                      u0=lambda X: np.sin(X[..., 0]))
    with pytest.raises(CFLError):
        run_refinement(pr, {"theta": 0.0}, heat_levels([16, 32], factor=4.0), heat_exact)


def test_run_refinement_checks_its_levels_before_any_solve(monkeypatch):
    # one level, or two with the same h, is rejected before any solve
    pr, ref = heat_study()
    fail_at_level(monkeypatch, 16, AssertionError("solved before the levels were checked"))
    with pytest.raises(ConfigError, match="at least two levels"):
        run_refinement(pr, {"theta": 0.0}, heat_levels([16]), ref)
    with pytest.raises(ConfigError, match="must be distinct"):
        run_refinement(pr, {"theta": 0.0}, heat_levels([32, 16, 16]), ref)


def fail_at_level(monkeypatch, n_x, exc):
    """Make ThetaScheme.solve raise `exc` on grids with `n_x` nodes per axis."""
    solve = ThetaScheme.solve

    def patched(self, *args, **kwargs):
        if self.grid.n_x == n_x:
            raise exc
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(ThetaScheme, "solve", patched)


def heat_study():
    pr = make_problem(1, L2PI, 0.5, [{"sigma": 1.0}],
                      u0=lambda X: np.sin(X[..., 0]))
    return pr, heat_exact


def test_run_refinement_a_numerically_failed_level_ends_the_study(monkeypatch):
    # a level that fails numerically is not dropped: it ends the study
    pr, ref = heat_study()
    fail_at_level(monkeypatch, 16, SchemeError("policy iteration did not converge"))
    with pytest.raises(SchemeError, match="did not converge"):
        run_refinement(pr, {"theta": 0.0}, heat_levels([8, 16, 32]), ref)


def test_run_refinement_propagates_non_numerical_errors(monkeypatch):
    pr, ref = heat_study()
    fail_at_level(monkeypatch, 16, TypeError("bad operand"))
    with pytest.raises(TypeError, match="bad operand"):
        run_refinement(pr, {"theta": 0.0}, heat_levels([8, 16, 32]), ref)


def test_signed_errors_orientation():
    ref = np.array([1.0, 2.0, 3.0])
    u = np.array([0.5, 2.5, 3.0])
    assert signed_errors(ref, u) == (0.5, 0.5, 0.5)
    assert signed_errors(ref, u - 1.0) == (1.5, 0.0, 1.5)
    assert signed_errors(u - 1.0, ref) == (0.0, 1.5, 1.5)


def test_signed_errors_reject_a_non_finite_error():
    ref = np.zeros(4)
    for bad in (np.nan, np.inf, -np.inf):
        u = np.zeros(4)
        u[2] = bad
        with pytest.raises(NumericalError, match=r"non-finite error .* node \(2,\)"):
            signed_errors(ref, u)


def test_run_refinement_a_non_finite_error_ends_the_study():
    # the reference is nan on the 16-node grid only: that level has no error,
    # and the study raises instead of fitting the other two
    pr, ref = heat_study()
    with pytest.raises(NumericalError, match="non-finite error"):
        run_refinement(pr, {"theta": 0.0}, heat_levels([8, 16, 32]),
                       lambda t, X: ref(t, X) + (np.nan if len(X) == 16 else 0.0))


def test_rate_report_sorts_rows_and_fits():
    rows = [(0.1, 0.0, 0.1, 0.0, 0.2, 0.2), (0.4, 0.0, 0.4, 0.0, 0.8, 0.8),
            (0.2, 0.0, 0.2, 0.0, 0.4, 0.4)]
    rep = rate_report("dt", rows, 1.0, notes=["given"])
    assert rep.params == [0.4, 0.2, 0.1]
    assert rep.err_total == [0.8, 0.4, 0.2]
    assert rep.slope == pytest.approx(1.0)
    # err_plus is zero everywhere: fitting on it is degenerate and noted
    plus = rate_report("k", rows, 1.0, notes=["given"], fit_plus=True)
    assert plus.degenerate and plus.slope == 0.0
    assert plus.notes == ["given", "3 zero-error level(s) excluded"]


def test_write_rate_csv_layout_and_determinism(tmp_path):
    exact = decaying_wave(1, L2PI, [1], rate=0.5)
    rep = make_report([0.5, 0.25, 0.125])
    v = compare_bounds(rep)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rate_csv(rep, p1, v)
    write_rate_csv(rep, p2, v)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "level,dx,dt,h,err_plus,err_minus,err_total,slope,verdict"
    assert len(lines) == 4
    # slope and verdict live on the last row only
    assert lines[1].endswith(",,")
    last = lines[3].split(",")
    assert last[0] == "2"
    assert float(last[7]) == pytest.approx(1.0, abs=1e-12)
    assert last[8] == "pass"
    # the companion plot script points at the CSV by name
    gp = (tmp_path / "a.gp").read_text()
    assert '"a.csv"' in gp
    assert "logscale xy" in gp
