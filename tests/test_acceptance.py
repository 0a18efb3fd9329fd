"""Acceptance suite: one test per advertised guarantee of the package.

Every test prints a single summary line, so `pytest -s tests/test_acceptance.py`
reads as a checklist of what the library promises: benchmark rates, exponent
floors for the experiment pipelines, monotonicity and comparison properties,
decomposition exactness, stencil consistency orders, and bytewise determinism
of the command line artifacts.
"""

import math
import time
from pathlib import Path

import numpy as np

from hjbfd import (
    PCControlProblem,
    ReferenceSolution,
    SpaceTimeGrid,
    SplitProblem,
    SwitchingProblem,
    ThetaScheme,
    bz_decompose,
    compare_bounds,
    consistency_residual,
    decaying_wave,
    fit_order,
    k_rate_experiment,
    kushner_stencil,
    make_problem,
    manufacture,
    pcc_rate_experiment,
    run_refinement,
    splitting_rate_experiment,
    splitting_vs_inner_check,
    switching_solve,
)
from hjbfd.cli import main

L2PI = 2 * np.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report_line(num, name, ok, detail):
    print(f"acceptance {num:02d} {name}: {'pass' if ok else 'FAIL'} ({detail})")


def sin_u0(X):
    return np.sin(X[..., 0])


def heat_problem(T):
    return make_problem(1, L2PI, T, [{"sigma": 1.0}], u0=sin_u0, label="heat")


def test_01_heat_benchmark_rate_and_runtime():
    pr = heat_problem(T=1.0)
    ref = ReferenceSolution(
        "exact", exact=lambda t, X: math.exp(-0.5 * t) * np.sin(X[..., 0]))
    levels = [(n, L2PI / n) for n in (32, 64, 128, 256)]  # dt target = dx
    start = time.perf_counter()
    rep = run_refinement(pr, {"theta": 1.0}, levels, ref)
    elapsed = time.perf_counter() - start
    decreasing = all(a > b for a, b in zip(rep.err_total, rep.err_total[1:]))
    ok = decreasing and rep.slope >= 0.9 and elapsed < 10.0
    report_line(1, "heat benchmark", ok,
                f"slope={rep.slope:.3f} errors={[f'{e:.2e}' for e in rep.err_total]} "
                f"runtime={elapsed:.2f}s")
    assert decreasing
    assert rep.slope >= 0.9
    assert elapsed < 10.0


def test_02_manufactured_two_control_rate_floor():
    exact = decaying_wave(1, L2PI, [1], rate=0.5)
    mp = manufacture(1, L2PI, 0.5,
                     [{"sigma": 1.0},
                      {"sigma": 0.8, "b": 0.4, "c": 0.2, "g": 0.5}],
                     exact)
    ref = ReferenceSolution("exact", exact=mp.exact_values)
    levels = [(n, 0.45 * (L2PI / n) ** 2) for n in (16, 32, 64, 128)]
    rep = run_refinement(mp.problem, {"theta": 0.0}, levels, ref, exponent=0.2)
    verdict = compare_bounds(rep, 1.0 / 5.0)
    both_sides = (len(rep.err_plus) == 4 and len(rep.err_minus) == 4
                  and np.allclose(rep.err_total,
                                  np.maximum(rep.err_plus, rep.err_minus)))
    ok = verdict.passed and both_sides
    report_line(2, "manufactured rate floor", ok,
                f"slope={rep.slope:.3f} floor=0.15 verdict={verdict.passed} "
                f"err+={max(rep.err_plus):.2e} err-={max(rep.err_minus):.2e}")
    assert verdict.passed, verdict.reason
    assert both_sides


def test_03_monotonicity_probe_bulk_and_counterexample():
    pr = heat_problem(T=0.5)
    dx2 = (L2PI / 16) ** 2
    good_grid = SpaceTimeGrid.build(dim=1, period=L2PI, n_x=16, T=0.5, dt=0.4 * dx2)
    good = ThetaScheme(pr, good_grid, theta=0.0).monotonicity_probe(trials=1000, seed=0)
    # a time step of four dx^2 breaks the explicit positivity condition
    t_bad = 4.0 * dx2
    bad_grid = SpaceTimeGrid.build(dim=1, period=L2PI, n_x=16, T=t_bad, dt=t_bad)
    bad = ThetaScheme(heat_problem(T=t_bad), bad_grid,
                      theta=0.0).monotonicity_probe(trials=1000, seed=0)
    ok = (good.passed and good.checked == 1000 and good.worst <= 1e-12
          and not bad.passed and bad.worst > 0.0)
    report_line(3, "monotonicity probe", ok,
                f"clean worst={good.worst:.1e}/1000 trials, "
                f"violating worst={bad.worst:.2e} witness={bad.witness!r}")
    assert good.passed and good.checked == 1000
    assert good.worst <= 1e-12
    assert not bad.passed
    assert bad.worst > 0.0


def test_04_discrete_comparison_forced_difference():
    problems = [
        heat_problem(T=0.5),
        make_problem(1, L2PI, 0.5,
                     [{"sigma": 0.8, "c": 0.5}, {"sigma": 0.5, "b": 0.3}],
                     u0=sin_u0),
    ]
    worst = -math.inf
    checked = 0
    for pr in problems:
        for n_x in (16, 32, 64):
            g = SpaceTimeGrid.build(dim=1, period=L2PI, n_x=n_x, T=0.5, dt=0.01)
            v_res = ThetaScheme(pr, g, theta=1.0).solve()
            forced = ThetaScheme(pr, g, theta=1.0, forcing=1.0)
            u_res = forced.solve()
            # source gap g1 - g2 = 1, zero initial gap: u - v <= 2 t e^{mu t}
            check = forced.comparison_bound_check(u_res, v_res, 1.0, 0.0)
            assert check.passed, check.witness
            worst = max(worst, check.worst)
            checked += 1
    ok = worst <= 1e-9
    report_line(4, "discrete comparison", ok,
                f"{checked} level pairs, worst excess over bound = {worst:.2e}")
    assert ok


def test_05_apriori_bound_across_benchmarks():
    dx2_32 = (L2PI / 32) ** 2
    exact = decaying_wave(1, L2PI, [1], rate=0.5)
    mp = manufacture(1, L2PI, 0.5,
                     [{"sigma": 1.0},
                      {"sigma": 0.8, "b": 0.4, "c": 0.2, "g": 0.5}],
                     exact)
    suite = [
        ("heat", heat_problem(T=1.0), 1.0, 32, 0.02),
        ("source growth", make_problem(1, L2PI, 1.0, [{"f": 1.0}], u0=0.0),
         0.0, 16, 0.1),
        ("exponential growth", make_problem(1, L2PI, 0.5, [{"c": 1.0}], u0=1.0),
         1.0, 16, 0.01),
        ("two controls", make_problem(
            1, L2PI, 0.5,
            [{"sigma": 1.0, "b": 0.3, "c": 0.1}, {"sigma": 0.6, "b": -0.5}],
            u0=sin_u0), 1.0, 32, 0.02),
        ("manufactured", mp.problem, 0.0, 32, 0.45 * dx2_32),
    ]
    worst = 0.0
    for label, pr, theta, n_x, dt in suite:
        g = SpaceTimeGrid.build(dim=1, period=L2PI, n_x=n_x, T=pr.T, dt=dt)
        sch = ThetaScheme(pr, g, theta=theta)
        check = sch.apriori_bounds_check(sch.solve())
        assert check.passed, f"{label}: {check.witness}"
        worst = max(worst, check.worst)
    ok = worst <= 0.0
    report_line(5, "a-priori sup bound", ok,
                f"{len(suite)} benchmark problems, worst excess = {worst:.2e}")
    assert ok


def test_06_switching_cost_rate_one_sided_band():
    base = make_problem(1, L2PI, 0.5,
                        [{"sigma": 0.8, "b": 0.7}, {"sigma": 0.8, "b": -0.7}],
                        u0=sin_u0)
    g = SpaceTimeGrid.build(dim=1, period=L2PI, n_x=64, T=0.5,
                            dt=0.45 * (L2PI / 64) ** 2)
    k_list = [0.4, 0.2, 0.1, 0.05]
    rep, _ = k_rate_experiment(base, [[0], [1]], g, k_list, theta=0.0)
    ref = ThetaScheme(base, g, theta=0.0).solve()
    scale = max(1.0, float(np.max(np.abs(ref.final.values))))
    band_worst = 0.0
    for k in k_list:
        sol = switching_solve(SwitchingProblem(base=base, mode_controls=[[0], [1]],
                                               k=k, grid=g))
        band_worst = max(band_worst, sol.coupling_band_violation())
    one_sided = max(rep.err_minus) <= 1e-6 * scale
    slope_ok = rep.slope >= 1.0 / 3.0 - 0.05
    band_ok = band_worst <= 1e-9
    ok = one_sided and slope_ok and band_ok
    report_line(6, "switching cost rate", ok,
                f"slope={rep.slope:.3f} err-={max(rep.err_minus):.2e} "
                f"band excess={band_worst:.2e}")
    assert one_sided
    assert slope_ok
    assert band_ok


def test_07_operator_splitting_rate_and_commuting_case():
    sp = SplitProblem(
        dim=1, period=L2PI, T=0.2,
        family1=[{"sigma": math.sqrt(0.6)}, {"sigma": math.sqrt(1.2)}],
        family2=[{"sigma": math.sqrt(0.7)}, {"sigma": math.sqrt(1.4), "f": 0.2}],
        u0=sin_u0, n_x=16)
    rep = splitting_rate_experiment(sp, [0.1, 0.05, 0.025, 0.0125])
    verdict = compare_bounds(rep, 1.0 / 13.0)
    # one linear generator per family: the flows commute and splitting
    # introduces no extra defect beyond the inner stepping error
    commuting = SplitProblem(dim=1, period=L2PI, T=0.1,
                             family1=[{"sigma": 1.0}], family2=[{"sigma": 0.7}],
                             u0=sin_u0, n_x=16)
    check = splitting_vs_inner_check(commuting, 0.1, 4)
    ratio = check.splitting_error / check.inner_estimate
    ok = verdict.passed and rep.slope >= 1.0 / 13.0 and ratio <= 2.0
    report_line(7, "operator splitting rate", ok,
                f"slope={rep.slope:.3f} floor={1.0 / 13.0:.3f} "
                f"commuting error ratio={ratio:.2f}")
    assert verdict.passed, verdict.reason
    assert rep.slope >= 1.0 / 13.0
    assert ratio <= 2.0


def test_08_piecewise_constant_control_rate_one_sided():
    pp = PCControlProblem(
        dim=1, period=L2PI, T=0.5,
        modes=[{"sigma": 0.6, "b": 0.5}, {"sigma": 0.6, "b": -0.5, "f": 0.6}],
        u0=sin_u0, n_x=48)
    rep = pcc_rate_experiment(pp, [0.1, 0.05, 0.025, 0.0125], min_inner=16)
    verdict = compare_bounds(rep, 0.1)
    one_sided = max(rep.err_plus) <= 1e-6  # solution values are order one
    ok = verdict.passed and rep.slope >= 0.1 and one_sided
    report_line(8, "piecewise-constant controls", ok,
                f"slope={rep.slope:.3f} err+={max(rep.err_plus):.2e} "
                f"err-={max(rep.err_minus):.2e}")
    assert one_sided
    assert verdict.passed, verdict.reason
    assert rep.slope >= 0.1


def test_09_direction_decomposition_random_and_rank_one():
    rng = np.random.default_rng(0)
    worst_res = 0.0
    for dim in (2, 3):
        for _ in range(5000):
            off = rng.uniform(-1.0, 1.0, size=(dim, dim))
            m = (off + off.T) / 2
            np.fill_diagonal(m, 0.0)
            diag = np.abs(m).sum(axis=1) + rng.uniform(0.0, 2.0, size=dim)
            a = m + np.diag(diag)
            dec = bz_decompose(a)
            assert dec.residual_norm <= 1e-12
            assert np.all(dec.weights >= 0.0)
            worst_res = max(worst_res, dec.residual_norm)
    worst_rank1 = 0.0
    count_rank1 = 0
    for dim in (2, 3):
        for idx in np.ndindex(*(7,) * dim):
            beta = np.array(idx, dtype=float) - 3.0
            if not beta.any():
                continue
            a = np.outer(beta, beta)
            dec = bz_decompose(a, max_order=3)
            assert dec.residual_norm <= 1e-12
            assert np.all(dec.weights >= 0.0)
            np.testing.assert_allclose(dec.reconstruction(), a, atol=1e-9)
            worst_rank1 = max(worst_rank1, dec.residual_norm)
            count_rank1 += 1
    report_line(9, "direction decomposition", True,
                f"10000 random dominant worst={worst_res:.1e}, "
                f"{count_rank1} rank-one worst={worst_rank1:.1e}")


def test_10_stencil_consistency_orders():
    phi = decaying_wave(1, L2PI, [1], rate=0.0)
    x = [0.7]
    dxs = [0.2, 0.1, 0.05, 0.025]
    diff = [consistency_residual(kushner_stencil(np.array([[1.0]]), 0.0, dx),
                                 np.array([[1.0]]), 0.0, phi, x) for dx in dxs]
    drift = [consistency_residual(kushner_stencil(np.zeros((1, 1)), 1.0, dx),
                                  np.zeros((1, 1)), 1.0, phi, x) for dx in dxs]
    s_diff = fit_order(dxs, diff).slope
    s_drift = fit_order(dxs, drift).slope
    ok = abs(s_diff - 2.0) <= 0.15 and abs(s_drift - 1.0) <= 0.15
    report_line(10, "consistency orders", ok,
                f"diffusion slope={s_diff:.3f} (target 2), "
                f"drift slope={s_drift:.3f} (target 1)")
    assert abs(s_diff - 2.0) <= 0.15
    assert abs(s_drift - 1.0) <= 0.15


def test_11_repeated_runs_byte_identical_csvs(tmp_path):
    jobs = [
        ("solve", ["solve", str(CONFIGS / "heat.json"), "--nx", "16"]),
        ("rates", ["rates", str(CONFIGS / "heat.json"), "--levels", "8,16"]),
        ("switching", ["switching", str(CONFIGS / "modes2.json"), "--nx", "24",
                       "--k-list", "0.2,0.1"]),
        ("split", ["split", str(CONFIGS / "split.json"), "--nx", "12",
                   "--dt-list", "0.1,0.05", "--inner", "2"]),
        ("pcc", ["pcc", str(CONFIGS / "pcc.json"), "--nx", "12",
                 "--dt-list", "0.1,0.05", "--min-inner", "4"]),
        ("decompose", ["decompose", str(CONFIGS / "matrix.json")]),
    ]
    total = 0
    for name, argv in jobs:
        contents = []
        for rerun in ("a", "b"):
            out = tmp_path / f"{name}-{rerun}"
            assert main(argv + ["--out", str(out)]) == 0
            contents.append({p.name: p.read_bytes()
                             for p in sorted(out.glob("*.csv"))})
        assert contents[0], f"{name} wrote no CSV files"
        assert contents[0].keys() == contents[1].keys()
        for fname in contents[0]:
            assert contents[0][fname] == contents[1][fname], \
                f"{name}/{fname} differs between identical runs"
            total += 1
    report_line(11, "deterministic artifacts", True,
                f"{len(jobs)} commands, {total} CSV files byte-identical on rerun")
