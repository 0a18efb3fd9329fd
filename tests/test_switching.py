"""Obstacle-coupled switching systems and the cost-decay experiment."""

import tracemalloc

import numpy as np
import pytest

from hjbfd import (
    SpaceTimeGrid,
    SwitchingProblem,
    ThetaScheme,
    k_rate_experiment,
    make_problem,
    sup_norm,
    switching_solve,
    switching_step,
)
from hjbfd.errors import CFLError, ConfigError, SchemeError

L2PI = 2 * np.pi


def two_mode_base(T=0.5):
    return make_problem(1, L2PI, T,
                        [{"sigma": 0.8, "b": 0.7}, {"sigma": 0.8, "b": -0.7}],
                        u0=lambda X: np.sin(X[..., 0]), label="two-drift")


def fine_grid(n_x=32, T=0.5):
    dx = L2PI / n_x
    return SpaceTimeGrid.build(dim=1, period=L2PI, n_x=n_x, T=T, dt=0.4 * dx * dx)


def test_switching_problem_validation():
    base = two_mode_base()
    g = fine_grid()
    with pytest.raises(ConfigError):
        SwitchingProblem(base=base, mode_controls=[[0], [1]], k=0.0, grid=g)
    with pytest.raises(ConfigError):
        SwitchingProblem(base=base, mode_controls=[[0, 1]], k=0.1, grid=g)
    with pytest.raises(ConfigError):
        SwitchingProblem(base=base, mode_controls=[[0], [2]], k=0.1, grid=g)
    with pytest.raises(ConfigError):
        SwitchingProblem(base=base, mode_controls=[[0], [0]], k=0.1, grid=g)  # no coverage
    with pytest.raises(ConfigError):
        SwitchingProblem(base=base, mode_controls=[[0], []], k=0.1, grid=g)


def test_identical_modes_stay_equal_and_degenerate():
    # both modes see the same control, so the coupling never binds and
    # each component equals the scalar solution
    base = make_problem(1, L2PI, 0.5, [{"sigma": 1.0}],
                        u0=lambda X: np.sin(X[..., 0]))
    g = fine_grid()
    sp = SwitchingProblem(base=base, mode_controls=[[0], [0]], k=0.1, grid=g)
    sol = switching_solve(sp)
    ref = ThetaScheme(base, g, theta=0.0).solve()
    for i in range(2):
        np.testing.assert_allclose(sol.final[i], ref.final.values, atol=1e-12)
    rep = k_rate_experiment(base, [[0], [0]], g, [0.4, 0.2, 0.1])
    assert rep.degenerate


def test_large_cost_decouples_modes():
    # k beyond the spread of any candidate values means no projection ever
    # fires, so each mode solves its restricted problem independently
    base = two_mode_base()
    g = fine_grid()
    bound = 2.0 * (1.0 + 0.5)  # generous: |u| stays near 1, sources are 0
    sp = SwitchingProblem(base=base, mode_controls=[[0], [1]], k=bound, grid=g)
    sol = switching_solve(sp)
    for i, mode in enumerate([[0], [1]]):
        solo = ThetaScheme(base.restrict(mode), g, theta=0.0).solve()
        np.testing.assert_allclose(sol.final[i], solo.final.values, atol=1e-12)


def test_one_step_obstacle_activation_exact():
    # zero coefficients except f = -10 in mode 1: its candidate drops to
    # -10 dt = -0.1 while mode 0 stays at 0, so the projection clamps
    # mode 0 onto the obstacle and the gap equals k exactly
    base = make_problem(1, L2PI, 0.01, [{"f": 0.0}, {"f": -10.0}], u0=0.0)
    g = SpaceTimeGrid.build(dim=1, period=L2PI, n_x=8, T=0.01, dt=0.01)
    sp = SwitchingProblem(base=base, mode_controls=[[0], [1]], k=0.01, grid=g)
    vals = switching_step(sp, [np.zeros(8), np.zeros(8)], 0.0)
    np.testing.assert_allclose(vals[0], -0.09, atol=1e-15)
    np.testing.assert_allclose(vals[1], -0.10, atol=1e-15)


def test_coupling_band_holds_everywhere():
    base = two_mode_base()
    g = fine_grid()
    for k in (0.3, 0.05):
        sp = SwitchingProblem(base=base, mode_controls=[[0], [1]], k=k, grid=g)
        sol = switching_solve(sp)
        assert sol.coupling_band_violation() <= 1e-12


def test_switching_dominates_scalar_solution():
    # one-sided convergence: every component sits above the union solve
    base = two_mode_base()
    g = fine_grid()
    ref = ThetaScheme(base, g, theta=0.0).solve()
    sp = SwitchingProblem(base=base, mode_controls=[[0], [1]], k=0.1, grid=g)
    sol = switching_solve(sp)
    for i in range(2):
        assert float(np.min(sol.final[i] - ref.final.values)) >= -1e-10


def test_switching_gap_monotone_in_k():
    base = two_mode_base()
    g = fine_grid()
    ref = ThetaScheme(base, g, theta=0.0).solve()
    gaps = []
    for k in (0.4, 0.2, 0.1):
        sp = SwitchingProblem(base=base, mode_controls=[[0], [1]], k=k, grid=g)
        sol = switching_solve(sp)
        gaps.append(max(sup_norm(v - ref.final.values) for v in sol.final))
    assert gaps[0] >= gaps[1] >= gaps[2]
    # halving k cuts the gap by at least 2^{1/3} up to a 10 percent margin
    assert gaps[0] / gaps[1] >= 2.0 ** (1.0 / 3.0) * 0.9
    assert gaps[1] / gaps[2] >= 2.0 ** (1.0 / 3.0) * 0.9


def test_k_rate_experiment_report():
    base = two_mode_base()
    g = fine_grid()
    rep = k_rate_experiment(base, [[0], [1]], g, [0.4, 0.2, 0.1, 0.05])
    assert rep.param_name == "k"
    assert rep.params == [0.4, 0.2, 0.1, 0.05]
    assert not rep.degenerate
    assert rep.slope >= 1.0 / 3.0 - 0.05
    assert max(rep.err_minus) <= 1e-10
    assert rep.monotone_nonincreasing()
    with pytest.raises(ConfigError):
        k_rate_experiment(base, [[0], [1]], g, [0.4])


def test_k_rate_experiment_hands_back_the_smallest_k_solution():
    base = two_mode_base()
    g = fine_grid()
    finest = []
    rep = k_rate_experiment(base, [[0], [1]], g, [0.1, 0.4, 0.2], finest=finest)
    assert len(finest) == 1 and finest[0].k == 0.1
    again = switching_solve(SwitchingProblem(base=base, mode_controls=[[0], [1]], k=0.1,
                                             grid=g))
    np.testing.assert_array_equal(finest[0].final, again.final)
    assert finest[0].final.shape == (2,) + g.shape
    assert finest[0].coupling_band_violation() == again.coupling_band_violation() <= 1e-12
    assert rep.params == [0.4, 0.2, 0.1]


def test_band_violation_is_folded_over_every_level():
    # the spread max_i v_i - min_i v_i of every level, walked step by step,
    # peaks before the final time here, and the solve must report that peak
    base = two_mode_base()
    g = fine_grid()
    sp = SwitchingProblem(base=base, mode_controls=[[0], [1]], k=0.3, grid=g)
    v = [np.sin(g.nodes()[..., 0])] * 2
    spreads = []
    for n in range(g.n_t):
        v = switching_step(sp, v, n * g.dt)
        spreads.append(float(np.max(np.max(v, axis=0) - np.min(v, axis=0))))
    assert max(spreads) > spreads[-1]
    sol = switching_solve(sp)
    assert sol.coupling_band_violation() == max(spreads) - 0.3
    np.testing.assert_array_equal(sol.final, np.stack(v))


def test_switching_memory_does_not_grow_with_time_steps():
    # the solve keeps the current level only: the same traced peak for 200
    # and for 2000 steps (a level array would add 2 x 2000 x 32 doubles)
    base = two_mode_base(T=0.05)
    peaks = []
    for n_t in (200, 2000):
        g = SpaceTimeGrid.build(dim=1, period=L2PI, n_x=32, T=0.05, dt=0.05 / n_t)
        sp = SwitchingProblem(base=base, mode_controls=[[0], [1]], k=0.1, grid=g)
        tracemalloc.start()
        switching_solve(sp)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 16_384, peaks


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")  # -inf - -inf
def test_switching_solve_fails_fast_on_a_non_finite_value():
    # mode 1's source turns -inf after the second level, so mode 1 and, through
    # the projection, mode 0 reach -inf at the third: the solve stops there
    def f(t, X):
        return np.where(t > 0.015, -np.inf, np.zeros(np.shape(X)[:-1]))

    base = make_problem(1, L2PI, 0.05, [{"sigma": 0.5}, {"sigma": 0.5, "f": f}], u0=0.0)
    g = SpaceTimeGrid.build(dim=1, period=L2PI, n_x=8, T=0.05, dt=0.01)
    sp = SwitchingProblem(base=base, mode_controls=[[0], [1]], k=0.1, grid=g)
    with pytest.raises(SchemeError,
                       match=r"switching mode 0: non-finite value at level 3, node \(0,\)"):
        switching_solve(sp)


def test_switching_solve_names_the_node_of_a_nan():
    # nan != nan, so the projection never sees a nan level settle; it must hand
    # the level back for the solve's own check instead of failing as unsettled
    def f(t, X):
        return np.where(t > 0.015, np.nan, np.zeros(np.shape(X)[:-1]))

    base = make_problem(1, L2PI, 0.05, [{"sigma": 0.5}, {"sigma": 0.5, "f": f}], u0=0.0)
    g = SpaceTimeGrid.build(dim=1, period=L2PI, n_x=8, T=0.05, dt=0.01)
    sp = SwitchingProblem(base=base, mode_controls=[[0], [1]], k=0.1, grid=g)
    with pytest.raises(SchemeError,
                       match=r"switching mode 0: non-finite value at level 3, node \(0,\)"):
        switching_solve(sp)


def test_switching_cfl_guard():
    base = two_mode_base()
    dx = L2PI / 16
    g = SpaceTimeGrid.build(dim=1, period=L2PI, n_x=16, T=0.5, dt=4.0 * dx * dx)
    sp = SwitchingProblem(base=base, mode_controls=[[0], [1]], k=0.1, grid=g)
    with pytest.raises(CFLError):
        switching_solve(sp)
    # forcing skips the guard (the run may still be garbage, but it runs)
    switching_solve(sp, force=True)
