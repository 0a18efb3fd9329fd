"""Obstacle-coupled switching systems and the cost-decay experiment."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
import hjbfd.switching as switching
from hjbfd.errors import CFLError, ConfigError, SchemeError
from hjbfd.switching import obstacle_projection

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
    rep, _ = k_rate_experiment(base, [[0], [0]], g, [0.4, 0.2, 0.1])
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
    vals = switching_step(sp, np.zeros((2, 8)), 0.0)
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
    rep, _ = k_rate_experiment(base, [[0], [1]], g, [0.4, 0.2, 0.1, 0.05])
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
    rep, finest = k_rate_experiment(base, [[0], [1]], g, [0.1, 0.4, 0.2])
    assert finest.k == 0.1
    again = switching_solve(SwitchingProblem(base=base, mode_controls=[[0], [1]], k=0.1,
                                             grid=g))
    np.testing.assert_array_equal(finest.final, again.final)
    assert finest.final.shape == (2,) + g.shape
    assert finest.coupling_band_violation() == again.coupling_band_violation() <= 1e-12
    assert rep.params == [0.4, 0.2, 0.1]


def test_band_violation_is_folded_over_every_level():
    # the spread max_i v_i - min_i v_i of every level, walked step by step,
    # peaks before the final time here, and the solve must report that peak
    base = two_mode_base()
    g = fine_grid()
    sp = SwitchingProblem(base=base, mode_controls=[[0], [1]], k=0.3, grid=g)
    v = np.stack([np.sin(g.nodes()[..., 0])] * 2)
    spreads = []
    for n in range(g.n_t):
        v = switching_step(sp, v, n * g.dt)
        spreads.append(float(np.max(np.max(v, axis=0) - np.min(v, axis=0))))
    assert max(spreads) > spreads[-1]
    sol = switching_solve(sp)
    assert sol.coupling_band_violation() == max(spreads) - 0.3
    np.testing.assert_array_equal(sol.final, v)


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
    # mode 1's nan spreads to mode 0 through the projection's min, so the
    # solve's own check names mode 0 at the level where the nan appears
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
    with pytest.raises(CFLError, match="CFL violated"):
        switching_solve(sp)


def gauss_seidel_projection(v, k):
    """Reference: sweep v_i <- min(v_i, min_{j != i} v_j + k) in mode order,
    storing a mode only when its value changes, until a sweep changes nothing
    (at most 2M + 2 sweeps; a nan never settles and is handed back)."""
    vals = [row.copy() for row in v]
    M = len(vals)
    for _ in range(2 * M + 2):
        changed = False
        for i in range(M):
            others = np.min(np.stack([vals[j] for j in range(M) if j != i]), axis=0)
            clipped = np.minimum(vals[i], others + k)
            if np.any(clipped != vals[i]):
                vals[i] = clipped
                changed = True
        if not changed:
            return np.stack(vals)
    assert not all(np.isfinite(row).all() for row in vals), "sweeps did not settle"
    return np.stack(vals)


@st.composite
def stacked_modes(draw):
    # k spans 1e-12..1; with values near 1e6 (ulp ~1.2e-10) a small k rounds
    # away in v + k, and values k apart or equal give ties on the band edge
    k = draw(st.one_of(st.sampled_from([1e-12, 1e-9, 0.25, 1.0]),
                       st.floats(1e-12, 1.0)))
    shape = (draw(st.integers(2, 4)),) + draw(st.sampled_from([(1,), (5,), (2, 3), (3, 3)]))
    pool = st.sampled_from([0.0, -0.0, 1.0, -1.0, k, -k, 1.0 + k, 1e6, 1e6 + k])
    elements = st.one_of(pool, st.floats(-1e6, 1e6, allow_nan=False))
    return draw(arrays(np.float64, shape, elements=elements)), k


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(stacked_modes())
def test_projection_matches_gauss_seidel_sweeps(case):
    v, k = case
    out = obstacle_projection(v, k)
    ref = gauss_seidel_projection(v, k)
    np.testing.assert_array_equal(out, ref)  # equal values; -0.0 == 0.0


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(stacked_modes(), st.data())
def test_projection_spreads_a_nan_to_every_mode(case, data):
    v, k = case
    mode = data.draw(st.integers(0, len(v) - 1))
    node = tuple(data.draw(st.integers(0, n - 1)) for n in v.shape[1:])
    v[(mode,) + node] = np.nan
    out = obstacle_projection(v, k)
    assert np.all(np.isnan(out[(slice(None),) + node]))
    np.testing.assert_array_equal(out, gauss_seidel_projection(v, k))


@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_vector_k_solve_equals_the_per_k_solves(theta):
    base = two_mode_base(T=0.2)
    g = fine_grid(T=0.2)
    ks = [0.4, 0.05, 0.2]
    sol = switching_solve(SwitchingProblem(base=base, mode_controls=[[0], [1]], k=ks,
                                           grid=g, theta=theta))
    assert sol.final.shape == (2, 3) + g.shape and sol.spread.shape == (3,)
    for j, k in enumerate(ks):
        one = switching_solve(SwitchingProblem(base=base, mode_controls=[[0], [1]], k=k,
                                               grid=g, theta=theta))
        np.testing.assert_array_equal(sol.final[:, j], one.final)
        assert sol.spread[j] == one.spread
        member = sol.cost(j)
        np.testing.assert_array_equal(member.final, one.final)
        assert (member.k, member.spread) == (k, one.spread)
        assert member.coupling_band_violation() == one.coupling_band_violation()


def test_vector_k_must_be_positive_and_one_dimensional():
    base = two_mode_base()
    g = fine_grid()
    for bad in ([0.1, 0.0], [[0.1, 0.2]], []):
        with pytest.raises(ConfigError):
            SwitchingProblem(base=base, mode_controls=[[0], [1]], k=bad, grid=g)


def test_vector_k_solve_names_the_cost_of_a_nan(monkeypatch):
    # a nan put into mode 1 of the third cost (k=0.1) at node 3 of level 2:
    # the solve names that cost, mode, level and node
    project = switching.obstacle_projection
    calls = [0]

    def poisoned(v, k):
        out = project(v, k)
        calls[0] += 1
        if calls[0] == 2:
            out[1, 2, 3] = np.nan
        return out

    monkeypatch.setattr(switching, "obstacle_projection", poisoned)
    base = two_mode_base(T=0.05)
    g = fine_grid(T=0.05)
    assert g.n_t > 2
    sp = SwitchingProblem(base=base, mode_controls=[[0], [1]], k=[0.4, 0.2, 0.1], grid=g)
    with pytest.raises(SchemeError, match=r"switching mode 1: non-finite value at level 2, "
                                          r"node \(3,\) \(cost k=0\.1\)"):
        switching_solve(sp)


@pytest.mark.parametrize("k_list", [[0.4, 0.2], [0.4, 0.2, 0.1, 0.05]])
def test_k_study_steps_every_cost_in_one_march(monkeypatch, k_list):
    # (M + 1) n_t scheme steps whatever the number of costs: the reference
    # and one step per mode per level, each taking all costs as one stack;
    # the steps' values still add up to (M K + 1) n_t N node steps
    sizes = []
    step = ThetaScheme.step

    def counted(self, u, t, *args, **kwargs):
        out = step(self, u, t, *args, **kwargs)
        sizes.append(out[0].size)
        return out

    monkeypatch.setattr(ThetaScheme, "step", counted)
    g = fine_grid(n_x=16, T=0.1)
    k_rate_experiment(two_mode_base(T=0.1), [[0], [1]], g, k_list)
    M, K = 2, len(k_list)
    assert len(sizes) == (M + 1) * g.n_t
    assert sum(sizes) == (M * K + 1) * g.n_t * g.n_nodes
