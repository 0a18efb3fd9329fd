"""Sub-semigroup flows, operator splitting, piecewise-constant-control stepping."""

import math

import numpy as np
import pytest

from hjbfd import (
    PCControlProblem,
    SemigroupFlow,
    SplitProblem,
    calibrate_inner_steps,
    pcc_rate_experiment,
    semigroup_rate_experiment,
    splitting_solve,
    splitting_vs_inner_check,
)
import hjbfd.semigroup as semigroup
from hjbfd.errors import ConfigError, NumericalError, SchemeError
from hjbfd.scheme import probe_monotone

L2PI = 2 * np.pi


def test_zero_flow_is_identity():
    flow = SemigroupFlow(1, L2PI, 16, [{}])
    rng = np.random.default_rng(4)
    u = rng.standard_normal(16)
    out = flow.apply(u, 0.25, 4)
    np.testing.assert_array_equal(out, u)


def test_source_only_flow_advances_linearly():
    flow = SemigroupFlow(1, L2PI, 16, [{"f": 1.5}])
    u = np.zeros(16)
    out = flow.apply(u, 0.2, 8)
    np.testing.assert_allclose(out, 0.3, atol=1e-9)


def test_heat_flow_matches_decay():
    flow = SemigroupFlow(1, L2PI, 64, [{"sigma": 1.0}])
    g_x = np.arange(64) * (L2PI / 64)
    u = np.sin(g_x)
    out = flow.apply(u, 0.1, 64)
    np.testing.assert_allclose(out, math.exp(-0.05) * u, atol=2e-3)


def test_flow_scheme_is_shared_by_every_dt_m_with_one_substep(monkeypatch):
    # fl(0.1)/8 == fl(0.05)/4: both calls step with delta = 0.0125 through one scheme
    built = []
    scheme = semigroup.ThetaScheme

    def counted(*args, **kwargs):
        built.append(args[1].dt)
        return scheme(*args, **kwargs)

    monkeypatch.setattr(semigroup, "ThetaScheme", counted)
    flow = SemigroupFlow(1, L2PI, 32, [{"sigma": 1.0}, {"sigma": 0.5, "b": 0.3, "f": 0.2}])
    u = np.sin(np.arange(32) * (L2PI / 32))
    whole = flow.apply(u, 0.1, 8)
    halves = flow.apply(flow.apply(u, 0.05, 4), 0.05, 4)
    assert built == [0.0125]
    np.testing.assert_array_equal(halves, whole)
    fresh = SemigroupFlow(1, L2PI, 32, flow.controls)
    np.testing.assert_array_equal(fresh.apply(u, 0.05, 4), flow.apply(u, 0.05, 4))


def test_flow_fails_fast_on_non_finite_values():
    # split and pcc march through these flows: a nan must raise, not sweep
    flow = SemigroupFlow(1, L2PI, 8, [{"sigma": 1.0}])
    u = np.zeros(8)
    u[3] = np.nan
    with pytest.raises(SchemeError, match=r"non-finite residual at t=0\.125, node \(2,\)"):
        flow.apply(u, 0.25, 2)


def test_semigroup_rate_experiment_fails_on_non_finite_errors():
    ref = np.zeros(8)
    with pytest.raises(NumericalError, match="non-finite error"):
        semigroup_rate_experiment(lambda d: ref + np.nan, ref, [0.1, 0.05, 0.025],
                                  exponent=1.0)


def test_flow_rejects_bad_arguments():
    flow = SemigroupFlow(1, L2PI, 16, [{}])
    with pytest.raises(ConfigError):
        flow.apply(np.zeros(16), -0.1, 4)
    with pytest.raises(ConfigError):
        flow.apply(np.zeros(16), 0.1, 0)
    with pytest.raises(ConfigError):
        SemigroupFlow(1, L2PI, 16, [])
    # family normalization pins sigma, b, c to constants
    with pytest.raises(ConfigError):
        SplitProblem(dim=1, period=L2PI, T=0.1,
                     family1=[{"sigma": lambda t, X: X[..., 0]}],
                     family2=[{}], u0=0.0, n_x=8)


def split_problem(T=0.2, n_x=16):
    return SplitProblem(
        dim=1, period=L2PI, T=T,
        family1=[{"sigma": math.sqrt(0.6)}, {"sigma": math.sqrt(1.2)}],
        family2=[{"sigma": math.sqrt(0.7)}, {"sigma": math.sqrt(1.4), "f": 0.2}],
        u0=lambda X: np.sin(X[..., 0]),
        n_x=n_x,
    )


def test_combined_problem_adds_generators():
    sp = split_problem()
    pr = sp.reference_problem
    assert pr.controls.count == 4
    X = np.zeros((1, 1))
    # product control (i, j) sums the squared diffusions of the factors
    ssqs = sorted(float(pr.coeffs.ssq(i, 0.0, X)[0, 0, 0]) for i in range(4))
    expect = sorted(s1 + s2 for s1 in (0.6, 1.2) for s2 in (0.7, 1.4))
    np.testing.assert_allclose(ssqs, expect, atol=1e-12)
    fs = sorted(float(pr.coeffs.f(i, 0.0, X)[0]) for i in range(4))
    assert fs == [0.0, 0.0, 0.2, 0.2]


def test_splitting_with_zero_family_equals_single_flow():
    sp = SplitProblem(
        dim=1, period=L2PI, T=0.2,
        family1=[{"sigma": 1.0}],
        family2=[{}],
        u0=lambda X: np.sin(X[..., 0]),
        n_x=16,
    )
    u = sp.initial_values()
    got = splitting_solve(sp, 0.1, 4)
    f1 = sp.flows[0]
    want = f1.apply(f1.apply(u, 0.1, 4), 0.1, 4)
    np.testing.assert_array_equal(got, want)


def test_splitting_step_applies_family_two_first():
    # family 1 doubles nothing but family 2 adds a source; with both
    # linear-in-time contributions the order is observable through the
    # discount in family 1
    sp = SplitProblem(
        dim=1, period=L2PI, T=0.1,
        family1=[{"c": -1.0}],
        family2=[{"f": 1.0}],
        u0=0.0,
        n_x=8,
    )
    u = np.zeros(8)
    out = sp.step(u, 0.1, 1)
    # S2 first: u -> 0.1; then S1 (one implicit step of u_t = -u):
    # u -> 0.1/1.1
    np.testing.assert_allclose(out, 0.1 / 1.1, atol=1e-9)


def test_splitting_solve_requires_divisible_horizon():
    sp = split_problem(T=0.2)
    with pytest.raises(ConfigError):
        splitting_solve(sp, 0.15, 2)


def test_splitting_converges_to_combined_solution():
    sp = split_problem(T=0.2, n_x=16)
    check = splitting_vs_inner_check(sp, 0.05, 8)
    # at this size the total error is already small compared to the data
    assert check.splitting_error < 0.05


def test_commuting_families_leave_no_splitting_defect():
    # two constant-diffusion families commute, so the splitting error is
    # dominated by the inner stepping estimate
    sp = SplitProblem(
        dim=1, period=L2PI, T=0.1,
        family1=[{"sigma": 1.0}],
        family2=[{"sigma": 0.7}],
        u0=lambda X: np.sin(X[..., 0]),
        n_x=16,
    )
    check = splitting_vs_inner_check(sp, 0.1, 4)
    assert check.ratio <= 2.0


def test_calibrate_inner_steps_doubles_until_quiet():
    sp = split_problem(T=0.1, n_x=8)
    ref = splitting_solve(sp, 0.05, 128)
    m = calibrate_inner_steps(sp, 0.05, ref, m0=2, cap=64)
    assert m in (2, 4, 8, 16, 32, 64)
    # a tighter fraction can only need more substeps
    m_tight = calibrate_inner_steps(sp, 0.05, ref, m0=2, cap=64, fraction=1e-4)
    assert m_tight >= m


def test_calibrate_inner_steps_reports_the_cap():
    sp = split_problem(T=0.1, n_x=8)
    ref = splitting_solve(sp, 0.05, 128)
    notes = []
    m = calibrate_inner_steps(sp, 0.05, ref, m0=2, cap=4, fraction=1e-6, notes=notes)
    assert type(m) is int and m == 4
    assert len(notes) == 1
    assert notes[0].startswith("inner substeps capped at m=4")
    assert "misses the target" in notes[0]
    # a target that is met leaves no note
    quiet = []
    calibrate_inner_steps(sp, 0.05, ref, m0=2, cap=4, fraction=1e6, notes=quiet)
    assert quiet == []


@pytest.mark.parametrize("cap, fraction", [(4, 1e-6), (64, 1e6)])  # capped, target met
def test_calibrate_inner_steps_hands_back_the_chosen_run(cap, fraction):
    sp = split_problem(T=0.1, n_x=8)
    ref = splitting_solve(sp, 0.05, 128)
    solution = []
    m = calibrate_inner_steps(sp, 0.05, ref, m0=2, cap=cap, fraction=fraction,
                              solution=solution)
    assert len(solution) == 1
    np.testing.assert_array_equal(solution[0], splitting_solve(sp, 0.05, m))
    # an m0 at the cap makes no run, so there is none to hand back
    calibrate_inner_steps(sp, 0.05, ref, m0=4, cap=4, solution=(none := []))
    assert none == []


def test_split_study_solves_each_macro_step_and_m_once(monkeypatch):
    # calibration's run at the finest macro step and the chosen m is the
    # study's finest level: the same split.csv rows, one solve fewer
    solved = []
    solve = semigroup.splitting_solve

    def counted(sp, dt, m):
        solved.append((dt, m))
        return solve(sp, dt, m)

    monkeypatch.setattr(semigroup, "splitting_solve", counted)
    sp = split_problem(T=0.1, n_x=8)
    rep = semigroup.splitting_rate_experiment(sp, [0.1, 0.05])
    assert len(solved) == len(set(solved))
    m = solved[-1][1]
    assert solved[-1] == (0.1, m) and (0.05, m) in solved
    monkeypatch.undo()
    fresh = semigroup.splitting_rate_experiment(sp, [0.1, 0.05], m=m)  # solves every level
    assert (rep.err_plus, rep.err_minus, rep.err_total) == (
        fresh.err_plus, fresh.err_minus, fresh.err_total)


def test_semigroup_rate_experiment_synthetic_slopes():
    ref = np.full(8, 2.0)
    rep = semigroup_rate_experiment(lambda d: ref - d, ref, [0.1, 0.05, 0.025],
                                    exponent=1.0)
    assert rep.slope == pytest.approx(1.0, abs=1e-6)
    assert rep.err_plus == pytest.approx([0.1, 0.05, 0.025])
    assert max(rep.err_minus) == 0.0
    assert rep.params == [0.1, 0.05, 0.025]

    rep2 = semigroup_rate_experiment(lambda d: ref + 3 * d ** 0.2, ref,
                                     [0.1, 0.05, 0.025], exponent=0.2,
                                     notes=["synthetic"])
    assert rep2.slope == pytest.approx(0.2, abs=1e-6)
    assert max(rep2.err_plus) == 0.0
    assert "synthetic" in rep2.notes

    with pytest.raises(ConfigError):
        semigroup_rate_experiment(lambda d: ref, ref, [0.1], exponent=1.0)


def pcc_problem(modes=None, n_x=24, T=0.2):
    if modes is None:
        modes = [{"sigma": 0.6, "b": 0.5},
                 {"sigma": 0.6, "b": -0.5, "f": 0.6}]
    return PCControlProblem(dim=1, period=L2PI, T=T, modes=modes,
                            u0=lambda X: np.sin(X[..., 0]), n_x=n_x)


def test_single_mode_pc_step_is_plain_flow():
    pp = pcc_problem(modes=[{"sigma": 0.6, "b": 0.5}])
    u = pp.initial_values()
    got = pp.step(u, 0.1, 8)
    want = pp.flows[0].apply(u, 0.1, 8)
    np.testing.assert_array_equal(got, want)


def test_identical_modes_collapse():
    pp = pcc_problem(modes=[{"sigma": 0.6}, {"sigma": 0.6}])
    u = pp.initial_values()
    got = pp.step(u, 0.1, 8)
    want = pp.flows[0].apply(u, 0.1, 8)
    np.testing.assert_array_equal(got, want)


def test_pc_step_is_pointwise_min_of_flows():
    pp = pcc_problem(modes=[{"sigma": 0.5, "b": 0.4},
                            {"sigma": 0.7, "b": -0.4},
                            {"f": 0.3}])
    u = pp.initial_values()
    cands = [flow.apply(u, 0.05, 4) for flow in pp.flows]
    np.testing.assert_array_equal(pp.step(u, 0.05, 4),
                                  np.minimum.reduce(cands))


def test_pcc_mode_flow_absorbs_half_factor():
    # mode diffusion is sigma sigma^T with no half factor, so sigma =
    # 1/sqrt(2) reproduces the e^{-t/2} sine decay
    pp = PCControlProblem(dim=1, period=L2PI, T=0.1,
                          modes=[{"sigma": 1.0 / math.sqrt(2.0)}],
                          u0=lambda X: np.sin(X[..., 0]), n_x=64)
    u = pp.initial_values()
    out = pp.step(u, 0.1, 64)
    np.testing.assert_allclose(out, math.exp(-0.05) * u, atol=2e-3)


def test_pcc_solve_sits_above_coupled_reference():
    pp = pcc_problem(n_x=24, T=0.2)
    rep = pcc_rate_experiment(pp, [0.1, 0.05, 0.025], min_inner=8)
    # one-sided: the scheme never falls below the Bellman reference
    assert max(rep.err_plus) <= 1e-8
    assert rep.err_total[0] > rep.err_total[-1]
    with pytest.raises(ConfigError):
        pcc_rate_experiment(pp, [0.1], min_inner=8)
    with pytest.raises(ConfigError):
        pcc_rate_experiment(pp, [0.1, 0.03], min_inner=8)


def test_pcc_macro_must_divide_horizon():
    pp = pcc_problem(T=0.2)
    with pytest.raises(ConfigError):
        pp.solve(0.15, 4)


def test_monotonicity_probe_on_flows():
    flow = SemigroupFlow(1, L2PI, 16, [{"sigma": 1.0, "b": 0.5}])
    probe = probe_monotone(lambda u: flow.apply(u, 0.1, 4), (16,), trials=25, seed=3,
                           slack=1e-9)
    assert probe.passed
    bad = probe_monotone(lambda u: -u, (16,), trials=10, seed=3, slack=1e-9)
    assert not bad.passed
    assert bad.worst > 0.0
    assert "node" in bad.witness


@pytest.mark.parametrize("make", [split_problem, pcc_problem])
def test_solve_is_step_repeated_bit_for_bit(make):
    sp = make(T=0.2, n_x=8)
    u = sp.initial_values()
    for _ in range(4):  # T/dt macro steps
        u = sp.step(u, 0.05, 2)
    np.testing.assert_array_equal(sp.solve(0.05, 2), u)


@pytest.mark.parametrize("make, reference", [(split_problem, "split combined"),
                                             (pcc_problem, "pcc coupled")])
def test_flows_and_reference_are_built_once_at_construction(make, reference, monkeypatch):
    built = []
    flow_init = semigroup.SemigroupFlow.__init__
    make_problem = semigroup.make_problem

    def counted_flow(self, *args, **kwargs):
        built.append("flow")
        flow_init(self, *args, **kwargs)

    def counted_problem(*args, **kwargs):
        built.append(kwargs["label"])
        return make_problem(*args, **kwargs)

    monkeypatch.setattr(semigroup.SemigroupFlow, "__init__", counted_flow)
    monkeypatch.setattr(semigroup, "make_problem", counted_problem)
    sp = make(T=0.1, n_x=8)
    flows, ref = sp.flows, sp.reference_problem
    assert built == ["flow", "flow", reference]
    assert len(flows) == 2 and ref.label == reference
    sp.reference(0.05)
    np.testing.assert_array_equal(sp.initial_values(), np.sin(sp.grid.nodes()[..., 0]))
    sp.solve(0.1, 2)
    # only the flows' own per-substep problems are made after construction
    assert built.count("flow") == 2 and built.count(reference) == 1
    assert sp.flows is flows and sp.reference_problem is ref


@pytest.mark.parametrize("cls, families", [
    (SplitProblem, {"family1": [{"sigma": 1.0}], "family2": [{}]}),
    (PCControlProblem, {"modes": [{"sigma": 0.6}, {"b": 0.5}]}),
])
@pytest.mark.parametrize("n_x, u0, reason", [
    (2, 0.0, "n_x must be >= 3"),
    (8, lambda X: X[..., 0], "u0 is not"),
])
def test_bad_grid_or_u0_fails_at_construction(cls, families, n_x, u0, reason):
    with pytest.raises(ConfigError, match=reason):
        cls(dim=1, period=L2PI, T=0.1, u0=u0, n_x=n_x, **families)
