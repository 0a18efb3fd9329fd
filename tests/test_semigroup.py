"""Sub-semigroup flows, operator splitting, piecewise-constant-control stepping."""

import math

import numpy as np
import pytest

from hjbfd import (
    PCControlProblem,
    SemigroupFlow,
    SplitProblem,
    calibrate_inner_steps,
    pc_step,
    pcc_rate_experiment,
    pcc_solve,
    semigroup_monotonicity_probe,
    semigroup_nonexpansive_probe,
    semigroup_rate_experiment,
    sigma_from_diffusion,
    splitting_solve,
    splitting_step,
    splitting_vs_inner_check,
)
from hjbfd.errors import ConfigError

L2PI = 2 * np.pi


def test_sigma_from_diffusion():
    assert sigma_from_diffusion(0.5) == pytest.approx(1.0)
    assert sigma_from_diffusion(2.0) == pytest.approx(2.0)
    np.testing.assert_allclose(sigma_from_diffusion(np.array([0.5, 2.0])),
                               [1.0, 2.0])
    a = np.array([[2.0, 0.5], [0.5, 1.0]])
    s = sigma_from_diffusion(a)
    np.testing.assert_allclose(0.5 * s @ s.T, a, atol=1e-12)
    with pytest.raises(ConfigError):
        sigma_from_diffusion(-1.0)
    with pytest.raises(ConfigError):
        sigma_from_diffusion(np.array([[1.0, 2.0], [2.0, 1.0]]))


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
    pr = sp.combined_problem()
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
    f1 = sp.flows()[0]
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
    out = splitting_step(sp, u, 0.1, 1)
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
    got = pc_step(pp, u, 0.1, 8)
    want = pp.flows()[0].apply(u, 0.1, 8)
    np.testing.assert_array_equal(got, want)


def test_identical_modes_collapse():
    pp = pcc_problem(modes=[{"sigma": 0.6}, {"sigma": 0.6}])
    u = pp.initial_values()
    got = pc_step(pp, u, 0.1, 8)
    want = pp.flows()[0].apply(u, 0.1, 8)
    np.testing.assert_array_equal(got, want)


def test_pc_step_is_pointwise_min_of_flows():
    pp = pcc_problem(modes=[{"sigma": 0.5, "b": 0.4},
                            {"sigma": 0.7, "b": -0.4},
                            {"f": 0.3}])
    u = pp.initial_values()
    cands = [flow.apply(u, 0.05, 4) for flow in pp.flows()]
    np.testing.assert_array_equal(pc_step(pp, u, 0.05, 4),
                                  np.minimum.reduce(cands))


def test_pcc_mode_flow_absorbs_half_factor():
    # mode diffusion is sigma sigma^T with no half factor, so sigma =
    # 1/sqrt(2) reproduces the e^{-t/2} sine decay
    pp = PCControlProblem(dim=1, period=L2PI, T=0.1,
                          modes=[{"sigma": 1.0 / math.sqrt(2.0)}],
                          u0=lambda X: np.sin(X[..., 0]), n_x=64)
    u = pp.initial_values()
    out = pc_step(pp, u, 0.1, 64)
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
        pcc_solve(pp, 0.15, 4)


def test_monotonicity_probe_on_flows():
    flow = SemigroupFlow(1, L2PI, 16, [{"sigma": 1.0, "b": 0.5}])
    probe = semigroup_monotonicity_probe(lambda u: flow.apply(u, 0.1, 4), (16,),
                                         trials=25, seed=3)
    assert probe.passed
    bad = semigroup_monotonicity_probe(lambda u: -u, (16,), trials=10, seed=3)
    assert not bad.passed
    assert bad.worst > 0.0
    assert "node" in bad.witness


def test_nonexpansive_probe_on_flows():
    flow = SemigroupFlow(1, L2PI, 16, [{"sigma": 1.0, "b": 0.5}])
    probe = semigroup_nonexpansive_probe(lambda u: flow.apply(u, 0.1, 4), (16,),
                                         trials=25, seed=3)
    assert probe.passed
    bad = semigroup_nonexpansive_probe(lambda u: 2.0 * u, (16,), trials=10, seed=3)
    assert not bad.passed
