"""Theta-method stepping, CFL checks, policy iteration, probes and bounds."""

import dataclasses
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hjbfd import (
    CFLReport,
    CoefficientField,
    SpaceTimeGrid,
    ThetaScheme,
    decaying_wave,
    make_problem,
    manufacture,
    sup_norm,
)
from hjbfd.config import load_json, parse_problem
from hjbfd.errors import CFLError, ConfigError, SchemeError
from hjbfd.problem import SpaceOnly, sum_sources
from hjbfd.scheme import COMPARISON_SLACK, _Ops

L2PI = 2 * np.pi
ROOT = Path(__file__).resolve().parent.parent


def heat_problem(T=1.0):
    return make_problem(1, L2PI, T, [{"sigma": 1.0}],
                        u0=lambda X: np.sin(X[..., 0]), label="heat")


def exact_grid(n_x, T, dt, dim=1, period=L2PI):
    return SpaceTimeGrid.build(dim=dim, period=period, n_x=n_x, T=T, dt=dt)


def test_constructor_validation():
    pr = heat_problem()
    g = exact_grid(16, 1.0, 0.001)
    with pytest.raises(ConfigError):
        ThetaScheme(pr, g, theta=1.5)
    with pytest.raises(ConfigError):
        ThetaScheme(pr, g, theta=0.5, builder="upwind3")
    g_period = SpaceTimeGrid.build(dim=1, period=1.0, n_x=16, T=1.0, dt=0.001)
    with pytest.raises(ConfigError):
        ThetaScheme(pr, g_period, theta=0.5)
    g_T = exact_grid(16, 2.0, 0.001)
    with pytest.raises(ConfigError):
        ThetaScheme(pr, g_T, theta=0.5)


def test_cfl_explicit_threshold():
    # period 1.6 with 16 nodes gives dx = 0.1 exactly; with sigma = 1 the
    # total outflow is 1/dx^2, so theta = 0 is stable iff dt <= dx^2
    pr = make_problem(1, 1.6, 1.0, [{"sigma": 1.0}],
                      u0=lambda X: np.sin(2 * np.pi * X[..., 0] / 1.6))
    ok = ThetaScheme(pr, exact_grid(16, 1.0, 0.01, period=1.6), theta=0.0).cfl_check()
    assert ok.ok
    assert ok.worst_explicit == pytest.approx(1.0)
    bad = ThetaScheme(pr, exact_grid(16, 1.0, 0.02, period=1.6), theta=0.0).cfl_check()
    assert not bad.ok
    assert bad.worst_explicit == pytest.approx(2.0)


def test_cfl_implicit_unconditional_for_nonpositive_c():
    pr = heat_problem()
    rep = ThetaScheme(pr, exact_grid(16, 1.0, 0.5), theta=1.0).cfl_check()
    assert rep.ok
    assert rep.worst_explicit <= 0.0


def test_solve_raises_cfl_error_unless_forced():
    pr = make_problem(1, 1.6, 1.0, [{"sigma": 1.0}],
                      u0=lambda X: np.sin(2 * np.pi * X[..., 0] / 1.6))
    sch = ThetaScheme(pr, exact_grid(16, 1.0, 0.02, period=1.6), theta=0.0)
    with pytest.raises(CFLError):
        sch.solve()
    sch.solve(force=True)


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_levels_replay_the_march_bit_for_bit(theta):
    # the bound checks march again: a second march, and the solve, give the
    # first march's levels bit for bit
    pr = make_problem(1, L2PI, 0.1, [{"sigma": 1.0, "b": 0.3}, {"sigma": 0.6, "f": 0.2}],
                      u0=lambda X: np.sin(X[..., 0]))
    g = exact_grid(16, 0.1, 0.005)
    sch = ThetaScheme(pr, g, theta=theta)
    marched = [(u.copy(), rep) for u, rep in sch.march()]
    assert len(marched) == g.n_t + 1 and marched[0][1] is None
    assert [rep.t for _, rep in marched[1:]] == pytest.approx(g.times()[1:].tolist())
    replayed = [u for u, _ in sch.march()]
    assert len(replayed) == g.n_t + 1
    for (u, _), v in zip(marched, replayed):
        np.testing.assert_array_equal(v, u)
    np.testing.assert_array_equal(sch.solve().values, marched[-1][0])


def test_solve_memory_does_not_grow_with_time_steps():
    # a solve keeps the final level only, so its traced peak is the same for
    # 200 and for 2000 steps (a stored level array and one report per step
    # would add about 1.4 MB at 2000 steps)
    pr = heat_problem(T=0.1)
    peaks = []
    for n_t in (200, 2000):
        sch = ThetaScheme(pr, exact_grid(32, 0.1, 0.1 / n_t), theta=0.0)
        tracemalloc.start()
        sch.solve()
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 16_384, peaks


def test_explicit_heat_step_matches_roll_oracle():
    pr = heat_problem()
    g = exact_grid(32, 1.0, 0.005)
    sch = ThetaScheme(pr, g, theta=0.0)
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = rng.standard_normal(g.shape)
        got, _ = sch.step(u, 0.0)
        lap = (np.roll(u, -1) - 2 * u + np.roll(u, 1)) / (2 * g.dx ** 2)
        np.testing.assert_allclose(got, u + g.dt * lap, atol=1e-13)


def const_field(value, trailing):
    """A callable coefficient that returns `value` at every node."""
    return lambda t, X: np.broadcast_to(np.asarray(value, dtype=float),
                                        X.shape[:-1] + trailing).copy()


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_space_varying_weights_match_constant_coefficients(theta):
    # control 0 as callables that return constants, next to a space-varying
    # control 1 whose large source keeps it out of the argmax: the weights
    # are then one array over the nodes, and the solve must agree with the
    # constant-coefficient problem whose weights broadcast from one value
    sigma = np.array([[1.0, 0.3], [0.0, 0.9]])
    b = np.array([0.4, -0.2])
    u0 = lambda X: np.sin(X[..., 0]) * np.cos(X[..., 1])
    plain = make_problem(2, L2PI, 0.05, [{"sigma": sigma, "b": b, "c": 0.1}], u0)
    dominated = {"sigma": lambda t, X: (0.8 + 0.3 * np.sin(X[..., 0]))[..., None, None]
                 * np.eye(2),
                 "b": lambda t, X: 0.5 * np.cos(X), "f": 1000.0}
    varying = make_problem(2, L2PI, 0.05, [
        {"sigma": const_field(sigma, (2, 2)), "b": const_field(b, (2,)), "c": 0.1},
        dominated], u0)
    g = exact_grid(16, 0.05, 0.01, dim=2)
    want = ThetaScheme(plain, g, theta=theta).march()
    got = ThetaScheme(varying, g, theta=theta).march()
    for (u_got, rep), (u_want, _) in zip(got, want):
        assert rep is None or np.all(rep.argmax == 0)
        np.testing.assert_allclose(u_got, u_want, rtol=0.0, atol=1e-13)


def test_weights_are_per_node_only_for_a_callable_sigma_or_b():
    # the weight layout is read off sigma and b alone: a callable sigma gets
    # per-node weights even when its values are constant, while constant sigma
    # and b keep scalar weights next to a (t, x)-dependent c
    g = exact_grid(8, 0.1, 0.01)
    per_node = make_problem(1, L2PI, 0.1, [{"sigma": const_field(np.eye(1), (1, 1))}], u0=0.0)
    assert ThetaScheme(per_node, g, theta=0.0)._weights_at(0.0)[0].shape[2:] == g.shape
    with pytest.raises(ConfigError, match="bz builder requires constant sigma and b"):
        ThetaScheme(per_node, g, theta=0.0, builder="bz").cfl_check()
    scalar = make_problem(1, L2PI, 0.1, [{"sigma": 1.0, "b": 0.5,
                                           "c": lambda t, X: -t * np.cos(X[..., 0]) ** 2}],
                          u0=0.0)
    assert scalar.coeffs.varies_in_t("c") and not scalar.coeffs.varies_in_t("sigma", "b")
    sch = ThetaScheme(scalar, g, theta=0.0)
    assert sch._weights_at(0.0)[0].shape[2:] == (1,)
    assert sch._ops_at(0.05).Wmat is not None


def test_stencils_are_built_once_when_only_c_depends_on_t(monkeypatch):
    # the weights depend on sigma and b alone, so a c(t) reuses them at every
    # level; the CFL check still reads c at every level
    pr = make_problem(1, L2PI, 1.0, [{"sigma": 1.0, "c": lambda t, X: 0.1 * t + 0.0 * X[..., 0]}],
                      u0=lambda X: np.sin(X[..., 0]))
    g = exact_grid(32, 1.0, 0.01)
    sch = ThetaScheme(pr, g, theta=1.0)
    built = []
    build = sch._build_stencil
    monkeypatch.setattr(sch, "_build_stencil", lambda i, t: built.append(t) or build(i, t))
    sch.solve()
    assert sch.cfl_check() == CFLReport(ok=True, worst_explicit=0.0,
                                        worst_implicit=float.fromhex("-0x1.089559f101d23p-2"),
                                        dt=g.dt, theta=1.0)
    assert built == [0.0]


def test_the_levels_are_scanned_once_per_scheme(monkeypatch):
    # the CFL worsts and lam come from one scan of c over the levels, which the
    # comparison check's twins inherit; only the steps read c after it
    pr = make_problem(1, L2PI, 1.0, [{"sigma": 1.0, "c": lambda t, X: 0.1 * t + 0.0 * X[..., 0]}],
                      u0=lambda X: np.sin(X[..., 0]))
    g = exact_grid(32, 1.0, 0.01)
    sch = ThetaScheme(pr, g, theta=1.0)
    calls = []
    c_at = ThetaScheme._c_at
    monkeypatch.setattr(ThetaScheme, "_c_at", lambda self, t: calls.append(t) or c_at(self, t))
    for shift in ({"df": 1.0}, {"df": -1.0}, {"du0": -0.3}):
        assert sch.comparison_bound_check(**shift).passed
    assert len(calls) == (g.n_t + 1) + 3 * 2 * g.n_t == 701
    del calls[:]
    assert sch.apriori_bounds_check().passed
    assert len(calls) == g.n_t == 100
    assert sch.cfl_check() == CFLReport(ok=True, worst_explicit=0.0,
                                        worst_implicit=float.fromhex("-0x1.089559f101d23p-2"),
                                        dt=g.dt, theta=1.0)
    assert sch._level_scan()[2] == 0.1
    assert len(calls) == g.n_t


# ----- what a time level rebuilds ---------------------------------------------

def sin_u0(X):
    return np.sin(X[..., 0])


def sigma_of_t(scale):
    """sigma = scale * t at every node, a (t, X) evaluator."""
    return lambda t, X: np.full(X.shape[:-1] + (1, 1), scale * t)


def test_a_time_dependent_sigma_is_rebuilt_at_every_level():
    # sigma = t has no diffusion at t = 0, so weights kept from the first level
    # would leave sin x undamped; the exact solution is exp(-t^3 / 6) sin x
    pr = make_problem(1, L2PI, 1.0, [{"sigma": sigma_of_t(1.0)}], u0=sin_u0)
    sch = ThetaScheme(pr, exact_grid(32, 1.0, 0.01), theta=1.0)
    assert abs(sup_norm(sch.solve().values) - math.exp(-1.0 / 6.0)) < 2e-3
    half = make_problem(1, L2PI, 1.0, [{"sigma": 0.5}], u0=sin_u0)
    want = ThetaScheme(half, sch.grid, theta=1.0)._weights_at(0.5)
    for got, expected in zip(sch._weights_at(0.5)[:3], want[:3]):
        np.testing.assert_array_equal(got, np.broadcast_to(expected, got.shape))


def test_a_time_dependent_sigma_fails_the_cfl_check():
    # sigma = 2t has no weights at t = 0, but its explicit lhs at T is 2.075
    pr = make_problem(1, L2PI, 1.0, [{"sigma": sigma_of_t(2.0)}], u0=sin_u0)
    sch = ThetaScheme(pr, exact_grid(32, 1.0, 0.02), theta=0.0)
    rep = sch.cfl_check()
    assert not rep.ok
    assert rep.worst_explicit == pytest.approx(2.0750578409950777, rel=1e-12)
    with pytest.raises(CFLError):
        sch.solve()


def space_sigma(X):
    return (0.8 + 0.3 * np.sin(X[..., 0]))[..., None, None]


@pytest.mark.parametrize("form, builds", [("SpaceOnly", 1), ("(t, X)", 101 + 100)])
def test_a_space_only_sigma_builds_its_stencil_once(monkeypatch, form, builds):
    # a (t, X) lambda declares t-dependence, whatever its values, so the level
    # scan and every step build its stencil again
    sigma = SpaceOnly(space_sigma) if form == "SpaceOnly" else lambda t, X: space_sigma(X)
    pr = make_problem(1, L2PI, 1.0, [{"sigma": sigma}], u0=sin_u0)
    sch = ThetaScheme(pr, exact_grid(32, 1.0, 0.01), theta=1.0)
    built = []
    build = sch._build_stencil
    monkeypatch.setattr(sch, "_build_stencil", lambda i, t: built.append(t) or build(i, t))
    sch.solve()
    assert len(built) == builds


def test_a_space_only_c_is_evaluated_once_per_grid(monkeypatch):
    # once by the level scan, once for the operator the march keeps
    pr = make_problem(1, L2PI, 1.0, [{"sigma": 1.0, "c": SpaceOnly(lambda X: 0.1 * sin_u0(X))}],
                      u0=sin_u0)
    sch = ThetaScheme(pr, exact_grid(32, 1.0, 0.01), theta=1.0)
    calls = []
    c_at = ThetaScheme._c_at
    monkeypatch.setattr(ThetaScheme, "_c_at", lambda self, t: calls.append(t) or c_at(self, t))
    sch.solve()
    assert len(calls) == 2


def test_the_apriori_check_reads_a_constant_source_at_one_level(monkeypatch):
    # c(t) rebuilds the operator, and with it f, at each of the 100 steps, but
    # f = 0.5 does not depend on t, so sup|f| is read at one level
    pr = make_problem(1, L2PI, 1.0, [{"sigma": 1.0, "c": lambda t, X: 0.1 * t + 0.0 * X[..., 0],
                                      "f": 0.5}], u0=sin_u0)
    sch = ThetaScheme(pr, exact_grid(32, 1.0, 0.01), theta=1.0)
    calls = []
    f = CoefficientField.f
    monkeypatch.setattr(CoefficientField, "f",
                        lambda self, i, t, X: calls.append(t) or f(self, i, t, X))
    assert sch.apriori_bounds_check().passed
    assert len(calls) == 100 + 1


# per coefficient: its constant and the space-varying function of two amplitudes
FORMS = {
    "sigma": (lambda a0, a1: a0 * np.eye(1),
              lambda a0, a1: lambda X: (a0 + a1 * np.sin(X[..., 0]))[..., None, None]),
    "b": (lambda a0, a1: a0, lambda a0, a1: lambda X: (a0 + a1 * np.cos(X[..., 0]))[..., None]),
    "c": (lambda a0, a1: a0, lambda a0, a1: lambda X: a0 + a1 * np.sin(X[..., 0])),
    "f": (lambda a0, a1: a0, lambda a0, a1: lambda X: a0 + a1 * np.cos(2.0 * X[..., 0])),
}
AMPLITUDES = {"sigma": ((0.2, 1.2), (-0.15, 0.15)), "b": ((-0.5, 0.5), (-0.5, 0.5)),
              "c": ((-0.5, 0.5), (-0.5, 0.5)), "f": ((-1.0, 1.0), (-1.0, 1.0))}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_space_only_and_t_x_forms_march_to_the_same_bits(data):
    # the SpaceOnly form is evaluated once per grid and the (t, X) form of the
    # same function at every level; caching repeats the same arithmetic, so
    # every level and the CFL report agree bit for bit.  On 8 nodes and with
    # dt <= 0.2 these amplitudes keep both CFL lhs below 1
    cached, rebuilt = [], []
    for k in range(data.draw(st.integers(1, 2), label="controls")):
        one, other = {}, {}
        for name, (constant, function) in FORMS.items():
            a0, a1 = (data.draw(st.floats(*span), label=f"{name}{k}") for span in AMPLITUDES[name])
            if data.draw(st.booleans(), label=f"{name}{k} varies in x"):
                g = function(a0, a1)
                one[name], other[name] = SpaceOnly(g), lambda t, X, _g=g: _g(X)
            else:
                one[name] = other[name] = constant(a0, a1)
        cached.append(one)
        rebuilt.append(other)
    theta = data.draw(st.floats(0.0, 1.0), label="theta")
    dt = data.draw(st.floats(0.01, 0.2), label="dt")
    g = exact_grid(8, 3 * dt, dt)
    schemes = [ThetaScheme(make_problem(1, L2PI, g.T, controls, u0=sin_u0), g, theta=theta)
               for controls in (cached, rebuilt)]
    assert schemes[0].cfl_check().ok
    assert schemes[0].cfl_check() == schemes[1].cfl_check()
    for (u, _), (v, _) in zip(*(sch.march() for sch in schemes)):
        assert u.tobytes() == v.tobytes()


# ----- operator bits ---------------------------------------------------------

SIGMA_3D = np.array([[1.0, 0.2, 0.0], [0.3, 0.9, -0.1], [0.0, 0.2, 0.8]])

OPERATOR_CONFIGS = {"heat": "configs/heat.json", "twocontrol": "configs/twocontrol.json",
                    "rates_2d": "perfbench/inputs/rates_2d_seed0.json"}


def cross_sigma(t, X):
    """A per-node sigma whose sigma sigma^T has a cross term at every node."""
    s = np.zeros(X.shape[:-1] + (2, 2))
    s[..., 0, 0] = 1.0 + 0.2 * np.sin(X[..., 0])
    s[..., 0, 1] = 0.3
    s[..., 1, 1] = 0.9 + 0.1 * np.cos(X[..., 1])
    return s


# (dim, controls) of the pinned operators that no config file describes
OPERATOR_PROBLEMS = {
    # callable sigma and b next to a constant control: per-node weights
    "1d-varying": (1, [{"sigma": lambda t, X: (0.8 + 0.3 * np.sin(X[..., 0]))[..., None, None],
                        "b": lambda t, X: 0.5 * np.cos(X)},
                       {"sigma": 0.6, "b": -0.4}]),
    "2d-cross": (2, [{"sigma": cross_sigma, "b": [0.4, -0.2]}, {"sigma": 0.7, "b": [-0.5, 0.3]}]),
    # a callable sigma whose rows are all zero keeps the scalar layout
    "zero-sigma": (1, [{"sigma": lambda t, X: np.zeros(X.shape[:-1] + (1, 1))},
                       {"sigma": 1.0, "b": 0.3}]),
    "3d": (3, [{"sigma": SIGMA_3D, "b": [0.3, -0.2, 0.1]}, {"sigma": 0.5}]),
    # sigma sigma^T = [[2, 3], [3, 5]] is not diagonally dominant: bz fits it by NNLS
    "non-dominant": (2, [{"sigma": [[1.0, 1.0], [1.0, 2.0]], "b": [0.2, -0.1]}]),
}

# sha256 over the shape and the .view(np.int64) bytes of W, csum and nbr at
# t = 0, per "problem:builder:n_x"; recorded when each builder still returned
# an offset -> weight map that the scheme copied offset by offset, and when
# the scheme still stored nbr, the flat index of each node's neighbour per
# offset, which the gather now reproduces as the node numbers it gathers
OPERATOR_PINS = {
    "heat:kushner:8": "fd6c71280d3c4a3248048c23f351ac8221d3a6c27585ff45214b20c9f7d44b66",
    "heat:kushner:16": "5406794b16cc8ed43869a74313d68efe53cf40c863b3df2fd2383d3fae8accb9",
    "heat:bz:8": "fd6c71280d3c4a3248048c23f351ac8221d3a6c27585ff45214b20c9f7d44b66",
    "heat:bz:16": "5406794b16cc8ed43869a74313d68efe53cf40c863b3df2fd2383d3fae8accb9",
    "twocontrol:kushner:8": "1c7a59e5325eade51d54a413cbfeee3dfbcd05e00c35deebaabf0ac8d702e2ea",
    "twocontrol:kushner:16": "65e9609e9ccd99041f934662e9d05b11fbdf95a128202637f8432fc207860533",
    "twocontrol:bz:8": "1c7a59e5325eade51d54a413cbfeee3dfbcd05e00c35deebaabf0ac8d702e2ea",
    "twocontrol:bz:16": "65e9609e9ccd99041f934662e9d05b11fbdf95a128202637f8432fc207860533",
    "rates_2d:kushner:8": "ae8dcaffb343dfb744043799fdedd072004b8a8fc2ed46866cb16ea5122bdd91",
    "rates_2d:kushner:16": "dd43b598afb37ade83d8a839d24dc9e36eb7b1b98ff935cca81ef1b2136503e6",
    "rates_2d:bz:8": "353dbe1dfc0467ecb81f0b7390a2563f3ca31c872703807421d24712afa489f0",
    "rates_2d:bz:16": "5687de914bd3c354cdcab61b9fb9c9c57b0c29284350ef934d7b2d0a0ef62b3a",
    "1d-varying:kushner:16": "bf18ef932e89f49ca89f1e44c5ec15c5685d46de9e043049f22428f44049c5de",
    "2d-cross:kushner:8": "9d1e698e308da89abdae549693d55025a0eb31df871eaa127dafef1b88049774",
    "zero-sigma:kushner:16": "9fe733687e62e3b8421e4822fd465c4b75ee0fedeaa0b133a75b09588bfed594",
    "3d:kushner:6": "a3971c4c86050672a683e16534f827076db48142bcbfdd02d6565609725e52ee",
    "3d:bz:6": "262dfa3778fad97c1bedcbf76298d40f581db89b7230b410065f13507a60589c",
    "non-dominant:kushner:8": "04753e8302e78bec112c816ece32f4ea8506dfad5e90e54a8e2712e29efea86e",
    "non-dominant:bz:8": "4696f8c0a55945d060be31896ae8179c217f5a20d075d6089030aa390921e398",
}


@pytest.mark.parametrize("case", list(OPERATOR_PINS))
def test_operator_bits_are_pinned(case):
    name, builder, n_x = case.split(":")
    if name in OPERATOR_CONFIGS:
        pr = parse_problem(load_json(ROOT / OPERATOR_CONFIGS[name]))
    else:
        dim, controls = OPERATOR_PROBLEMS[name]
        pr = make_problem(dim, L2PI, 1.0, controls, u0=0.0)
    g = exact_grid(int(n_x), pr.T, pr.T / 4, dim=pr.dim, period=pr.period)
    sch = ThetaScheme(pr, g, theta=0.0, builder=builder)
    W, csum = sch._weights_at(0.0)[:2]
    if name == "zero-sigma":
        assert W.shape == (2, 2, 1)
    ops = sch._ops_at(0.0)
    nodes = np.arange(g.n_nodes, dtype=float).reshape(g.shape)
    for path in (ops._by_index, ops._by_windows):  # the gather takes both, by size
        h = hashlib.sha256()
        for a in (W, csum, path(g.shape)(nodes).astype(np.intp)):
            h.update(repr(a.shape).encode())
            h.update(np.ascontiguousarray(a).view(np.int64).tobytes())
        assert h.hexdigest() == OPERATOR_PINS[case]


def roll_operator(sig, drift, g, u):
    """Kushner 1D operator sum_+- C(+-1)(x) (u(x +- dx) - u(x)), built with np.roll."""
    diff = sig ** 2 / (2 * g.dx ** 2)
    up = diff + np.maximum(drift, 0.0) / g.dx
    down = diff + np.maximum(-drift, 0.0) / g.dx
    return up * (np.roll(u, -1) - u) + down * (np.roll(u, 1) - u)


def test_space_varying_weights_match_roll_reference():
    g = exact_grid(32, 0.1, 0.005)
    x = g.nodes()[..., 0]
    sig_fns = [lambda y: 0.8 + 0.3 * np.sin(y), lambda y: 0.6 + 0.2 * np.cos(2 * y)]
    drift_fns = [lambda y: 0.5 * np.cos(y), lambda y: -0.4 + 0.3 * np.sin(y)]
    sources = [0.0, 0.2]
    controls = [{"sigma": lambda t, X, s=s: s(X[..., 0])[..., None, None],
                 "b": lambda t, X, d=d: d(X), "f": f}
                for s, d, f in zip(sig_fns, drift_fns, sources)]
    pr = make_problem(1, L2PI, 0.1, controls, u0=lambda X: np.sin(X[..., 0]))
    u = np.sin(x) + 0.3 * np.cos(3 * x)

    def ham(w):
        return np.max([-roll_operator(s(x), d(x), g, w) - f
                       for s, d, f in zip(sig_fns, drift_fns, sources)], axis=0)

    # explicit step: u - dt G(u), G = max_alpha(-L^alpha u - f^alpha)
    got, _ = ThetaScheme(pr, g, theta=0.0).step(u, 0.0)
    np.testing.assert_allclose(got, u - g.dt * ham(u), rtol=0.0, atol=1e-13)
    # implicit step: the result solves w + dt G(w) = u, with both controls in use
    got, rep = ThetaScheme(pr, g, theta=1.0).step(u, 0.0)
    assert set(np.unique(rep.argmax)) == {0, 1}
    np.testing.assert_allclose(got + g.dt * ham(got), u, rtol=0.0, atol=1e-9)


def test_source_only_problem_all_theta():
    # a = b = c = 0, f = 1: u(t) = u0 + t exactly for every theta
    pr = make_problem(1, L2PI, 1.0, [{"f": 1.0}],
                      u0=lambda X: np.cos(X[..., 0]))
    for theta in (0.0, 0.5, 1.0):
        g = exact_grid(16, 1.0, 0.1)
        res = ThetaScheme(pr, g, theta=theta).solve()
        expect = np.cos(g.nodes()[..., 0]) + 1.0
        np.testing.assert_allclose(res.values, expect, atol=1e-9)


def test_sup_of_negated_sources_freezes_zero_control():
    # f in {0, 2} from u0 = 0: G = max(0, -2) = 0, so u stays 0
    pr = make_problem(1, L2PI, 1.0, [{"f": 0.0}, {"f": 2.0}], u0=0.0)
    sch = ThetaScheme(pr, exact_grid(16, 1.0, 0.1), theta=0.0)
    np.testing.assert_allclose(sch.solve().values, 0.0, atol=1e-14)
    # argmax reports the lowest maximizing index
    assert all(np.all(rep.argmax == 0) for _, rep in list(sch.march())[1:])


def test_argmax_field_picks_larger_negated_source():
    pr = make_problem(1, L2PI, 1.0, [{"f": 2.0}, {"f": 0.0}], u0=0.0)
    levels = ThetaScheme(pr, exact_grid(16, 1.0, 0.1), theta=0.0).march()
    next(levels)
    assert np.all(next(levels)[1].argmax == 1)


def test_argmax_invariant_under_common_source_shift():
    g = exact_grid(32, 0.5, 0.002)
    u0 = lambda X: np.sin(X[..., 0])
    controls = [{"sigma": 1.0, "b": 0.5}, {"sigma": 0.7, "b": -0.5, "f": 0.3}]
    shifted = [dict(cc, f=cc.get("f", 0.0) + 5.0) for cc in controls]
    march_a = ThetaScheme(make_problem(1, L2PI, 0.5, controls, u0), g, theta=0.0).march()
    march_b = ThetaScheme(make_problem(1, L2PI, 0.5, shifted, u0), g, theta=0.0).march()
    for (_, ra), (_, rb) in list(zip(march_a, march_b))[1:]:
        np.testing.assert_array_equal(ra.argmax, rb.argmax)


def test_implicit_linear_problem_one_policy_iteration():
    pr = heat_problem(T=0.2)
    reports = [rep for _, rep in ThetaScheme(pr, exact_grid(32, 0.2, 0.02), theta=1.0).march()]
    assert all(rep.policy_iterations == 1 for rep in reports[1:])
    assert all(rep.max_residual <= 1e-10 for rep in reports[1:])
    # the one policy solve takes at least one Jacobi sweep; an explicit step none
    assert all(rep.sweeps >= 1 for rep in reports[1:])
    explicit = ThetaScheme(pr, exact_grid(32, 0.2, 0.002), theta=0.0).march()
    assert all(rep.sweeps == 0 for _, rep in list(explicit)[1:])


def test_implicit_source_only():
    pr = make_problem(1, L2PI, 1.0, [{"f": 1.0}], u0=0.0)
    res = ThetaScheme(pr, exact_grid(16, 1.0, 0.25), theta=1.0).solve()
    np.testing.assert_allclose(res.values, 1.0, atol=1e-9)


def test_zero_problem_stays_zero():
    pr = make_problem(1, L2PI, 1.0, [{}], u0=0.0)
    for theta in (0.0, 1.0):
        res = ThetaScheme(pr, exact_grid(16, 1.0, 0.25), theta=theta).solve()
        assert sup_norm(res) == 0.0


def test_stationary_balance_fixed_point_every_theta():
    # u_t = c u + f vanishes when f = -c u0 and the spatial part kills
    # constants, so u0 is an exact fixed point for every theta
    pr = make_problem(1, L2PI, 1.0, [{"sigma": 1.0, "c": 1.0, "f": -2.0}], u0=2.0)
    for theta in (0.0, 0.5, 1.0):
        res = ThetaScheme(pr, exact_grid(16, 1.0, 0.05), theta=theta).solve()
        np.testing.assert_allclose(res.values, 2.0, atol=1e-9)


def test_heat_solution_error_decreases():
    errs = []
    for n_x in (16, 32, 64):
        g = exact_grid(n_x, 0.5, (L2PI / n_x) ** 2 * 0.4)
        res = ThetaScheme(heat_problem(T=0.5), g, theta=0.0).solve()
        exact = math.exp(-0.25) * np.sin(g.nodes()[..., 0])
        errs.append(sup_norm(res.values - exact))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.2 * errs[0]


def test_implicit_explicit_gap_richardson():
    # the one-step gap between theta = 0 and theta = 1 shrinks like dt^2
    pr = heat_problem()
    gaps = []
    for dt in (0.004, 0.002):
        g = exact_grid(24, 1.0, dt)
        u0 = np.sin(g.nodes()[..., 0])
        ue, _ = ThetaScheme(pr, g, theta=0.0).step(u0, 0.0)
        ui, _ = ThetaScheme(pr, g, theta=1.0, tol=1e-14).step(u0, 0.0)
        gaps.append(sup_norm(ue - ui))
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.05)


def test_bz_builder_matches_axis_builder_for_diagonal_diffusion():
    pr = make_problem(1, L2PI, 0.5, [{"sigma": 1.0, "b": 0.4}],
                      u0=lambda X: np.sin(X[..., 0]))
    g = exact_grid(32, 0.5, 0.01)
    res_k = ThetaScheme(pr, g, theta=1.0, builder="kushner").solve()
    res_b = ThetaScheme(pr, g, theta=1.0, builder="bz").solve()
    np.testing.assert_allclose(res_k.values, res_b.values, atol=1e-9)


def test_bz_builder_cross_diffusion_monotone():
    sigma = np.array([[1.0, 0.6], [0.0, 0.8]])
    pr = make_problem(2, L2PI, 0.1, [{"sigma": sigma}],
                      u0=lambda X: np.sin(X[..., 0]) * np.cos(X[..., 1]))
    g = exact_grid(12, 0.1, 0.01, dim=2)
    sch = ThetaScheme(pr, g, theta=1.0, builder="bz")
    assert sch.cfl_check().ok
    probe = sch.monotonicity_probe(trials=20, seed=1)
    assert probe.passed
    sch.solve()


def test_bz_builder_rejects_space_dependent_coefficients():
    pr = make_problem(1, L2PI, 0.5,
                      [{"sigma": lambda t, X: (1.0 + 0.5 * np.sin(X[..., 0]))[..., None, None]}],
                      u0=0.0)
    g = exact_grid(16, 0.5, 0.01)
    with pytest.raises(ConfigError):
        ThetaScheme(pr, g, theta=1.0, builder="bz").solve()


def test_monotonicity_probe_passes_under_cfl():
    pr = heat_problem()
    g = exact_grid(16, 1.0, 0.4 * (L2PI / 16) ** 2)
    probe = ThetaScheme(pr, g, theta=0.0).monotonicity_probe(trials=50, seed=0)
    assert probe.passed
    assert probe.checked == 50
    assert probe.worst <= 1e-12


def test_monotonicity_probe_catches_cfl_violation():
    pr = heat_problem()
    g = exact_grid(16, 1.0, 4.0 * (L2PI / 16) ** 2)
    probe = ThetaScheme(pr, g, theta=0.0).monotonicity_probe(trials=50, seed=0)
    assert not probe.passed
    assert probe.worst > 0.0
    assert "node" in probe.witness


def test_comparison_constants():
    pr = make_problem(1, L2PI, 1.0, [{"c": -3.0}, {"c": 2.0}], u0=0.0)
    sch = ThetaScheme(pr, exact_grid(16, 1.0, 0.1), theta=1.0)
    assert sch._level_scan()[2] == 2.0
    # a c that grows in t is read at every level, the last one included
    rising = make_problem(1, L2PI, 1.0, [{"c": lambda t, X: 3.0 * t + 0.0 * X[..., 0]}],
                          u0=0.0)
    assert ThetaScheme(rising, exact_grid(16, 1.0, 0.1), theta=1.0)._level_scan()[2] == 3.0


def test_comparison_bound_shifted_data():
    sch = ThetaScheme(heat_problem(T=0.5), exact_grid(32, 0.5, 0.01), theta=1.0)
    # u - v = 0.3 <= e^{mu t} * 0.3 at every level
    assert sch.comparison_bound_check(du0=-0.3).passed
    # raised data has no positive initial gap and must also pass
    assert sch.comparison_bound_check(du0=0.3).passed


def test_comparison_bound_forced_difference():
    # a source larger by 1 everywhere: v = u + t exactly when c = 0
    pr = heat_problem(T=0.5)
    g = exact_grid(32, 0.5, 0.01)
    sch_u = ThetaScheme(pr, g, theta=1.0)
    sch_v = ThetaScheme(make_problem(1, L2PI, 0.5, [{"sigma": 1.0, "f": 1.0}],
                                     u0=lambda X: np.sin(X[..., 0])), g, theta=1.0)
    gap = [sup_norm(v - u - n * g.dt)
           for n, ((v, _), (u, _)) in enumerate(zip(sch_v.march(), sch_u.march()))]
    assert len(gap) == g.n_t + 1 and max(gap) <= 1e-8
    # u - v = -t and, for the lowered source, u - v = t <= 2 t e^{mu t}
    assert sch_u.comparison_bound_check(df=1.0).passed
    assert sch_u.comparison_bound_check(df=-1.0).passed


def two_scheme_check(sch_u, sch_v, g1, g2, force):
    """The comparison check as two schemes and two declared source levels:
    u - v <= e^{mu t} max(u(0)-v(0))^+ + 2 t e^{mu t} (g1-g2)^+ at every level.
    Returns (passed, worst as hex, witness, checked)."""
    g = sch_u.grid
    mu = sch_u._level_scan()[2] + 1.0
    gplus = float(np.max(np.maximum(np.asarray(g1, dtype=float) - np.asarray(g2, dtype=float),
                                    0.0)))
    worst, witness = -math.inf, ""
    for n, ((u, _), (v, _)) in enumerate(zip(sch_u.march(force), sch_v.march(force))):
        t = n * g.dt
        if n == 0:
            d0 = float(np.max(np.maximum(u - v, 0.0)))
        lhs = float(np.max(u - v))
        bound = math.exp(mu * t) * d0 + 2.0 * t * math.exp(mu * t) * gplus
        if lhs - bound > worst:
            worst = lhs - bound
            witness = f"t={t!r}: max(u-v)={lhs!r} vs bound {bound!r}"
    return worst <= COMPARISON_SLACK, float.hex(worst), witness, g.n_t + 1


def shifted_problem(pr, du0, df):
    """`pr` with u0 + du0 and every control's f + df."""
    if du0 != 0.0:
        def u0(X, _p=pr, _s=du0):
            return _p.u0_values(np.asarray(X, dtype=float)) + _s

        pr = dataclasses.replace(pr, u0=u0)
    if df != 0.0:
        pr = dataclasses.replace(pr, coeffs=CoefficientField(
            [dataclasses.replace(pr.coeffs[i], f=sum_sources(pr.coeffs[i].f, df))
             for i in range(len(pr.coeffs))]))
    return pr


def check_against_two_schemes(sch, du0, df, force):
    """sch's comparison check on (du0, df), asserted bit for bit equal to
    the two-scheme formula on the same pair of data sets."""
    got = sch.comparison_bound_check(du0=du0, df=df, force=force)
    twin = ThetaScheme(shifted_problem(sch.problem, du0, df), sch.grid, theta=sch.theta)
    assert (got.passed, float.hex(got.worst), got.witness, got.checked) == two_scheme_check(
        sch, twin, 0.0, df, force), (sch.theta, sch.grid.n_x, sch.grid.dt, du0, df)
    return got


COMPARISON_PROBLEMS = {
    "heat": heat_problem(T=0.5),
    "two controls": make_problem(1, L2PI, 0.5,
                                 [{"sigma": 0.8, "c": 0.5}, {"sigma": 0.5, "b": 0.3}],
                                 u0=lambda X: np.sin(X[..., 0])),
    "(t, x) source": make_problem(
        1, L2PI, 0.5,
        [{"sigma": 0.9, "b": -0.2, "f": lambda t, X: t * np.cos(X[..., 0])},
         {"sigma": 0.6, "c": 0.3, "f": SpaceOnly(lambda X: 0.5 * np.sin(2 * X[..., 0]))}],
        u0=lambda X: np.cos(X[..., 0])),
    "negative c": make_problem(1, L2PI, 0.5, [{"sigma": 1.0, "c": -0.7}],
                               u0=lambda X: np.sin(X[..., 0])),
}
PROBE_DATA = ((0.0, 1.0), (0.0, -1.0), (-0.3, 0.0))  # (du0, df) of hjbfd probe's checks


@pytest.mark.parametrize("name", sorted(COMPARISON_PROBLEMS))
def test_comparison_check_matches_the_two_scheme_formula(name):
    # every theta, two grids and a step on either side of the explicit CFL
    # limit (forced), for the probe's three data sets
    pr = COMPARISON_PROBLEMS[name]
    for theta in (0.0, 0.5, 1.0):
        for n_x in (16, 32):
            for factor in (0.4, 3.0):
                sch = ThetaScheme(pr, exact_grid(n_x, pr.T, factor * (L2PI / n_x) ** 2),
                                  theta=theta)
                for du0, df in PROBE_DATA:
                    check_against_two_schemes(sch, du0, df, force=True)


def test_failing_comparison_checks_match_the_two_scheme_formula():
    # a passing check's worst excess is its t = 0 value; one implicit step of
    # 0.5 with c = 1.8 fails the lowered source and the lowered u0, so the
    # source term of the bound shows in the worst excess too
    pr = make_problem(1, L2PI, 0.5, [{"sigma": 1.0, "c": 1.8}], u0=lambda X: np.sin(X[..., 0]))
    sch = ThetaScheme(pr, exact_grid(16, 0.5, 0.5), theta=1.0)
    passed = [check_against_two_schemes(sch, du0, df, force=False).passed
              for du0, df in PROBE_DATA]
    assert passed == [True, False, False]


def test_a_failing_check_reports_python_floats():
    # witnesses and the worst excess print as plain numbers, not numpy reprs;
    # one implicit step of 0.5 with c = 1.8 amplifies the gap 0.3 tenfold,
    # past its continuous bound 0.3 e^{(1.8 + 1) 0.5}
    growth = make_problem(1, L2PI, 0.5, [{"c": 1.8}], u0=1.0)
    bad = ThetaScheme(growth, exact_grid(16, 0.5, 0.5), theta=1.0).comparison_bound_check(
        du0=-0.3)
    assert not bad.passed
    assert bad.worst == 1.7834400099465983
    assert bad.witness == "t=0.5: max(u-v)=3.000000000000001 vs bound 1.2165599900534025"
    # two implicit steps of 0.25 with c = 1 amplify by 1/0.75^2 > 1.05 e^{0.5}
    growth = make_problem(1, L2PI, 0.5, [{"c": 1.0}], u0=1.0)
    off = ThetaScheme(growth, exact_grid(16, 0.5, 0.25), theta=1.0).apriori_bounds_check()
    assert not off.passed
    for res in (bad, off):
        assert "np." not in res.witness and "np." not in repr(res.worst)


def test_apriori_bound_source_growth():
    # u0 = 0, f = 1: |u(t)| = t, bound (0 + t) * 1.05
    pr = make_problem(1, L2PI, 1.0, [{"f": 1.0}], u0=0.0)
    sch = ThetaScheme(pr, exact_grid(16, 1.0, 0.1), theta=0.0)
    check = sch.apriori_bounds_check()
    assert check.passed
    assert check.worst == 0.0


def test_apriori_bound_exponential_growth():
    # c = 1 drives |u| ~ e^t; the implicit amplification (1-dt)^{-n}
    # stays inside the 5 percent slack for t*dt this small
    pr = make_problem(1, L2PI, 0.5, [{"c": 1.0}], u0=1.0)
    for theta in (0.0, 1.0):
        sch = ThetaScheme(pr, exact_grid(16, 0.5, 0.01), theta=theta)
        assert sup_norm(sch.solve()) == pytest.approx(math.exp(0.5), rel=0.01)
        assert sch.apriori_bounds_check().passed


def test_nan_in_source_fails_fast():
    def f(t, X):
        base = np.zeros(np.shape(X)[:-1])
        return np.where(t > 0.04, np.nan, base)

    pr = make_problem(1, L2PI, 0.1, [{"f": f}], u0=0.0)
    sch = ThetaScheme(pr, exact_grid(16, 0.1, 0.05), theta=0.0)
    with pytest.raises(SchemeError):
        sch.solve()


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_nan_source_fails_fast_in_the_implicit_step(theta):
    # the source turns nan at t > 0.015, so the residual of the step to
    # t = 0.02 is nan: the step raises there instead of sweeping to its cap
    def f(t, X):
        return np.where(t > 0.015, np.nan, np.zeros(np.shape(X)[:-1]))

    pr = make_problem(1, L2PI, 0.05, [{"sigma": 0.5, "f": f}], u0=0.0)
    sch = ThetaScheme(pr, exact_grid(8, 0.05, 0.01), theta=theta)
    with pytest.raises(SchemeError,
                       match=r"implicit step: non-finite residual at t=0\.02, node \(0,\)"):
        sch.solve()


@pytest.mark.parametrize("theta, message", [
    (0.0, r"non-finite value at t=0\.03, node \(0,\)"),
    (1.0, r"implicit step: non-finite residual at t=0\.02"),
])
def test_nan_in_a_later_control_fails_fast(theta, message):
    # control 1's source turns nan at t > 0.015 while control 0 stays finite:
    # the max over controls must select the nan, not keep control 0's value
    def f(t, X):
        return np.where(t > 0.015, np.nan, np.zeros(np.shape(X)[:-1]))

    pr = make_problem(1, L2PI, 0.05, [{"sigma": 0.5, "f": -1.0}, {"sigma": 0.5, "f": f}],
                      u0=0.0)
    sch = ThetaScheme(pr, exact_grid(8, 0.05, 0.01), theta=theta)
    with pytest.raises(SchemeError, match=message):
        sch.solve()


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")  # inf - inf
def test_jacobi_sweeps_fail_fast_on_a_non_finite_residual():
    sch = ThetaScheme(heat_problem(), exact_grid(8, 1.0, 0.1), theta=1.0)
    ops = sch._ops_at(0.1)
    rhs = np.zeros(8)
    rhs[0] = np.inf
    with pytest.raises(SchemeError,
                       match=r"non-finite Jacobi residual at t=0\.1, node \(0,\)"):
        sch._policy_solve(ops, np.zeros(8, dtype=np.intp), rhs, 0.1)


def test_manufactured_two_control_convergence():
    exact = decaying_wave(1, L2PI, [1], rate=0.5)
    mp = manufacture(1, L2PI, 0.5,
                     [{"sigma": 1.0},
                      {"sigma": 0.8, "b": 0.4, "c": 0.2, "g": 0.5}],
                     exact)
    errs = []
    for n_x in (16, 32, 64):
        g = exact_grid(n_x, 0.5, 0.4 * (L2PI / n_x) ** 2)
        res = ThetaScheme(mp.problem, g, theta=0.0).solve()
        errs.append(sup_norm(res.values - mp.exact_values(0.5, g.nodes())))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.2 * errs[0]


# ----- frozen-policy reuse and index-free argmax selection ---------------------

def wavy_u0(X):
    return np.sin(X[..., 0]) + 0.5 * np.cos(3 * X[..., 0])


def varying_sigma(dim):
    return lambda t, X: (0.8 + 0.3 * np.sin(X[..., 0]))[..., None, None] * np.eye(dim)


# (dim, controls): constant weights, whose operator lives for the whole march,
# and space-varying weights, whose operator is rebuilt every step
FROZEN_CASES = {
    "1d": (1, [{"sigma": 1.0, "b": 1.0}, {"sigma": 1.0, "b": -1.0}]),
    "1d-varying": (1, [{"sigma": varying_sigma(1), "b": lambda t, X: 0.5 * np.cos(X)},
                       {"sigma": 0.6, "b": -0.4, "f": 0.1}]),
    "2d": (2, [{"sigma": np.array([[1.0, 0.3], [0.0, 0.9]]), "b": [0.5, -0.2]},
               {"sigma": 0.7, "b": [-0.5, 0.3], "f": 0.05}]),
    "2d-varying": (2, [{"sigma": varying_sigma(2), "b": lambda t, X: 0.5 * np.cos(X)},
                       {"sigma": 0.7, "b": [-0.5, 0.3], "f": 0.05}]),
}


def frozen_case_scheme(case, theta):
    dim, controls = FROZEN_CASES[case]
    pr = make_problem(dim, L2PI, 0.2, controls, u0=wavy_u0)
    return ThetaScheme(pr, exact_grid(16 if dim == 1 else 8, 0.2, 0.02, dim=dim), theta=theta)


def record_policy_solves(monkeypatch, forget=False):
    """Wrap _policy_solve to record each frozen policy (and, when `forget`,
    to clear the operator's frozen-policy cache before every solve)."""
    keys = []
    solve = ThetaScheme._policy_solve

    def wrapped(self, ops, P, *args):
        keys.append(P.tobytes())
        if forget:
            ops.frozen = None
        return solve(self, ops, P, *args)

    monkeypatch.setattr(ThetaScheme, "_policy_solve", wrapped)
    return keys


@pytest.mark.parametrize("theta", [0.5, 1.0])
@pytest.mark.parametrize("case", sorted(FROZEN_CASES))
def test_frozen_policy_reuse_is_bit_identical_to_rebuilding(monkeypatch, case, theta):
    keys = record_policy_solves(monkeypatch)
    reused = list(frozen_case_scheme(case, theta).march())
    if not case.endswith("varying"):  # the cache must actually serve repeats
        assert len(set(keys)) < len(keys)
    monkeypatch.undo()
    record_policy_solves(monkeypatch, forget=True)
    rebuilt = list(frozen_case_scheme(case, theta).march())
    assert len(reused) == len(rebuilt)
    for (u, rep), (v, ref) in zip(reused[1:], rebuilt[1:]):
        np.testing.assert_array_equal(u, v)
        assert (rep.policy_iterations, rep.sweeps) == (ref.policy_iterations, ref.sweeps)
        np.testing.assert_array_equal(rep.argmax, ref.argmax)


def test_frozen_policy_cache_keeps_the_most_recent_policies(monkeypatch):
    # one slot: an operator keeps the system of the policy it froze last, and
    # rebuilds it exactly when the policy differs from the one solved before
    pr = make_problem(1, L2PI, 1.0, [{"sigma": 0.3, "c": 0.5}, {"sigma": 0.8, "f": 0.1}],
                      u0=wavy_u0)
    sch = ThetaScheme(pr, exact_grid(32, 1.0, 0.02), theta=1.0)
    keys = record_policy_solves(monkeypatch)
    calls = counted_take_along_axis(monkeypatch)
    sch.solve()
    assert len(set(keys)) > 1
    assert sch._ops_at(1.0).frozen[0] == keys[-1]
    changes = 1 + sum(a != b for a, b in zip(keys, keys[1:]))
    assert changes < len(keys)
    assert calls[0] == 4 * changes  # W, csum, c and f of each rebuilt system


def test_nonpositive_diagonal_raises_on_every_use():
    # 1 + theta dt (csum - c) = 1 - 0.1 * 100 < 0: the failing policy is never
    # cached, so the same step fails the same way a second time
    pr = make_problem(1, L2PI, 1.0, [{"c": 100.0}], u0=1.0)
    sch = ThetaScheme(pr, exact_grid(16, 1.0, 0.1), theta=1.0)
    for _ in range(2):
        with pytest.raises(SchemeError, match="nonpositive diagonal"):
            sch.step(np.ones(16), 0.0)
    assert not sch._ops_at(0.1).frozen


def rolled_neighbours(offsets, u):
    """u(x + offset) for each offset, (n_o, *u.shape), by np.roll over the
    grid axes (the last len(offset) axes of u)."""
    axes = tuple(range(u.ndim - offsets.shape[1], u.ndim))
    return np.array([np.roll(u, tuple(-k for k in off), axis=axes)
                     for off in offsets.tolist()]).reshape((len(offsets),) + u.shape)


def reference_hamiltonian(ops, u):
    """G and its argmax for one state or a stack (B, *grid) of states, with
    np.roll neighbours, an out-of-place sum, argmax and take_along_axis.  A
    NaN is selected: the last control whose value is NaN.  A stack is
    contracted whole, as the scheme does: a BLAS product over B N columns
    can round differently from one over N."""
    grid = u.shape[u.ndim - ops.offsets.shape[1]:]
    stack = u.reshape((-1,) + grid)
    nb = rolled_neighbours(ops.offsets, stack)
    if ops.Wmat is None:
        Lu = np.einsum("co...,ob...->cb...", ops.W, nb)
    else:
        Lu = (ops.W.reshape(ops.W.shape[:2]) @ nb.reshape(len(nb), stack.size)).reshape(
            (-1,) + stack.shape)
    Lu -= ops.csum * stack
    vals = -Lu - ops.c * stack - ops.f
    nan = np.isnan(vals)
    P = np.where(nan.any(axis=0), len(vals) - 1 - np.argmax(nan[::-1], axis=0),
                 np.argmax(vals, axis=0))
    G = np.take_along_axis(vals, P[None], axis=0)[0]
    return G.reshape(u.shape), P.reshape(u.shape)


def assert_same_selection(result, expected):
    """G and P of `result` equal those of `expected` bit for bit (so -0.0
    differs from +0.0), and P keeps argmax's integer type."""
    (G, P), (G_ref, P_ref) = result, expected
    assert P.dtype == P_ref.dtype == np.intp
    np.testing.assert_array_equal(P, P_ref)
    np.testing.assert_array_equal(G.view(np.int64), G_ref.view(np.int64))


@pytest.mark.parametrize("case", sorted(FROZEN_CASES))
def test_hamiltonian_selects_like_take_along_axis(case):
    sch = frozen_case_scheme(case, 1.0)
    ops = sch._ops_at(0.0)
    rng = np.random.default_rng(3)
    for _ in range(3):
        u = rng.standard_normal(sch.grid.shape)
        assert_same_selection(sch._hamiltonian(ops, u), reference_hamiltonian(ops, u))


def test_hamiltonian_ties_go_to_the_lowest_index():
    # at u = 0, G = max(-f) ties controls 1 and 2 at every node
    pr = make_problem(2, L2PI, 1.0, [{"sigma": 1.0, "f": 0.2}, {"sigma": 0.5}, {"b": [0.3, 0.1]}],
                      u0=0.0)
    sch = ThetaScheme(pr, exact_grid(8, 1.0, 0.01, dim=2), theta=1.0)
    ops = sch._ops_at(0.0)
    u = np.zeros(sch.grid.shape)
    G, P = sch._hamiltonian(ops, u)
    assert np.all(P == 1)
    assert_same_selection((G, P), reference_hamiltonian(ops, u))


@pytest.mark.parametrize("f0, f1, negative", [(0.0, -0.0, True), (-0.0, 0.0, False)])
def test_hamiltonian_signed_zero_ties_go_to_the_lowest_index(f0, f1, negative):
    # at u = 0 a control's value is -0.0 - f: f = 0.0 gives -0.0 and
    # f = -0.0 gives +0.0, which compare equal, so control 0 keeps its sign
    pr = make_problem(1, L2PI, 1.0, [{"sigma": 0.5, "f": f0}, {"sigma": 0.5, "f": f1}], u0=0.0)
    sch = ThetaScheme(pr, exact_grid(8, 1.0, 0.01), theta=1.0)
    ops = sch._ops_at(0.0)
    u = np.zeros(sch.grid.shape)
    G, P = sch._hamiltonian(ops, u)
    assert np.all(P == 0) and np.all(G == 0.0)
    assert np.all(np.signbit(G) == negative)
    assert_same_selection((G, P), reference_hamiltonian(ops, u))


TIE_VALUES = [-1.0, -0.5, -0.0, 0.0, 0.5, 1.0]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(data=st.data())
def test_hamiltonian_selection_bits_match_argmax_property(data):
    # a hand-built operator on 4 nodes whose entries come from a few dyadic
    # values, so that controls tie exactly (signed zeros included); each
    # member of a stack must select like np.argmax and take_along_axis on
    # its own
    n_c = data.draw(st.integers(1, 4), label="n_c")
    B = data.draw(st.sampled_from([1, 3]), label="B")
    grid = (1,) if data.draw(st.booleans(), label="constant weights") else (4,)
    values = st.sampled_from(TIE_VALUES)
    W = np.abs(data.draw(arrays(float, (n_c, 2) + grid, elements=values), label="W"))
    c, f = (data.draw(arrays(float, (n_c, 4), elements=values), label=name) for name in "cf")
    u = data.draw(arrays(float, (B, 4), elements=values), label="u")
    sch = ThetaScheme(heat_problem(), exact_grid(4, 1.0, 0.01), theta=1.0)
    ops = _Ops(W, W.sum(axis=1), np.array([[1], [-1]]), {}, c, f)
    G, P = sch._hamiltonian(ops, u if B > 1 else u[0])
    for b in range(B):
        assert_same_selection((G.reshape(B, 4)[b], P.reshape(B, 4)[b]),
                              reference_hamiltonian(ops, u[b]))


# per dim: a constant sigma, one whose sigma sigma^T is not diagonally dominant
# in 2D and 3D, so that bz reaches offsets of BZ_ORDER, and one that varies in
# space (kushner only)
GATHER_SIGMAS = {
    1: [0.7, np.array([[1.0, 0.5]]), varying_sigma(1)],
    2: [np.array([[1.0, 0.3], [0.0, 0.9]]), np.array([[1.0, 1.0], [1.0, 2.0]]), varying_sigma(2)],
    3: [SIGMA_3D, np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]]),
        varying_sigma(3)],
}
SPECIAL_VALUES = [np.nan, np.inf, -np.inf, -0.0, 0.0]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(data=st.data())
def test_window_and_index_gathers_agree_bit_for_bit(data):
    # both gathers of a state or a stack of states copy the np.roll
    # neighbours bit for bit, NaN, infinities and signed zeros included, and
    # the Hamiltonian through either selects like np.argmax and take_along_axis
    # (it takes a stack with one member axis, so (2, 3) members go in as 6)
    dim = data.draw(st.integers(1, 3), label="dim")
    n = data.draw(st.integers(3, 24), label="n")
    sigma = data.draw(st.sampled_from(GATHER_SIGMAS[dim]), label="sigma")
    builder = "kushner" if callable(sigma) else data.draw(st.sampled_from(["kushner", "bz"]),
                                                          label="builder")
    members = data.draw(st.sampled_from([(), (2,), (2, 3)]), label="stack")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    controls = [{"sigma": sigma, "b": [0.4, -0.3, 0.2][:dim], "c": 0.1},
                {"sigma": 0.6, "b": -0.2, "f": 0.05}]
    pr = make_problem(dim, L2PI, 1.0, controls, u0=0.0)
    sch = ThetaScheme(pr, exact_grid(n, 1.0, 0.01, dim=dim), theta=0.0, builder=builder)
    ops = sch._ops_at(0.0)
    shape = members + sch.grid.shape
    u = rng.standard_normal(shape)
    spots = rng.integers(0, u.size, size=rng.integers(0, 8))
    u.flat[spots] = rng.choice(SPECIAL_VALUES, size=len(spots))
    expected = rolled_neighbours(ops.offsets, u).view(np.int64)
    stack = u.reshape((-1,) + sch.grid.shape) if members else u
    with np.errstate(invalid="ignore", over="ignore"):
        want = reference_hamiltonian(ops, stack)
        for path in (ops._by_index, ops._by_windows):
            np.testing.assert_array_equal(path(shape)(u).view(np.int64), expected)
            ops.gathers[stack.shape] = path(stack.shape)
            assert_same_selection(sch._hamiltonian(ops, stack), want)


def counted_take_along_axis(monkeypatch):
    calls = [0]
    take = np.take_along_axis

    def counted(*args, **kwargs):
        calls[0] += 1
        return take(*args, **kwargs)

    monkeypatch.setattr(np, "take_along_axis", counted)
    return calls


def test_steps_build_no_index_arrays(monkeypatch):
    # an explicit step selects its argmax without take_along_axis, and an
    # implicit march gathers a frozen policy only when it differs from the
    # one solved before: 4 arrays per change, however many solves repeat it
    controls = [{"sigma": 1.0, "b": 1.0}, {"sigma": 1.0, "b": -1.0}]
    pr = make_problem(1, L2PI, 1.0, controls, u0=lambda X: np.sin(X[..., 0]))
    calls = counted_take_along_axis(monkeypatch)
    ThetaScheme(pr, exact_grid(32, 1.0, 0.02), theta=0.0).solve()
    assert calls[0] == 0
    keys = record_policy_solves(monkeypatch)
    ThetaScheme(pr, exact_grid(32, 1.0, 0.02), theta=1.0).solve()
    changes = 1 + sum(a != b for a, b in zip(keys, keys[1:]))
    assert len(keys) > changes
    assert calls[0] <= 4 * changes


# (dim, controls) for the stacked step: 1D with two offsets and no centre, and
# the 2D 9-point stencil (cross terms of both signs), each with constant and
# with space-varying weights; one control gives the 1-row product of a
# switching mode
STACK_CASES = {
    "1d": FROZEN_CASES["1d"],
    "1d-one-control": (1, [{"sigma": 0.8, "b": 0.7}]),
    "1d-varying": FROZEN_CASES["1d-varying"],
    "2d-9pt": (2, [{"sigma": np.array([[1.0, 0.3], [0.0, 0.9]]), "b": [0.5, -0.2]},
                   {"sigma": np.array([[1.0, -0.3], [0.0, 0.9]]), "b": [-0.5, 0.3],
                    "f": 0.05}]),
    "2d-9pt-varying": (2, [{"sigma": varying_sigma(2), "b": lambda t, X: 0.5 * np.cos(X)},
                           {"sigma": np.array([[1.0, 0.3], [0.0, 0.9]]), "f": 0.05},
                           {"sigma": np.array([[1.0, -0.3], [0.0, 0.9]]), "b": [-0.5, 0.3]}]),
}


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_step_matches_single_steps_bit_for_bit(case, theta):
    dim, controls = STACK_CASES[case]
    pr = make_problem(dim, L2PI, 0.2, controls, u0=wavy_u0)
    sch = ThetaScheme(pr, exact_grid(16 if dim == 1 else 8, 0.2, 0.02, dim=dim), theta=theta)
    ops = sch._ops_at(0.0)
    assert len(ops.offsets) == (2 if dim == 1 else 8)
    assert (ops.Wmat is None) == case.endswith("varying")
    states = np.random.default_rng(11).standard_normal((4,) + sch.grid.shape)
    for B in range(1, 5):
        for t in (0.0, 0.02):
            out, rep = sch.step(states[:B], t)
            singles = [sch.step(u, t) for u in states[:B]]
            assert out.shape == (B,) + sch.grid.shape
            for b, (u, single) in enumerate(singles):
                np.testing.assert_array_equal(out[b], u)
                np.testing.assert_array_equal(rep.argmax[b], single.argmax)
            assert rep.policy_iterations == max(s.policy_iterations for _, s in singles)
            assert rep.sweeps == sum(s.sweeps for _, s in singles)
            # one stacked explicit evaluation, then each member's implicit ones
            explicit = int(theta < 1.0)
            assert rep.hamiltonians == explicit + sum(s.hamiltonians - explicit
                                                      for _, s in singles)


def test_a_stacked_product_over_many_offsets_rounds_within_a_few_ulp():
    # space-independent weights contract a stack as one BLAS product, whose
    # summation order may depend on the column count: on a 3D bz stencil with
    # 10 offsets one value of this stack's first member differs from its
    # single-state G by 2 ulp, so a stack is not always bit for bit its members
    sigma = np.array([[1.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
    pr = make_problem(3, L2PI, 0.1, [{"sigma": sigma}], u0=0.0)
    sch = ThetaScheme(pr, exact_grid(3, 0.1, 0.01, dim=3), theta=0.0, builder="bz")
    ops = sch._ops_at(0.0)
    assert len(ops.offsets) == 10 and ops.Wmat is not None
    states = np.random.default_rng(11).standard_normal((2,) + sch.grid.shape)
    G = sch._hamiltonian(ops, states)[0]
    for b in range(2):
        alone = sch._hamiltonian(ops, states[b])[0]
        np.testing.assert_array_max_ulp(G[b], alone, maxulp=4)


# ----- the Hamiltonian an implicit step hands to the next one ---------------------

@pytest.mark.parametrize("case", sorted(FROZEN_CASES))
def test_implicit_march_reuses_the_last_hamiltonian(case):
    # theta = 1: a step's first policy iteration evaluates G at the level the
    # previous step returned, which that step's last evaluation already gave;
    # an operator rebuilt every step (space-varying weights here) cannot reuse it
    sch = frozen_case_scheme(case, 1.0)
    reps = [rep for _, rep in sch.march()][1:]
    assert reps[0].hamiltonians == reps[0].policy_iterations + 1
    missed = int(case.endswith("varying"))
    assert [rep.hamiltonians for rep in reps[1:]] == [rep.policy_iterations + missed
                                                      for rep in reps[1:]]
    # nothing is kept that could not match, so a rebuilt operator dies with its step
    assert (sch._carry is None) == bool(missed)


@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_a_step_with_an_explicit_part_evaluates_its_own_hamiltonians(theta):
    # the implicit part's rhs is a new array, so nothing is carried
    for _, rep in list(frozen_case_scheme("1d", theta).march())[1:]:
        assert rep.hamiltonians == (1 if theta == 0.0 else rep.policy_iterations + 2)


@pytest.mark.parametrize("case", ["1d", "2d"])
def test_a_copy_of_the_previous_level_steps_to_the_same_bits(case):
    sch = frozen_case_scheme(case, 1.0)
    dt = sch.grid.dt
    u1, _ = sch.step(sch.initial_values(), 0.0)
    u2, carried = sch.step(u1, dt)
    v2, fresh = sch.step(u1.copy(), dt)
    np.testing.assert_array_equal(u2, v2)
    np.testing.assert_array_equal(carried.argmax, fresh.argmax)
    assert (carried.policy_iterations, carried.sweeps, carried.max_residual) == \
        (fresh.policy_iterations, fresh.sweeps, fresh.max_residual)
    assert fresh.hamiltonians == carried.hamiltonians + 1


def test_an_implicit_level_is_read_only():
    # the carried Hamiltonian is keyed on the level itself, so no one may write into it
    sch = frozen_case_scheme("1d", 1.0)
    u, rep = sch.step(sch.initial_values(), 0.0)
    with pytest.raises(ValueError, match="read-only"):
        u[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        rep.argmax[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        sch.solve().values += 1.0
