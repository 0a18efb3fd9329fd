"""Problem assembly, operator evaluation, manufactured sources.

The pointwise operator `evaluate_L`, its sup `evaluate_F` and the residual
check of a manufactured problem live here: nothing in the package reads
them, and they exist to test the manufactured sources."""

import math

import numpy as np
import pytest

from hjbfd import (
    HJBProblem,
    ManufacturedProblem,
    decaying_wave,
    make_problem,
    manufacture,
)
from hjbfd.errors import ConfigError
from hjbfd.problem import SpaceOnly

L2PI = 2 * np.pi
RESIDUAL_POINTS = 1000  # sample points of residual_check


def evaluate_L(problem: HJBProblem, control: int, t: float, x, value: float,
               gradient, hessian) -> float:
    """Linear operator value -tr[a X] - b.p - c r - f at one point."""
    X = np.asarray(x, dtype=float).reshape(1, problem.dim)
    a = problem.coeffs.a(control, t, X)[0]
    b = problem.coeffs.b(control, t, X)[0]
    c = float(problem.coeffs.c(control, t, X)[0])
    f = float(problem.coeffs.f(control, t, X)[0])
    p = np.zeros(problem.dim) if gradient is None else np.asarray(gradient, dtype=float)
    H = np.zeros((problem.dim, problem.dim)) if hessian is None else np.asarray(hessian, dtype=float)
    return float(-np.trace(a @ H) - b @ p - c * float(value) - f)


def evaluate_F(problem: HJBProblem, t: float, x, value: float, gradient, hessian) -> float:
    """Running sup over the control set of evaluate_L."""
    vals = [evaluate_L(problem, i, t, x, value, gradient, hessian)
            for i in range(len(problem.coeffs))]
    return float(max(vals))


def residual_check(mp: ManufacturedProblem) -> float:
    """Max |u*_t + F(t,x,u*,Du*,D^2u*)| over RESIDUAL_POINTS random
    sample points, drawn with seed 0."""
    rng = np.random.default_rng(0)
    pr = mp.problem
    worst = 0.0
    t_samples = rng.uniform(0.0, pr.T, size=RESIDUAL_POINTS)
    X = rng.uniform(0.0, pr.period, size=(RESIDUAL_POINTS, pr.dim))
    for t, x in zip(t_samples, X):
        Xp = x.reshape(1, pr.dim)
        r = float(mp.exact.value(t, Xp)[0])
        p = np.asarray(mp.exact.grad(t, Xp))[0]
        H = np.asarray(mp.exact.hess(t, Xp))[0]
        ut = float(np.asarray(mp.exact.dt(t, Xp)).reshape(-1)[0])
        worst = max(worst, abs(ut + evaluate_F(pr, t, x, r, p, H)))
    return worst


def test_evaluate_L_zero_order():
    # no diffusion, no drift: L = -c r - f = -1*2 - 3 = -5
    pr = make_problem(1, L2PI, 1.0, [{"c": 1.0, "f": 3.0}], u0=0.0)
    val = evaluate_L(pr, 0, 0.0, [0.5], value=2.0, gradient=None, hessian=None)
    assert val == pytest.approx(-5.0)


def test_evaluate_L_pure_diffusion():
    # sigma = sqrt(2) I gives a = I; with hessian = I in 2-D, L = -tr(I) = -2
    pr = make_problem(2, L2PI, 1.0, [{"sigma": math.sqrt(2.0)}], u0=0.0)
    val = evaluate_L(pr, 0, 0.0, [0.1, 0.2], value=0.0, gradient=None, hessian=np.eye(2))
    assert val == pytest.approx(-2.0)


def test_evaluate_L_full():
    # a = diag(1, 2), X = diag(3, 4), b = (1, 0), p = (5, 0), f = 1:
    # L = -(1*3 + 2*4) - 5 - 0 - 1 = -17
    sigma = np.diag([math.sqrt(2.0), 2.0])
    pr = make_problem(2, L2PI, 1.0, [{"sigma": sigma, "b": [1.0, 0.0], "f": 1.0}], u0=0.0)
    val = evaluate_L(pr, 0, 0.0, [0.0, 0.0], value=7.0,
                     gradient=[5.0, 0.0], hessian=np.diag([3.0, 4.0]))
    assert val == pytest.approx(-17.0)


def test_evaluate_F_takes_sup():
    pr = make_problem(1, L2PI, 1.0, [{"f": 0.0}, {"f": 1.0}], u0=0.0)
    # L values are {0, -1}; the sup is 0
    assert evaluate_F(pr, 0.0, [1.0], 0.0, None, None) == pytest.approx(0.0)

    # a in {1/2, 1}: with u_xx = -2 the candidates are {1, 2}
    pr2 = make_problem(1, L2PI, 1.0, [{"sigma": 1.0}, {"sigma": math.sqrt(2.0)}], u0=0.0)
    val = evaluate_F(pr2, 0.0, [1.0], 0.0, None, np.array([[-2.0]]))
    assert val == pytest.approx(2.0)


def test_coefficient_shapes_and_a():
    pr = make_problem(2, L2PI, 1.0, [{"sigma": 3.0, "b": [1.0, -2.0]}], u0=0.0)
    X = np.zeros((5, 2))
    sig = pr.coeffs.sigma(0, 0.0, X)
    assert sig.shape == (5, 2, 2)
    np.testing.assert_allclose(sig[0], 3.0 * np.eye(2))
    np.testing.assert_allclose(pr.coeffs.a(0, 0.0, X)[0], 4.5 * np.eye(2))
    np.testing.assert_allclose(pr.coeffs.ssq(0, 0.0, X)[0], 9.0 * np.eye(2))
    b = pr.coeffs.b(0, 0.0, X)
    assert b.shape == (5, 2)
    np.testing.assert_allclose(b[2], [1.0, -2.0])


def test_coefficient_static_flags():
    # t-dependence is read off the stored values: a constant and a SpaceOnly
    # do not depend on t, any other callable does, whatever its values
    wave = SpaceOnly(lambda X: (1.0 + 0.5 * np.sin(X[..., 0]))[..., None, None])
    pr = make_problem(1, L2PI, 1.0,
                      [{"sigma": 1.0, "f": 2.0},
                       {"sigma": 1.0, "f": lambda t, X: np.sin(X[..., 0])},
                       {"sigma": 1.0, "f": SpaceOnly(lambda X: np.sin(X[..., 0]))},
                       {"sigma": wave, "c": lambda t, X: 0.0 * X[..., 0]}],
                      u0=0.0)

    def varies(i, *names):
        return pr.coeffs.restrict([i]).varies_in_t(*names)

    assert not varies(0)
    assert varies(1) and varies(1, "f") and not varies(1, "sigma", "b", "c")
    assert not varies(2)
    assert varies(3) and varies(3, "c") and not varies(3, "sigma", "b", "f")
    assert pr.coeffs.varies_in_t() and not pr.coeffs.varies_in_t("sigma", "b")
    # a space-only source has the values of its (t, X) form
    X = np.linspace(0.0, L2PI, 5)[:, None]
    np.testing.assert_array_equal(pr.coeffs.f(2, 0.7, X), pr.coeffs.f(1, 0.7, X))
    np.testing.assert_array_equal(pr.coeffs.sigma(3, 0.7, X), wave.g(X))


def test_restrict_keeps_evaluators():
    pr = make_problem(1, L2PI, 1.0, [{"f": 1.0}, {"f": 2.0}, {"f": 3.0}], u0=0.0)
    sub = pr.restrict([2, 0])
    assert len(sub.coeffs) == 2
    assert sub.label == "problem|a2,a0"
    X = np.zeros((1, 1))
    assert float(sub.coeffs.f(0, 0.0, X)[0]) == 3.0
    assert float(sub.coeffs.f(1, 0.0, X)[0]) == 1.0


def test_periodicity_check_rejects_linear_data():
    # the check shifts along every axis, so a u0 linear in x_2 only is caught too
    for dim, axis in ((1, 0), (2, 1)):
        with pytest.raises(ConfigError, match=f"u0 is not .*-periodic in x_{axis + 1}"):
            make_problem(dim, L2PI, 1.0, [{}], u0=lambda X, _a=axis: X[..., _a])


def test_decaying_wave_derivatives_match_finite_differences():
    sf = decaying_wave(2, L2PI, [1, 2], rate=0.7, amplitude=1.3, phase=0.4)
    rng = np.random.default_rng(11)
    eps = 1e-6
    for _ in range(20):
        t = float(rng.uniform(0, 1))
        x = rng.uniform(0, L2PI, size=(1, 2))
        v = float(sf.value(t, x)[0])
        # time derivative
        vdt = (float(sf.value(t + eps, x)[0]) - float(sf.value(t - eps, x)[0])) / (2 * eps)
        assert float(np.asarray(sf.dt(t, x)).reshape(-1)[0]) == pytest.approx(vdt, abs=1e-6)
        # gradient
        g = np.asarray(sf.grad(t, x))[0]
        for i in range(2):
            dx = np.zeros((1, 2))
            dx[0, i] = eps
            fd = (float(sf.value(t, x + dx)[0]) - float(sf.value(t, x - dx)[0])) / (2 * eps)
            assert g[i] == pytest.approx(fd, abs=1e-6)
        # hessian spot check along axis 0 (wider step: second differences
        # lose half the mantissa to cancellation)
        eps2 = 1e-4
        dx = np.zeros((1, 2))
        dx[0, 0] = eps2
        fd2 = (float(sf.value(t, x + dx)[0]) - 2 * v + float(sf.value(t, x - dx)[0])) / eps2 ** 2
        H = np.asarray(sf.hess(t, x))[0]
        assert H[0, 0] == pytest.approx(fd2, abs=1e-5)


def test_manufacture_heat_source_vanishes():
    # u* = e^{-t/2} sin x solves the half-Laplacian heat equation, so the
    # constructed source is identically zero
    exact = decaying_wave(1, L2PI, [1], rate=0.5)
    mp = manufacture(1, L2PI, 1.0, [{"sigma": 1.0}], exact)
    rng = np.random.default_rng(0)
    X = rng.uniform(0, L2PI, size=(50, 1))
    for t in (0.0, 0.3, 1.0):
        f = mp.problem.coeffs.f(0, t, X)
        assert np.max(np.abs(f)) < 1e-12


def test_manufacture_zero_exact_keeps_slack():
    # with u* = 0 every source reduces to its slack g
    zero = decaying_wave(1, L2PI, [1], rate=0.0, amplitude=0.0)
    mp = manufacture(1, L2PI, 1.0,
                     [{"sigma": 1.0}, {"sigma": 1.0, "g": 0.75}], zero)
    X = np.linspace(0, L2PI, 7).reshape(-1, 1)
    np.testing.assert_allclose(mp.problem.coeffs.f(0, 0.3, X), 0.0, atol=1e-15)
    np.testing.assert_allclose(mp.problem.coeffs.f(1, 0.3, X), 0.75, atol=1e-15)


def test_manufacture_residual_small_at_random_points():
    exact = decaying_wave(1, L2PI, [1], rate=0.5)
    mp = manufacture(1, L2PI, 1.0,
                     [{"sigma": 1.0},
                      {"sigma": 0.8, "b": 0.4, "c": 0.2, "g": 1.0}],
                     exact)
    assert residual_check(mp) <= 1e-10


def test_manufacture_needs_one_zero_slack():
    exact = decaying_wave(1, L2PI, [1], rate=0.5)
    with pytest.raises(ConfigError):
        manufacture(1, L2PI, 1.0, [{"sigma": 1.0, "g": 0.5}], exact)
    # explicit zero counts
    manufacture(1, L2PI, 1.0, [{"sigma": 1.0, "g": 0.0}], exact)


def test_manufacture_exact_values_and_u0():
    exact = decaying_wave(1, L2PI, [1], rate=0.5)
    mp = manufacture(1, L2PI, 1.0, [{"sigma": 1.0}], exact)
    X = np.array([[np.pi / 2]])
    assert mp.exact_values(0.0, X)[0] == pytest.approx(1.0)
    assert mp.problem.u0_values(X)[0] == pytest.approx(1.0)
    assert mp.exact_values(1.0, X)[0] == pytest.approx(math.exp(-0.5))
