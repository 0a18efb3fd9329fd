"""Grid construction, norms, and CSV output."""

import math

import numpy as np
import pytest

from hjbfd import GridFunction, SpaceTimeGrid, lipschitz_seminorm, sup_norm
from hjbfd.errors import ConfigError


def test_build_basic_relations():
    g = SpaceTimeGrid.build(dim=2, period=2 * np.pi, n_x=32, T=1.0, dt=0.01)
    assert g.dx == pytest.approx(2 * np.pi / 32, rel=1e-15)
    assert g.n_t * g.dt == pytest.approx(g.T, rel=1e-15)
    assert g.dt <= 0.01 + 1e-15
    assert g.shape == (32, 32)
    assert g.n_nodes == 32 * 32
    assert g.h() == pytest.approx(math.sqrt(g.dx ** 2 + g.dt))


def test_build_exact_spacing():
    # 1.6 / 16 = 0.1 exactly in binary floating point
    g = SpaceTimeGrid.build(dim=1, period=1.6, n_x=16, T=1.0, dt=0.1)
    assert g.dx == 0.1
    assert g.n_t == 10


def test_build_rounds_step_down_not_up():
    # dt = 0.3 does not divide T = 1, so the step shrinks to 0.25
    g = SpaceTimeGrid.build(dim=1, period=1.0, n_x=8, T=1.0, dt=0.3)
    assert g.n_t == 4
    assert g.dt == pytest.approx(0.25)
    # an exact divisor is kept as is
    g2 = SpaceTimeGrid.build(dim=1, period=1.0, n_x=8, T=1.0, dt=0.25)
    assert g2.n_t == 4
    assert g2.dt == pytest.approx(0.25, rel=1e-15)


def test_nodes_and_times():
    g = SpaceTimeGrid.build(dim=2, period=1.0, n_x=4, T=0.5, dt=0.25)
    X = g.nodes()
    assert X.shape == (4, 4, 2)
    assert X[0, 0, 0] == 0.0
    assert X[3, 1, 0] == pytest.approx(0.75)
    assert X[3, 1, 1] == pytest.approx(0.25)
    t = g.times()
    np.testing.assert_allclose(t, [0.0, 0.25, 0.5])


def test_build_rejects_bad_inputs():
    with pytest.raises(ConfigError):
        SpaceTimeGrid.build(dim=0, period=1.0, n_x=8, T=1.0, dt=0.1)
    with pytest.raises(ConfigError):
        SpaceTimeGrid.build(dim=1, period=1.0, n_x=2, T=1.0, dt=0.1)
    with pytest.raises(ConfigError):
        SpaceTimeGrid.build(dim=1, period=1.0, n_x=8, T=1.0, dt=-0.1)
    with pytest.raises(ConfigError):
        SpaceTimeGrid.build(dim=1, period=-1.0, n_x=8, T=1.0, dt=0.1)


def test_direct_constructor_checks_products():
    with pytest.raises(ConfigError):
        SpaceTimeGrid(dim=1, period=1.0, n_x=8, dx=0.2, n_t=10, dt=0.1, T=1.0)
    with pytest.raises(ConfigError):
        SpaceTimeGrid(dim=1, period=1.0, n_x=8, dx=0.125, n_t=9, dt=0.1, T=1.0)


def test_grid_function_shape_and_finiteness():
    g = SpaceTimeGrid.build(dim=1, period=1.0, n_x=8, T=1.0, dt=0.5)
    with pytest.raises(ConfigError):
        GridFunction(g, np.zeros(7))
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(ConfigError):
        GridFunction(g, bad)
    with pytest.raises(ConfigError):
        GridFunction(g, np.full(8, np.inf))


def test_grid_function_from_callable():
    g = SpaceTimeGrid.build(dim=1, period=2 * np.pi, n_x=16, T=1.0, dt=0.5)
    phi = GridFunction.from_callable(g, lambda X: np.sin(X[..., 0]))
    assert phi.values.shape == (16,)
    assert phi.values[4] == pytest.approx(1.0)  # node 4 sits at pi/2
    # scalar results broadcast to the full grid
    const = GridFunction.from_callable(g, lambda X: 2.5)
    assert np.all(const.values == 2.5)


def test_grid_function_copy_is_independent():
    g = SpaceTimeGrid.build(dim=1, period=1.0, n_x=8, T=1.0, dt=0.5)
    phi = GridFunction(g, np.arange(8.0))
    psi = phi.copy()
    psi.values[0] = 99.0
    assert phi.values[0] == 0.0


def test_sup_norm_values():
    g = SpaceTimeGrid.build(dim=1, period=1.0, n_x=8, T=1.0, dt=0.5)
    assert sup_norm(GridFunction(g, np.full(8, 3.0))) == 3.0
    assert sup_norm(np.array([-5.0, 2.0])) == 5.0
    g64 = SpaceTimeGrid.build(dim=1, period=2 * np.pi, n_x=64, T=1.0, dt=0.5)
    phi = GridFunction.from_callable(g64, lambda X: np.sin(X[..., 0]))
    # node 16 sits exactly at pi/2 so the max is hit on the grid
    assert sup_norm(phi) == pytest.approx(1.0, abs=1e-15)


def test_lipschitz_seminorm_values():
    g = SpaceTimeGrid.build(dim=1, period=1.0, n_x=8, T=1.0, dt=0.5)
    assert lipschitz_seminorm(GridFunction(g, np.full(8, 4.0))) == 0.0
    # sawtooth x -> x has one wrap-around jump of size period - dx
    saw = GridFunction.from_callable(g, lambda X: X[..., 0])
    assert lipschitz_seminorm(saw) == pytest.approx((1.0 - g.dx) / g.dx)
    g64 = SpaceTimeGrid.build(dim=1, period=2 * np.pi, n_x=64, T=1.0, dt=0.5)
    phi = GridFunction.from_callable(g64, lambda X: np.sin(X[..., 0]))
    lip = lipschitz_seminorm(phi)
    assert 0.9 <= lip <= 1.0 + 1e-12


def test_lipschitz_seminorm_rejects_plain_arrays():
    with pytest.raises(TypeError):
        lipschitz_seminorm(np.zeros(8))


def test_lipschitz_seminorm_2d_direction_max():
    g = SpaceTimeGrid.build(dim=2, period=1.0, n_x=8, T=1.0, dt=0.5)
    # varies along axis 0 only; the axis-1 differences are zero
    phi = GridFunction.from_callable(g, lambda X: np.sin(2 * np.pi * X[..., 0]))
    expected = GridFunction.from_callable(
        SpaceTimeGrid.build(dim=1, period=1.0, n_x=8, T=1.0, dt=0.5),
        lambda X: np.sin(2 * np.pi * X[..., 0]),
    )
    assert lipschitz_seminorm(phi) == pytest.approx(lipschitz_seminorm(expected))


def test_to_csv_layout_and_determinism(tmp_path):
    g = SpaceTimeGrid.build(dim=2, period=1.0, n_x=4, T=1.0, dt=0.5)
    rng = np.random.default_rng(3)
    phi = GridFunction(g, rng.standard_normal(g.shape))
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    phi.to_csv(p1)
    phi.to_csv(p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "x_1,x_2,value"
    assert len(lines) == 1 + 16
    # repr round-trips every float exactly
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == phi.values[0, 0]
