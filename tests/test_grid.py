"""Grid construction, norms, and CSV output."""

import math
import re
import sys

import numpy as np
import pytest

from hjbfd import GridFunction, SpaceTimeGrid, sup_norm, write_csv
from hjbfd.errors import ConfigError
from hjbfd.grid import Cells


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


@pytest.mark.parametrize("period, dt, reason", [
    (1e-300, 0.5, "dx^2 = 0.0, not a positive normal float"),       # underflows to 0
    (1e-160, 1e-300, "dx^2 = 1.6e-322, not a positive normal float"),  # subnormal
    (1e300, 0.5, "dx^2 = inf, not a positive normal float"),
    (1.0, 1e-320, "time step 1e-320 is too small for horizon 1.0"),  # T/dt is inf
    (1.0, 1e-300, "time step 1e-300 is too small for horizon 1.0: more than"),  # finite
])
def test_build_rejects_a_grid_no_stencil_can_divide_by(period, dt, reason):
    with pytest.raises(ConfigError, match=re.escape(reason)):
        SpaceTimeGrid.build(dim=1, period=period, n_x=8, T=1.0, dt=dt)


def test_build_counts_levels_up_to_sys_maxsize():
    # building a grid allocates nothing per level, so the bound can be probed
    assert SpaceTimeGrid.build(dim=1, period=1.0, n_x=8, T=1.0, dt=2.0 ** -62).n_t == 2 ** 62
    with pytest.raises(ConfigError, match=f"more than {sys.maxsize} levels"):
        SpaceTimeGrid.build(dim=1, period=1.0, n_x=8, T=1.0, dt=2.0 ** -63)


def test_direct_constructor_works_out_dx_and_dt():
    g = SpaceTimeGrid(dim=1, period=1.0, n_x=8, n_t=10, T=1.0)
    assert (g.dx, g.dt) == (1.0 / 8, 1.0 / 10)
    assert g == SpaceTimeGrid.build(dim=1, period=1.0, n_x=8, T=1.0, dt=0.1)
    with pytest.raises(ConfigError, match="period and T must be positive"):
        SpaceTimeGrid(dim=1, period=1.0, n_x=8, n_t=10, T=0.0)


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


def test_sup_norm_values():
    g = SpaceTimeGrid.build(dim=1, period=1.0, n_x=8, T=1.0, dt=0.5)
    assert sup_norm(GridFunction(g, np.full(8, 3.0))) == 3.0
    assert sup_norm(np.array([-5.0, 2.0])) == 5.0
    g64 = SpaceTimeGrid.build(dim=1, period=2 * np.pi, n_x=64, T=1.0, dt=0.5)
    phi = GridFunction(g64, np.sin(g64.nodes()[..., 0]))
    # node 16 sits exactly at pi/2 so the max is hit on the grid
    assert sup_norm(phi) == pytest.approx(1.0, abs=1e-15)


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


def reference_rows(block):
    """The rows of a block, built cell by cell: a str column repeats its one
    cell, a str cell is kept, anything else is repr(float(x))."""
    n = len(next(col for col in block if not isinstance(col, str)))
    rows = []
    for i in range(n):
        cells = []
        for col in block:
            x = col if isinstance(col, str) else col[i]
            cells.append(x if isinstance(x, str) else repr(float(x)))
        rows.append(",".join(cells) + "\n")
    return rows


def test_write_csv_matches_a_cell_by_cell_reference(tmp_path):
    edge = [-0.0, 5e-324, 1e16, 1e-05, float("nan"), np.float64(0.1), 3, "", "pass"]
    blocks = [
        ("0.5", edge, np.arange(len(edge), dtype=float)),   # repeated string column
        ("0.5", edge[::-1], [str(i) for i in range(len(edge))]),
        ([f'"{i} 0"' for i in range(3)], [1.5, -2.0, 1e-300], np.array([7.0, 8.0, 9.0])),
        ("label", [], []),                                   # a block of no rows
        (Cells(["-0.0", "1e-05", '"1 0"']), [1.0, 2.0, 3.0], "cells"),  # written as they are
        # numpy columns are formatted as a whole: an int array, and a float
        # array of the cells whose repr is easiest to get wrong
        ("arrays", np.arange(-2, 4),
         np.array([-0.0, 5e-324, 1e16, 1e-05, float("nan"), float("inf")])),
    ]
    path = tmp_path / "blocks.csv"
    write_csv(path, ["a", "b", "c"], iter(blocks))
    text = path.read_text()
    assert text == "a,b,c\n" + "".join(row for block in blocks for row in reference_rows(block))
    assert text.splitlines()[1:6] == ["0.5,-0.0,0.0", "0.5,5e-324,1.0", "0.5,1e+16,2.0",
                                      "0.5,1e-05,3.0", "0.5,nan,4.0"]
    assert text.splitlines()[-6:] == ["arrays,-2.0,-0.0", "arrays,-1.0,5e-324",
                                      "arrays,0.0,1e+16", "arrays,1.0,1e-05",
                                      "arrays,2.0,nan", "arrays,3.0,inf"]


def test_write_csv_rejects_a_block_without_rows_to_share(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="one length"):
        write_csv(path, ["a"], [("only strings",)])
    with pytest.raises(ValueError, match=r"lengths \[1, 2\]"):
        write_csv(path, ["a", "b"], [([1.0], [1.0, 2.0])])
