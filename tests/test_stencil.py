"""Stencil weight tables, direction decompositions, consistency orders."""

import math
from pathlib import Path

import numpy as np
import pytest

from hjbfd import (
    SpaceTimeGrid,
    ThetaScheme,
    bz_decompose,
    bz_stencil,
    check_diag_dominant,
    consistency_residual,
    decaying_wave,
    kushner_stencil,
    make_problem,
)
from hjbfd.config import load_json, parse_problem
from hjbfd.errors import ConfigError
from hjbfd.problem import SmoothFunction
from hjbfd.stencil import BZDecomposition

RATES_2D = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "rates_2d_seed0.json"


def quadratic_along(direction, dim):
    """phi(x) = (d.x)^2 / 2 as a SmoothFunction (exact for second differences)."""
    d = np.asarray(direction, dtype=float)

    def value(t, X):
        return 0.5 * (np.asarray(X) @ d) ** 2

    def grad(t, X):
        return (np.asarray(X) @ d)[..., None] * d

    def hess(t, X):
        s = np.shape(np.asarray(X) @ d)
        return np.broadcast_to(np.outer(d, d), s + (dim, dim)).copy()

    return SmoothFunction(value=value, dt=lambda t, X: 0.0 * (np.asarray(X) @ d),
                          grad=grad, hess=hess)


def as_dict(rows):
    """Weight rows as {offset tuple: weight}, after checking their layout:
    an (n_o, dim) intp array in strict lexicographic order, one weight row
    per offset."""
    offsets, weights = rows
    assert offsets.dtype == np.intp and offsets.ndim == 2
    assert len(weights) == len(offsets)
    keys = [tuple(int(o) for o in off) for off in offsets]
    assert keys == sorted(set(keys))
    return dict(zip(keys, weights))


def test_kushner_1d_pure_diffusion():
    got = as_dict(kushner_stencil(np.array([[1.0]]), 0.0, 0.1))
    assert set(got) == {(1,), (-1,)}
    assert got[(1,)] == pytest.approx(50.0)
    assert got[(-1,)] == pytest.approx(50.0)


def test_kushner_2d_cross_term():
    a = np.array([[1.0, 0.5], [0.5, 1.0]])
    got = as_dict(kushner_stencil(a, 0.0, 0.1))
    # axis weights carry the single-axis correction 0.5/(4 dx^2) = 12.5
    for off in [(1, 0), (-1, 0), (0, 1), (0, -1)]:
        assert got[off] == pytest.approx(37.5)
    # positive cross term sits on the diagonal corners; the zero
    # anti-diagonal corners are dropped
    assert got[(1, 1)] == pytest.approx(25.0)
    assert got[(-1, -1)] == pytest.approx(25.0)
    assert (1, -1) not in got and (-1, 1) not in got


def test_kushner_pure_drift_upwinds():
    offsets, weights = kushner_stencil(np.zeros((2, 2)), np.array([1.0, -2.0]), 0.1)
    # zero rows are dropped and the rest come in lexicographic order
    np.testing.assert_array_equal(offsets, [[0, -1], [1, 0]])
    np.testing.assert_allclose(weights, [20.0, 10.0])


def test_kushner_per_node_weights():
    # leading axes of a and b become the node axes of the weights
    n = 8
    aa = np.zeros((n, 1, 1))
    aa[:, 0, 0] = np.linspace(0.5, 1.5, n)
    bb = np.zeros((n, 1))
    offsets, weights = kushner_stencil(aa, bb, 0.1)
    assert weights.shape == (2, n)
    w = as_dict((offsets, weights))[(1,)]
    assert w[0] == pytest.approx(25.0)
    assert w[-1] == pytest.approx(75.0)


def test_zero_rows_are_dropped_but_a_nan_row_stays():
    offsets, weights = kushner_stencil(np.zeros((1, 1)), 0.0, 0.1)
    assert offsets.shape == (0, 1) and weights.shape == (0,)
    offsets, weights = kushner_stencil(np.zeros((3, 1, 1)), np.array([[0.0], [np.nan], [0.0]]),
                                       0.1)
    np.testing.assert_array_equal(offsets, [[-1], [1]])
    assert np.isnan(weights[:, 1]).all() and (weights[:, [0, 2]] == 0.0).all()


def test_check_diag_dominant():
    assert check_diag_dominant(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert not check_diag_dominant(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert check_diag_dominant(np.eye(3))


def test_bz_decompose_identity():
    dec = bz_decompose(np.eye(2))
    got = dict(zip(dec.directions, dec.weights))
    assert got == {(1, 0): 1.0, (0, 1): 1.0}
    assert dec.residual_norm <= 1e-15


def test_bz_decompose_dominant_closed_form():
    dec = bz_decompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    got = dict(zip(dec.directions, dec.weights))
    assert got[(1, 0)] == pytest.approx(1.0)
    assert got[(0, 1)] == pytest.approx(1.0)
    assert got[(1, 1)] == pytest.approx(1.0)
    assert dec.residual_norm <= 1e-15


def test_bz_decompose_weakly_dominant_antidiagonal():
    dec = bz_decompose(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    got = dict(zip(dec.directions, dec.weights))
    assert got == {(1, -1): pytest.approx(1.0)}
    assert dec.residual_norm <= 1e-15


def test_bz_decompose_non_dominant_needs_order_two():
    a = np.array([[1.0, 1.2], [1.2, 2.0]])
    dec2 = bz_decompose(a, max_order=2)
    assert dec2.residual_norm <= 1e-12
    assert np.all(dec2.weights >= 0.0)
    np.testing.assert_allclose(dec2.reconstruction(), a, atol=1e-12)
    dec1 = bz_decompose(a, max_order=1)
    assert dec1.residual_norm > 1e-2


def test_bz_decompose_rejects_bad_matrices():
    with pytest.raises(ConfigError):
        bz_decompose(np.array([[1.0, 0.5], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(ConfigError):
        bz_decompose(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(ConfigError):
        bz_decompose(np.zeros((2, 3)))


def test_bz_decompose_rank_one_recovery():
    # beta beta^T must come back exactly, supported on directions parallel
    # to beta (a parallel integer multiple carries the same cone ray)
    for beta in [(1, 2), (2, -3), (3, 1), (1, 0, -2), (2, 2, 1)]:
        bv = np.array(beta, dtype=float)
        a = np.outer(bv, bv)
        dec = bz_decompose(a, max_order=3)
        assert dec.residual_norm <= 1e-12
        assert np.all(dec.weights >= 0.0)
        np.testing.assert_allclose(dec.reconstruction(), a, atol=1e-12)
        for d in dec.directions:
            dv = np.array(d, dtype=float)
            cross = np.outer(dv, bv) - np.outer(bv, dv)
            assert np.max(np.abs(cross)) <= 1e-9


def test_bz_decompose_random_dominant_property():
    rng = np.random.default_rng(5)
    for dim in (2, 3):
        for _ in range(200):
            off = rng.uniform(-1.0, 1.0, size=(dim, dim))
            m = (off + off.T) / 2
            np.fill_diagonal(m, 0.0)
            diag = np.abs(m).sum(axis=1) + rng.uniform(0.0, 2.0, size=dim)
            a = m + np.diag(diag)
            dec = bz_decompose(a)
            assert dec.residual_norm <= 1e-12
            assert np.all(dec.weights >= 0.0)


def test_bz_stencil_axis_weights():
    # C(+-beta) = w_beta/(2 dx^2): 1/(2 * 0.01) = 50
    dec = BZDecomposition(dim=2, directions=((1, 0), (0, 1)),
                          weights=np.array([1.0, 1.0]),
                          residual=np.zeros((2, 2)))
    got = as_dict(bz_stencil(dec, 0.0, 0.1))
    assert set(got) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    for off in got:
        assert got[off] == pytest.approx(50.0)


def test_bz_stencil_diagonal_direction_scaling():
    # |beta|^2 does not enter the weight: 2/(2 * 0.01) = 100 for |beta|^2 = 2 and 5
    dec = BZDecomposition(dim=2, directions=((1, 1), (1, -2)),
                          weights=np.array([2.0, 2.0]),
                          residual=np.zeros((2, 2)))
    got = as_dict(bz_stencil(dec, 0.0, 0.1))
    assert set(got) == {(1, 1), (-1, -1), (1, -2), (-1, 2)}
    for off in got:
        assert got[off] == pytest.approx(100.0)


def test_bz_stencil_drift_only():
    dec = BZDecomposition(dim=2, directions=(), weights=np.zeros(0),
                          residual=np.zeros((2, 2)))
    got = as_dict(bz_stencil(dec, np.array([1.0, 0.0]), 0.5))
    assert set(got) == {(1, 0)}
    assert got[(1, 0)] == pytest.approx(2.0)


def test_bz_stencil_drift_accumulates_onto_a_direction():
    # the drift's upwind weight lands on e_1, which the decomposition already
    # holds: C(e_1) = w/(2 dx^2) + b_1/dx, and a zero drift adds no row
    dx, w, b1 = 0.5, 0.75, 1.5
    dec = BZDecomposition(dim=2, directions=((1, 0),), weights=np.array([w]),
                          residual=np.zeros((2, 2)))
    got = as_dict(bz_stencil(dec, np.array([b1, 0.0]), dx))
    assert set(got) == {(1, 0), (-1, 0)}
    assert got[(1, 0)] == w / (2.0 * dx * dx) + b1 / dx
    assert got[(-1, 0)] == w / (2.0 * dx * dx)


def test_bz_stencil_rejects_residual():
    dec = BZDecomposition(dim=2, directions=((1, 0),), weights=np.array([1.0]),
                          residual=np.array([[0.0, 0.1], [0.1, 0.0]]))
    with pytest.raises(ConfigError):
        bz_stencil(dec, 0.0, 0.1)


def test_apply_stencil_constants_and_quadratics():
    # one explicit step of u_t = L_h u (no c, no f) gives L_h u = (step(u) - u)/dt
    g = SpaceTimeGrid.build(dim=1, period=1.6, n_x=16, T=0.0025, dt=0.0025)
    X = g.nodes()[..., 0]

    def apply_stencil(sigma, b, u):
        pr = make_problem(1, 1.6, g.T, [{"sigma": sigma, "b": b}], u0=0.0)
        step, _ = ThetaScheme(pr, g, theta=0.0).step(u, 0.0)
        return (step - u) / g.dt

    np.testing.assert_allclose(apply_stencil(1.0, 0.0, np.full(16, 2.0)), 0.0, atol=1e-14)
    # (1/2) d^2/dx^2 of x^2 is 1; second differences of a quadratic are exact
    assert apply_stencil(1.0, 0.0, X ** 2)[8] == pytest.approx(1.0, abs=1e-10)
    # upwind drift on phi(x) = x is exact away from the seam
    assert apply_stencil(0.0, 1.0, X)[8] == pytest.approx(1.0, abs=1e-12)


def test_consistency_residual_quadratic_is_exact():
    phi = quadratic_along([1.0], 1)
    rows = kushner_stencil(np.array([[1.0]]), 0.0, 0.1)
    # builder matrix is sigma sigma^T, so the exact operator uses a = 1
    assert consistency_residual(rows, np.array([[1.0]]), 0.0, phi, [0.3], 0.1) <= 1e-12


def test_consistency_residual_orders():
    phi = decaying_wave(1, 2 * np.pi, [1], rate=0.0)
    x = [0.7]
    # pure diffusion: residual O(dx^2), ratio ~ 4 under halving
    r_diff = [consistency_residual(kushner_stencil(np.array([[1.0]]), 0.0, dx),
                                   np.array([[1.0]]), 0.0, phi, x, dx)
              for dx in (0.1, 0.05)]
    assert r_diff[0] / r_diff[1] == pytest.approx(4.0, rel=0.1)
    # upwind drift: residual O(dx), ratio ~ 2
    r_drift = [consistency_residual(kushner_stencil(np.zeros((1, 1)), 1.0, dx),
                                    np.zeros((1, 1)), 1.0, phi, x, dx)
               for dx in (0.1, 0.05)]
    assert r_drift[0] / r_drift[1] == pytest.approx(2.0, rel=0.1)


def test_consistency_residual_bz_cross_term():
    # the decomposition stencil is consistency-exact for cross diffusion,
    # where the axis table is not
    m = np.array([[2.0, 1.0], [1.0, 2.0]])
    dec = bz_decompose(m)
    phi = quadratic_along([1.0, -2.0], 2)
    for dx in (0.2, 0.1):
        rows = bz_stencil(dec, 0.0, dx)
        assert consistency_residual(rows, m, 0.0, phi, [0.3, 0.4], dx) <= 1e-10
        axis = kushner_stencil(m, 0.0, dx)
        assert consistency_residual(axis, m, 0.0, phi, [0.3, 0.4], dx) > 0.1
    # and second order on a smooth wave
    wave = decaying_wave(2, 2 * np.pi, [1, 1], rate=0.0)
    res = [consistency_residual(bz_stencil(dec, 0.0, dx), m, 0.0, wave, [0.3, 0.4], dx)
           for dx in (0.1, 0.05, 0.025)]
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.1)
    assert res[1] / res[2] == pytest.approx(4.0, rel=0.1)


def test_consistency_residual_rejects_array_weights():
    aa = np.broadcast_to(np.eye(1), (4, 1, 1)).copy()
    rows = kushner_stencil(aa, np.zeros((4, 1)), 0.1)
    phi = decaying_wave(1, 2 * np.pi, [1], rate=0.0)
    with pytest.raises(ConfigError):
        consistency_residual(rows, np.eye(1), 0.0, phi, [0.1], 0.1)


# consistency_residual of control 0 of rates_2d_seed0 (drift included, phi =
# sin(x1 + x2 + 0.3) at (0.7, 1.9)) at dx = 0.2, 0.1, 0.05, 0.025, recorded
# when the builders returned an offset -> weight map summed in insertion
# order; the rows are summed in lexicographic order, which moves the last bits
RATES_2D_RESIDUALS = {
    "kushner": ["0x1.5fdb5ce7c1fd8p-5", "0x1.3bd5ee08f0458p-5",
                "0x1.241b3449faf18p-5", "0x1.16d1e8da9d018p-5"],
    "bz": ["0x1.6096975f73260p-7", "0x1.9bb94524288c0p-8",
           "0x1.b921dc7a2f980p-9", "0x1.c7c7a7024a300p-10"],
}


@pytest.mark.parametrize("builder", sorted(RATES_2D_RESIDUALS))
def test_consistency_residual_on_rates_2d_matches_the_recorded_values(builder):
    pr = parse_problem(load_json(RATES_2D))
    X = np.zeros((1, 2))
    a, b = pr.coeffs.ssq(0, 0.0, X)[0], pr.coeffs.b(0, 0.0, X)[0]
    phi = decaying_wave(2, 2 * np.pi, [1, 1], rate=0.0, phase=0.3)
    for dx, want in zip((0.2, 0.1, 0.05, 0.025), RATES_2D_RESIDUALS[builder]):
        rows = (kushner_stencil(a, b, dx) if builder == "kushner"
                else bz_stencil(bz_decompose(a), b, dx))
        got = consistency_residual(rows, a, b, phi, [0.7, 1.9], dx)
        assert got == pytest.approx(float.fromhex(want), rel=1e-11, abs=0.0)
