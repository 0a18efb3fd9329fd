"""Uniform space-time grids on the periodic box [0, L)^N.

Space is discretized with the same spacing dx in every dimension and
indices wrap modulo n_x, so no boundary rows exist anywhere in the
package.  Time levels are t_n = n*dt with n_t*dt = T exact; because a
target step rarely divides the horizon, grids are normally built with
`SpaceTimeGrid.build`, which rounds the step down via n_t = ceil(T/dt).

This module also owns the package's CSV format (`write_csv`): numbers are
written with repr, strings as given, no timestamps or environment data, so
identical runs give byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "SpaceTimeGrid",
    "GridFunction",
    "sup_norm",
    "lipschitz_seminorm",
    "write_csv",
]


@dataclass(frozen=True)
class SpaceTimeGrid:
    """Uniform periodic grid: nodes x_j = j*dx (j in Z^dim mod n_x), t_n = n*dt."""

    dim: int
    period: float
    n_x: int
    dx: float
    n_t: int
    dt: float
    T: float

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError(f"grid: dim must be >= 1, got {self.dim}")
        if self.n_x < 3:
            raise ConfigError(f"grid: n_x must be >= 3, got {self.n_x}")
        if self.n_t < 1:
            raise ConfigError(f"grid: n_t must be >= 1, got {self.n_t}")
        if not (self.dx > 0.0 and self.dt > 0.0 and self.period > 0.0 and self.T > 0.0):
            raise ConfigError("grid: dx, dt, period and T must all be positive")
        if abs(self.n_x * self.dx - self.period) > 1e-12 * self.period:
            raise ConfigError(
                f"grid: n_x*dx = {self.n_x * self.dx!r} does not match period {self.period!r}"
            )
        if abs(self.n_t * self.dt - self.T) > 1e-12 * self.T:
            raise ConfigError(
                f"grid: n_t*dt = {self.n_t * self.dt!r} does not match horizon {self.T!r}"
            )

    @classmethod
    def build(cls, dim: int, period: float, n_x: int, T: float, dt: float) -> "SpaceTimeGrid":
        """Build a grid from a target time step.

        The actual step is T/ceil(T/dt) <= dt, so the horizon is hit
        exactly and the step never exceeds the requested one (the latter
        keeps CFL margins valid).
        """
        if dt <= 0.0 or T <= 0.0:
            raise ConfigError("grid: dt and T must be positive")
        n_t = max(1, math.ceil(T / dt - 1e-12))
        return cls(dim=dim, period=period, n_x=n_x, dx=period / n_x,
                   n_t=n_t, dt=T / n_t, T=T)

    @property
    def shape(self) -> tuple:
        return (self.n_x,) * self.dim

    @property
    def n_nodes(self) -> int:
        return self.n_x ** self.dim

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape (*shape, dim)."""
        axes = [np.arange(self.n_x) * self.dx for _ in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def times(self) -> np.ndarray:
        return np.arange(self.n_t + 1) * self.dt

    def h(self) -> float:
        """Combined refinement parameter sqrt(dx^2 + dt)."""
        return math.sqrt(self.dx ** 2 + self.dt)


@dataclass
class GridFunction:
    """One time slice of grid values, shape grid.shape."""

    grid: SpaceTimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ConfigError(
                f"grid function shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            bad = np.argwhere(~np.isfinite(self.values))[0]
            raise ConfigError(f"grid function has a non-finite value at node {tuple(bad)}")

    @classmethod
    def from_callable(cls, grid: SpaceTimeGrid, fn) -> "GridFunction":
        vals = np.asarray(fn(grid.nodes()), dtype=float)
        return cls(grid, np.broadcast_to(vals, grid.shape).copy())

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def to_csv(self, path) -> None:
        """Write node rows as x_1,...,x_N,value (deterministic formatting)."""
        g = self.grid
        X = g.nodes().reshape(-1, g.dim).tolist()
        V = self.values.reshape(-1).tolist()
        write_csv(path, [f"x_{i + 1}" for i in range(g.dim)] + ["value"],
                  ((*row, v) for row, v in zip(X, V)))


def write_csv(path, header, rows) -> None:
    """Write one CSV file: the header names, then one line per row.

    This is the only place the package opens a CSV file.  String cells are
    written as given; every other cell is converted to float and written
    with repr, so a value reads back exactly.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join([c if isinstance(c, str) else repr(float(c)) for c in row])
                      + "\n" for row in rows)


def sup_norm(phi) -> float:
    """Max of |values| over the grid."""
    vals = phi.values if isinstance(phi, GridFunction) else np.asarray(phi)
    return float(np.max(np.abs(vals)))


def lipschitz_seminorm(phi) -> float:
    """Max over grid edges of |phi(x + e_i dx) - phi(x)| / dx, wrapping periodically.

    For a GridFunction the spacing comes from its grid; raw arrays are not
    accepted since the spacing would be ambiguous.
    """
    if not isinstance(phi, GridFunction):
        raise TypeError("lipschitz_seminorm needs a GridFunction (dx is taken from its grid)")
    vals = phi.values
    best = 0.0
    for axis in range(phi.grid.dim):
        diff = np.abs(np.roll(vals, -1, axis=axis) - vals)
        best = max(best, float(np.max(diff)))
    return best / phi.grid.dx
