"""Uniform space-time grids on the periodic box [0, L)^N.

Space is discretized with the same spacing dx in every dimension and
indices wrap modulo n_x, so no boundary rows exist anywhere in the
package.  Time levels are t_n = n*dt with n_t*dt = T exact; because a
target step rarely divides the horizon, grids are normally built with
`SpaceTimeGrid.build`, which rounds the step down via n_t = ceil(T/dt).

This module also owns the package's CSV format (`write_csv`, `csv_cell`):
numbers are written with repr, strings as given, no timestamps or
environment data, so identical runs give byte-identical files.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import ConfigError

__all__ = [
    "SpaceTimeGrid",
    "GridFunction",
    "sup_norm",
    "first_non_finite",
    "csv_cell",
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
        keeps CFL margins valid).  A period whose dx^2 underflows or
        overflows, and a step too small to count to T, are rejected before
        any stencil divides by them.
        """
        dx = period / n_x
        if not (sys.float_info.min <= dx * dx < math.inf):
            raise ConfigError(f"grid: period {period!r} over n_x={n_x} gives dx^2 = "
                              f"{dx * dx!r}, not a positive normal float")
        if dt <= 0.0 or T <= 0.0:
            raise ConfigError("grid: dt and T must be positive")
        if not T / dt <= sys.maxsize:  # also catches an infinite T/dt
            raise ConfigError(f"grid: time step {dt!r} is too small for horizon {T!r}: "
                              f"more than {sys.maxsize} levels")
        n_t = max(1, math.ceil(T / dt - 1e-12))
        return cls(dim=dim, period=period, n_x=n_x, dx=dx, n_t=n_t, dt=T / n_t, T=T)

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


def first_non_finite(a: np.ndarray):
    """Index of the first nan or inf in `a`, as a tuple of ints, or None."""
    if np.isfinite(a).all():
        return None
    return tuple(int(k) for k in np.argwhere(~np.isfinite(a))[0])


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
        bad = first_non_finite(self.values)
        if bad is not None:
            raise ConfigError(f"grid function has a non-finite value at node {bad}")

    def to_csv(self, path) -> None:
        """Write node rows as x_1,...,x_N,value (deterministic formatting)."""
        g = self.grid
        write_csv(path, [f"x_{i + 1}" for i in range(g.dim)] + ["value"],
                  [(*g.nodes().reshape(-1, g.dim).T, self.values.reshape(-1))])


def csv_cell(x) -> str:
    """One cell as `write_csv` writes it: a str as given, anything else
    converted to float and written with repr, so a value reads back exactly."""
    return x if isinstance(x, str) else repr(float(x))


class Cells(tuple):
    """A column of cells already formatted (str, as `csv_cell` gives them),
    which `write_csv` writes as they are: a column repeated in every block
    is then formatted once."""


def _cells(col):
    """The cells of one sequence column: `Cells` as they are, a numpy array
    converted to float as a whole and each value through repr, else each
    entry through `csv_cell`."""
    if isinstance(col, Cells):
        return col
    if isinstance(col, np.ndarray):
        return list(map(repr, np.asarray(col, dtype=float).tolist()))
    return list(map(csv_cell, col))


def write_csv(path, header, blocks) -> None:
    """Write one CSV file: the header names, then the rows of each block.

    This is the only place the package opens a CSV file.  A block is a
    sequence of columns that share rows.  A str column is one cell,
    repeated on every row of the block; a `Cells` column is written as it
    is; a numpy array column is converted to float as a whole and each cell
    written with repr; any other column is a sequence of cells, each
    written as `csv_cell` writes it.  Both give a number the same cell.  A
    block needs at least one sequence column, and its sequence columns have
    equal lengths.  Blocks are written one at a time, so a generator of
    blocks streams; a caller that repeats a number or a column across
    blocks formats it once with `csv_cell` (a column as `Cells`).
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            cols = [c if isinstance(c, str) else _cells(c) for c in block]
            lengths = {len(c) for c in cols if not isinstance(c, str)}
            if len(lengths) != 1:
                raise ValueError(f"write_csv: a block needs sequence columns of one length, "
                                 f"got lengths {sorted(lengths)}")
            n = lengths.pop()
            if n:
                rows = zip(*(repeat(c, n) if isinstance(c, str) else c for c in cols))
                fh.write("\n".join(map(",".join, rows)) + "\n")


def sup_norm(phi) -> float:
    """Max of |values| over the grid."""
    vals = phi.values if isinstance(phi, GridFunction) else np.asarray(phi)
    return float(np.max(np.abs(vals)))
