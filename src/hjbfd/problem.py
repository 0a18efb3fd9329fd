"""Problem definitions for parabolic Bellman equations on the torus.

A problem is

    u_t + sup_alpha { -tr[a^alpha(t,x) D^2 u] - b^alpha(t,x).Du
                      - c^alpha(t,x) u - f^alpha(t,x) } = 0
    u(0,x) = u0(x),   x in [0, period)^dim,  t in (0, T],

with a^alpha = (1/2) sigma^alpha (sigma^alpha)^T derived from sigma and
never stored independently.  Each control's coefficients are stored as
data: a constant as its value, one of x alone as a `SpaceOnly`, anything
else as a vectorized (t, X) evaluator, so `CoefficientField.varies_in_t`
reads t-dependence off the values.  The evaluators of `CoefficientField`
take a trailing point block X of shape (*S, dim) and return

    sigma -> (*S, dim, p)    b -> (*S, dim)    c, f -> (*S,)
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

__all__ = [
    "CoefficientField",
    "SpaceOnly",
    "sum_sources",
    "HJBProblem",
    "SmoothFunction",
    "ManufacturedProblem",
    "make_problem",
    "manufacture",
    "decaying_wave",
]

class SpaceOnly:
    """Any coefficient g(X) that does not depend on t, as a (t, X) evaluator:
    for X of shape (*S, dim), g returns sigma (*S, dim, p), b (*S, dim), or
    c or f (*S,).  `varies_in_t` counts it as time-independent, so a scheme
    evaluates it once per grid instead of once per step."""

    def __init__(self, g):
        self.g = g

    def __call__(self, t, X):
        return self.g(X)


def sum_sources(f1, f2):
    """The sum f1 + f2 of two stored sources (each a constant or a (t, X)
    evaluator): a float when both are constants, a SpaceOnly when neither
    depends on t, else a (t, X) evaluator.  A splitting's combined control
    and the comparison check's shifted data both add sources this way."""
    if not callable(f1) and not callable(f2):
        return float(f1) + float(f2)

    def f(t, X):
        out = 0.0
        for piece in (f1, f2):
            if callable(piece):
                out = out + np.asarray(piece(t, X), dtype=float)
            else:
                out = out + float(piece)
        return out

    if all(isinstance(p, SpaceOnly) or not callable(p) for p in (f1, f2)):
        return SpaceOnly(lambda X: f(0.0, X))
    return f


def _at(value, t, X):
    """A stored coefficient at the points X (*S, dim): a callable is called
    with (t, X), a constant is repeated over S into a fresh array."""
    if callable(value):
        return value(t, X)
    return np.broadcast_to(value, np.shape(X)[:-1] + np.shape(value)).copy()


@dataclass(frozen=True)
class _ControlCoeffs:
    """One control's data.  A callable is a (t, X) evaluator; anything else
    is a constant: sigma a (dim, p) array, b a (dim,) array, c and f floats."""

    sigma: object
    b: object
    c: object
    f: object


class CoefficientField:
    """Per-control coefficients (sigma, b, c, f), evaluated vectorized."""

    def __init__(self, entries: list):
        if not entries:
            raise ConfigError("coefficient field needs at least one control entry")
        self._entries = entries

    @classmethod
    def from_specs(cls, specs: list, dim: int) -> "CoefficientField":
        """Entries from dicts {sigma, b, c, f}; each value is a callable(t, X)
        or a constant: sigma a scalar s (s I), a length-dim diagonal or a
        (dim, p) matrix, b a scalar (repeated) or a length-dim vector, c and
        f numbers.  A missing value is 0."""
        entries = []
        for i, spec in enumerate(specs):
            sigma, b, c, f = (spec.get(k, 0.0) for k in ("sigma", "b", "c", "f"))
            if not callable(sigma):
                sigma = np.asarray(sigma, dtype=float)
                if sigma.ndim == 0:
                    sigma = float(sigma) * np.eye(dim)
                elif sigma.shape == (dim,):
                    sigma = np.diag(sigma)
                if sigma.ndim != 2 or sigma.shape[0] != dim:
                    raise ConfigError(f"control {i} sigma: expected a scalar, a length-{dim} "
                                      f"diagonal or a matrix with {dim} rows, "
                                      f"got shape {sigma.shape}")
            if not callable(b):
                b = np.asarray(b, dtype=float)
                if b.ndim == 0:
                    b = np.full(dim, float(b))
                if b.shape != (dim,):
                    raise ConfigError(f"control {i} b: expected scalar or length-{dim} vector, "
                                      f"got shape {b.shape}")
            c, f = (v if callable(v) else float(v) for v in (c, f))
            entries.append(_ControlCoeffs(sigma, b, c, f))
        return cls(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, i: int) -> _ControlCoeffs:
        return self._entries[i]

    def sigma(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        return np.asarray(_at(self._entries[i].sigma, t, X), dtype=float)

    def b(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        return np.asarray(_at(self._entries[i].b, t, X), dtype=float)

    def c(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        return np.asarray(_at(self._entries[i].c, t, X), dtype=float)

    def f(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        return np.asarray(_at(self._entries[i].f, t, X), dtype=float)

    def ssq(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        """sigma sigma^T, shape (*S, dim, dim)."""
        s = self.sigma(i, t, X)
        return s @ np.swapaxes(s, -1, -2)

    def a(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        """Diffusion matrix a = (1/2) sigma sigma^T."""
        return 0.5 * self.ssq(i, t, X)

    def varies_in_t(self, *names) -> bool:
        """True when some control's coefficient among `names` ("sigma", "b",
        "c", "f"; all four when none is named) is a callable other than a
        SpaceOnly: the one rule for what a scheme rebuilds per time level."""
        values = (getattr(e, n) for e in self._entries for n in names or ("sigma", "b", "c", "f"))
        return any(callable(v) and not isinstance(v, SpaceOnly) for v in values)

    def restrict(self, indices) -> "CoefficientField":
        return CoefficientField([self._entries[i] for i in indices])


@dataclass
class HJBProblem:
    """Problem data: coefficients (one entry per control), initial data,
    horizon, period."""

    dim: int
    coeffs: CoefficientField
    u0: object
    T: float
    period: float
    label: str = "problem"

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigError("problem: dim must be >= 1")
        if not (self.T > 0.0):
            raise ConfigError("problem: horizon T must be positive")
        if not (self.period > 0.0):
            raise ConfigError("problem: period must be positive")
        self._check_periodicity()

    def _check_periodicity(self):
        rng = np.random.default_rng(12345)
        X = rng.uniform(0.0, self.period, size=(6, self.dim))
        for name, fn in [("u0", lambda t, Y: self.u0_values(Y))] + [
            (f"f[{i}]", lambda t, Y, _i=i: self.coeffs.f(_i, t, Y)) for i in range(len(self.coeffs))
        ]:
            v0 = np.asarray(fn(0.0, X), dtype=float)
            scale = 1.0 + float(np.max(np.abs(v0)))
            for axis in range(self.dim):
                shift = np.zeros(self.dim)
                shift[axis] = self.period
                v1 = np.asarray(fn(0.0, X + shift), dtype=float)
                if np.max(np.abs(v0 - v1)) > 1e-6 * scale:
                    raise ConfigError(f"problem: {name} is not {self.period}-periodic "
                                      f"in x_{axis + 1}")

    def u0_values(self, X: np.ndarray) -> np.ndarray:
        if callable(self.u0):
            return np.broadcast_to(np.asarray(self.u0(X), dtype=float), np.shape(X)[:-1]).copy()
        return np.full(np.shape(X)[:-1], float(self.u0))

    def restrict(self, indices, label: str | None = None) -> "HJBProblem":
        """Sub-problem over a subset of controls (shared coefficients),
        labelled `label|a2,a0` by default."""
        indices = list(indices)
        return dataclasses.replace(
            self, coeffs=self.coeffs.restrict(indices),
            label=label or f"{self.label}|{','.join(f'a{i}' for i in indices)}")


def make_problem(dim, period, T, controls, u0, label="problem") -> HJBProblem:
    """Assemble an HJBProblem from per-control dicts {sigma, b, c, f}."""
    return HJBProblem(dim=dim, coeffs=CoefficientField.from_specs(controls, dim),
                      u0=u0, T=T, period=period, label=label)


@dataclass
class SmoothFunction:
    """A smooth space-time function with analytic derivatives.

    value(t, X) -> (*S,);  dt(t, X) -> (*S,);  grad(t, X) -> (*S, dim);
    hess(t, X) -> (*S, dim, dim).
    """

    value: object
    dt: object
    grad: object
    hess: object


def decaying_wave(dim: int, period: float, modes, rate: float,
                  amplitude: float = 1.0, phase: float = 0.0) -> SmoothFunction:
    """amplitude * exp(-rate*t) * sin(k.x + phase) with k_i = 2 pi modes_i / period."""
    m = np.asarray(modes, dtype=float)
    if m.shape != (dim,):
        raise ConfigError(f"decaying_wave: modes must have length {dim}")
    k = 2.0 * math.pi * m / period

    def value(t, X):
        return amplitude * math.exp(-rate * t) * np.sin(np.asarray(X) @ k + phase)

    def dt(t, X):
        return -rate * value(t, X)

    def grad(t, X):
        co = amplitude * math.exp(-rate * t) * np.cos(np.asarray(X) @ k + phase)
        return co[..., None] * k

    def hess(t, X):
        return -value(t, X)[..., None, None] * np.outer(k, k)

    return SmoothFunction(value=value, dt=dt, grad=grad, hess=hess)


@dataclass
class ManufacturedProblem:
    """A problem with known exact solution.

    Sources are constructed as f^alpha = -tr[a^alpha D^2 u*] - b^alpha.Du*
    - c^alpha u* + u*_t + g^alpha with slacks g^alpha >= 0 and at least
    one g identically zero, so u* solves the equation exactly.
    """

    problem: HJBProblem
    exact: SmoothFunction

    def exact_values(self, t: float, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.exact.value(t, X), dtype=float)


def manufacture(dim, period, T, controls, exact: SmoothFunction,
                label: str = "manufactured") -> ManufacturedProblem:
    """Build a ManufacturedProblem.

    `controls` entries are dicts {sigma, b, c, g}; g is the slack (scalar,
    callable, or omitted for zero).  At least one entry must omit g (or
    pass 0) so the sup is attained and u* is the exact solution.
    """
    if not any(spec.get("g") in (None, 0, 0.0) for spec in controls):
        raise ConfigError("manufacture: at least one control needs slack g identically zero")

    base = CoefficientField.from_specs(
        [{k: spec.get(k, 0.0) for k in ("sigma", "b", "c")} for spec in controls], dim
    )

    def build_f(i, g_spec):
        g = g_spec if callable(g_spec) else float(0.0 if g_spec is None else g_spec)

        def f(t, X, _i=i, _g=g):
            Xa = np.asarray(X, dtype=float)
            a = base.a(_i, t, Xa)
            b = base.b(_i, t, Xa)
            c = base.c(_i, t, Xa)
            r = np.asarray(exact.value(t, Xa), dtype=float)
            p = np.asarray(exact.grad(t, Xa), dtype=float)
            H = np.asarray(exact.hess(t, Xa), dtype=float)
            ut = np.broadcast_to(np.asarray(exact.dt(t, Xa), dtype=float), r.shape)
            lin = -np.einsum("...ij,...ji->...", a, H) - np.einsum("...i,...i->...", b, p) - c * r
            return lin + ut + _at(_g, t, Xa)

        return f

    specs = []
    for i, spec in enumerate(controls):
        entry = {k: spec.get(k, 0.0) for k in ("sigma", "b", "c")}
        entry["f"] = build_f(i, spec.get("g"))
        specs.append(entry)

    problem = make_problem(dim, period, T, specs,
                           u0=lambda X: exact.value(0.0, X), label=label)
    return ManufacturedProblem(problem=problem, exact=exact)
