"""Problem definitions for parabolic Bellman equations on the torus.

A problem is

    u_t + sup_alpha { -tr[a^alpha(t,x) D^2 u] - b^alpha(t,x).Du
                      - c^alpha(t,x) u - f^alpha(t,x) } = 0
    u(0,x) = u0(x),   x in [0, period)^dim,  t in (0, T],

with a^alpha = (1/2) sigma^alpha (sigma^alpha)^T derived from sigma and
never stored independently.  Coefficients are pure evaluators; constants
are wrapped into vectorized callables at construction.  All evaluators
are vectorized over a trailing point block: X has shape (*S, dim) and the
pieces return

    sigma -> (*S, dim, p)    b -> (*S, dim)    c, f -> (*S,)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

__all__ = [
    "ControlSet",
    "CoefficientField",
    "SpaceOnly",
    "HJBProblem",
    "SmoothFunction",
    "ManufacturedProblem",
    "make_problem",
    "evaluate_L",
    "evaluate_F",
    "manufacture",
    "decaying_wave",
]

RESIDUAL_POINTS = 1000  # sample points of ManufacturedProblem.residual_check


@dataclass(frozen=True)
class ControlSet:
    """Finite control grid: an ordered tuple of labels."""

    labels: tuple

    def __post_init__(self):
        if len(self.labels) < 1:
            raise ConfigError("control set must contain at least one control")

    @property
    def count(self) -> int:
        return len(self.labels)

    @classmethod
    def of_size(cls, n: int) -> "ControlSet":
        return cls(tuple(f"a{i}" for i in range(n)))


class SpaceOnly:
    """A scalar field g(X) that does not depend on t, as a (t, X) evaluator.

    CoefficientField counts it as time-independent, so a scheme evaluates
    it once per grid instead of once per step."""

    def __init__(self, g):
        self.g = g

    def __call__(self, t, X):
        return self.g(X)


def _as_scalar_field(val, what: str):
    """Normalize a scalar or callable(t, X)->(*S,) field; returns (fn, is_const)."""
    if callable(val):
        return val, False
    v = float(val)

    def fn(t, X, _v=v):
        return np.full(np.shape(X)[:-1], _v)

    return fn, True


def _as_vector_field(val, dim: int, what: str):
    """Normalize drift input: scalar (replicated), length-dim vector, or callable."""
    if callable(val):
        return val, False
    arr = np.asarray(val, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ConfigError(f"{what}: expected scalar or length-{dim} vector, got shape {arr.shape}")

    def fn(t, X, _a=arr):
        return np.broadcast_to(_a, np.shape(X)[:-1] + (dim,)).copy()

    return fn, True


def _as_matrix_field(val, dim: int, what: str):
    """Normalize sigma input: scalar s -> s*I, vector -> diag, matrix (dim,p), or callable."""
    if callable(val):
        return val, False
    arr = np.asarray(val, dtype=float)
    if arr.ndim == 0:
        arr = float(arr) * np.eye(dim)
    elif arr.ndim == 1:
        if arr.shape != (dim,):
            raise ConfigError(f"{what}: diagonal must have length {dim}, got {arr.shape}")
        arr = np.diag(arr)
    elif arr.ndim == 2:
        if arr.shape[0] != dim:
            raise ConfigError(f"{what}: expected {dim} rows, got shape {arr.shape}")
    else:
        raise ConfigError(f"{what}: expected scalar, vector, or matrix, got ndim {arr.ndim}")

    def fn(t, X, _a=arr):
        return np.broadcast_to(_a, np.shape(X)[:-1] + _a.shape).copy()

    return fn, True


@dataclass
class _ControlCoeffs:
    sigma: object
    b: object
    c: object
    f: object
    sigma_const: bool
    b_const: bool
    c_const: bool
    f_static: bool  # f constant or SpaceOnly


class CoefficientField:
    """Per-control coefficient evaluators (sigma, b, c, f), all vectorized."""

    def __init__(self, entries: list):
        if not entries:
            raise ConfigError("coefficient field needs at least one control entry")
        self._entries = entries

    @classmethod
    def from_specs(cls, specs: list, dim: int) -> "CoefficientField":
        entries = []
        for i, spec in enumerate(specs):
            sig, sig_c = _as_matrix_field(spec.get("sigma", 0.0), dim, f"control {i} sigma")
            b, b_c = _as_vector_field(spec.get("b", 0.0), dim, f"control {i} b")
            c, c_c = _as_scalar_field(spec.get("c", 0.0), f"control {i} c")
            f, f_c = _as_scalar_field(spec.get("f", 0.0), f"control {i} f")
            entries.append(_ControlCoeffs(sig, b, c, f, sig_c, b_c, c_c,
                                          f_c or isinstance(f, SpaceOnly)))
        return cls(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def sigma(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        return np.asarray(self._entries[i].sigma(t, X), dtype=float)

    def b(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        return np.asarray(self._entries[i].b(t, X), dtype=float)

    def c(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        return np.asarray(self._entries[i].c(t, X), dtype=float)

    def f(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        return np.asarray(self._entries[i].f(t, X), dtype=float)

    def ssq(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        """sigma sigma^T, shape (*S, dim, dim)."""
        s = self.sigma(i, t, X)
        return s @ np.swapaxes(s, -1, -2)

    def a(self, i: int, t: float, X: np.ndarray) -> np.ndarray:
        """Diffusion matrix a = (1/2) sigma sigma^T."""
        return 0.5 * self.ssq(i, t, X)

    def stencil_static(self, i: int) -> bool:
        """True when sigma, b and c are constants (stencil reusable across times)."""
        e = self._entries[i]
        return e.sigma_const and e.b_const and e.c_const

    def fully_static(self, i: int) -> bool:
        """True when no coefficient depends on t (f may still vary in space)."""
        return self.stencil_static(i) and self._entries[i].f_static

    def restrict(self, indices) -> "CoefficientField":
        return CoefficientField([self._entries[i] for i in indices])


@dataclass
class HJBProblem:
    """Problem data: control set, coefficients, initial data, horizon, period."""

    dim: int
    controls: ControlSet
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
        if self.controls.count != len(self.coeffs):
            raise ConfigError(
                f"problem: {self.controls.count} control labels but "
                f"{len(self.coeffs)} coefficient entries"
            )
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
        """Sub-problem over a subset of controls (shared evaluators)."""
        indices = list(indices)
        labels = tuple(self.controls.labels[i] for i in indices)
        return HJBProblem(
            dim=self.dim,
            controls=ControlSet(labels),
            coeffs=self.coeffs.restrict(indices),
            u0=self.u0,
            T=self.T,
            period=self.period,
            label=label or f"{self.label}|{','.join(labels)}",
        )


def make_problem(dim, period, T, controls, u0, label="problem") -> HJBProblem:
    """Assemble an HJBProblem from per-control dicts {sigma, b, c, f};
    the controls are labelled a0, a1, ..."""
    coeffs = CoefficientField.from_specs(controls, dim)
    return HJBProblem(dim=dim, controls=ControlSet.of_size(len(controls)), coeffs=coeffs,
                      u0=u0, T=T, period=period, label=label)


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
            for i in range(problem.controls.count)]
    return float(max(vals))


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

    def residual_check(self) -> float:
        """Max |u*_t + F(t,x,u*,Du*,D^2u*)| over RESIDUAL_POINTS random
        sample points, drawn with seed 0."""
        rng = np.random.default_rng(0)
        pr = self.problem
        worst = 0.0
        t_samples = rng.uniform(0.0, pr.T, size=RESIDUAL_POINTS)
        X = rng.uniform(0.0, pr.period, size=(RESIDUAL_POINTS, pr.dim))
        for t, x in zip(t_samples, X):
            Xp = x.reshape(1, pr.dim)
            r = float(self.exact.value(t, Xp)[0])
            p = np.asarray(self.exact.grad(t, Xp))[0]
            H = np.asarray(self.exact.hess(t, Xp))[0]
            ut = float(np.asarray(self.exact.dt(t, Xp)).reshape(-1)[0])
            worst = max(worst, abs(ut + evaluate_F(pr, t, x, r, p, H)))
        return worst


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
        g_fn, _ = _as_scalar_field(0.0 if g_spec is None else g_spec, f"control {i} g")

        def f(t, X, _i=i, _g=g_fn):
            Xa = np.asarray(X, dtype=float)
            a = base.a(_i, t, Xa)
            b = base.b(_i, t, Xa)
            c = base.c(_i, t, Xa)
            r = np.asarray(exact.value(t, Xa), dtype=float)
            p = np.asarray(exact.grad(t, Xa), dtype=float)
            H = np.asarray(exact.hess(t, Xa), dtype=float)
            ut = np.broadcast_to(np.asarray(exact.dt(t, Xa), dtype=float), r.shape)
            lin = -np.einsum("...ij,...ji->...", a, H) - np.einsum("...i,...i->...", b, p) - c * r
            return lin + ut + _g(t, Xa)

        return f

    specs = []
    for i, spec in enumerate(controls):
        entry = {k: spec.get(k, 0.0) for k in ("sigma", "b", "c")}
        entry["f"] = build_f(i, spec.get("g"))
        specs.append(entry)

    problem = make_problem(dim, period, T, specs,
                           u0=lambda X: exact.value(0.0, X), label=label)
    return ManufacturedProblem(problem=problem, exact=exact)
