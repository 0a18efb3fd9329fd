"""JSON problem descriptions and named initial-data/source built-ins.

Problem document:

    {
      "dim": 1, "period": 6.283185307179586, "horizon": 1.0,
      "controls": [{"sigma": 1.0, "b": 0.0, "c": 0.0, "f": 0.0}, ...],
      "u0": {"name": "sin_sum", "params": {"amplitude": 1.0}},
      "label": "heat"
    }

sigma/b/c are numbers or (nested) lists; f and u0 are numbers or named
built-ins.  Built-ins (L = period):

    sin_sum:    amplitude * sum_i sin(2 pi k_i x_i / L + phase)
                params: amplitude=1.0, modes=[1,...], phase=0.0
    gauss_bump: amplitude * prod_i exp((cos(2 pi (x_i - c_i)/L) - 1)/width^2)
                params: amplitude=1.0, center=[0,...], width=0.5
    const:      params: value=0.0

Composite documents add keys on top of the problem fields: switching
adds "modes" (lists of control indices) and optional "k_list"; split
documents carry "family1"/"family2" instead of "controls"; mode
documents for the piecewise-constant scheme carry "modes" as coefficient
dicts; matrix documents carry "matrix" and optional "max_order".  Every
document kind accepts "label".  A key the document kind, a built-in or
its params do not define is rejected, so a misspelling never runs with a
default in its place.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import ConfigError
from .problem import HJBProblem, SpaceOnly, make_problem

__all__ = [
    "load_json",
    "space_function",
    "parse_problem",
    "parse_switching",
    "parse_split",
    "parse_pcc",
    "parse_matrix",
    "BUILTIN_NAMES",
]

_BUILTIN_PARAMS = {"sin_sum": ("amplitude", "modes", "phase"),
                   "gauss_bump": ("amplitude", "center", "width"),
                   "const": ("value",)}
BUILTIN_NAMES = tuple(_BUILTIN_PARAMS)
_PROBLEM_KEYS = ("dim", "period", "horizon", "u0", "label")


def _finite_number(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ConfigError(f"non-finite number {text}")
    return val


def load_json(path) -> dict:
    """Read one JSON object; NaN, Infinity and numbers that overflow to
    infinity are rejected."""
    if not os.path.exists(path):
        raise ConfigError(f"file not found: {path}")
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=_finite_number, parse_constant=_finite_number)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return doc


def _check_keys(doc: dict, allowed, what: str) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"{what}: unknown key(s) {', '.join(map(repr, unknown))} "
                          f"(allowed: {', '.join(allowed)})")


def _num(doc, key, what, required=True, default=None):
    if key not in doc:
        if required:
            raise ConfigError(f"{what}: missing required key {key!r}")
        return default
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{what}: {key!r} must be a number, got {type(v).__name__}")
    return v


def _mode_list(params, key, dim, default_value, what):
    raw = params.get(key, [default_value] * dim)
    arr = np.asarray(raw, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ConfigError(f"{what}: {key!r} must be a scalar or length-{dim} list")
    return arr


def space_function(spec, dim: int, period: float, what: str):
    """Resolve a number or {"name", "params"} built-in to a float or g(X)."""
    if isinstance(spec, bool):
        raise ConfigError(f"{what}: expected a number or built-in, got a boolean")
    if isinstance(spec, (int, float)):
        return float(spec)
    if not isinstance(spec, dict) or "name" not in spec:
        raise ConfigError(f"{what}: expected a number or {{'name':..., 'params':...}}")
    _check_keys(spec, ("name", "params"), what)
    name = spec["name"]
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{what}: params must be an object")
    if not isinstance(name, str) or name not in _BUILTIN_PARAMS:
        raise ConfigError(f"{what}: unknown built-in {name!r} "
                          f"(available: {', '.join(BUILTIN_NAMES)})")
    _check_keys(params, _BUILTIN_PARAMS[name], f"{what} {name} params")

    if name == "const":
        return float(_num(params, "value", what, required=False, default=0.0))

    if name == "sin_sum":
        amplitude = float(_num(params, "amplitude", what, required=False, default=1.0))
        phase = float(_num(params, "phase", what, required=False, default=0.0))
        modes = _mode_list(params, "modes", dim, 1.0, what)
        k = 2.0 * math.pi * modes / period

        def g(X, _k=k, _a=amplitude, _p=phase):
            return _a * np.sin(np.asarray(X, dtype=float) * _k + _p).sum(axis=-1)

        return g

    if name == "gauss_bump":
        amplitude = float(_num(params, "amplitude", what, required=False, default=1.0))
        width = float(_num(params, "width", what, required=False, default=0.5))
        if width <= 0.0:
            raise ConfigError(f"{what}: gauss_bump width must be positive")
        center = _mode_list(params, "center", dim, 0.0, what)
        w = 2.0 * math.pi / period

        def g(X, _c=center, _a=amplitude, _w=w, _s=width * width):
            arg = (np.cos((np.asarray(X, dtype=float) - _c) * _w) - 1.0) / _s
            return _a * np.exp(arg.sum(axis=-1))

        return g


def _coeff_entry(spec, dim: int, period: float, what: str) -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(f"{what}: each control must be an object with sigma/b/c/f")
    for key in spec:
        if key not in ("sigma", "b", "c", "f"):
            raise ConfigError(f"{what}: unknown coefficient key {key!r}")
    out = {}
    for key in ("sigma", "b", "c"):
        v = spec.get(key, 0.0)
        try:  # null reads as nan; strings and ragged lists do not convert
            arr = None if isinstance(v, (dict, str)) else np.asarray(v, dtype=float)
        except (TypeError, ValueError):
            arr = None
        if arr is None or not np.all(np.isfinite(arr)):
            raise ConfigError(f"{what}: {key} must be a finite number or list of numbers")
        if key == "c" and arr.ndim != 0:
            raise ConfigError(f"{what}: c must be a single number, got a list")
        out[key] = v
    f = space_function(spec.get("f", 0.0), dim, period, f"{what} f")
    out["f"] = SpaceOnly(f) if callable(f) else f
    return out


def _problem_fields(doc: dict, what: str, keys):
    """Shared fields of a problem-like document whose other keys are `keys`."""
    _check_keys(doc, _PROBLEM_KEYS + tuple(keys), what)
    dim = _num(doc, "dim", what)
    if dim != int(dim) or dim < 1:
        raise ConfigError(f"{what}: dim must be an integer >= 1, got {dim!r}")
    dim = int(dim)
    period = float(_num(doc, "period", what))
    horizon = float(_num(doc, "horizon", what))
    if period <= 0.0 or horizon <= 0.0:
        raise ConfigError(f"{what}: period and horizon must be positive")
    if "u0" not in doc:
        raise ConfigError(f"{what}: missing required key 'u0'")
    u0 = space_function(doc["u0"], dim, period, f"{what} u0")
    return dim, period, horizon, u0


def parse_problem(doc: dict, what: str = "problem", extra=()) -> HJBProblem:
    """Problem document; `extra` names the keys a composite document adds."""
    dim, period, horizon, u0 = _problem_fields(doc, what, ("controls",) + tuple(extra))
    controls = doc.get("controls")
    if not isinstance(controls, list) or not controls:
        raise ConfigError(f"{what}: 'controls' must be a nonempty list")
    specs = [_coeff_entry(c, dim, period, f"{what} control {i}")
             for i, c in enumerate(controls)]
    return make_problem(dim, period, horizon, specs, u0=u0,
                        label=str(doc.get("label", what)))


def parse_switching(doc: dict):
    """Returns (problem, mode index lists, k_list or None)."""
    problem = parse_problem(doc, "switching", extra=("modes", "k_list"))
    modes = doc.get("modes")
    if not isinstance(modes, list) or len(modes) < 2:
        raise ConfigError("switching: 'modes' must list at least two control-index lists")
    n = len(problem.coeffs)
    parsed = []
    for i, mode in enumerate(modes):
        if not isinstance(mode, list) or not mode:
            raise ConfigError(f"switching: mode {i} must be a nonempty list of control indices")
        idx = []
        for j in mode:
            if not isinstance(j, int) or isinstance(j, bool) or not (0 <= j < n):
                raise ConfigError(f"switching: mode {i} index {j!r} out of range 0..{n - 1}")
            idx.append(j)
        parsed.append(idx)
    k_list = doc.get("k_list")
    if k_list is not None:
        if not isinstance(k_list, list) or not all(
                isinstance(k, (int, float)) and not isinstance(k, bool) and k > 0
                for k in k_list):
            raise ConfigError("switching: 'k_list' must be a list of positive numbers")
        k_list = [float(k) for k in k_list]
    return problem, parsed, k_list


def _family(doc, key, dim, period, what):
    fam = doc.get(key)
    if not isinstance(fam, list) or not fam:
        raise ConfigError(f"{what}: {key!r} must be a nonempty list of coefficient objects")
    return [_coeff_entry(c, dim, period, f"{what} {key}[{i}]") for i, c in enumerate(fam)]


def _dt_list(doc, what):
    dts = doc.get("dt_list")
    if dts is None:
        return None
    if not isinstance(dts, list) or not all(
            isinstance(d, (int, float)) and not isinstance(d, bool) and d > 0 for d in dts):
        raise ConfigError(f"{what}: 'dt_list' must be a list of positive numbers")
    return [float(d) for d in dts]


def parse_split(doc: dict):
    """Returns (SplitProblem keyword dict without n_x and builder, dt_list or None)."""
    dim, period, horizon, u0 = _problem_fields(doc, "split", ("family1", "family2", "dt_list"))
    return (dict(dim=dim, period=period, T=horizon, u0=u0,
                 family1=_family(doc, "family1", dim, period, "split"),
                 family2=_family(doc, "family2", dim, period, "split")),
            _dt_list(doc, "split"))


def parse_pcc(doc: dict):
    """Returns (PCControlProblem keyword dict without n_x and builder, dt_list or None)."""
    dim, period, horizon, u0 = _problem_fields(doc, "pcc", ("modes", "dt_list"))
    modes = _family(doc, "modes", dim, period, "pcc")
    if len(modes) < 2:
        raise ConfigError("pcc: 'modes' needs at least two entries")
    return dict(dim=dim, period=period, T=horizon, u0=u0, modes=modes), _dt_list(doc, "pcc")


def parse_matrix(doc: dict):
    """Returns (symmetric matrix, max_order) for the decomposition command."""
    _check_keys(doc, ("matrix", "max_order", "label"), "decompose")
    raw = doc.get("matrix")
    if raw is None:
        raise ConfigError("decompose: missing required key 'matrix'")
    try:
        a = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError("decompose: 'matrix' must be a nested list of numbers") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError(f"decompose: 'matrix' must be square, got shape {a.shape}")
    max_order = doc.get("max_order", 2)
    if not isinstance(max_order, int) or isinstance(max_order, bool) or max_order < 1:
        raise ConfigError("decompose: 'max_order' must be a positive integer")
    return a, max_order
