"""Layer spans for one hjbfd process, recorded from outside the package.

A Tracer wraps the public functions and methods listed in TARGETS.  Methods
are wrapped on their class.  Module functions are wrapped in every hjbfd
module that holds them, because modules import them by name (for example
``hjbfd.cli.run_refinement`` and ``hjbfd.scheme.kushner_stencil``) and a
call through such a name would otherwise go unmeasured.

Each span is (id, parent id, name, start ns, end ns, attrs); spans are kept
in memory and written out once, when the process ends.  summarize() turns a
run's spans into the per-layer metrics listed in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
import uuid

# (module under hjbfd, attribute or Class.method); the span name is
# "<module>.<attribute>", so the layer of a span is its first component.
TARGETS = [
    ("config", "load_json"),
    ("config", "parse_problem"),
    ("config", "parse_split"),
    ("config", "parse_switching"),
    ("problem", "make_problem"),
    ("problem", "CoefficientField.sigma"),
    ("problem", "CoefficientField.b"),
    ("problem", "CoefficientField.c"),
    ("problem", "CoefficientField.f"),
    ("problem", "CoefficientField.ssq"),
    ("stencil", "kushner_stencil"),
    ("stencil", "bz_stencil"),
    ("stencil", "bz_decompose"),
    ("grid", "GridFunction.__init__"),
    ("grid", "GridFunction.to_csv"),
    ("scheme", "ThetaScheme.__init__"),
    ("scheme", "ThetaScheme.step"),
    ("scheme", "ThetaScheme.solve"),
    ("scheme", "ThetaScheme.cfl_check"),
    ("switching", "switching_step"),
    ("switching", "switching_solve"),
    ("switching", "k_rate_experiment"),
    ("semigroup", "SemigroupFlow.apply"),
    ("semigroup", "calibrate_inner_steps"),
    ("semigroup", "splitting_solve"),
    ("semigroup", "splitting_rate_experiment"),
    ("harness", "run_refinement"),
    ("harness", "write_rate_csv"),
    ("cli", "main"),
]

MARK = "__perfbench_span__"

STEP = "scheme.ThetaScheme.step"
SCHEME_INIT = "scheme.ThetaScheme.__init__"
APPLY = "semigroup.SemigroupFlow.apply"
CALIBRATE = "semigroup.calibrate_inner_steps"
COEFFS = {f"problem.CoefficientField.{m}" for m in ("sigma", "b", "c", "f", "ssq")}
STENCILS = {"stencil.kushner_stencil", "stencil.bz_stencil", "stencil.bz_decompose"}
PARSERS = {f"config.{n}" for n in ("load_json", "parse_problem", "parse_split",
                                    "parse_switching")}


def _step_attrs(result):
    values, report = result
    return {"nodes": int(values.size), "iters": int(report.policy_iterations)}


HOOKS = {
    STEP: _step_attrs,
    CALIBRATE: lambda m: {"m": int(m)},
}


class Tracer:
    """Owns the spans of one run; install() wraps the targets in place."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self._stack = []
        self._ids = itertools.count()

    def _wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns
        hook = HOOKS.get(name)

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            attrs = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    attrs = hook(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, attrs))

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, name)
        return wrapper

    def install(self) -> int:
        """Wrap every target; returns the number of attributes replaced."""
        importlib.import_module("hjbfd")
        package = _package_modules()
        patched = 0
        for module, attr in TARGETS:
            mod = importlib.import_module(f"hjbfd.{module}")
            name = f"{module}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                patched += 1
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original)
            for holder in package:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        patched += 1
        return patched

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"run": self.run_id, "id": sid, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "attrs": attrs}) + "\n")


def _package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "hjbfd" or n.startswith("hjbfd."))]


def load(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def count_wrapped() -> int:
    """Attributes of loaded hjbfd modules and their classes that are spans."""
    seen = 0
    for mod in _package_modules():
        for value in vars(mod).values():
            members = vars(value).values() if isinstance(value, type) else (value,)
            seen += sum(1 for v in members if hasattr(v, MARK))
    return seen


def _quantile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    k = min(len(sorted_vals) - 1, max(0, int(round(q * (len(sorted_vals) - 1)))))
    return float(sorted_vals[k])


def summarize(spans) -> dict:
    """Per-layer metrics of one run (times in seconds unless named)."""
    by_id = {s["id"]: s for s in spans}
    child_ns = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end"] - s["start"]

    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def named(names):
        return [s for n in names for s in by_name.get(n, ())]

    def ancestor_in(s, names):
        p = s["parent"]
        while p is not None and by_id[p]["name"] not in names:
            p = by_id[p]["parent"]
        return p

    def self_s(names):
        return sum(dur(s) - child_ns.get(s["id"], 0) for s in named(names)) / 1e9

    def outer_s(names):
        """Time inside spans of `names`, counting nested ones once."""
        return sum(dur(s) for s in named(names) if ancestor_in(s, names) is None) / 1e9

    steps = named({STEP})
    step_ns = sorted(dur(s) for s in steps)
    node_steps = sum(s["attrs"]["nodes"] for s in steps)
    iters = [s["attrs"]["iters"] for s in steps]
    applies = named({APPLY})
    built_by_flows = sum(1 for s in named({SCHEME_INIT})
                         if ancestor_in(s, {APPLY}) is not None)
    calibrations = named({CALIBRATE})
    gridfunctions = named({"grid.GridFunction.__init__"})

    return {
        "scheme.step_calls": len(steps),
        "scheme.node_steps": node_steps,
        "scheme.step_s": sum(step_ns) / 1e9,
        "scheme.step_us_p50": _quantile(step_ns, 0.50) / 1e3,
        "scheme.step_us_p99": _quantile(step_ns, 0.99) / 1e3,
        "scheme.ns_per_node_step": sum(step_ns) / node_steps if node_steps else 0.0,
        "scheme.policy_iters_mean": sum(iters) / len(iters) if iters else 0.0,
        "scheme.policy_iters_max": max(iters, default=0),
        "scheme.schemes_built": len(named({SCHEME_INIT})),
        "scheme.cfl_check_s": outer_s({"scheme.ThetaScheme.cfl_check"}),
        "semigroup.apply_calls": len(applies),
        "semigroup.self_s": self_s({APPLY}),
        "semigroup.calibrate_s": outer_s({CALIBRATE}),
        "semigroup.inner_m": max((s["attrs"]["m"] for s in calibrations), default=0),
        "semigroup.scheme_reuse": 1.0 - built_by_flows / len(applies) if applies else 0.0,
        "problem.make_problem_calls": len(named({"problem.make_problem"})),
        "problem.coeff_calls": len(named(COEFFS)),
        "problem.coeff_s": outer_s(COEFFS),
        "grid.gridfunction_calls": len(gridfunctions),
        "grid.gridfunction_s": outer_s({"grid.GridFunction.__init__"}),
        "grid.to_csv_s": outer_s({"grid.GridFunction.to_csv"}),
        "cli.self_s": self_s({"cli.main"}),
        "switching.step_calls": len(named({"switching.switching_step"})),
        "switching.self_s": self_s({"switching.switching_step"}),
        "harness.refinement_self_s": self_s({"harness.run_refinement"}),
        "harness.csv_write_s": outer_s({"harness.write_rate_csv"}),
        "config.parse_s": outer_s(PARSERS),
        "stencil.build_calls": len(named(STENCILS)),
        "stencil.build_s": outer_s(STENCILS),
    }


def layers(spans) -> set:
    return {s["name"].split(".", 1)[0] for s in spans}
