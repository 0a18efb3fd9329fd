"""Benchmark of the hjbfd command line: four study workloads, end to end.

Run from the root of a checkout (the directory holding src/hjbfd):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seconds 1     # table of every workload

Each sample is one `hjbfd` command in a fresh interpreter (perfbench/child.py),
one at a time: a closed loop with a single client.  Samples repeat until the
next one would end after --seconds, but an untraced run takes at least two,
so that no end-to-end figure rests on one process (split_semigroup, ~21 s a
sample, measures about twice --seconds 20).  Before that, a few set-up-only
processes time interpreter start, import and config parsing.  Every
sample's outputs are checked: exit status 0, the CLI's own verdict, and,
where outputs are recorded for the input, every numeric CSV cell within 1e-9
of the recording.

--trace 0 prints the end-to-end metrics, measured without any wrapper.
--trace 1 alternates untraced and traced samples and prints the per-layer
metrics of the traced ones (perfbench/spans.py) plus the tracing overhead.
The last line of standard output is the result object; the line before it
records the seed, input hash, environment and output drift.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import lzma
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SPEC = os.path.join(HERE, "workloads.json")
EXPECTED = os.path.join(HERE, "expected")
WORK = os.path.join(ROOT, ".perfbench_work")
DRIFT_LIMIT = 1e-9          # ROADMAP's documented-drift limit
SETUP_PROBES = 8            # set-up-only processes per run, after one warm-up
MIN_SAMPLES = 2             # untraced samples per run, however long each takes
RUN_LIMIT_S = 170.0         # a run must end within 180 s

class TreeError(Exception):
    """The checkout does not hold the program the benchmark runs."""


def rates_2d_input(seed: int) -> str:
    """The 2D rates problem for `seed`; seed 0 is the fixed test problem.

    Other seeds draw drifts, the running cost and the source amplitude from
    ranges that keep sigma sigma^T diagonally dominant (sigma is fixed) and
    the explicit CFL condition valid at cfl-factor 0.45 on every level.  The
    coarsest level, n=16, binds: with control 0's diffusion there the
    condition reads 0.821 + 0.170 (|b0_1| + |b0_2|) - 0.067 c0 <= 1, so the
    drift components of control 0 stay within +-0.45 (sum 0.9, worst 0.974).
    """
    pi = math.pi
    b0, b1, c0, amp = [0.4, -0.2], [-0.5, 0.3], 0.1, 0.3
    if seed != 0:
        rng = random.Random(seed)
        b0 = [round(rng.uniform(-0.45, 0.45), 3) for _ in range(2)]
        b1 = [round(rng.uniform(-0.6, 0.6), 3) for _ in range(2)]
        c0 = round(rng.uniform(0.0, 0.2), 3)
        amp = round(rng.uniform(0.1, 0.5), 3)
    doc = {
        "dim": 2,
        "period": 2 * pi,
        "horizon": 1.0,
        "label": f"rates-2d-seed{seed}",
        "controls": [
            {"sigma": [[1.0, 0.3], [0.0, 0.9]], "b": b0, "c": c0},
            {"sigma": 0.7, "b": b1,
             "f": {"name": "sin_sum", "params": {"amplitude": amp}}},
        ],
        "u0": {"name": "gauss_bump", "params": {"center": [pi, pi], "width": 0.8}},
    }
    return json.dumps(doc, indent=2) + "\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "hjbfd")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                h.update(os.path.relpath(path, pkg).encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def check_tree(spec: dict) -> None:
    needed = [os.path.join("src", "hjbfd", "cli.py")] + [
        w["input"] for w in spec["workloads"].values()
        if not w["input"].startswith("generated:")]
    missing = [p for p in needed if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise TreeError(f"run from the root of an hjbfd checkout; missing {', '.join(missing)}")


@dataclass
class Sample:
    """One finished child process."""

    result: dict
    rc: int
    out: str
    stdout: str
    spans: str | None
    ok: bool = False


class Bench:
    """One run of one workload: inputs, child processes, checks, metrics."""

    def __init__(self, spec: dict, workload: str, seed: int, work: str):
        self.name = workload
        self.wl = spec["workloads"][workload]
        self.work = work
        self.t_start = time.monotonic()
        self.n_children = 0
        self.attempted = 0
        self.failures = []
        self.drifts = []
        if self.wl["input"] == "generated:rates_2d":
            data = rates_2d_input(seed).encode()
            self.input = os.path.join(work, "input.json")
            with open(self.input, "wb") as fh:
                fh.write(data)
        else:
            self.input = os.path.join(ROOT, self.wl["input"])
            with open(self.input, "rb") as fh:
                data = fh.read()
        self.input_sha = sha256(data)
        self.argv = [a.replace("{input}", self.input) for a in self.wl["argv"]]
        self.expected_dir = os.path.join(EXPECTED, workload, self.input_sha[:16])
        self.expected = self._load_expected()
        cap = str(spec["thread_cap"])
        self.env = dict(os.environ)
        self.env.update({k: cap for k in spec["thread_cap_env"]})
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def _load_expected(self) -> dict:
        if not os.path.isdir(self.expected_dir):
            return {}
        files = {}
        for name in sorted(os.listdir(self.expected_dir)):
            with open(os.path.join(self.expected_dir, name), "rb") as fh:
                data = fh.read()
            if name.endswith(".xz"):
                name, data = name[:-3], lzma.decompress(data)
            files[name] = data
        return files

    # ----- child processes ------------------------------------------------

    def spawn(self, traced: bool = False, setup_only: bool = False) -> Sample:
        self.n_children += 1
        cdir = os.path.join(self.work, f"c{self.n_children}")
        os.makedirs(cdir)
        out = os.path.join(cdir, "out")
        result_path = os.path.join(cdir, "result.json")
        log_path = os.path.join(cdir, "stdout.txt")
        spans_path = os.path.join(cdir, "spans.jsonl") if traced else None
        extra = ["--setup-only"] if setup_only else []
        if traced:
            extra += ["--spans", spans_path]
        remaining = RUN_LIMIT_S - (time.monotonic() - self.t_start)
        if remaining <= 0:
            raise TimeoutError("run time limit reached before the next sample")
        with open(log_path, "wb") as log:
            launched = time.monotonic()
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "--launched",
                   repr(launched), "--result", result_path] + extra + [
                "--"] + self.argv + ["--out", out]
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=remaining)
            except BaseException:  # the run time limit, or SIGTERM's SystemExit
                proc.kill()
                proc.wait()
                raise
        with open(log_path, errors="replace") as fh:
            stdout = fh.read()
        result = {}
        if os.path.exists(result_path):
            with open(result_path) as fh:
                result = json.load(fh)
        return Sample(result, proc.returncode, out, stdout, spans_path)

    def sample(self, traced: bool) -> Sample:
        """Spawn one workload process and check its outputs."""
        s = self.spawn(traced=traced)
        self.attempted += 1
        reasons = []
        if s.rc != 0 or s.result.get("rc") != 0:
            reasons.append(f"exit status {s.rc}")
        if self.wl["expect_stdout"] not in s.stdout:
            reasons.append(f"no {self.wl['expect_stdout']!r} in output")
        if traced != (s.result.get("wrapped", 0) > 0):
            reasons.append(f"{s.result.get('wrapped')} wrapped functions in a "
                           f"{'traced' if traced else 'untraced'} run")
        if self.expected:
            drift = output_drift(self.expected, s.out)
            self.drifts.append(drift)
            if not drift <= DRIFT_LIMIT:
                reasons.append(f"output drift {drift!r} > {DRIFT_LIMIT!r}")
        if reasons:
            self.failures.append("; ".join(reasons))
            print(f"perfbench: {self.name} sample failed: {'; '.join(reasons)}\n"
                  f"{s.stdout[-2000:]}", file=sys.stderr)
        s.ok = not reasons
        return s

    # ----- measurement ----------------------------------------------------

    def setup_samples(self) -> list:
        self.spawn(setup_only=True)  # warm-up: file cache, bytecode cache
        return [self.spawn(setup_only=True).result["setup_s"] for _ in range(SETUP_PROBES)]

    def loop(self, seconds: float, traced: bool) -> tuple:
        """Closed loop for `seconds`; without `traced` at least MIN_SAMPLES
        samples, with it one or more rounds of an untraced and a traced sample."""
        plain, with_spans = [], []
        t0 = time.monotonic()
        while True:
            ts = time.monotonic()
            plain.append(self.sample(traced=False))
            if traced:
                with_spans.append(self.sample(traced=True))
            now = time.monotonic()
            enough = len(plain) >= (1 if traced else MIN_SAMPLES)
            if enough and now - t0 + (now - ts) > seconds:
                return plain, with_spans

    def cached(self, layer: list, overhead) -> dict:
        """Node steps (and tracing overhead) of this input at this source.

        The count comes from a traced run of the same source: this run's, the
        one cached in the checkout, or else one more traced sample.
        """
        key = f"{self.name}-{source_sha256()[:16]}-{self.input_sha[:16]}.json"
        path = os.path.join(WORK, "cache", key)
        if not layer and os.path.exists(path):
            with open(path) as fh:
                return json.load(fh)
        if not layer:
            s = self.sample(traced=True)
            if not s.ok:
                return {"node_steps": 0, "trace.overhead_s": None}
            layer = [layer_metrics(s)]
        entry = {"node_steps": layer[0]["scheme.node_steps"], "trace.overhead_s": overhead}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(entry, fh)
        return entry


def output_drift(expected: dict, out_dir: str) -> float:
    """Largest |difference| over numeric CSV cells; inf on any other mismatch."""
    worst = 0.0
    for name, want in expected.items():
        path = os.path.join(out_dir, name)
        if not os.path.exists(path):
            return math.inf
        with open(path, "rb") as fh:
            got = fh.read()
        if got == want:
            continue
        rows_w = list(csv.reader(io.StringIO(want.decode())))
        rows_g = list(csv.reader(io.StringIO(got.decode())))
        if len(rows_w) != len(rows_g):
            return math.inf
        for rw, rg in zip(rows_w, rows_g):
            if len(rw) != len(rg):
                return math.inf
            for a, b in zip(rw, rg):
                if a == b:
                    continue
                try:
                    d = abs(float(a) - float(b))
                except ValueError:
                    return math.inf
                worst = max(worst, d if d == d else math.inf)
    return worst


def layer_metrics(s: Sample) -> dict:
    import spans
    m = spans.summarize(spans.load(s.spans))
    m["cli.output_bytes"] = sum(os.path.getsize(os.path.join(s.out, f))
                                for f in os.listdir(s.out))
    return m


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns (info line, result object) of one run."""
    work = os.path.join(WORK, f"run-{os.getpid()}-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        bench = Bench(spec, workload, seed, work)
        setups = bench.setup_samples()
        plain, traced = bench.loop(seconds, trace)
        timed = [s for s in plain if "wall_s" in s.result]
        if not timed:
            raise RuntimeError(f"no {workload} sample finished")
        walls = [s.result["wall_s"] for s in timed]
        wall = statistics.median(walls)
        layer = [layer_metrics(s) for s in traced if s.ok]
        # traced minus untraced wall time of each adjacent pair, so that host
        # speed drifting between pairs cancels
        paired = [t.result["wall_s"] - p.result["wall_s"]
                  for p, t in zip(plain, traced) if p.ok and t.ok]
        overhead = statistics.median(paired) if paired else None
        cache = bench.cached(layer, overhead)
        e2e = {
            "wall_s": wall,
            "setup_s": statistics.median(setups + [s.result["setup_s"] for s in timed]),
            "node_steps_per_s": cache["node_steps"] / wall,
            "peak_rss_mb": statistics.median([s.result["peak_rss_mb"] for s in timed]),
        }
        declared = load_benchmark()
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]}
                   for m in declared["end_to_end"]}
        if trace:
            metrics = {}
            for m in declared["per_layer"]:
                name = m["name"]
                value = (overhead if name == "trace.overhead_s" else
                         statistics.median([x[name] for x in layer]) if layer else None)
                metrics[name] = {"value": value, "unit": m["unit"]}
        info = {
            "workload": workload,
            "command": bench.wl["command"],
            "argv": ["hjbfd"] + bench.wl["argv"],
            "seed": seed,
            "input_sha256": bench.input_sha,
            "source_sha256": source_sha256(),
            "git_commit": git_commit(),
            "environment": {
                "python": platform.python_version(),
                "numpy": timed[0].result.get("numpy"),
                "nproc": os.cpu_count(),
                "thread_cap": spec["thread_cap"],
                "thread_cap_env": spec["thread_cap_env"],
                "trace.overhead_s": cache["trace.overhead_s"],
            },
            "samples": {"setup": len(setups) + len(timed), "untraced": len(timed),
                        "traced": len(layer)},
            "trace.overhead_s_pairs": paired,
            "per_layer_not_reached": [m["name"] for m in declared["per_layer"]
                                      if m["name"].split(".")[0] not in bench.wl["layers"]
                                      and m["name"] != "trace.overhead_s"],
            "wall_s_samples": walls,
            "node_steps": cache["node_steps"],
            "output_drift": ({"value": max(bench.drifts), "unit": "abs"}
                             if bench.drifts else None),
            "end_to_end": e2e,
        }
        result = {"correct": not bench.failures, "attempted": bench.attempted,
                  "failed": len(bench.failures), "metrics": metrics}
        return info, result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_benchmark() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    with open(SPEC) as fh:
        spec = json.load(fh)
    names = list(spec["workloads"])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        check_tree(spec)
    except TreeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        ok = True
        print(f"{'workload':<18} {'metric':<17} {'value':>14} unit")
        for name in names:
            info, result = measure(spec, name, args.seed, args.seconds, False)
            ok = ok and result["correct"]
            rows = dict(result["metrics"])
            rows["output_drift"] = info["output_drift"] or {"value": math.nan, "unit": "abs"}
            for metric, m in rows.items():
                print(f"{name:<18} {metric:<17} {m['value']:>14.6g} {m['unit']}")
            print(f"{name:<18} {'correct':<17} {str(result['correct']):>14} "
                  f"({result['failed']} of {result['attempted']} failed)")
        return 0 if ok else 1
    info, result = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
