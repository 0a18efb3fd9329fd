"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

The traced-run tests start one real workload process each (split_semigroup
takes about half a minute).
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402

with open(run.SPEC) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture(autouse=True)
def _checkout():
    run.check_tree(SPEC)


def test_seed0_input_is_the_recorded_file():
    with open(os.path.join(BENCH, "inputs", "rates_2d_seed0.json"), "rb") as fh:
        assert run.rates_2d_input(0).encode() == fh.read()


def test_other_seeds_are_deterministic_and_differ():
    assert run.rates_2d_input(3) == run.rates_2d_input(3)
    assert run.rates_2d_input(3) != run.rates_2d_input(4) != run.rates_2d_input(0)


def test_generated_inputs_meet_the_cfl_condition():
    """Every seed's 2D file passes the explicit CFL check on the coarsest
    level of rates_2d_explicit, the level where the drift terms weigh most."""
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    from hjbfd.config import parse_problem
    from hjbfd.grid import SpaceTimeGrid
    from hjbfd.scheme import ThetaScheme

    argv = SPEC["workloads"]["rates_2d_explicit"]["argv"]
    n_x = min(int(n) for n in argv[argv.index("--levels") + 1].split(","))
    for seed in range(1, 201):
        problem = parse_problem(json.loads(run.rates_2d_input(seed)))
        dx = problem.period / n_x
        grid = SpaceTimeGrid.build(problem.dim, problem.period, n_x, problem.T,
                                   0.45 * dx * dx)  # the CLI's default cfl-factor
        report = ThetaScheme(problem, grid, theta=0.0).cfl_check()
        assert report.ok, (seed, report.worst_explicit)


@pytest.mark.parametrize("workload", list(SPEC["workloads"]))
def test_traced_run_records_every_layer(workload, tmp_path):
    bench = run.Bench(SPEC, workload, 0, str(tmp_path))
    sample = bench.sample(traced=True)
    assert sample.ok, bench.failures
    assert bench.drifts == [0.0]
    recorded = spans.layers(spans.load(sample.spans))
    assert set(SPEC["workloads"][workload]["layers"]) <= recorded


def test_untraced_run_installs_no_wrappers(tmp_path):
    bench = run.Bench(SPEC, "solve_trajectory", 0, str(tmp_path))
    sample = bench.sample(traced=False)
    assert sample.ok, bench.failures
    assert sample.result["wrapped"] == 0
    assert "patched" not in sample.result
    assert sample.spans is None and not list(tmp_path.glob("*/spans.jsonl"))


def test_output_drift(tmp_path):
    want = {"a.csv": b"h,x\nr,1.0\n"}
    (tmp_path / "a.csv").write_bytes(b"h,x\nr,1.0\n")
    assert run.output_drift(want, str(tmp_path)) == 0.0
    (tmp_path / "a.csv").write_bytes(b"h,x\nr,1.5\n")
    assert run.output_drift(want, str(tmp_path)) == 0.5
    (tmp_path / "a.csv").write_bytes(b"h,x\ns,1.0\n")
    assert run.output_drift(want, str(tmp_path)) == float("inf")
    (tmp_path / "a.csv").unlink()
    assert run.output_drift(want, str(tmp_path)) == float("inf")


def test_self_and_nested_time():
    def span(sid, parent, name, start, end, attrs=None):
        return {"id": sid, "parent": parent, "name": name, "start": start, "end": end,
                "attrs": attrs}

    m = spans.summarize([
        span(0, None, "cli.main", 0, 100),
        span(1, 0, "problem.CoefficientField.ssq", 10, 30),
        span(2, 1, "problem.CoefficientField.sigma", 12, 20),
        span(3, 0, "scheme.ThetaScheme.step", 40, 90, {"nodes": 5, "iters": 2}),
    ])
    assert m["cli.self_s"] == 30e-9
    assert m["problem.coeff_calls"] == 2
    assert m["problem.coeff_s"] == 20e-9
    assert m["scheme.node_steps"] == 5
    assert m["scheme.ns_per_node_step"] == 10.0
