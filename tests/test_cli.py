"""Command line interface: exit codes, outputs, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hjbfd.cli as cli
from hjbfd.cli import main
from hjbfd.config import (load_json, parse_matrix, parse_pcc, parse_problem,
                          parse_split, parse_switching)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_outputs(outdir):
    out = {}
    for p in sorted(Path(outdir).glob("*")):
        out[p.name] = p.read_bytes()
    return out


def run_twice_identical(argv_builder, tmp_path):
    """Run a command with two output dirs; both must exit 0 and match bytewise."""
    outs = []
    for sub in ("o1", "o2"):
        outdir = tmp_path / sub
        assert main(argv_builder(str(outdir))) == 0
        outs.append(read_outputs(outdir))
    assert outs[0].keys() == outs[1].keys()
    for name in outs[0]:
        assert outs[0][name] == outs[1][name], f"{name} differs between runs"
    return outs[0]


def test_missing_config_file(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: file not found")


def test_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_unknown_builtin_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "dim": 1, "period": 6.283185307179586, "horizon": 1.0,
        "controls": [{"sigma": 1.0}],
        "u0": {"name": "sombrero"},
    })
    assert main(["solve", cfg]) == 1
    assert "unknown built-in" in capsys.readouterr().err


CONFIG_KINDS = {"solve": "heat.json", "switching": "modes2.json", "split": "split.json",
                "pcc": "pcc.json", "decompose": "matrix.json"}


@pytest.mark.parametrize("command", sorted(CONFIG_KINDS))
@pytest.mark.parametrize("typo, key", [("lable", "label"), ("horizn", "horizon")])
def test_unknown_top_level_key_rejected(command, typo, key, tmp_path, capsys):
    doc = json.loads((CONFIGS / CONFIG_KINDS[command]).read_text())
    doc[typo] = doc.pop(key, 1.0)
    cfg = write_config(tmp_path, doc)
    assert main([command, cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and f"unknown key(s) '{typo}'" in err


def test_builtin_side_key_rejected(tmp_path, capsys):
    # the amplitude belongs under "params"; next to "name" it used to be ignored
    doc = json.loads((CONFIGS / "twocontrol.json").read_text())
    doc["controls"][1]["f"] = {"name": "sin_sum", "amplitude": 0.3}
    assert main(["solve", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
    assert "unknown key(s) 'amplitude'" in capsys.readouterr().err


def test_builtin_unknown_param_rejected(tmp_path, capsys):
    doc = json.loads((CONFIGS / "heat.json").read_text())
    doc["u0"] = {"name": "sin_sum", "params": {"modez": [2]}}
    assert main(["solve", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]) == 1
    assert "sin_sum params: unknown key(s) 'modez'" in capsys.readouterr().err


def test_bundled_configs_parse():
    parsers = {"heat.json": parse_problem, "twocontrol.json": parse_problem,
               "modes2.json": parse_switching, "split.json": parse_split,
               "pcc.json": parse_pcc, "matrix.json": parse_matrix}
    assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(parsers)
    for name, parse in parsers.items():
        parse(load_json(CONFIGS / name))
    parse_problem(load_json(CONFIGS.parent / "perfbench" / "inputs" / "rates_2d_seed0.json"))


def test_builtin_source_is_evaluated_once_per_solve(monkeypatch):
    # a built-in f depends on x only, so the scheme builds f once, not once per step
    from hjbfd import CoefficientField, SpaceTimeGrid, ThetaScheme

    problem = parse_problem(load_json(CONFIGS / "twocontrol.json"))
    assert not problem.coeffs.varies_in_t()
    calls = []
    f = CoefficientField.f
    monkeypatch.setattr(CoefficientField, "f",
                        lambda self, i, t, X: calls.append(i) or f(self, i, t, X))
    grid = SpaceTimeGrid.build(1, problem.period, 16, problem.T, 0.05)
    ThetaScheme(problem, grid, theta=1.0).solve()
    assert calls == [0, 1]


@pytest.mark.parametrize("old, new, reason", [
    ('"dim": 1', '"dim": 2.5', "dim must be an integer >= 1, got 2.5"),
    ('"c": 0.1', '"c": [1, 2]', "c must be a single number"),
])
def test_malformed_problem_field_exits_one(old, new, reason, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text((CONFIGS / "twocontrol.json").read_text().replace(old, new, 1))
    assert main(["solve", str(cfg), "--nx", "8", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and reason in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("period, flags", [
    (1e-300, ["--theta", "1", "--dt", "0.5"]),  # dx^2 underflows to 0
    (1e-160, ["--theta", "0"]),                 # dx^2 and the CFL step are subnormal
])
def test_underflowing_period_exits_one(period, flags, tmp_path, capsys):
    doc = load_json(str(CONFIGS / "heat.json"))
    doc["period"] = period
    argv = ["solve", write_config(tmp_path, doc), "--nx", "8", *flags]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: grid: period ") and "not a positive normal float" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_solve_heat_outputs(tmp_path, capsys):
    files = run_twice_identical(
        lambda out: ["solve", str(CONFIGS / "heat.json"), "--nx", "16", "--out", out],
        tmp_path)
    assert {"solution.csv", "solution.gp", "trajectory.csv"} <= set(files)
    lines = files["trajectory.csv"].decode().splitlines()
    assert lines[0] == "t,x_1,value"
    assert "solve ok:" in capsys.readouterr().out


def test_trajectory_coordinates_are_formatted_once(tmp_path, monkeypatch):
    # the coordinates reach write_csv as Cells, so its per-cell formatting
    # runs for none of the 16 x 101 coordinate cells of a heat solve
    import hjbfd.grid as grid
    calls = []
    monkeypatch.setattr(grid, "csv_cell", lambda x: calls.append(x) or str(x))
    assert main(["solve", str(CONFIGS / "heat.json"), "--nx", "16",
                 "--out", str(tmp_path)]) == 0
    assert calls == []


def test_rates_quick_study(tmp_path, capsys):
    files = run_twice_identical(
        lambda out: ["rates", str(CONFIGS / "heat.json"), "--levels", "8,16",
                     "--out", out],
        tmp_path)
    assert {"rates.csv", "rates.gp"} <= set(files)
    body = files["rates.csv"].decode().splitlines()
    assert body[0] == "level,dx,dt,h,err_plus,err_minus,err_total,slope,verdict"
    assert body[-1].endswith("pass")
    assert "verdict=pass" in capsys.readouterr().out


def test_rates_single_level_rejected(tmp_path, capsys):
    assert main(["rates", str(CONFIGS / "heat.json"), "--levels", "16"]) == 1
    assert "at least two" in capsys.readouterr().err


def test_rates_reference_ratio_validation(tmp_path, capsys):
    code = main(["rates", str(CONFIGS / "heat.json"), "--levels", "8,16",
                 "--ref-nx", "24", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "power-of-2" in capsys.readouterr().err


def test_rates_cfl_violation_exits_two(tmp_path, capsys):
    code = main(["rates", str(CONFIGS / "heat.json"), "--levels", "8,16",
                 "--cfl-factor", "8.0", "--out", str(tmp_path / "o")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: numerical: CFL violated")


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_solve_overflow_exits_two_at_once(tmp_path, capsys):
    # u0 of amplitude 1e308 overflows the first implicit step's residual; the
    # trajectory is left written up to the failing level: the header and the
    # 16 complete rows of level 0, and no solution
    doc = json.loads((CONFIGS / "heat.json").read_text())
    doc["u0"]["params"] = {"amplitude": 1e308}
    out = tmp_path / "o"
    code = main(["solve", write_config(tmp_path, doc), "--nx", "16", "--out", str(out)])
    assert code == 2
    assert re.match(r"error: numerical: implicit step: non-finite residual at t=\S+, node \(\d+,\)",
                    capsys.readouterr().err)
    lines = (out / "trajectory.csv").read_text().split("\n")
    assert lines[0] == "t,x_1,value" and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    assert [r[:2] for r in rows] == [["0.0", repr(j * (doc["period"] / 16))] for j in range(16)]
    assert all(math.isfinite(float(r[2])) for r in rows)
    assert not (out / "solution.csv").exists()


def test_solve_cfl_violation_writes_nothing(tmp_path, capsys):
    # solve streams its trajectory, but the step-size guard runs before any file is opened
    out = tmp_path / "o"
    code = main(["solve", str(CONFIGS / "heat.json"), "--nx", "32", "--theta", "0",
                 "--cfl-factor", "4", "--out", str(out)])
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("error: numerical: CFL violated")


# the small study jobs of acceptance check 11, and the keys of each one's summary line
STUDY_JOBS = {
    "rates": ["rates", str(CONFIGS / "heat.json"), "--levels", "8,16"],
    "switching": ["switching", str(CONFIGS / "modes2.json"), "--nx", "24",
                  "--k-list", "0.2,0.1"],
    "split": ["split", str(CONFIGS / "split.json"), "--nx", "12", "--dt-list", "0.1,0.05",
              "--inner", "2"],
    "pcc": ["pcc", str(CONFIGS / "pcc.json"), "--nx", "12", "--dt-list", "0.1,0.05",
            "--min-inner", "4"],
}
EXTRA_KEYS = {"rates": [], "switching": ["one_sided_violation", "band_violation"],
              "split": [], "pcc": ["one_sided_violation"]}


@pytest.mark.parametrize("command", sorted(STUDY_JOBS))
def test_study_summary_line_has_the_shared_keys(command, tmp_path, capsys):
    assert main(STUDY_JOBS[command] + ["--out", str(tmp_path / "o")]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    head, notes = line.split(" notes=", 1)  # a note may hold "key=value" text itself
    assert head.startswith(f"{command}: ")
    keys = re.findall(r" (\w+)=", head)
    assert keys == ["slope", "r2", "floor", "errors", *EXTRA_KEYS[command], "verdict"]
    assert notes.startswith("[") and notes.endswith("]")


def test_pcc_summary_line_shows_its_notes(tmp_path, capsys):
    assert main(STUDY_JOBS["pcc"] + ["--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "common inner step delta=" in out and "one-sided: err_plus is" in out


@pytest.mark.parametrize("command", ["rates", "split", "pcc"])
def test_floor_failure_exits_two(command, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(STUDY_JOBS[command] + ["--exponent", "5.0", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "verdict=fail" in captured.out
    assert captured.err.startswith(f"error: numerical: {command}: rate check failed: ")
    assert (out / f"{command}.csv").read_text().splitlines()[-1].endswith(",fail")


def test_rates_a_failed_level_ends_the_study(tmp_path, capsys, monkeypatch):
    from hjbfd.errors import SchemeError
    from hjbfd.scheme import ThetaScheme

    solve = ThetaScheme.solve

    def failing_at_16(self, *args, **kwargs):
        if self.grid.n_x == 16:
            raise SchemeError("policy iteration did not converge")
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(ThetaScheme, "solve", failing_at_16)
    out = tmp_path / "o"
    code = main(["rates", str(CONFIGS / "heat.json"), "--levels", "8,16,32",
                 "--out", str(out)])
    # the failing level ends the study: no fit over the other two, no rates.csv
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: numerical: policy iteration did not converge\n"
    assert not (out / "rates.csv").exists()


def test_switching_quick_study(tmp_path, capsys):
    files = run_twice_identical(
        lambda out: ["switching", str(CONFIGS / "modes2.json"), "--nx", "16",
                     "--k-list", "0.2,0.1", "--out", out],
        tmp_path)
    assert {"switching.csv", "switching.gp"} <= set(files)
    assert "switching: slope=" in capsys.readouterr().out


def test_switching_bad_mode_index(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "dim": 1, "period": 6.283185307179586, "horizon": 0.5,
        "controls": [{"sigma": 0.8, "b": 0.7}, {"sigma": 0.8, "b": -0.7}],
        "u0": {"name": "sin_sum"},
        "modes": [[0], [5]],
    })
    assert main(["switching", cfg, "--nx", "8"]) == 1
    assert "out of range" in capsys.readouterr().err


def test_split_quick_study(tmp_path, capsys):
    files = run_twice_identical(
        lambda out: ["split", str(CONFIGS / "split.json"), "--nx", "12",
                     "--dt-list", "0.1,0.05", "--inner", "2", "--out", out],
        tmp_path)
    assert {"split.csv", "split.gp"} <= set(files)
    assert "split: slope=" in capsys.readouterr().out


def test_split_indivisible_macro_step(tmp_path, capsys):
    code = main(["split", str(CONFIGS / "split.json"), "--nx", "12",
                 "--dt-list", "0.15,0.07", "--inner", "2",
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert "does not divide" in capsys.readouterr().err


def test_pcc_quick_study(tmp_path, capsys):
    files = run_twice_identical(
        lambda out: ["pcc", str(CONFIGS / "pcc.json"), "--nx", "12",
                     "--dt-list", "0.1,0.05", "--min-inner", "4", "--out", out],
        tmp_path)
    assert {"pcc.csv", "pcc.gp"} <= set(files)
    assert "pcc: slope=" in capsys.readouterr().out


def test_decompose_dominant_matrix(tmp_path, capsys):
    files = run_twice_identical(
        lambda out: ["decompose", str(CONFIGS / "matrix.json"), "--out", out],
        tmp_path)
    body = files["decomposition.csv"].decode().splitlines()
    assert body[0] == "direction,weight"
    assert body[1] == '"1 0",1.5'
    assert body[2] == '"0 1",0.5'
    assert body[3] == '"1 1",0.5'
    assert "decompose: directions=3" in capsys.readouterr().out


def test_decompose_insufficient_order_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"matrix": [[1.0, 1.2], [1.2, 2.0]], "max_order": 1})
    assert main(["decompose", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "not decomposable" in capsys.readouterr().err


def test_decompose_wider_order_succeeds(tmp_path):
    cfg = write_config(tmp_path, {"matrix": [[1.0, 1.2], [1.2, 2.0]], "max_order": 2})
    assert main(["decompose", cfg, "--out", str(tmp_path / "o")]) == 0


def test_decompose_rejects_indefinite_matrix(tmp_path, capsys):
    cfg = write_config(tmp_path, {"matrix": [[1.0, 2.0], [2.0, 1.0]]})
    assert main(["decompose", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "positive semidefinite" in capsys.readouterr().err


def test_decompose_missing_matrix_key(tmp_path, capsys):
    cfg = write_config(tmp_path, {"max_order": 2})
    assert main(["decompose", cfg, "--out", str(tmp_path / "o")]) == 1


def test_probe_heat_passes(tmp_path, capsys):
    code = main(["probe", str(CONFIGS / "heat.json"), "--nx", "16",
                 "--trials", "20", "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    for name in ("monotonicity", "comparison forced", "comparison forced reverse",
                 "comparison shifted", "a-priori bound"):
        assert f"probe {name}: pass" in out
    assert "FAIL" not in out


def test_probe_stdout_is_pinned(tmp_path, capsys):
    # the printed worst values of every check, to the last digit
    assert main(["probe", str(CONFIGS / "twocontrol.json"), "--trials", "1000",
                 "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "336feabb71fe22a5eb49d8670134b6dff99251c4a3f2dac09edd34ba36a72e20"), out


def test_probe_broken_cfl_exits_three(tmp_path, capsys):
    code = main(["probe", str(CONFIGS / "heat.json"), "--nx", "16",
                 "--theta", "0.0", "--dt", "0.62", "--trials", "20",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    captured = capsys.readouterr()
    assert "probe monotonicity: FAIL" in captured.out
    assert captured.err.startswith("error: probe: monotonicity")
    assert "node" in captured.err  # witness names the offending node


def test_probe_zero_problem_trivially_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "dim": 1, "period": 6.283185307179586, "horizon": 1.0,
        "controls": [{}],
        "u0": 0.0,
    })
    assert main(["probe", cfg, "--nx", "8", "--trials", "10",
                 "--out", str(tmp_path / "o")]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_every_subcommand_documents_itself(capsys):
    for cmd in ("solve", "rates", "switching", "split", "pcc", "decompose", "probe"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--out" in text
        assert "usage:" in text


HELP_FLAGS = {
    "solve": {"out", "nx", "dt", "cfl-factor", "theta", "builder", "force"},
    "rates": {"out", "theta", "builder", "cfl-factor", "levels", "ref-nx", "exponent"},
    "switching": {"out", "nx", "dt", "cfl-factor", "theta", "builder", "k-list"},
    "split": {"out", "nx", "builder", "dt-list", "inner", "exponent"},
    "pcc": {"out", "nx", "builder", "dt-list", "min-inner", "exponent"},
    "decompose": {"out"},
    "probe": {"out", "nx", "dt", "cfl-factor", "theta", "builder", "force", "seed",
              "trials"},
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_lists_exactly_the_flags_read(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    flags = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out)) - {"help"}
    assert flags == HELP_FLAGS[command]


@pytest.mark.parametrize("argv", [
    ["split", str(CONFIGS / "split.json"), "--theta", "0.3", "--force", "--dt", "9",
     "--seed", "4"],
    ["split", str(CONFIGS / "split.json"), "--cfl-factor", "0.3"],
    ["pcc", str(CONFIGS / "pcc.json"), "--force"],
    ["switching", str(CONFIGS / "modes2.json"), "--force"],
    ["rates", str(CONFIGS / "heat.json"), "--levels", "8,16", "--nx", "8"],
    ["rates", str(CONFIGS / "heat.json"), "--levels", "8,16", "--dt", "0.01"],
    ["solve", str(CONFIGS / "heat.json"), "--nx", "8", "--seed", "1"],
    ["decompose", str(CONFIGS / "matrix.json"), "--builder", "bz"],
    ["rates", str(CONFIGS / "heat.json"), "--levels", "8,16", "--cfl-factor", "1.2", "--force"],
])
def test_removed_flags_exit_one(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: config: unrecognized arguments: --")


@pytest.fixture
def no_scheme_step(monkeypatch):
    """Make any ThetaScheme.step fail: the input must be rejected before a solve."""
    from hjbfd.scheme import ThetaScheme

    def no_step(self, *args, **kwargs):
        raise AssertionError("a scheme stepped before the input was checked")

    monkeypatch.setattr(ThetaScheme, "step", no_step)


def _heat_with(tmp_path, name, text):
    path = tmp_path / f"{name}.json"
    path.write_text((CONFIGS / "heat.json").read_text().replace('"sigma": 1.0', text))
    return str(path)


@pytest.mark.parametrize("argv, reason", [
    (["solve", "{heat}", "--nx", "abc"], "argument --nx: invalid int value"),
    (["rates", "{heat}", "--levels", "8,16", "--exponent", "nan"],
     "argument --exponent: expected a finite number"),
    (["solve", "{heat}", "--nx", "8", "--dt", "nan"], "argument --dt: expected a finite"),
    (["solve", "{heat}", "--nx", "8", "--theta", "inf"], "argument --theta: expected a finite"),
    (["split", str(CONFIGS / "split.json"), "--nx", "12", "--dt-list", "0.1,nan"],
     "--dt-list: expected finite numbers"),
    (["switching", str(CONFIGS / "modes2.json"), "--nx", "16", "--k-list", "0.2,inf"],
     "--k-list: expected finite numbers"),
    (["solve", "{nan}"], "non-finite number NaN"),
    (["solve", "{inf}"], "non-finite number -Infinity"),
    (["solve", "{overflow}"], "non-finite number 1e999"),
    (["solve", "{null}"], "sigma must be a finite number"),
    (["solve", "{text}"], "sigma must be a finite number"),
    (["solve", "{ragged}"], "sigma must be a finite number"),
    (["probe", "{heat}", "--nx", "8", "--trials", "0"], "needs trials >= 1"),
    (["probe", "{heat}", "--nx", "8", "--trials", "-3"], "needs trials >= 1"),
    (["probe", "{heat}", "--nx", "8", "--seed", "-1"], "needs seed >= 0"),
    (["pcc", str(CONFIGS / "pcc.json"), "--nx", "12", "--dt-list", "0.1,0.05",
      "--min-inner", "0"], "needs min_inner >= 1"),
    (["rates", "{heat}", "--levels", "0,16"], "need n_x >= 3"),
    (["rates", "{heat}", "--levels", "8,16", "--ref-nx", "0"], "need n_x >= 3"),
    (["solve", "{heat}", "--nx", "0"], "n_x must be >= 3"),
    (["split", str(CONFIGS / "split.json"), "--nx", "12", "--dt-list", "0.1,0.05",
      "--inner", "0"], "needs m >= 1, got 0"),
    (["solve", "{heat}", "--dt", "1e-300", "--nx", "8"],
     "grid: time step 1e-300 is too small for horizon 1.0"),
])
def test_bad_input_exits_one_before_any_solve(argv, reason, tmp_path, capsys, no_scheme_step):
    files = {"heat": str(CONFIGS / "heat.json"),
             "nan": _heat_with(tmp_path, "nan", '"sigma": NaN'),
             "inf": _heat_with(tmp_path, "inf", '"sigma": -Infinity'),
             "overflow": _heat_with(tmp_path, "overflow", '"sigma": 1e999'),
             "null": _heat_with(tmp_path, "null", '"sigma": null'),
             "text": _heat_with(tmp_path, "text", '"sigma": "1.0"'),
             "ragged": _heat_with(tmp_path, "ragged", '"sigma": [[1.0, 0.0], [1.0]]')}
    argv = [a.format(**files) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and reason in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["rates", str(CONFIGS / "heat.json"), "--levels", "8,8"],
    ["split", str(CONFIGS / "split.json"), "--nx", "12", "--dt-list", "0.1,0.1"],
    ["pcc", str(CONFIGS / "pcc.json"), "--nx", "12", "--dt-list", "0.1,0.1"],
    ["switching", str(CONFIGS / "modes2.json"), "--nx", "16", "--k-list", "0.2,0.2"],
])
def test_repeated_refinement_level_exits_one(argv, tmp_path, capsys, no_scheme_step):
    # two equal levels leave the log-log slope undefined: the study stops
    # before its first scheme step, and no verdict is made
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "must be distinct" in err
    assert err.count("\n") == 1
    assert not list(out.glob("*.csv"))


def test_console_script_help_smoke():
    proc = subprocess.run([sys.executable, "-m", "hjbfd.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "decompose" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["probe", str(CONFIGS / "heat.json"), "--nx", "8", "--trials", "5"],
    ["solve", str(CONFIGS / "heat.json"), "--nx", "8"],
])
def test_closed_stdout_ends_in_one_error_line(argv, tmp_path):
    # the read end of stdout is closed before the command starts, so its
    # first write fails, buffered or not: one error line and exit 1
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "hjbfd.cli", *argv,
                               "--out", str(tmp_path / "o")], stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.stderr == ("error: config: standard output was closed before the "
                           "command finished\n")
    assert proc.returncode == 1


def test_closed_stdout_in_process_is_one_error_line(monkeypatch, capsys):
    # under a capture stdout has no descriptor to point at the null device
    def closed(*args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "parse_matrix", closed)
    assert main(["decompose", str(CONFIGS / "matrix.json")]) == 1
    assert capsys.readouterr().err == ("error: config: standard output was closed before "
                                       "the command finished\n")


def test_no_stdout_at_all_is_not_an_error(tmp_path):
    # started with descriptor 1 closed, Python has no sys.stdout and print
    # writes nothing; the command still runs and succeeds
    proc = subprocess.run([sys.executable, "-m", "hjbfd.cli", "solve",
                           str(CONFIGS / "heat.json"), "--nx", "8", "--out", str(tmp_path / "o")],
                          stderr=subprocess.PIPE, text=True, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "o" / "solution.csv").exists()


def test_overflow_prints_one_error_line_and_no_warnings(tmp_path):
    # u0 of amplitude 1e308 overflows in the first step's products; numpy's
    # warnings stay off, and the residual check reports it as one line
    doc = load_json(str(CONFIGS / "heat.json"))
    doc["u0"] = {"name": "sin_sum", "params": {"amplitude": 1e308}}
    cfg = write_config(tmp_path, doc)
    proc = subprocess.run([sys.executable, "-m", "hjbfd.cli", "solve", cfg, "--nx", "16",
                           "--out", str(tmp_path / "o")], capture_output=True, text=True)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: numerical: implicit step: non-finite residual")
