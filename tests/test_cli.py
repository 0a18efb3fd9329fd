"""Command line interface: exit codes, outputs, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from hjbfd.cli import main

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


def test_solve_heat_outputs(tmp_path, capsys):
    files = run_twice_identical(
        lambda out: ["solve", str(CONFIGS / "heat.json"), "--nx", "16", "--out", out],
        tmp_path)
    assert {"solution.csv", "solution.gp", "trajectory.csv"} <= set(files)
    lines = files["trajectory.csv"].decode().splitlines()
    assert lines[0] == "t,x_1,value"
    assert "solve ok:" in capsys.readouterr().out


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


def test_rates_floor_failure_exits_two(tmp_path, capsys):
    code = main(["rates", str(CONFIGS / "heat.json"), "--levels", "8,16",
                 "--exponent", "5.0", "--out", str(tmp_path / "o")])
    assert code == 2
    out = capsys.readouterr()
    assert "verdict=fail" in out.out
    assert "rate check failed" in out.err


def test_rates_prints_dropped_levels(tmp_path, capsys, monkeypatch):
    from hjbfd.errors import SchemeError
    from hjbfd.scheme import ThetaScheme

    solve = ThetaScheme.solve

    def failing_at_16(self, *args, **kwargs):
        if self.grid.n_x == 16:
            raise SchemeError("policy iteration did not converge")
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(ThetaScheme, "solve", failing_at_16)
    code = main(["rates", str(CONFIGS / "heat.json"), "--levels", "8,16,32",
                 "--out", str(tmp_path / "o")])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("rates: slope=")
    assert "verdict=pass" in line
    assert "level n_x=16" in line and "did not converge" in line


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


def test_console_script_help_smoke():
    proc = subprocess.run([sys.executable, "-m", "hjbfd.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "decompose" in proc.stdout
