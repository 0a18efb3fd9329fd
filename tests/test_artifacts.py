"""Pinned CSV bytes of the command line, and the tracer's view of the package.

The golden hashes were recorded from the six jobs of acceptance check 11,
plus two solves: a 2D run, whose x_1,x_2 columns no other job writes, and
the benchmark's 128-node two-control trajectory, from a switching study
with three modes, whose config the test writes, as every bundled
switching config has two, and from two 2D jobs large enough for the
scheme's window gather (`WINDOW_GATHER`): a rates study with a 64-node
reference and a two-mode switching study, whose config the test writes,
and from a split study that calibrates its inner substeps (the other split
job passes --inner), whose stdout is pinned too, since only stdout carries
the calibration's notes.  Check 11 only compares a rerun against a rerun,
and the benchmark's drift check compares numbers, so a writer change that
altered every file the same way, or wrote 1e-05 as 1.0e-05, would pass
both; these hashes catch that.
If an output change is intended, record the new hashes and name the change.
"""

import hashlib
import importlib
import importlib.util
import json
import pkgutil
from pathlib import Path

import pytest

import hjbfd
import hjbfd.semigroup as semigroup
from hjbfd.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

JOBS = {
    "solve": ["solve", str(CONFIGS / "heat.json"), "--nx", "16"],
    "rates": ["rates", str(CONFIGS / "heat.json"), "--levels", "8,16"],
    "switching": ["switching", str(CONFIGS / "modes2.json"), "--nx", "24",
                  "--k-list", "0.2,0.1"],
    "split": ["split", str(CONFIGS / "split.json"), "--nx", "12",
              "--dt-list", "0.1,0.05", "--inner", "2"],
    "split_calibrated": ["split", str(CONFIGS / "split.json"), "--nx", "12",
                         "--dt-list", "0.1,0.05"],
    "pcc": ["pcc", str(CONFIGS / "pcc.json"), "--nx", "12",
            "--dt-list", "0.1,0.05", "--min-inner", "4"],
    "decompose": ["decompose", str(CONFIGS / "matrix.json")],
    "solve_2d": ["solve", str(ROOT / "perfbench" / "inputs" / "rates_2d_seed0.json"),
                 "--nx", "8"],
    "solve_twocontrol": ["solve", str(CONFIGS / "twocontrol.json"), "--nx", "128"],
    "switching_3modes": ["switching", "modes3.json", "--nx", "24", "--k-list", "0.2,0.1"],
    "rates_2d": ["rates", str(ROOT / "perfbench" / "inputs" / "rates_2d_seed0.json"),
                 "--levels", "16,32", "--ref-nx", "64"],
    "switching_2d": ["switching", "modes2d.json", "--nx", "32", "--k-list", "0.2,0.1"],
}

# configs a job names by file name only: the test writes them into its output directory
WRITTEN_CONFIGS = {
    "modes3.json": {
        "dim": 1, "period": 6.283185307179586, "horizon": 0.5,
        "controls": [{"sigma": 0.8, "b": 0.7}, {"sigma": 0.8, "b": -0.7},
                     {"sigma": 1.1, "f": 0.3}],
        "u0": {"name": "sin_sum"}, "modes": [[0], [1], [2]], "label": "three-mode",
    },
    # cross diffusion of both signs: each mode steps its (2, 32, 32) stack of
    # costs through 6 offsets, 12,288 gathered values
    "modes2d.json": {
        "dim": 2, "period": 6.283185307179586, "horizon": 0.2,
        "controls": [{"sigma": [[1.0, 0.3], [0.0, 0.9]], "b": [0.4, -0.2]},
                     {"sigma": [[1.0, -0.3], [0.0, 0.9]], "b": [-0.5, 0.3], "f": 0.2}],
        # off the grid's symmetry points: a gather that mirrored every offset
        # would give these sup-norm errors unchanged from a symmetric bump
        "u0": {"name": "gauss_bump", "params": {"center": [2.0, 3.5], "width": 0.8}},
        "modes": [[0], [1]], "label": "two-mode-2d",
    },
}

GOLDEN = {
    "solve": {
        "solution.csv": "822cdafb0d95c515ea97ed95cf68e12276155cbb1df05dc84cadafd48ffa3514",
        "trajectory.csv": "b93995c2f97d8788e92a60d4eb2090607d80766a39b0d18e49912eef4c609e69",
    },
    "rates": {
        "rates.csv": "7bc3ceed44b8965e6c6f653b376c27047dc11c716a57dcc76b329d885ed72f69",
    },
    "switching": {
        "switching.csv": "f3909bebb4e5b2a0c463a76d0ea5bdc27ed87e7ee5a7550914fb0f2467d637f3",
    },
    "split": {
        "split.csv": "6abf008c874578206ae4c00ad666cdc98266e09710ea2089cce9ca17306afcca",
    },
    "split_calibrated": {
        "split.csv": "a8e95b128df5e898ae5f71644005bb982431debc4e474914701d61ccbe2242df",
    },
    "pcc": {
        "pcc.csv": "ca717e30f8c8956dd893f30a51b0954377388526112df03c743d62eb63d8ec2e",
    },
    "decompose": {
        "decomposition.csv":
            "1c7fc5e004162358e3fbb53278968c959cfca9ec169653d4eb6959870af69b00",
    },
    "solve_2d": {
        "solution.csv": "ff8c003a5ff9ddbba7e01c3374c0a7c59f8dbcaf70c7a90fe8404028fa30e113",
        "trajectory.csv": "222c0a90ea1d94336ccf6d8d5de89a2b6b1a19fbb62dc5b82fadf24f998a25bb",
    },
    "solve_twocontrol": {
        "solution.csv": "c44e20fb6b10d470fc671506767f43d565a1716c5cc7e1d9e3e7f1979e89c60f",
        "trajectory.csv": "9dcef7f648e9d7c8582573fa433dab0020cf5b3ab901d7f5dcd004fdf11a9f8f",
    },
    "switching_3modes": {
        "switching.csv": "38537672c9f48173e5497b8b719a6028add1f391988c11c1edf5d9101bc5a865",
    },
    "rates_2d": {
        "rates.csv": "107fb63a1d8619b5617a78bfd0a213d0585170d64d52c6f6071bb6aaa8b9d2a0",
    },
    "switching_2d": {
        "switching.csv": "cd48850cbd16971286d11c1aa4703fa53a02567dfc3ef3cbb16b43ad859e457c",
    },
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_csv_bytes_match_golden_hashes(name, tmp_path):
    argv = list(JOBS[name])
    if argv[1] in WRITTEN_CONFIGS:
        config = tmp_path / argv[1]
        config.write_text(json.dumps(WRITTEN_CONFIGS[argv[1]]))
        argv[1] = str(config)
    assert main(argv + ["--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.glob("*.csv"))}
    assert got == GOLDEN[name]


# stdout of the split_calibrated job: its notes say the calibration reached its cap
CALIBRATED_STDOUT = "463c8cec734cf2849b03816e062a0aaa5066477ba68733250b75528ef8b95d81"


def test_calibrated_split_prints_the_same_line_from_six_solves(tmp_path, capsys, monkeypatch):
    # the (2, 4) and (4, 8) estimates halve and predict that (128, 256) misses:
    # calibration runs that pair at once and skips m = 16, 32 and 64
    solved = []
    solve = semigroup.splitting_solve
    monkeypatch.setattr(semigroup, "splitting_solve",
                        lambda sp, dt, m: solved.append((dt, m)) or solve(sp, dt, m))
    assert main(JOBS["split_calibrated"] + ["--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CALIBRATED_STDOUT, out
    assert solved == [(0.05, m) for m in (2, 4, 8, 128, 256)] + [(0.1, 256)]


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    """A traced name that was renamed or moved fails every traced sample."""
    targets = load_spans().TARGETS
    assert targets
    for module, attr in targets:
        mod = importlib.import_module(f"hjbfd.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            assert meth in cls.__dict__, f"{module}.{attr} is not defined on its class"
            assert callable(cls.__dict__[meth])
        else:
            assert callable(getattr(mod, attr, None)), f"hjbfd.{module}.{attr} is missing"


@pytest.mark.parametrize("module", ["hjbfd"] + sorted(
    f"hjbfd.{m.name}" for m in pkgutil.iter_modules(hjbfd.__path__)))
def test_exported_names_resolve(module):
    """A name left in an `__all__` after its definition went fails here."""
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names undefined {missing}"
