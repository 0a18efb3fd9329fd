"""Pinned CSV bytes of the command line, and the tracer's view of the package.

The golden hashes were recorded from the six jobs of acceptance check 11.
Check 11 only compares a rerun against a rerun, so a writer change that
altered every file the same way would pass it; these hashes catch that.
If an output change is intended, record the new hashes and name the change.
"""

import hashlib
import importlib
import importlib.util
from pathlib import Path

import pytest

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
    "pcc": ["pcc", str(CONFIGS / "pcc.json"), "--nx", "12",
            "--dt-list", "0.1,0.05", "--min-inner", "4"],
    "decompose": ["decompose", str(CONFIGS / "matrix.json")],
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
    "pcc": {
        "pcc.csv": "ca717e30f8c8956dd893f30a51b0954377388526112df03c743d62eb63d8ec2e",
    },
    "decompose": {
        "decomposition.csv":
            "1c7fc5e004162358e3fbb53278968c959cfca9ec169653d4eb6959870af69b00",
    },
}


@pytest.mark.parametrize("name", sorted(JOBS))
def test_csv_bytes_match_golden_hashes(name, tmp_path):
    assert main(JOBS[name] + ["--out", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.glob("*.csv"))}
    assert got == GOLDEN[name]


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
