"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_quick_start_runs(capsys):
    section = README.read_text().split("### Quick start in Python", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    solve_line, study_line = capsys.readouterr().out.splitlines()
    assert 0.9 < float(solve_line) < 1.1  # sup |u(T)| of a unit sine
    slope, passed = study_line.split()
    assert float(slope) > 0.9 and passed == "True"
