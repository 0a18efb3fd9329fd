"""The README's Python quick start runs as written, and its command table
lists the flags the command line has."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_quick_start_runs(capsys):
    section = README.read_text().split("### Quick start in Python", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    solve_line, study_line = capsys.readouterr().out.splitlines()
    assert 0.9 < float(solve_line) < 1.1  # sup |u(T)| of a unit sine
    slope, passed = study_line.split()
    assert float(slope) > 0.9 and passed == "True"


def test_readme_command_table_matches_each_subcommands_help(capsys):
    # the `| Command | ... | Flags besides --out |` table: one row per subcommand,
    # whose --flags plus --out are exactly the flags of that subcommand's --help
    from hjbfd.cli import build_parser, main

    table = README.read_text().split("| Flags besides `--out` |", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        command, _, flags, _ = line.strip("|").split(" | ")
        rows[command.strip("` ")] = set(re.findall(r"--([a-z][a-z-]*)", flags)) | {"out"}
    usage = build_parser().format_usage()
    assert sorted(rows) == sorted(re.search(r"\{([a-z,]+)\}", usage).group(1).split(","))
    for command, flags in rows.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = set(re.findall(r"--([a-z][a-z-]*)", capsys.readouterr().out)) - {"help"}
        assert flags == listed, command
