"""CLI stdout and exit codes, byte for byte, on the README's commands.

``tests/golden/commands.json`` maps each command's name to its argv and
exit code; ``tests/golden/<name>.out`` holds its stdout.  When an output
change is intended, rewrite the outputs and exit codes with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from teachdim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_and_exit_code(name, capsys, monkeypatch):
    monkeypatch.delenv("TEACHDIM_BUDGET", raising=False)
    assert main(COMMANDS[name]["argv"]) == COMMANDS[name]["exit"]
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


if __name__ == "__main__":
    os.environ.pop("TEACHDIM_BUDGET", None)
    for name, command in COMMANDS.items():
        out = io.StringIO()
        with redirect_stdout(out):
            command["exit"] = main(command["argv"])
        (GOLDEN / f"{name}.out").write_text(out.getvalue())
    (GOLDEN / "commands.json").write_text(json.dumps(COMMANDS, indent=2) + "\n")
