"""CLI stdout and exit codes, byte for byte, on the README's commands.

``tests/golden/commands.json`` maps each command's name to its argv and
exit code; ``tests/golden/<name>.out`` holds its stdout.  When an output
change is intended, rewrite the outputs and exit codes with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from teachdim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = GOLDEN.parents[1] / "src"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_and_exit_code(name, capsys, monkeypatch):
    monkeypatch.delenv("TEACHDIM_BUDGET", raising=False)
    assert main(COMMANDS[name]["argv"]) == COMMANDS[name]["exit"]
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()


def test_python_dash_m_from_a_checkout(tmp_path):
    """``PYTHONPATH=src python -m teachdim`` runs the CLI without an
    install: same stdout bytes and exit code as the golden run."""
    name = "triples-cycle-star"
    env = {k: v for k, v in os.environ.items() if k != "TEACHDIM_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-m", "teachdim", *COMMANDS[name]["argv"]],
                          cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert proc.returncode == COMMANDS[name]["exit"], proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()


def test_importing_dunder_main_runs_nothing(monkeypatch, capsys):
    """Only ``python -m teachdim`` runs the CLI; importing the module
    (pydoc, autodoc) neither reads argv nor exits."""
    import importlib

    monkeypatch.setattr(sys, "argv", ["teachdim", "--no-such-option"])
    monkeypatch.delitem(sys.modules, "teachdim.__main__", raising=False)
    importlib.import_module("teachdim.__main__")
    assert capsys.readouterr() == ("", "")


if __name__ == "__main__":
    os.environ.pop("TEACHDIM_BUDGET", None)
    for name, command in COMMANDS.items():
        out = io.StringIO()
        with redirect_stdout(out):
            command["exit"] = main(command["argv"])
        (GOLDEN / f"{name}.out").write_text(out.getvalue())
    (GOLDEN / "commands.json").write_text(json.dumps(COMMANDS, indent=2) + "\n")
