"""The command as installed, run as a subprocess: one table of cases.

Each case runs ``[sys.executable, "-m", "pdlogic.cli"]`` with the package
from ``src``, or the command in the ``PDLOGIC_COMMAND`` environment variable
when it is set (``PDLOGIC_COMMAND=pdlogic`` runs the console script that pip
installed). A case gives its arguments, the files it writes first, the run
whose output is its standard input if any, its exit status and its exact
standard output and error.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def command() -> tuple[list[str], dict[str, str]]:
    """The command to run and its environment."""
    installed = os.environ.get("PDLOGIC_COMMAND")
    if installed:
        return shlex.split(installed), dict(os.environ)
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "pdlogic.cli"], {**os.environ, "PYTHONPATH": path}


@dataclass(frozen=True)
class Case:
    args: list[str]  # "{dir}" stands for the directory that holds ``files``
    status: int
    stdout: str
    stderr: str = ""
    files: dict[str, str] = field(default_factory=dict)
    piped_from: list[str] | None = None  # a run whose output, exit 0, is stdin


def run(args: list[str], stdin: bytes, directory: Path) -> subprocess.CompletedProcess:
    argv, env = command()
    args = [arg.replace("{dir}", str(directory)) for arg in args]
    return subprocess.run(argv + args, input=stdin, capture_output=True, env=env,
                          timeout=60)


TENSOR_KEYS = [f"{c}{c}/{c}{c}" for c in "abcdefghijklm"]

CASES = {
    # The printed proof of the 13-atom tensor permutation is accepted when
    # read back from standard input.
    "prove_tensor_permutation_piped_into_check": Case(
        ["prove", "--check", "/dev/stdin"], 0, "accepted\n",
        piped_from=["prove", ", ".join(TENSOR_KEYS) + " |- " + " * ".join(TENSOR_KEYS[::-1])],
    ),
    # A bad sequent on the third line of a proof is reported at its line and
    # column in the file, not in the sequent.
    "prove_check_bad_third_line": Case(
        ["prove", "--check", "{dir}/proof.txt"], 2, "",
        "error: line 3, column 20: expected formula (expected atom, '(')\n",
        files={"proof.txt": "TensorR | a/b, c/d |- a/b * c/d\n"
                            "  Id | a/b |- a/b\n"
                            "  Id | c/d |- c/d &\n"},
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_installed_command(name, tmp_path):
    case = CASES[name]
    for file_name, text in case.files.items():
        (tmp_path / file_name).write_text(text, encoding="utf-8")
    stdin = b""
    if case.piped_from is not None:
        source = run(case.piped_from, b"", tmp_path)
        assert (source.returncode, source.stderr) == (0, b"")
        stdin = source.stdout
    result = run(case.args, stdin, tmp_path)
    assert result.stdout.decode("utf-8") == case.stdout
    assert result.stderr.decode("utf-8") == case.stderr
    assert result.returncode == case.status
