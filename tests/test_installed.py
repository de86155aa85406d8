"""The command as installed, run as a subprocess: one table of cases.

Each case runs ``[sys.executable, "-m", "pdlogic.cli"]`` with the package
from ``src``, or the command in the ``PDLOGIC_COMMAND`` environment variable
when it is set (``PDLOGIC_COMMAND=pdlogic`` runs the console script that pip
installed). A case gives its arguments, the files it writes first, the run
whose output is its standard input if any, its exit status, its exact
standard output and error, and the seconds it may take.
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
    timeout: float = 60


def run(args: list[str], stdin: bytes, directory: Path,
        timeout: float) -> subprocess.CompletedProcess:
    argv, env = command()
    args = [arg.replace("{dir}", str(directory)) for arg in args]
    return subprocess.run(argv + args, input=stdin, capture_output=True, env=env,
                          timeout=timeout)


TENSOR_KEYS = [f"{c}{c}/{c}{c}" for c in "abcdefghijklm"]
SAFETY = "|- she/her -o (she/her (+) (she/her * they/them))"
# A description nested 40 deep in parenthesized terms, and one nested 20 deep
# whose innermost term is a predicate with no '=' after its parentheses.
NESTED_TERMS = "(iota x. " * 40 + "x = x" + ") = x" * 39 + ") = y"
MALFORMED_TERMS = "(iota x. " * 20 + "p(x)" + ")" * 20 + " = y"

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
    # The printed proof of the safety protocol is accepted.
    "prove_safety_piped_into_check": Case(
        ["prove", "--check", "/dev/stdin"], 0, "accepted\n", piped_from=["prove", SAFETY],
    ),
    # '-' reads the proof from standard input.
    "prove_piped_into_check_dash": Case(
        ["prove", "--check", "-"], 0, "accepted\n",
        piped_from=["prove", "a/b, c/d |- c/d * a/b"],
    ),
    # A description nested 40 deep takes 2^40 evaluations: it stops at the
    # evaluation budget.
    "eval_nested_descriptions_past_the_budget": Case(
        ["eval", "{dir}/model.txt", "p(iota x. " * 40 + "p(x)" + ")" * 40], 3, "",
        "error: free-logic evaluation budget exhausted\n",
        files={"model.txt": "domain: a b\npred p/1: b\n"}, timeout=30,
    ),
    # Each level of parenthesized terms once doubled the parse time.
    "parse_nested_parenthesized_terms": Case(
        ["parse", "--kind", "free", NESTED_TERMS], 0, NESTED_TERMS + "\n", timeout=10,
    ),
    "parse_malformed_nested_parenthesized_terms": Case(
        ["parse", "--kind", "free", MALFORMED_TERMS], 2, "",
        "error: line 1, column 186: expected '=' after term (expected '=')\n", timeout=10,
    ),
    # A bad descriptor on line 3 of a spec file is reported at its line and
    # column in the file, not in the descriptor.
    "check_bad_spec_third_line": Case(
        ["check", "{dir}/bad.spec", "{dir}/doc.txt"], 2, "",
        "error: line 3, column 30: expected formula (expected atom, modality, '(')\n",
        files={"bad.spec": "referent: Mara\n\ndescriptor:   [] (she/her /\\ )\n",
               "doc.txt": "Mara arrived.\n"},
        timeout=10,
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_installed_command(name, tmp_path):
    case = CASES[name]
    for file_name, text in case.files.items():
        (tmp_path / file_name).write_text(text, encoding="utf-8")
    stdin = b""
    if case.piped_from is not None:
        source = run(case.piped_from, b"", tmp_path, case.timeout)
        assert (source.returncode, source.stderr) == (0, b"")
        stdin = source.stdout
    result = run(case.args, stdin, tmp_path, case.timeout)
    assert result.stdout.decode("utf-8") == case.stdout
    assert result.stderr.decode("utf-8") == case.stderr
    assert result.returncode == case.status
