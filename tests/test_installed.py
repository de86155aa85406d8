"""The command as installed, run as a subprocess: one table of cases.

Each case runs ``[sys.executable, "-m", "pdlogic.cli"]`` with the package
from ``src``, or the command in the ``PDLOGIC_COMMAND`` environment variable
when it is set (``PDLOGIC_COMMAND=pdlogic`` runs the console script that pip
installed). A case gives its arguments, the files it writes first, its
standard input (bytes, or the output of another run), the variables laid
over the command's environment, its exit status, its exact standard output
and error, and the seconds it may take. Sample files are named by absolute
path, so the table runs from any working directory.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from string import ascii_lowercase
from unittest import mock

import pytest

from pdlogic import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
SAMPLES = ROOT / "samples"


def command(env: dict[str, str]) -> tuple[list[str], dict[str, str]]:
    """The command to run, and its environment with ``env`` laid over it."""
    installed = os.environ.get("PDLOGIC_COMMAND")
    if installed:
        return shlex.split(installed), {**os.environ, **env}
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "pdlogic.cli"], {**os.environ, "PYTHONPATH": path, **env}


@dataclass(frozen=True)
class Case:
    args: list[str]  # "{dir}" stands for the directory that holds ``files``
    status: int
    stdout: str
    stderr: str = ""
    files: dict[str, str] = field(default_factory=dict)
    stdin: bytes = b""
    piped_from: list[str] | None = None  # a run whose output, exit 0, is stdin
    env: dict[str, str] = field(default_factory=dict)
    timeout: float = 60


def run(args: list[str], stdin: bytes, directory: Path, env: dict[str, str],
        timeout: float) -> subprocess.CompletedProcess:
    argv, environment = command(env)
    args = [arg.replace("{dir}", str(directory)) for arg in args]
    return subprocess.run(argv + args, input=stdin, capture_output=True, env=environment,
                          timeout=timeout)


COLUMNS_80 = {"COLUMNS": "80"}
HELP_ARGV = {sub: [sub, "--help"] if sub else ["--help"]
             for sub in ("", "parse", "prove", "monitor", "eval", "check")}


def help_text(argv: list[str]) -> str:
    """What ``cli.main(argv)`` prints in this process at 80 columns."""
    out = io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS_80), contextlib.redirect_stdout(out):
        try:
            cli.main(argv)
        except SystemExit:
            pass
    return out.getvalue()


HELP = {sub: help_text(argv) for sub, argv in HELP_ARGV.items()}

TENSOR_KEYS = [f"{c}{c}/{c}{c}" for c in "abcdefghijklm"]
SAFETY = "|- she/her -o (she/her (+) (she/her * they/them))"
# A description nested 40 deep in parenthesized terms, and one nested 20 deep
# whose innermost term is a predicate with no '=' after its parentheses.
NESTED_TERMS = "(iota x. " * 40 + "x = x" + ") = x" * 39 + ") = y"
MALFORMED_TERMS = "(iota x. " * 20 + "p(x)" + ")" * 20 + " = y"

GOLDEN = {name: (SAMPLES / f"{name}.golden").read_text("utf-8")
          for name in ("eventually", "prompt_fix", "vacuous", "violated")}

# A trace of three utterances, and 4000 utterances of the response pattern
# whose last trigger, in the last five utterances, goes unanswered.
SHORT_TRACE = "she/her a/b\nshe/her c/d\nshe/her a/b c/d\n"
RESPONSE = "[] (a/b -> <><=5 c/d)"
LONG_TRACE = "\n".join(" ".join(["a/b"] * (j % 5 == 0)
                                + ["c/d"] * (j < 3995 and j % 5 == j // 5 % 5)) or "-"
                       for j in range(4000)) + "\n"
# Both modes answer alike: the name of each pair of rows, its spec, trace and
# exit status, and its batch and stepwise output.
MONITOR = {
    "huge_bound": ("[]<=1000000000 she/her", SHORT_TRACE, 0, "Satisfied\n",
                   "0\tInconclusive\n1\tInconclusive\n2\tInconclusive\n3\tSatisfied\n"),
    "unequal_deep_bounds": ("[]<=5000 a/b /\\ []<=5001 a/b", SHORT_TRACE, 1, "Violated\n",
                            "0\tInconclusive\n1\tViolated\n2\tViolated\n"),
    "response": (RESPONSE, SHORT_TRACE, 0, "Satisfied\n",
                 "0\tInconclusive\n1\tInconclusive\n2\tInconclusive\n3\tSatisfied\n"),
    "response_over_4000_utterances": (
        RESPONSE, LONG_TRACE, 1, "Violated\n",
        "".join(f"{j}\tInconclusive\n" for j in range(3999)) + "3999\tViolated\n"),
}

# A 1000-link chain of depth-2 formulas, deeper than the proof search's
# recursion limit.
CHAIN_NAMES = ["p" + "".join(t) + "/q" for t in product(ascii_lowercase, repeat=3)]
CHAIN_LINKS = [f"{x} -o {y}" for x, y in zip(CHAIN_NAMES[:1000], CHAIN_NAMES[1:1001])]
CHAIN = ", ".join([CHAIN_NAMES[0]] + CHAIN_LINKS) + " |- " + CHAIN_NAMES[1000]
DEEP_TEXT = "(" * 101 + "a/b" + ")" * 101 + " $"
# The referent spec that README.md shows under "### check", comments and all.
README_SPEC = (ROOT / "README.md").read_text("utf-8").split(
    "Lint documents against a referent spec:\n\n```\n", 1)[1].split("```", 1)[0]

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
    # A description nested 40 deep is closed, so it is evaluated once, not
    # once per binding of the x around it.
    "eval_nested_descriptions_answer": Case(
        ["eval", "{dir}/model.txt", "p(iota x. " * 40 + "p(x)" + ")" * 40], 1, "false\n",
        files={"model.txt": "domain: a b\npred p/1: b\n"}, timeout=30,
    ),
    # A body that uses all four variables is evaluated 32^4 times: it stops at
    # the evaluation budget.
    "eval_wide_sentence_past_the_budget": Case(
        ["eval", "{dir}/model.txt",
         "forall x. forall y. forall z. forall w. x = y \\/ !(x = y) \\/ z = w"], 3, "",
        "error: free-logic evaluation budget exhausted\n",
        files={"model.txt": "domain: " + " ".join(f"i{k}" for k in range(32)) + "\n"},
        timeout=30,
    ),
    # iota stops at the second satisfier, so 20,000 individuals cost it a
    # few evaluations.
    "eval_iota_over_20000_individuals": Case(
        ["eval", "{dir}/model.txt", "--term", "iota x. x = x"], 1, "non-denoting\n",
        files={"model.txt": "domain: " + " ".join(f"i{k}" for k in range(20_000)) + "\n"},
        timeout=10,
    ),
    # Each description scans all 130,000 individuals in 520,001 evaluations.
    # The left one does not denote, so '=' is false without the right one,
    # which would take the budget of 10^6 past its end.
    "eval_equation_stops_at_a_non_denoting_left_side": Case(
        ["eval", "{dir}/model.txt", "(eps x. !(x = x)) = (eps y. !(y = y))"], 1, "false\n",
        files={"model.txt": "domain: " + " ".join(f"i{k}" for k in range(130_000)) + "\n"},
        timeout=30,
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
    # README's spec, with a lexicon at the path it names that tracks only
    # she/her: "He" is no pronoun of the referent's, so the check passes.
    "check_readme_spec": Case(
        ["check", "{dir}/referent.spec", "{dir}/draft.txt", "--machine"], 0,
        "0\t34\tSatisfied\t-\n",
        files={"referent.spec": README_SPEC,
               "my_lexicon.txt": "she -> she/her\nher -> she/her\n",
               "draft.txt": "Mara arrived. She smiled. He left."},
    ),
    # A lexicon form matches a whole run of letters, lowercased: "ΟΣ" is the
    # form ος, and "O'ER" the runs "O" and "ER", so the form o'er never
    # matches. The first utterance is the second sentence's, with xe/xem.
    "check_custom_lexicon_forms": Case(
        ["check", "{dir}/kit.spec", "{dir}/doc.txt", "--machine"], 1,
        "15\t30\tViolated\txe/xem\n",
        files={"kit.spec": "referent: Kit\ndescriptor: [] !ey/em /\\ [] !xe/xem\n"
                           "lexicon: lex.txt\n",
               "lex.txt": "o'er -> ey/em\ney -> ey/em\nem -> ey/em\n"
                          "ος -> xe/xem\nxe -> xe/xem\nxem -> xe/xem\n",
               "doc.txt": "O'ER the hill. ΟΣ went home.\n"},
    ),
    # Each sample's machine report is its golden file, and the exit status
    # is 0 for Satisfied, 1 for Violated.
    **{f"check_golden_{name}": Case(
        ["check", str(SAMPLES / f"{name}.spec"), str(SAMPLES / f"{name}_doc.txt"), "--machine"],
        0 if golden.split("\t")[2] == "Satisfied" else 1, golden,
    ) for name, golden in GOLDEN.items()},
    # Stepwise mode progresses []<=k and <><=k one bound at a time, so a huge
    # bound and unequal deep bounds answer, and one transition table serves
    # the whole long trace.
    **{f"monitor_{name}_{mode}": Case(
        ["monitor", "{dir}/spec.txt", "{dir}/trace.txt", "--mode", mode], status, stdout,
        files={"spec.txt": spec + "\n", "trace.txt": trace},
    ) for name, (spec, trace, status, batch, stepwise) in MONITOR.items()
      for mode, stdout in (("batch", batch), ("stepwise", stepwise))},
    # Every --help prints what the parser in this process prints.
    **{f"help_{sub or 'pdlogic'}": Case(argv, 0, HELP[sub], env=COLUMNS_80)
       for sub, argv in HELP_ARGV.items()},
    # A trace line ends at '#', as spec, model and lexicon lines do.
    "monitor_trace_line_with_a_comment": Case(
        ["monitor", "{dir}/spec.txt", "{dir}/trace.txt"], 0, "Satisfied\n",
        files={"spec.txt": "[] she/her\n", "trace.txt": "she/her # note\n"},
    ),
    "monitor_without_arguments": Case(
        ["monitor"], 2, "",
        "usage: pdlogic monitor [-h] [--mode {batch,stepwise}] spec trace\n"
        "pdlogic monitor: error: the following arguments are required: spec, trace\n",
        env=COLUMNS_80,
    ),
    "prove_sequent_with_check": Case(
        ["prove", "c/d |- e/f", "--check", "{dir}/proof.txt"], 2, "",
        "error: give a sequent to prove or a proof to --check, not both\n",
        files={"proof.txt": "Id | a/b |- a/b\n"},
    ),
    # The 1000-link chain reaches the recursion limit in the proof search.
    "prove_chain_too_deep": Case(
        ["prove", "--file", "{dir}/chain.txt"], 3, "",
        "error: proof search too deep (recursion limit reached)\n",
        files={"chain.txt": CHAIN + "\n"},
    ),
    "eval_unrecognized_model_line": Case(
        ["eval", "{dir}/model.txt", "forall x. man(x)"], 2, "",
        "error: line 2: unrecognized line 'predicate man/1: a'\n",
        files={"model.txt": "domain: a b\npredicate man/1: a\n"},
    ),
    "monitor_bound_of_5000_digits": Case(
        ["monitor", "{dir}/spec.txt", "{dir}/trace.txt"], 2, "",
        "error: line 1, column 5: number of 5000 digits is too long\n",
        files={"spec.txt": "[]<=" + "1" * 5000 + " a/b\n", "trace.txt": "a/b\n"},
    ),
    # In UTF-8 mode, as under the C and POSIX locales: a 101-deep input that
    # ends in a bad character fails at its nesting, the first error in
    # reading order; standard input that is not UTF-8 fails, even in a
    # comment; a CRLF document's span is its byte offsets in the file.
    "parse_too_deep_before_a_bad_character": Case(
        ["parse", "--kind", "linear", DEEP_TEXT], 2, "",
        "error: line 1, column 102: formula nested deeper than 100 levels\n",
        env={"PYTHONUTF8": "1"},
    ),
    "parse_standard_input_not_utf8": Case(
        ["parse", "--kind", "linear"], 2, "",
        "error: standard input: not UTF-8 text (bad byte at offset 6)\n",
        stdin=b"a/b # \xff\n", env={"PYTHONUTF8": "1"},
    ),
    "check_crlf_document_spans": Case(
        ["check", "{dir}/crlf.spec", "{dir}/crlf.txt", "--machine"], 1,
        "12\t22\tViolated\the/him\n",
        files={"crlf.spec": "referent: Mara\ndescriptor: [] she/her\n",
               "crlf.txt": "Mara came.\r\nHe smiled.\r\n"},
        env={"PYTHONUTF8": "1"},
    ),
}


@pytest.mark.parametrize("sub", HELP_ARGV)
def test_help_names_its_command(sub):
    assert HELP[sub].startswith(f"usage: pdlogic {sub}")


@pytest.mark.parametrize("name", CASES)
def test_installed_command(name, tmp_path):
    case = CASES[name]
    for file_name, text in case.files.items():
        (tmp_path / file_name).write_bytes(text.encode("utf-8"))
    stdin = case.stdin
    if case.piped_from is not None:
        source = run(case.piped_from, b"", tmp_path, case.env, case.timeout)
        assert (source.returncode, source.stderr) == (0, b"")
        stdin = source.stdout
    result = run(case.args, stdin, tmp_path, case.env, case.timeout)
    assert result.stdout.decode("utf-8") == case.stdout
    assert result.stderr.decode("utf-8") == case.stderr
    assert result.returncode == case.status
