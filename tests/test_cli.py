"""End-to-end CLI behaviour, including the exit-status contract."""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import time
import types
from itertools import product
from pathlib import Path
from string import ascii_lowercase

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdlogic import cli, monitoring, textcheck
from pdlogic.cli import main
from pdlogic.parsing import parse_temporal

SAMPLES = Path(__file__).resolve().parent.parent / "samples"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def stdin_of(data: str | bytes) -> io.TextIOWrapper:
    """Standard input as a process gets it: bytes under a text layer."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_linear_canonical_form(self, capsys):
        code, out, _ = run(
            capsys, "parse", "--kind", "linear",
            "she/her ⊸ (she/her ⊕ (she/her ⊗ they/them))",
        )
        assert code == 0
        assert out == "she/her -o (she/her (+) (she/her * they/them))\n"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, "parse", "--kind", "linear", "she/her &")
        assert code == 2
        assert err.startswith("error:")
        assert "column" in err

    def test_bound_past_the_digit_limit_exits_2_at_its_position(self, capsys):
        # Python converts at most 4300 digits to an int
        code, out, err = run(capsys, "parse", "--kind", "temporal",
                             "a/b /\\ []<=" + "1" * 5000 + " a/b")
        assert (code, out) == (2, "")
        assert err == "error: line 1, column 12: number of 5000 digits is too long\n"

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", stdin_of("[] she/her"))
        code, out, _ = run(capsys, "parse", "--kind", "temporal")
        assert code == 0
        assert out == "[] she/her\n"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_error_line_and_column_count_every_line_end(self, capsys, tmp_path, newline):
        path = tmp_path / "formula.txt"
        path.write_bytes(f"# linear{newline}a/b &{newline}{newline}  & c/d{newline}".encode())
        code, out, err = run(capsys, "parse", "--kind", "linear", "--file", str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 4, column 3: expected formula (expected atom, '(')\n"

    def test_inline_and_file_conflict(self, capsys, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("she/her", encoding="utf-8")
        code, _, err = run(
            capsys, "parse", "--kind", "linear", "she/her", "--file", str(f)
        )
        assert code == 2
        assert "not both" in err


class TestProve:
    SAFETY = "|- she/her -o (she/her (+) (she/her * they/them))"

    def test_long_chain_exits_3_naming_the_proof_search(self, capsys):
        # pa/q, pa/q -o pb/q, ... |- ...: 1000 links, no formula deeper than
        # 2, so what reaches the recursion limit is the search.
        names = ["p" + "".join(t) + "/q" for t in product(ascii_lowercase, repeat=3)]
        chain = [f"{x} -o {y}" for x, y in zip(names[:1000], names[1:1001])]
        sequent = ", ".join([names[0]] + chain) + " |- " + names[1000]
        code, out, err = run(capsys, "prove", sequent)
        assert (code, out) == (3, "")
        assert err == "error: proof search too deep (recursion limit reached)\n"

    def test_deep_proof_text_is_read_and_checked(self, capsys, tmp_path):
        # 2000 levels, past the recursion limit: reading it takes no frame per level.
        proof_file = tmp_path / "proof.txt"
        proof_file.write_text("".join("  " * i + "WithL1 | a/b & c/d |- a/b\n"
                                      for i in range(2000)), encoding="utf-8")
        code, out, err = run(capsys, "prove", "--check", str(proof_file))
        assert (code, err) == (1, "")
        assert out == "rejected at root: no with in the context decomposes to the premise (left)\n"

    def test_derivable_prints_proof(self, capsys):
        code, out, _ = run(capsys, "prove", self.SAFETY)
        assert code == 0
        assert out.splitlines()[0].startswith("LolliR | ")

    def test_not_derivable_exits_1(self, capsys):
        code, out, _ = run(capsys, "prove", "she/her |- she/her * she/her")
        assert code == 1
        assert out == "not derivable\n"

    def test_budget_exhaustion_exits_3(self, capsys):
        code, _, err = run(capsys, "prove", self.SAFETY, "--budget", "2")
        assert code == 3
        assert "budget" in err

    @pytest.mark.parametrize("budget", ["-5", "five"])
    def test_budget_below_0_is_a_usage_error(self, capsys, budget):
        code, out, err = run(capsys, "prove", "--budget", budget, "a/b |- a/b")
        assert (code, out) == (2, "")
        assert err.splitlines()[-1] == ("pdlogic prove: error: argument --budget: "
                                        f"expected a whole number 0 or more, got {budget!r}")

    def test_budget_0_exits_3(self, capsys):
        code, out, err = run(capsys, "prove", "--budget", "0", "a/b |- a/b")
        assert (code, out, err) == (3, "", "error: proof search node budget exhausted\n")

    def test_check_round_trip(self, capsys, tmp_path):
        code, out, _ = run(capsys, "prove", self.SAFETY)
        proof_file = tmp_path / "proof.txt"
        proof_file.write_text(out, encoding="utf-8")
        code, out, _ = run(capsys, "prove", "--check", str(proof_file))
        assert code == 0
        assert out == "accepted\n"

    def test_check_rejects_tampered_proof(self, capsys, tmp_path):
        code, out, _ = run(capsys, "prove", "a/b |- a/b")
        proof_file = tmp_path / "proof.txt"
        proof_file.write_text(out.replace("a/b |- a/b", "a/b |- c/d"),
                              encoding="utf-8")
        code, out, _ = run(capsys, "prove", "--check", str(proof_file))
        assert code == 1
        assert out.startswith("rejected at ")

    @pytest.mark.parametrize("bar, column", [(" | ", 20), (" |    ", 23)])
    def test_bad_sequent_in_proof_exits_2_at_its_line_and_column(
            self, capsys, tmp_path, bar, column):
        proof_file = tmp_path / "proof.txt"
        proof_file.write_text("TensorR | a/b, c/d |- a/b * c/d\n"
                              "  Id | a/b |- a/b\n"
                              f"  Id{bar}c/d |- c/d &\n", encoding="utf-8")
        code, out, err = run(capsys, "prove", "--check", str(proof_file))
        assert (code, out) == (2, "")
        assert err == (f"error: line 3, column {column}: "
                       "expected formula (expected atom, '(')\n")

    def test_check_dash_reads_standard_input(self, capsys, monkeypatch):
        code, proof, _ = run(capsys, "prove", "a/b, c/d |- c/d * a/b")
        assert code == 0
        monkeypatch.setattr("sys.stdin", stdin_of(proof))
        assert run(capsys, "prove", "--check", "-") == (0, "accepted\n", "")
        tampered = proof.replace("a/b, c/d |-", "a/b, c/d, c/d |-", 1)
        monkeypatch.setattr("sys.stdin", stdin_of(tampered))
        code, out, err = run(capsys, "prove", "--check", "-")
        assert (code, err) == (1, "")
        assert out.startswith("rejected at ")

    @pytest.mark.parametrize("given", ["inline", "file"])
    def test_sequent_with_check_exits_2(self, capsys, tmp_path, given):
        proof_file = tmp_path / "proof.txt"
        proof_file.write_text("Id | a/b |- a/b\n", encoding="utf-8")
        sequent_file = tmp_path / "sequent.txt"
        sequent_file.write_text("c/d |- e/f", encoding="utf-8")
        sequent = ["c/d |- e/f"] if given == "inline" else ["--file", str(sequent_file)]
        code, out, err = run(capsys, "prove", *sequent, "--check", str(proof_file))
        assert (code, out) == (2, "")
        assert err == "error: give a sequent to prove or a proof to --check, not both\n"


class TestMonitor:
    @pytest.fixture
    def files(self, tmp_path):
        spec = tmp_path / "spec.txt"
        trace = tmp_path / "trace.txt"
        spec.write_text("[] she/her\n", encoding="utf-8")
        trace.write_text("she/her\nshe/her\nthey/them\n", encoding="utf-8")
        return spec, trace

    def test_batch(self, capsys, files):
        spec, trace = files
        code, out, _ = run(capsys, "monitor", str(spec), str(trace))
        assert code == 1
        assert out == "Violated\n"

    def test_stepwise(self, capsys, files):
        spec, trace = files
        code, out, _ = run(
            capsys, "monitor", str(spec), str(trace), "--mode", "stepwise"
        )
        assert code == 1
        assert out == "0\tInconclusive\n1\tInconclusive\n2\tViolated\n"

    def test_a_form_feed_does_not_end_a_trace_line(self, capsys, files):
        # A line ends at "\n", "\r\n" or a lone "\r"; a form feed separates
        # two atoms of one utterance, as a space does.
        spec, trace = files
        for gap in ("\f", " "):
            trace.write_text(f"she/her{gap}they/them\nshe/her\n", encoding="utf-8")
            code, out, err = run(capsys, "monitor", str(spec), str(trace), "--mode", "stepwise")
            assert (code, out, err) == (0, "0\tInconclusive\n1\tInconclusive\n2\tSatisfied\n", "")

    def test_satisfied_exits_0(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        trace = tmp_path / "trace.txt"
        spec.write_text("<> they/them\n", encoding="utf-8")
        trace.write_text("she/her\nthey/them\n", encoding="utf-8")
        code, out, _ = run(capsys, "monitor", str(spec), str(trace))
        assert code == 0
        assert out == "Satisfied\n"

    @pytest.mark.parametrize("mode", ["batch", "stepwise"])
    def test_large_bound(self, capsys, tmp_path, mode):
        spec = tmp_path / "spec.txt"
        trace = tmp_path / "trace.txt"
        spec.write_text("[]<=1000 she/her\n", encoding="utf-8")
        trace.write_text("she/her\n" * 400, encoding="utf-8")
        code, out, err = run(capsys, "monitor", str(spec), str(trace), "--mode", mode)
        assert code == 0
        assert out.splitlines()[-1].endswith("Satisfied")
        assert err == ""

    def test_bad_trace_exits_2(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        trace = tmp_path / "trace.txt"
        spec.write_text("[] she/her\n", encoding="utf-8")
        trace.write_text("not-an-atom\n", encoding="utf-8")
        code, _, err = run(capsys, "monitor", str(spec), str(trace))
        assert code == 2
        assert err.startswith("error:")


class TestEval:
    @pytest.fixture
    def model(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("domain: a b\npred man/1: b\n", encoding="utf-8")
        return str(path)

    def test_true_formula(self, capsys, model):
        code, out, _ = run(capsys, "eval", model, "man(iota x. man(x))")
        assert code == 0
        assert out == "true\n"

    def test_false_formula_exits_1(self, capsys, model):
        code, out, _ = run(capsys, "eval", model, "forall x. man(x)")
        assert code == 1
        assert out == "false\n"

    def test_term_denotation(self, capsys, model):
        code, out, _ = run(capsys, "eval", model, "--term", "iota x. man(x)")
        assert code == 0
        assert out == "b\n"

    def test_non_denoting_term_exits_1(self, capsys, model):
        code, out, _ = run(capsys, "eval", model, "--term", "eps x. (man(x) /\\ !man(x))")
        assert code == 1
        assert out == "non-denoting\n"

    @pytest.mark.parametrize("line", [
        "predicate man/1: a", "predman/1: a", "pred man/" + "1" * 5000 + ": a",
    ], ids=["predicate", "predman", "arity-5000-digits"])
    def test_malformed_pred_line_exits_2(self, capsys, tmp_path, line):
        path = tmp_path / "model.txt"
        path.write_text(f"domain: a b\n{line}\n", encoding="utf-8")
        code, out, err = run(capsys, "eval", str(path), "forall x. man(x)")
        assert (code, out) == (2, "")
        assert err.startswith("error: line 2: ")
        assert err.count("\n") == 1

    def test_unknown_predicate_exits_2(self, capsys, model):
        code, _, err = run(capsys, "eval", model, "woman(iota x. man(x))")
        assert code == 2
        assert "woman" in err

    @pytest.mark.parametrize("text", [
        "forall x. man(x) /\\ q(x)", "exists x. man(x) \\/ q(x)",
    ])
    def test_unknown_predicate_exits_2_where_evaluation_does_not_reach_it(
            self, capsys, model, text):
        assert run(capsys, "eval", model, text) == (
            2, "", "error: model does not interpret q/1\n")

    def test_term_with_a_free_variable_exits_2(self, capsys, model):
        code, out, err = run(capsys, "eval", model, "--term", "eps x. !(x = x) /\\ man(y)")
        assert (code, out, err) == (2, "", "error: term has free variables: y\n")


class TestCheck:
    def test_violation_machine_output(self, capsys):
        code, out, _ = run(
            capsys, "check", str(SAMPLES / "violated.spec"),
            str(SAMPLES / "violated_doc.txt"), "--machine",
        )
        assert code == 1
        assert out == (SAMPLES / "violated.golden").read_text("utf-8")

    def test_satisfied_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "check", str(SAMPLES / "vacuous.spec"),
            str(SAMPLES / "vacuous_doc.txt"), "--machine",
        )
        assert code == 0
        assert "Satisfied" in out

    def test_multiple_documents_are_labelled(self, capsys):
        code, out, _ = run(
            capsys, "check", str(SAMPLES / "violated.spec"),
            str(SAMPLES / "vacuous_doc.txt"), str(SAMPLES / "violated_doc.txt"),
            "--machine",
        )
        assert code == 1  # any violation wins
        assert f"# {SAMPLES / 'vacuous_doc.txt'}" in out
        assert f"# {SAMPLES / 'violated_doc.txt'}" in out

    def test_document_name_that_is_not_utf8_is_escaped_in_its_header(
            self, tmp_path, monkeypatch):
        # A strict UTF-8 standard output, as under PYTHONIOENCODING=utf-8:strict
        # or a UTF-8 locale other than C, cannot encode the name's \udcff.
        doc = tmp_path / "d\udcff.txt"
        golden = (SAMPLES / "violated.golden").read_text("utf-8")
        doc.write_bytes((SAMPLES / "violated_doc.txt").read_bytes())
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
        monkeypatch.setattr("sys.stdout", stdout)
        code = main(["check", str(SAMPLES / "violated.spec"), str(doc),
                     str(SAMPLES / "violated_doc.txt"), "--machine"])
        stdout.flush()
        assert code == 1
        assert stdout.buffer.getvalue().decode("utf-8") == (
            f"# {tmp_path}/d\\xff.txt\n{golden}# {SAMPLES / 'violated_doc.txt'}\n{golden}")

    def test_human_report_mentions_caveat(self, capsys):
        code, out, _ = run(
            capsys, "check", str(SAMPLES / "violated.spec"),
            str(SAMPLES / "violated_doc.txt"),
        )
        assert code == 1
        assert "no coreference" in out

    def test_bad_descriptor_exits_2_at_its_line_and_column(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("referent: Mara\n\ndescriptor:   [] (she/her /\\ )\n",
                        encoding="utf-8")
        doc = tmp_path / "doc.txt"
        doc.write_text("Mara arrived.\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(spec), str(doc))
        assert (code, out) == (2, "")
        assert err == ("error: line 3, column 30: "
                       "expected formula (expected atom, modality, '(')\n")

    def test_repeated_descriptor_exits_2(self, capsys, tmp_path):
        # the second descriptor once replaced the first without a word
        spec = tmp_path / "spec.txt"
        spec.write_text("referent: Mara\ndescriptor: [] she/her\ndescriptor: [] he/him\n",
                        encoding="utf-8")
        doc = tmp_path / "doc.txt"
        doc.write_text("Mara came. She smiled.\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(spec), str(doc))
        assert (code, out) == (2, "")
        assert err == "error: line 3: duplicate key 'descriptor'\n"

    def test_empty_lexicon_exits_2_naming_its_line(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("referent: Mara\ndescriptor: [] she/her\nlexicon:\n", encoding="utf-8")
        doc = tmp_path / "doc.txt"
        doc.write_text("Mara came. She smiled.\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(spec), str(doc))
        assert (code, out, err) == (2, "", "error: line 3: empty value for 'lexicon'\n")

    def test_crlf_document_spans_are_byte_offsets_into_the_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_bytes(b"referent: Mara\r\ndescriptor: [] she/her\r\n")
        doc = tmp_path / "doc.txt"
        doc.write_bytes(b"Mara came.\r\nHe smiled.\r\n")
        code, out, err = run(capsys, "check", str(spec), str(doc), "--machine")
        assert (code, out, err) == (1, "12\t22\tViolated\the/him\n", "")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_report_line_and_column_count_every_line_end(self, capsys, tmp_path, newline):
        doc = tmp_path / "doc.txt"
        doc.write_bytes(f"Mara came.{newline}She sat.{newline}{newline}  He left.".encode())
        code, out, _ = run(capsys, "check", str(SAMPLES / "violated.spec"), str(doc))
        assert code == 1
        assert "  4:3: descriptor violated here (pronouns found: he/him)\n" in out
        code, out, _ = run(capsys, "check", str(SAMPLES / "violated.spec"), str(doc),
                           "--machine")
        start = 20 + 3 * len(newline)
        assert out == f"{start}\t{start + 8}\tViolated\the/him\n"

    def test_large_bound(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("referent: Mara\ndescriptor: []<=1000 she/her\n", encoding="utf-8")
        doc = tmp_path / "doc.txt"
        doc.write_text("Mara arrived. She smiled.\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(spec), str(doc), "--machine")
        assert code == 0
        assert out == "0\t26\tSatisfied\t-\n"
        assert err == ""

    def test_missing_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "check", "/nonexistent.spec", "/nonexistent.txt")
        assert code == 2
        assert err.startswith("error:")



BAD_BYTES = "she/her \u00e9".encode("latin-1")  # 0xe9 starts no UTF-8 sequence


class TestHostileInput:
    """Every input that cannot be read or is nested too deeply ends in one
    ``error:`` line and exit 2 (exit 3 when it exceeds a resource limit),
    never in a traceback."""

    @pytest.fixture
    def files(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(BAD_BYTES)
        spec = tmp_path / "spec.txt"
        spec.write_text("[] she/her\n", encoding="utf-8")
        trace = tmp_path / "trace.txt"
        trace.write_text("she/her\n", encoding="utf-8")
        model = tmp_path / "model.txt"
        model.write_text("domain: a b\npred man/1: b\n", encoding="utf-8")
        return {"bad": str(bad), "spec": str(spec), "trace": str(trace),
                "model": str(model), "referent": str(SAMPLES / "violated.spec")}

    @pytest.mark.parametrize("argv", [
        ["parse", "--kind", "linear", "--file", "{bad}"],
        ["prove", "--file", "{bad}"],
        ["prove", "--check", "{bad}"],
        ["monitor", "{bad}", "{trace}"],
        ["monitor", "{spec}", "{bad}"],
        ["eval", "{bad}", "man(x)"],
        ["eval", "{model}", "--file", "{bad}"],
        ["check", "{bad}", "{trace}"],
        ["check", "{referent}", "{bad}"],
    ], ids=lambda argv: "-".join(a.strip("{}-") for a in argv))
    def test_non_utf8_file_exits_2(self, capsys, files, argv):
        code, out, err = run(capsys, *(a.format(**files) for a in argv))
        assert code == 2
        assert out == ""
        assert err == f"error: {files['bad']}: not UTF-8 text (bad byte at offset 8)\n"

    def test_non_utf8_standard_input_exits_2(self, capsys, monkeypatch):
        # the bad byte sits in a comment, which the parser would skip
        monkeypatch.setattr("sys.stdin", stdin_of(b"a/b # \xff\n"))
        code, out, err = run(capsys, "parse", "--kind", "linear")
        assert (code, out) == (2, "")
        assert err == "error: standard input: not UTF-8 text (bad byte at offset 6)\n"

    def test_non_utf8_standard_input_exits_2_in_utf8_mode(self):
        # In UTF-8 mode (the C and POSIX locales) sys.stdin decodes with
        # surrogateescape, so a bad byte read through it raises nothing.
        result = subprocess.run(
            [sys.executable, "-m", "pdlogic.cli", "parse", "--kind", "linear"],
            input=b"a/b # \xff\n", capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONUTF8": "1"})
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr == b"error: standard input: not UTF-8 text (bad byte at offset 6)\n"

    def test_file_name_that_cannot_be_encoded_exits_2(self, capsys):
        # A lone surrogate reaches open() only from an in-process caller; it
        # is not a NUL byte, and the message must not say that it is.
        code, out, err = run(capsys, "parse", "--kind", "linear", "--file", "\ud800.txt")
        assert (code, out) == (2, "")
        assert err == "error: file name cannot be encoded: '\\ud800.txt'\n"
        code, out, err = run(capsys, "parse", "--kind", "linear", "--file", "a\x00b.txt")
        assert (code, out) == (2, "")
        assert err == "error: file name holds a NUL byte: 'a\\x00b.txt'\n"

    @pytest.mark.parametrize("depth", [1000, 3000, 10**5])
    @pytest.mark.parametrize("kind", ["linear", "temporal", "free"])
    def test_deep_nesting_exits_2(self, capsys, tmp_path, depth, kind):
        opening, body, closing = {
            "linear": ("(", "she/her", ")"),
            "temporal": ("!", "she/her", ""),
            "free": ("(", "man(x)", ")"),
        }[kind]
        path = tmp_path / "deep.txt"
        path.write_text(opening * depth + body + closing * depth, encoding="utf-8")
        code, out, err = run(capsys, "parse", "--kind", kind, "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1, column ")
        assert err.count("\n") == 1

    def test_deep_sequent_exits_2(self, capsys):
        code, _, err = run(capsys, "prove", "|- " + "(" * 3000 + "a/b" + ")" * 3000)
        assert code == 2
        assert "nested deeper" in err
        assert err.count("\n") == 1

    def test_batch_evaluation_past_the_recursion_limit_exits_3(
        self, capsys, files, monkeypatch
    ):
        def too_deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "evaluate", too_deep)
        code, out, err = run(capsys, "monitor", files["spec"], files["trace"], "--mode", "batch")
        assert (code, out, err) == (3, "", "error: input too deep (recursion limit reached)\n")

    def test_a_value_error_below_main_is_not_bad_input(self, files, monkeypatch):
        # Only the package's own input errors exit 2. A ValueError from a bug
        # below main propagates, so that no test mistakes it for bad input.
        def buggy(*args):
            raise ValueError("a bug, not the input")

        monkeypatch.setattr(cli, "evaluate", buggy)
        with pytest.raises(ValueError, match="^a bug, not the input$"):
            main(["monitor", files["spec"], files["trace"]])

    @pytest.mark.parametrize("bad", ["she", "she/h3r"])
    def test_bad_lexicon_atom_exits_2(self, capsys, tmp_path, bad):
        (tmp_path / "lex.txt").write_text(f"she -> {bad}\n", encoding="utf-8")
        spec = tmp_path / "spec.txt"
        spec.write_text("referent: Mara\ndescriptor: [] she/her\nlexicon: lex.txt\n",
                        encoding="utf-8")
        doc = tmp_path / "doc.txt"
        doc.write_text("Mara arrived. She smiled.\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(spec), str(doc))
        assert code == 2
        assert out == ""
        assert err.startswith("error: line 1: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("depth, expected", [
        (17, (1, "false\n", "")),
        (40, (1, "false\n", "")),
    ])
    def test_nested_descriptions_answer_or_exit_3(self, capsys, tmp_path, depth, expected):
        # Each description is closed and evaluated once. Evaluated once per
        # binding of every x around it instead, depth 40 would take 2^40
        # evaluations.
        model = tmp_path / "model.txt"
        model.write_text("domain: a b\npred p/1: b\n", encoding="utf-8")
        text = "p(iota x. " * depth + "p(x)" + ")" * depth
        started = time.perf_counter()
        assert run(capsys, "eval", str(model), text) == expected
        assert time.perf_counter() - started < 5.0

    def test_wide_sentence_past_the_budget_exits_3(self, capsys, tmp_path):
        # The body uses all four variables: 32^4 evaluations past the memo.
        model = tmp_path / "model.txt"
        model.write_text("domain: " + " ".join(f"i{k}" for k in range(32)) + "\n",
                         encoding="utf-8")
        text = "forall x. forall y. forall z. forall w. x = y \\/ !(x = y) \\/ z = w"
        assert run(capsys, "eval", str(model), text) == (
            3, "", "error: free-logic evaluation budget exhausted\n")

    def test_huge_bound_answers_in_stepwise_monitor(self, capsys, files):
        spec = Path(files["spec"])
        spec.write_text("[]<=1000000000 she/her\n", encoding="utf-8")
        started = time.perf_counter()
        code, out, err = run(capsys, "monitor", str(spec), files["trace"], "--mode", "stepwise")
        assert time.perf_counter() - started < 1.0
        assert (code, out, err) == (0, "0\tInconclusive\n1\tSatisfied\n", "")

    def test_huge_bound_answers_in_check(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("referent: Mara\ndescriptor: []<=1000000000 she/her\n",
                        encoding="utf-8")
        doc = tmp_path / "doc.txt"
        doc.write_text("Mara arrived. She smiled.\n", encoding="utf-8")
        started = time.perf_counter()
        code, out, err = run(capsys, "check", str(spec), str(doc), str(doc), "--machine")
        assert time.perf_counter() - started < 1.0
        assert (code, err) == (0, "")
        assert out.count("0\t26\tSatisfied\t-\n") == 2

    def test_equal_deep_operands_answer_in_stepwise_monitor(self, capsys, files):
        spec = Path(files["spec"])
        spec.write_text("[]<=5000 a/b /\\ []<=5000 a/b\n", encoding="utf-8")
        trace = Path(files["trace"])
        trace.write_text("a/b\na/b\n", encoding="utf-8")
        code, out, err = run(capsys, "monitor", str(spec), str(trace), "--mode", "stepwise")
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].endswith("\tSatisfied")

    def test_equal_deep_operands_answer_in_check(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("referent: Mara\ndescriptor: []<=5000 she/her /\\ []<=5000 she/her\n",
                        encoding="utf-8")
        doc = tmp_path / "doc.txt"
        doc.write_text("Mara arrived. She smiled.\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(spec), str(doc), "--machine")
        assert (code, out, err) == (0, "0\t26\tSatisfied\t-\n", "")

    # Unequal bounds over one body: expanded, the two residuals would be
    # chains of different length thousands of nodes deep, too deep to compare.
    UNEQUAL_BOUNDS = pytest.mark.parametrize("j,k", [(5000, 5001), (3000, 2000)],
                                             ids=["5000-5001", "3000-2000"])

    @UNEQUAL_BOUNDS
    def test_unequal_deep_operands_answer_in_stepwise_monitor(self, capsys, files, j, k):
        spec = Path(files["spec"])
        spec.write_text(f"[]<={j} a/b /\\ []<={k} a/b\n", encoding="utf-8")
        trace = Path(files["trace"])
        trace.write_text("a/b\na/b\n", encoding="utf-8")
        started = time.perf_counter()
        code, out, err = run(capsys, "monitor", str(spec), str(trace), "--mode", "stepwise")
        assert time.perf_counter() - started < 1.0
        assert (code, err) == (0, "")
        assert out.splitlines()[-1].endswith("\tSatisfied")

    @UNEQUAL_BOUNDS
    def test_unequal_deep_operands_answer_in_check(self, capsys, tmp_path, j, k):
        spec = tmp_path / "spec.txt"
        spec.write_text(f"referent: Mara\ndescriptor: []<={j} she/her /\\ []<={k} she/her\n",
                        encoding="utf-8")
        doc = tmp_path / "doc.txt"
        doc.write_text("Mara arrived. She smiled.\n", encoding="utf-8")
        started = time.perf_counter()
        code, out, err = run(capsys, "check", str(spec), str(doc), "--machine")
        assert time.perf_counter() - started < 1.0
        assert (code, out, err) == (0, "0\t26\tSatisfied\t-\n", "")

    def test_no_path_expands_bounded_modalities(self, capsys, files, monkeypatch):
        def forbidden(*args):
            raise AssertionError("expand_bounded must not be called")

        for owner in (monitoring, cli, textcheck):
            monkeypatch.setattr(owner, "expand_bounded", forbidden)
        descriptor = "[]<=3 she/her /\\ <><=2 she/her"
        Path(files["spec"]).write_text(descriptor + "\n", encoding="utf-8")
        for mode in ("batch", "stepwise"):
            code, out, err = run(capsys, "monitor", files["spec"], files["trace"], "--mode", mode)
            assert (code, err) == (0, "")
        spec = Path(files["spec"]).with_name("referent.spec")
        spec.write_text(f"referent: Mara\ndescriptor: {descriptor}\n", encoding="utf-8")
        doc = spec.with_name("doc.txt")
        doc.write_text("Mara arrived. She smiled.\n", encoding="utf-8")
        code, out, err = run(capsys, "check", str(spec), str(doc), "--machine")
        assert (code, out, err) == (0, "0\t26\tSatisfied\t-\n", "")
        assert monitoring.monitor(parse_temporal(descriptor), [])[-1].status == "Violated"

    def test_unreadable_second_document_prints_no_report(self, capsys, files):
        code, out, err = run(capsys, "check", files["referent"],
                             str(SAMPLES / "violated_doc.txt"), files["bad"])
        assert (code, out) == (2, "")
        assert err == f"error: {files['bad']}: not UTF-8 text (bad byte at offset 8)\n"


class TestUsage:
    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "prove", "--frobnicate")
        assert code == 2


def test_importing_the_cli_leaves_slow_modules_out():
    # dataclasses loads inspect, ast, dis and tokenize, and with typing it
    # took half of the CLI's import time; default_lexicon imports
    # importlib.resources when called, which at startup cost 15-20 ms;
    # pathlib brings urllib.parse and ipaddress, about 5 ms.
    script = ("import sys, pdlogic.cli; print([name for name in ('dataclasses', 'inspect',"
              " 'typing', 'importlib.resources', 'pathlib', 'urllib.parse', 'ipaddress')"
              " if name in sys.modules])")
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


# Pairs of calls where the later call leaves out a flag the earlier one set.
SHARED_PARSER_SEQUENCES = {
    "monitor_mode": (["monitor", "{spec}", "{trace}", "--mode", "stepwise"],
                     ["monitor", "{spec}", "{trace}"]),
    "prove_budget": (["prove", "she/her |- she/her (+) they/them", "--budget", "1"],
                     ["prove", "she/her |- she/her (+) they/them"]),
    "eval_term": (["eval", "{model}", "--term", "iota x. man(x)"],
                  ["eval", "{model}", "man(iota x. man(x))"]),
    "check_machine": (["check", str(SAMPLES / "violated.spec"),
                       str(SAMPLES / "violated_doc.txt"), "--machine"],
                      ["check", str(SAMPLES / "violated.spec"),
                       str(SAMPLES / "violated_doc.txt")]),
    "prove_check": (["prove", "--check", "{proof}"], ["prove", "a/b |- a/b"]),
    # One call read by argparse, the other by cli._fast_args, in both orders.
    "prove_budget_spelled_with_equals": (
        ["prove", "she/her |- she/her (+) they/them", "--budget=1"],
        ["prove", "she/her |- she/her (+) they/them"]),
    "prove_budget_after_a_plain_call": (
        ["prove", "she/her |- she/her (+) they/them"],
        ["prove", "she/her |- she/her (+) they/them", "--budget=1"]),
    "eval_term_after_a_plain_call": (["eval", "{model}", "man(iota x. man(x))"],
                                     ["eval", "{model}", "--term", "iota x. man(x)"]),
    "monitor_mode_abbreviated": (["monitor", "{spec}", "{trace}", "--mo", "stepwise"],
                                 ["monitor", "{spec}", "{trace}"]),
    "check_machine_after_a_plain_call": (
        ["check", str(SAMPLES / "violated.spec"), str(SAMPLES / "violated_doc.txt")],
        ["check", "--machine", "--", str(SAMPLES / "violated.spec"),
         str(SAMPLES / "violated_doc.txt")]),
}


class TestSharedParser:
    """``main`` builds its parser once per process; one call must not leak
    into the next."""

    @pytest.fixture
    def files(self, tmp_path):
        paths = {name: tmp_path / f"{name}.txt" for name in ("spec", "trace", "model", "proof")}
        paths["spec"].write_text("[] she/her\n", encoding="utf-8")
        paths["trace"].write_text("she/her\nshe/her\nthey/them\n", encoding="utf-8")
        paths["model"].write_text("domain: a b\npred man/1: b\n", encoding="utf-8")
        paths["proof"].write_text("Id | a/b |- a/b\n", encoding="utf-8")
        return {name: str(path) for name, path in paths.items()}

    @staticmethod
    def fresh(capsys, *argv):
        """The call as the first one in the process, on a newly built parser."""
        cli._build_parser.cache_clear()
        return run(capsys, *argv)

    @pytest.mark.parametrize("name", sorted(SHARED_PARSER_SEQUENCES))
    def test_later_call_does_not_inherit_an_earlier_flag(self, capsys, files, name):
        calls = [[arg.format(**files) for arg in argv]
                 for argv in SHARED_PARSER_SEQUENCES[name]]
        expected = [self.fresh(capsys, *argv) for argv in calls]
        assert expected[0] != expected[1]
        self.fresh(capsys, "parse", "--kind", "linear", "a/b")
        assert [run(capsys, *argv) for argv in calls] == expected

    @pytest.mark.parametrize("command", [None, "parse", "prove", "monitor", "eval", "check"])
    def test_help_text_matches_a_fresh_parser(self, capsys, command):
        argv = ["--help"] if command is None else [command, "--help"]
        code, out, err = expected = self.fresh(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: pdlogic {command or ''}".rstrip())
        run(capsys, "prove", "a/b |- a/b")
        assert run(capsys, *argv) == expected

    def test_usage_error_matches_a_fresh_parser(self, capsys):
        code, out, err = expected = self.fresh(capsys, "monitor")
        assert (code, out) == (2, "")
        assert err.startswith("usage: pdlogic monitor")
        run(capsys, "monitor", "--help")
        assert run(capsys, "monitor") == expected

    def test_fifty_calls_build_one_parser(self):
        # A fresh interpreter, so that earlier tests cannot have built the
        # parser; the counter is installed before the import.
        script = textwrap.dedent(f"""
            import argparse, contextlib, io, json
            built = []
            init = argparse.ArgumentParser.__init__

            def counting_init(parser, *args, **kwargs):
                built.append(kwargs.get("prog"))
                init(parser, *args, **kwargs)

            argparse.ArgumentParser.__init__ = counting_init
            from pdlogic import cli
            counts = [len(built)]
            for i in range(50):
                argv = (["check", {str(SAMPLES / "vacuous.spec")!r},
                         {str(SAMPLES / "vacuous_doc.txt")!r}, "--machine"]
                        if i % 2 else ["parse", "--kind", "linear", "a/b"])
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(argv) == 0
                counts.append(len(built))
            print(json.dumps(counts))
        """)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env={**os.environ, "PYTHONPATH": SRC},
                                timeout=60)
        assert result.returncode == 0, result.stderr
        # The top parser and its five subparsers, built by the first call.
        assert json.loads(result.stdout) == [0] + [6] * 50


# Each subcommand's own options, for drawing argv.
FLAGS = {"parse": ["--kind", "--file"], "prove": ["--file", "--check", "--budget"],
         "monitor": ["--mode"], "eval": ["--file", "--term"], "check": ["--machine"]}
FLAG_VALUES = ["linear", "free", "batch", "stepwise", "3", "0", "five", "a/b |- a/b", "f.txt"]
ODD_TOKENS = ["-", "", "--", "-h", "--bud", "--budget=3", "--kind=linear", "-o b", "-1"]


@st.composite
def argvs(draw):
    """A subcommand, then its own flags with and without values, positionals,
    other subcommands' flags and the spellings only argparse reads."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    other_flags = sorted({flag for flags in FLAGS.values() for flag in flags})
    argv = [command]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["positional", "flag", "flag", "other", "odd"]))
        if kind == "flag":
            argv.append(draw(st.sampled_from(FLAGS[command])))
            if draw(st.integers(0, 4)):
                argv.append(draw(st.sampled_from(FLAG_VALUES)))
        else:
            argv.append(draw(st.sampled_from({"positional": FLAG_VALUES + ["s", "d1", "d2"],
                                              "other": other_flags,
                                              "odd": ODD_TOKENS}[kind])))
    return argv


def argparse_answer(argv):
    """What argparse and main's one-extra rule make of argv: the namespace,
    or the exit status of a usage error."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._argparse_args(argv)
        except SystemExit as exc:
            return exc.code


@settings(derandomize=True, max_examples=3000, deadline=None, database=None)
@given(argvs())
@example(["parse", "x"])  # --kind is required
@example(["check", "s", "d1", "--machine", "d2"])  # argparse takes positionals run by run
@example(["prove", "--check", "-"])  # "-" is a positional to argparse
def test_reader_builds_the_namespace_argparse_builds(argv):
    fast = cli._fast_args(argv)
    if fast is not None:
        assert argparse_answer(argv) == fast


def test_reader_takes_most_benchmark_argv(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(SAMPLES.parent / "perfbench"))
    import workloads
    calls = []
    api = types.SimpleNamespace(cli_main=lambda argv: calls.append(argv) or 0)
    for op in workloads.CliWorkload(1, api, SAMPLES.parent, tmp_path).make_pass(0):
        op.run()
    taken = [argv for argv in calls if cli._fast_args(argv) is not None]
    assert len(taken) >= 0.9 * len(calls) > 0
