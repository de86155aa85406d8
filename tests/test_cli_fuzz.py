"""Grammar-aware fuzzing of ``cli.main`` against the exit-status contract.

Every subcommand gets valid inputs of its own grammars (formulas, sequents,
specs, traces, models, lexicons, proof texts, documents), one of which is
mutated: byte edits, bytes that are not UTF-8, Unicode operator aliases,
inserted tokens and huge ``[]<=k`` bounds. Flag values are given plainly or
as ``--opt=value``, so that both of ``main``'s argument readers run.
Whatever the input, the run must exit 0, 1, 2 or 3, print nothing on stdout
when it exits 2 or 3, print exactly one ``error:`` line on stderr when it
exits 2 or 3 and nothing on stderr otherwise, and never let an exception
escape.

The free-logic seeds include a description nested 20 deep and a sentence of
four nested quantifiers, and each of the at most two edits adds at most one
binder. Evaluation takes each node once per binding of the variables it
uses, so the nested description costs a few evaluations per level, and a
body under at most six binders meets at most 2^6 bindings over the seed
model's two individuals: far below the budget of 10^6 evaluations per call
that would end it with exit 3.
"""

import contextlib
import io
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pdlogic import cli
from pdlogic.parsing import _ALIASES, _SYMBOLS, parse_sequent
from pdlogic.prover import proof_to_text, prove

SEEDS = {
    "linear": ["she/her -o (she/her (+) (she/her * they/them))", "a/b & c/d (+) e/f"],
    "temporal": ["[] (she/her \\/ they/them)", "[]<=3 <> a/b",
                 "[] (!she/her -> () she/her)", "<><=2 (a/b /\\ []<=2 c/d)"],
    "free": ["man(iota x. man(x))", "forall x. exists y. loves(x, y)",
             "exists y. y = (eps x. (man(x) /\\ !loves(x, iota z. man(z))))",
             "man(iota x. " * 20 + "man(x)" + ")" * 20,
             "forall x. forall y. forall z. forall w. x = y \\/ !(x = y) \\/ loves(z, w)"],
    "term": ["iota x. man(x)", "eps x. loves(x, iota y. man(y))"],
    "sequent": ["a/b & c/d |- a/b (+) c/d", "she/her |- she/her * she/her",
                "a/b -o c/d, a/b, e/f |- c/d * e/f"],
    "trace": ["she/her\nthey/them\n-\n# comment\nshe/her they/them\n", "a/b\nc/d\na/b\n"],
    "model": ["domain: a b\npred man/1: b\npred loves/2: a,b b,a\n"],
    "spec": ["referent: Mara M\ndescriptor: <><=3 xe/xem\nlexicon: lex.txt\n",
             "referent: Mara\ndescriptor: [] (she/her \\/ they/them)\n"],
    "lexicon": ["xe -> xe/xem\nxem -> xe/xem\n# comment\nxyr -> xe/xem\n"],
    "document": ["Mara arrived. She smiled!\nThey left? Xe stayed.\n"],
}
SEEDS["proof"] = [proof_to_text(prove(parse_sequent(s))) for s in SEEDS["sequent"][::2]]

TOKENS = _SYMBOLS + ["[]<=", "<><=", "|-", "iota x.", "eps x.", "forall x.", "exists x.",
                     "she/her", "a/b", "x", "man(", "->", "\n", "#", " - ", ":", "/"]
NOT_UTF8 = [b"\xff", b"\xe9", b"\xc3", b"\x80"]  # stray lead and continuation bytes
BIG_BOUNDS = ["[]<=10000 ", "<><=10000 ", "[]<=1000000000 ", "<><=1000000000 ",
              "[]<=" + "9" * 40 + " "]


@st.composite
def mutated(draw, kind):
    """A seed of ``kind`` as bytes, with one or two edits. Tokens and bounds
    go in where a token may start: at the beginning, after a space, a
    parenthesis or a line break."""
    data = draw(st.sampled_from(SEEDS[kind])).encode("utf-8")
    for _ in range(draw(st.sampled_from([1, 1, 1, 2]))):
        edit = draw(st.sampled_from(["byte", "delete", "non_utf8", "alias", "alias",
                                     "token", "bound", "bound"]))
        if edit in ("token", "bound"):
            starts = [0] + [i + 1 for i, b in enumerate(data) if b in b" (\n"]
            at = draw(st.sampled_from(starts))
        else:
            at = draw(st.integers(0, len(data)))
        if edit == "byte":
            data = data[:at] + bytes([draw(st.integers(0, 127))]) + data[at + 1:]
        elif edit == "delete":
            data = data[:at] + data[at + draw(st.integers(1, 4)):]
        elif edit == "non_utf8":
            data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
        elif edit == "alias":
            alias, ascii_ = draw(st.sampled_from(sorted(_ALIASES.items())))
            data = data.replace(ascii_.encode(), alias.encode("utf-8"), draw(st.integers(1, 3)))
        elif edit == "token":
            data = data[:at] + draw(st.sampled_from(TOKENS)).encode() + data[at:]
        else:
            data = data[:at] + draw(st.sampled_from(BIG_BOUNDS)).encode() + data[at:]
    return data


# Each command: argv with {name} for a file, and the kind of each file.
COMMANDS = [
    (["parse", "--kind", "linear", "--file", "{in}"], {"in": "linear"}),
    (["parse", "--kind", "temporal", "--file", "{in}"], {"in": "temporal"}),
    (["parse", "--kind", "free", "--file", "{in}"], {"in": "free"}),
    (["parse", "--kind", "temporal"], {"stdin": "temporal"}),
    (["prove", "--file", "{in}"], {"in": "sequent"}),
    (["prove", "--budget", "3", "--file", "{in}"], {"in": "sequent"}),
    (["prove"], {"stdin": "sequent"}),
    (["prove", "--check", "{in}"], {"in": "proof"}),
    (["monitor", "{spec}", "{trace}"], {"spec": "temporal", "trace": "trace"}),
    (["monitor", "{spec}", "{trace}", "--mode", "stepwise"],
     {"spec": "temporal", "trace": "trace"}),
    (["eval", "{model}", "--file", "{in}"], {"model": "model", "in": "free"}),
    (["eval", "{model}", "--term", "--file", "{in}"], {"model": "model", "in": "term"}),
    (["check", "{spec}", "{doc}"], {"spec": "spec", "lex.txt": "lexicon", "doc": "document"}),
    (["check", "{spec}", "{doc}", "{doc}", "--machine"],
     {"spec": "spec", "lex.txt": "lexicon", "doc": "document"}),
]


VALUELESS = {"--term", "--machine"}


def with_equals(argv):
    """argv with each flag's value written ``--opt=value``, a spelling that
    only argparse reads, where the plain one is read by ``cli._fast_args``."""
    tokens = iter(argv)
    return [token + "=" + next(tokens) if token.startswith("--") and token not in VALUELESS
            else token for token in tokens]


@st.composite
def invocations(draw):
    """argv template in either spelling, file contents by name (one of them
    mutated), stdin bytes."""
    argv, kinds = draw(st.sampled_from(COMMANDS))
    if draw(st.booleans()):
        argv = with_equals(argv)
    target = draw(st.sampled_from(sorted(kinds)))
    contents = {name: draw(mutated(kind)) if name == target
                else SEEDS[kind][0].encode("utf-8")
                for name, kind in kinds.items()}
    return argv, contents


@settings(derandomize=True, max_examples=1500, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_exit_status_contract_holds_for_mutated_input(invocation):
    argv, contents = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in contents.items():
            if name != "stdin":
                (Path(tmp) / name).write_bytes(data)
        paths = {name: str(Path(tmp) / name) for name in contents}
        stdin = io.TextIOWrapper(io.BytesIO(contents.get("stdin", b"")), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", stdin), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main([a.format(**paths) for a in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        assert err == ""
    else:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
