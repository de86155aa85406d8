"""Command-line interface.

Exit status contract: 0 = positive result (parsed / provable / satisfied /
true / denoting), 1 = negative result (not derivable / violated / false /
non-denoting), 2 = usage, input, parse or configuration error, 3 = resource
limit. Each subcommand runs straight through and raises on failure; ``main``
holds the one table from exception to exit status, and every failure it
catches ends in a single ``error:`` line on stderr with nothing on stdout.

``main`` may be called many times in one process. The argument parser is
built on the first call and reused; each call parses its own argv into a new
namespace, and the subcommands look up the modules they call at call time.
argparse stays the one definition of the command line. For in-process
callers that make many calls, argv of a plain shape (a subcommand, its own
flags spelled in full and given once, each value as the next token, the
positionals in one run) is read in one pass over the actions that argparse
built (``_fast_args``). argparse reads every other argv, and prints every
help text and usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import freelogic, linear, parsing, prover, temporal, textcheck
from .monitoring import SATISFIED, VIOLATED, TraceFormatError, evaluate, monitor, parse_trace
from .monitoring import expand_bounded  # noqa: F401  (perfbench/tracing.py patches it)
from .textcheck import InputError, read_utf8

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_RESOURCE = 3

# Failures that exit 2 because the input is at fault. Any other exception is
# a bug below main and is not caught.
INPUT_ERRORS = (InputError, parsing.ParseError, TraceFormatError, prover.ProofTextError,
                textcheck.ConfigError, textcheck.LexiconError, freelogic.FreeLogicError)

# What went too deep when a subcommand reaches Python's recursion limit. A
# long sequent whose formulas are all shallow still recurses once per step
# of its proof search, and a long proof once per level. No input nested 100
# deep or less, the parsers' limit, was found to take the other subcommands
# there, so they share one message.
TOO_DEEP = {"prove": "proof search too deep", "prove --check": "proof too deep to check"}


def _fail(message: str, status: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return status


def _input_text(args) -> str:
    if args.formula is not None and args.file is not None:
        raise InputError("give the formula inline or via --file, not both")
    if args.formula is not None:
        return args.formula
    return read_utf8(args.file)


def _cmd_parse(args) -> int:
    renderers = {
        "linear": (parsing.parse_linear, linear.render),
        "temporal": (parsing.parse_temporal, temporal.render),
        "free": (parsing.parse_free, freelogic.render),
    }
    parse, render = renderers[args.kind]
    print(render(parse(_input_text(args))))
    return EXIT_POSITIVE


def _cmd_prove(args) -> int:
    if args.check is not None:
        if args.formula is not None or args.file is not None:
            raise InputError("give a sequent to prove or a proof to --check, not both")
        text = read_utf8(None if args.check == "-" else args.check)
        result = prover.check_proof(prover.proof_from_text(text))
        if result.ok:
            print("accepted")
            return EXIT_POSITIVE
        path = ".".join(str(i) for i in result.path) or "root"
        print(f"rejected at {path}: {result.reason}")
        return EXIT_NEGATIVE
    proof = prover.prove(parsing.parse_sequent(_input_text(args)), budget=args.budget)
    if proof is None:
        print("not derivable")
        return EXIT_NEGATIVE
    print(prover.proof_to_text(proof), end="")
    return EXIT_POSITIVE


def _cmd_monitor(args) -> int:
    formula = parsing.parse_temporal(read_utf8(args.spec))
    trace = parse_trace(read_utf8(args.trace))
    if args.mode == "batch":
        ok = evaluate(formula, trace, 0)
        print(SATISFIED if ok else VIOLATED)
        return EXIT_POSITIVE if ok else EXIT_NEGATIVE
    verdicts = monitor(formula, trace.utterances)
    for index, verdict in enumerate(verdicts):
        print(f"{index}\t{verdict.status}")
    final = verdicts[-1]
    return EXIT_POSITIVE if final.status == SATISFIED else EXIT_NEGATIVE


def _cmd_eval(args) -> int:
    model = freelogic.parse_model(read_utf8(args.model))
    text = _input_text(args)
    if args.term:
        value = freelogic.eval_term(model, {}, parsing.parse_free_term(text))
        print("non-denoting" if value is None else value)
        return EXIT_POSITIVE if value is not None else EXIT_NEGATIVE
    result = freelogic.check_sentence(model, parsing.parse_free(text))
    print("true" if result else "false")
    return EXIT_POSITIVE if result else EXIT_NEGATIVE


def _cmd_check(args) -> int:
    spec = textcheck.load_referent_spec(args.spec)
    render = textcheck.render_report_machine if args.machine else textcheck.render_report
    status = EXIT_POSITIVE
    output = []  # printed once every document is checked, so a failure prints nothing
    for doc_path in args.documents:
        text = read_utf8(doc_path)
        report = textcheck.check_document(text, spec)
        if len(args.documents) > 1:
            # A name's bytes that are not UTF-8 are printed as \xNN escapes,
            # which any standard output can encode.
            shown = os.fsencode(doc_path).decode("utf-8", "backslashreplace")
            output.append(f"# {shown}\n" if args.machine else f"== {shown}\n")
        output.append(render(report, text))
        if report.verdict.status == VIOLATED:
            status = EXIT_NEGATIVE
    print("".join(output), end="")
    return status


def _budget(text: str) -> int:
    """A ``--budget`` value: a whole number of search nodes, 0 or more."""
    try:
        budget = int(text)
    except ValueError:
        budget = -1
    if budget < 0:
        raise argparse.ArgumentTypeError(f"expected a whole number 0 or more, got {text!r}")
    return budget


def _value(action: argparse.Action, token: str):
    """``token`` converted by the action's ``type`` and checked against its
    ``choices``, as argparse does; ValueError when either refuses it."""
    value = token if action.type is None else action.type(token)
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"invalid choice: {value!r}")
    return value


@functools.cache
def _build_parser():
    """The parser, and each subcommand's parser with the actions that its
    ``add_argument`` calls returned and those actions by option string,
    which ``_fast_args`` reads."""
    parser = argparse.ArgumentParser(
        prog="pdlogic",
        description="Pronoun descriptor logics: parse, prove, monitor, "
        "evaluate, and check documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    commands["parse"] = p, (
        p.add_argument("--kind", choices=("linear", "temporal", "free"), required=True),
        p.add_argument("formula", nargs="?", default=None),
        p.add_argument("--file", default=None, help="read the formula from a file"),
    )
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("prove", help="decide a linear sequent")
    commands["prove"] = p, (
        p.add_argument("formula", nargs="?", default=None, metavar="sequent"),
        p.add_argument("--file", default=None, help="read the sequent from a file"),
        p.add_argument("--check", default=None, metavar="PROOF",
                       help="validate a saved proof tree instead of searching "
                       "('-' reads it from standard input)"),
        p.add_argument("--budget", type=_budget, default=prover.DEFAULT_BUDGET,
                       help="search node budget"),
    )
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("monitor", help="check a trace against a temporal descriptor")
    commands["monitor"] = p, (
        p.add_argument("spec", help="file containing one temporal formula"),
        p.add_argument("trace", help="trace file, one utterance per line"),
        p.add_argument("--mode", choices=("batch", "stepwise"), default="batch"),
    )
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("eval", help="evaluate a free-logic formula or term over a model")
    commands["eval"] = p, (
        p.add_argument("model", help="model file"),
        p.add_argument("formula", nargs="?", default=None),
        p.add_argument("--file", default=None, help="read the formula from a file"),
        p.add_argument("--term", action="store_true",
                       help="treat the input as a term and print its denotation"),
    )
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="lint documents against a referent spec")
    commands["check"] = p, (
        p.add_argument("spec", help="referent spec file"),
        p.add_argument("documents", nargs="+", metavar="document"),
        p.add_argument("--machine", action="store_true",
                       help="tab-separated diagnostics instead of prose"),
    )
    p.set_defaults(func=_cmd_check)

    return parser, {
        name: (p, actions, {string: action for action in actions
                            for string in action.option_strings})
        for name, (p, actions) in commands.items()
    }


def _fast_args(argv: list) -> argparse.Namespace | None:
    """The namespace that argparse builds from ``argv``, read in one pass
    over the subcommand's own actions, or None when ``argv`` is not of a
    plain shape. Plain means: a subcommand name, then strings each of which is
    exactly one of its option strings, given once, or a positional. An
    option takes no value or the next token, which does not start with
    ``-``. The positionals form one run, which the positional actions take
    in order, one each (``?`` one if any is left, ``+`` the rest), with none
    left over. Help, ``--opt=value``, abbreviations, ``--``, negative numbers
    and any value that ``type`` or ``choices`` refuses are left to argparse,
    which prints the help text and words every usage error."""
    _, commands = _build_parser()
    if not argv or not isinstance(argv[0], str) or argv[0] not in commands:
        return None
    command, actions, options = commands[argv[0]]
    given = {}  # action -> (its token, or list of tokens; its option string)
    run = []
    run_ended = False
    i, n = 1, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        if not isinstance(token, str):
            return None
        if token[:1] != "-" or token == "-":
            if run_ended:  # argparse takes positionals run by run
                return None
            run.append(token)
            continue
        action = options.get(token)
        if action is None or action in given:
            return None
        if action.nargs == 0:
            given[action] = [], token
        elif action.nargs is None and i < n and isinstance(argv[i], str) \
                and argv[i][:1] != "-":
            given[action] = argv[i], token
            i += 1
        else:
            return None
        run_ended = bool(run)
    taken = 0
    for action in actions:
        if action.option_strings:
            continue
        if action.nargs == "+" and taken < len(run):
            given[action] = run[taken:], None
            taken = len(run)
        elif action.nargs in (None, "?") and taken < len(run):
            given[action] = run[taken], None
            taken += 1
        elif action.nargs != "?":
            return None
    if taken < len(run):
        return None
    namespace = argparse.Namespace(command=argv[0])
    for action in actions:
        if action in given:
            continue
        if action.required or action.type is not None and isinstance(action.default, str):
            return None
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            setattr(namespace, action.dest, action.default)
    for action, (tokens, option_string) in given.items():
        try:
            values = ([_value(action, token) for token in tokens] if isinstance(tokens, list)
                      else _value(action, tokens))
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        action(command, namespace, values, option_string)
    namespace.func = command.get_default("func")
    return namespace


def _argparse_args(argv: list) -> argparse.Namespace:
    """The namespace that argparse builds from ``argv``; on a usage error
    argparse prints it and exits 2."""
    parser, _ = _build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse will not match an optional positional that appears after a
    # flag (e.g. `eval model --term "iota x. man(x)"`); pick it up here.
    if extra:
        if (
            len(extra) == 1
            and not extra[0].startswith("-")
            and getattr(args, "formula", "") is None
        ):
            args.formula = extra[0]
        else:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Most argv is plain and read in one pass; argparse reads the rest, so it
    # still prints every help text and usage error.
    args = _fast_args(argv)
    if args is None:
        args = _argparse_args(argv)
    # The one table from failure to exit status.
    try:
        return args.func(args)
    except INPUT_ERRORS as exc:
        return _fail(str(exc), EXIT_ERROR)
    except prover.ResourceLimit as exc:
        return _fail(str(exc), EXIT_RESOURCE)
    except RecursionError:
        work = args.command + (" --check" if getattr(args, "check", None) is not None else "")
        return _fail(f"{TOO_DEEP.get(work, 'input too deep')} (recursion limit reached)",
                     EXIT_RESOURCE)


if __name__ == "__main__":
    sys.exit(main())
