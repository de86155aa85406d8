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
"""

from __future__ import annotations

import argparse
import functools
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
            output.append(f"# {doc_path}\n" if args.machine else f"== {doc_path}\n")
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdlogic",
        description="Pronoun descriptor logics: parse, prove, monitor, "
        "evaluate, and check documents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print its canonical form")
    p.add_argument("--kind", choices=("linear", "temporal", "free"), required=True)
    p.add_argument("formula", nargs="?", default=None)
    p.add_argument("--file", default=None, help="read the formula from a file")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("prove", help="decide a linear sequent")
    p.add_argument("formula", nargs="?", default=None, metavar="sequent")
    p.add_argument("--file", default=None, help="read the sequent from a file")
    p.add_argument("--check", default=None, metavar="PROOF",
                   help="validate a saved proof tree instead of searching "
                   "('-' reads it from standard input)")
    p.add_argument("--budget", type=_budget, default=prover.DEFAULT_BUDGET,
                   help="search node budget")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("monitor", help="check a trace against a temporal descriptor")
    p.add_argument("spec", help="file containing one temporal formula")
    p.add_argument("trace", help="trace file, one utterance per line")
    p.add_argument("--mode", choices=("batch", "stepwise"), default="batch")
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("eval", help="evaluate a free-logic formula or term over a model")
    p.add_argument("model", help="model file")
    p.add_argument("formula", nargs="?", default=None)
    p.add_argument("--file", default=None, help="read the formula from a file")
    p.add_argument("--term", action="store_true",
                   help="treat the input as a term and print its denotation")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="lint documents against a referent spec")
    p.add_argument("spec", help="referent spec file")
    p.add_argument("documents", nargs="+", metavar="document")
    p.add_argument("--machine", action="store_true",
                   help="tab-separated diagnostics instead of prose")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
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
