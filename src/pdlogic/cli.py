"""Command-line interface.

Exit status contract: 0 = positive result (parsed / provable / satisfied /
true / denoting), 1 = negative result (not derivable / violated / false /
non-denoting), 2 = usage, parse, or configuration error, 3 = resource limit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import freelogic, linear, parsing, prover, temporal, textcheck
from .monitoring import SATISFIED, VIOLATED, evaluate, monitor, parse_trace
from .monitoring import expand_bounded  # noqa: F401  (perfbench/tracing.py patches it)

EXIT_POSITIVE = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2
EXIT_RESOURCE = 3


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


class InputError(Exception):
    """An input file or stream that cannot be read as UTF-8 text."""


def _not_utf8(source: str, exc: UnicodeDecodeError) -> InputError:
    return InputError(f"{source}: not UTF-8 text (bad byte at offset {exc.start})")


def _read(path: str) -> str:
    try:
        return Path(path).read_text("utf-8")
    except OSError as exc:
        raise InputError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _input_text(args) -> str:
    if args.formula is not None and args.file is not None:
        raise SystemExit(_fail("give the formula inline or via --file, not both"))
    if args.formula is not None:
        return args.formula
    if args.file is not None:
        return _read(args.file)
    try:
        return sys.stdin.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8("standard input", exc) from None


def _cmd_parse(args) -> int:
    try:
        text = _input_text(args)
    except InputError as exc:
        return _fail(str(exc))
    renderers = {
        "linear": (parsing.parse_linear, linear.render),
        "temporal": (parsing.parse_temporal, temporal.render),
        "free": (parsing.parse_free, freelogic.render),
    }
    parse, render = renderers[args.kind]
    try:
        formula = parse(text)
    except parsing.ParseError as exc:
        return _fail(str(exc))
    print(render(formula))
    return EXIT_POSITIVE


def _cmd_prove(args) -> int:
    if args.check is not None:
        try:
            proof = prover.proof_from_text(_read(args.check))
        except (InputError, ValueError, parsing.ParseError) as exc:
            return _fail(str(exc))
        result = prover.check_proof(proof)
        if result.ok:
            print("accepted")
            return EXIT_POSITIVE
        path = ".".join(str(i) for i in result.path) or "root"
        print(f"rejected at {path}: {result.reason}")
        return EXIT_NEGATIVE
    try:
        text = _input_text(args)
        sequent = parsing.parse_sequent(text)
    except (InputError, parsing.ParseError) as exc:
        return _fail(str(exc))
    try:
        proof = prover.prove(sequent, budget=args.budget)
    except prover.ResourceLimit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    if proof is None:
        print("not derivable")
        return EXIT_NEGATIVE
    print(prover.proof_to_text(proof), end="")
    return EXIT_POSITIVE


def _cmd_monitor(args) -> int:
    try:
        formula = parsing.parse_temporal(_read(args.spec))
        trace = parse_trace(_read(args.trace))
    except (InputError, ValueError, parsing.ParseError) as exc:
        return _fail(str(exc))
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
    try:
        model = freelogic.parse_model(_read(args.model))
        text = _input_text(args)
    except (InputError, freelogic.ModelFormatError) as exc:
        return _fail(str(exc))
    try:
        if args.term:
            term = parsing.parse_free_term(text)
            value = freelogic.eval_term(model, {}, term)
            print("non-denoting" if value is None else value)
            return EXIT_POSITIVE if value is not None else EXIT_NEGATIVE
        formula = parsing.parse_free(text)
        result = freelogic.check_sentence(model, formula)
        print("true" if result else "false")
        return EXIT_POSITIVE if result else EXIT_NEGATIVE
    except (parsing.ParseError, freelogic.FreeLogicError) as exc:
        return _fail(str(exc))


def _cmd_check(args) -> int:
    try:
        spec = textcheck.load_referent_spec(args.spec)
    except (OSError, parsing.ParseError, textcheck.ConfigError,
            textcheck.LexiconError) as exc:
        return _fail(str(exc))
    status = EXIT_POSITIVE
    multiple = len(args.documents) > 1
    for doc_path in args.documents:
        try:
            text = _read(doc_path)
        except InputError as exc:
            return _fail(str(exc))
        report = textcheck.check_document(text, spec)
        if args.machine:
            if multiple:
                print(f"# {doc_path}")
            print(textcheck.render_report_machine(report, text), end="")
        else:
            if multiple:
                print(f"== {doc_path}")
            print(textcheck.render_report(report, text), end="")
        if report.verdict.status == VIOLATED:
            status = EXIT_NEGATIVE
    return status


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
                   help="validate a saved proof tree instead of searching")
    p.add_argument("--budget", type=int, default=prover.DEFAULT_BUDGET,
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
    try:
        return args.func(args)
    except RecursionError:
        # Last line of defence for the exit contract: a formula within the
        # parser's depth limit must never end in a traceback.
        print("error: formula too deep to evaluate (recursion limit reached)",
              file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
