"""Spans around the package's public calls, recorded from outside the package.

``plain_api`` is the set of package functions the workloads call.
``install`` swaps in timed wrappers: on that namespace, on module attributes
that other modules look up at call time (``parsing.parse_*``, ``prover.*``,
``textcheck.*``, ``MonitorSession.feed``), and on the names ``cli`` and
``textcheck`` bind with ``from .monitoring import ...``. Inside
``check_document`` the trace extraction (``textcheck._utterances``, the body
of ``extract_trace``), ``segment``, ``expand_bounded`` and ``monitor`` are
looked up at call time, so they are child spans of the same call. Recursive
functions (``evaluate``, ``render``, ``eval_term``) are wrapped only where
they are entered from outside their module, so their inner calls stay untimed.
``uninstall`` puts every original back.

Spans are kept in memory: per name, the busy time (span duration), the self
time (duration minus direct children) and the call count, plus the first
``SPAN_CAP`` raw spans, written out when the run ends.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

from pdlogic import cli, freelogic, linear, monitoring, parsing, prover, temporal, textcheck

SPAN_CAP = 200_000
PARSERS = ("parse_linear", "parse_sequent", "parse_temporal", "parse_free", "parse_free_term")


def plain_api() -> SimpleNamespace:
    return SimpleNamespace(
        parse_sequent=parsing.parse_sequent,
        parse_temporal=parsing.parse_temporal,
        prove=prover.prove,
        check_proof=prover.check_proof,
        proof_to_text=prover.proof_to_text,
        proof_from_text=prover.proof_from_text,
        expand_bounded=monitoring.expand_bounded,
        evaluate=monitoring.evaluate,
        MonitorSession=monitoring.MonitorSession,
        load_referent_spec=textcheck.load_referent_spec,
        check_document=textcheck.check_document,
        render_report_machine=textcheck.render_report_machine,
        cli_main=cli.main,
    )


class Tracer:
    def __init__(self, timeout_type: type):
        self.timeout_type = timeout_type  # the benchmark's own time-limit signal
        self.stack: list[list] = []  # open spans: [id, time of direct children]
        self.open: set[str] = set()
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.next_id = 0
        self.op_id = None
        self.enabled = True  # off while answers are checked after timing

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def high(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def call(self, name, fn, args, kwargs=None, after=None):
        """Run ``fn`` inside a span; ``after(result, args)`` runs once the
        span is closed. A call nested in an open span of the same name is not
        recorded again."""
        if not self.enabled or name in self.open:
            return fn(*args, **(kwargs or {}))
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        if parent is None:
            self.op_id = span_id
        record = [span_id, 0.0]
        self.stack.append(record)
        self.open.add(name)
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except self.timeout_type:
            raise
        except BaseException as exc:
            self.count(f"{name}.raised:{type(exc).__name__}")
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.open.discard(name)
            duration = end - start
            self.busy[name] = self.busy.get(name, 0.0) + duration
            self.self_time[name] = self.self_time.get(name, 0.0) + duration - record[1]
            self.calls[name] = self.calls.get(name, 0) + 1
            if self.stack:
                self.stack[-1][1] += duration
            if len(self.spans) < SPAN_CAP:
                self.spans.append((span_id, parent, self.op_id, name, start, end))
        if after is not None:
            after(result, args)
        return result

    def wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, after)
        return wrapper

    def total(self, prefix: str) -> float:
        return sum(v for k, v in self.busy.items() if k.startswith(prefix))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, op, name, start, end in self.spans:
                out.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                      "name": name, "start": start, "end": end}) + "\n")


class _ModuleView:
    """A module with some attributes replaced, for one caller's lookups."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _formula_nodes(formula) -> int:
    count, todo = 0, [formula]
    while todo:
        count += 1
        todo.extend(temporal.children(todo.pop()))
    return count


def _proof_nodes(proof) -> int:
    count, todo = 0, [proof]
    while todo:
        count += 1
        todo.extend(todo.pop().premises)
    return count


def install(api: SimpleNamespace, tracer: Tracer):
    """Swap in timed wrappers; return what ``uninstall`` needs to undo it."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def chars(result, args):
        tracer.count("parsing.chars", len(args[0]))

    for name in PARSERS:
        patch(parsing, name, tracer.wrap(f"parsing.{name}", getattr(parsing, name), chars))

    def proved(result, args):
        if result is not None:
            tracer.count("prover.derivable")
            tracer.count("prover.proof_nodes", _proof_nodes(result))

    patch(prover, "prove", tracer.wrap("prover.prove", prover.prove, proved))
    for name in ("check_proof", "proof_to_text", "proof_from_text"):
        patch(prover, name, tracer.wrap(f"prover.{name}", getattr(prover, name)))

    expand = tracer.wrap("monitoring.expand_bounded", monitoring.expand_bounded)
    for owner in (monitoring, textcheck, cli):
        patch(owner, "expand_bounded", expand)
    evaluate = tracer.wrap("monitoring.evaluate", monitoring.evaluate)
    patch(cli, "evaluate", evaluate)
    feed = monitoring.MonitorSession.feed
    finish = monitoring.MonitorSession.finish

    def traced_feed(session, utterance):
        verdict = tracer.call("monitoring.feed", feed, (session, utterance))
        step = session.position
        if step & (step - 1) == 0:  # sample the residual at powers of two
            tracer.high("monitoring.residual_nodes_max", _formula_nodes(session.residual))
        return verdict

    def traced_finish(session):
        tracer.high("monitoring.residual_nodes_max", _formula_nodes(session.residual))
        return finish(session)

    patch(monitoring.MonitorSession, "feed", traced_feed)
    patch(monitoring.MonitorSession, "finish", traced_finish)

    def checked(result, args):
        tracer.count("textcheck.chars", len(args[0]))

    for name, span in (("load_referent_spec", "textcheck.load_spec"),
                       ("check_document", "textcheck.check_document"),
                       ("render_report_machine", "textcheck.render_report")):
        patch(textcheck, name, tracer.wrap(span, getattr(textcheck, name),
                                           checked if name == "check_document" else None))

    patch(cli, "linear", _ModuleView(linear, render=tracer.wrap("render.linear", linear.render)))
    patch(cli, "temporal", _ModuleView(
        temporal, render=tracer.wrap("render.temporal", temporal.render)))
    patch(cli, "freelogic", _ModuleView(
        freelogic,
        render=tracer.wrap("render.free", freelogic.render),
        parse_model=tracer.wrap("freelogic.parse_model", freelogic.parse_model),
        eval_term=tracer.wrap("freelogic.eval", freelogic.eval_term),
        check_sentence=tracer.wrap("freelogic.eval", freelogic.check_sentence),
    ))

    def sentences(result, args):
        tracer.count("textcheck.sentences", len(result))

    def utterances(result, args):
        tracer.count("textcheck.utterances", len(result))

    patch(textcheck, "segment", tracer.wrap("textcheck.segment", textcheck.segment, sentences))
    patch(textcheck, "_utterances", tracer.wrap("textcheck.extract_trace",
                                                textcheck._utterances, utterances))
    patch(textcheck, "monitor", tracer.wrap("textcheck.monitor", monitoring.monitor))

    patch(api, "parse_sequent", parsing.parse_sequent)
    patch(api, "parse_temporal", parsing.parse_temporal)
    for name in ("prove", "check_proof", "proof_to_text", "proof_from_text"):
        patch(api, name, getattr(prover, name))
    patch(api, "expand_bounded", expand)
    patch(api, "evaluate", evaluate)
    for name in ("load_referent_spec", "check_document", "render_report_machine"):
        patch(api, name, getattr(textcheck, name))
    patch(api, "cli_main", tracer.wrap("cli.main", cli.main))
    return saved


def uninstall(saved) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
