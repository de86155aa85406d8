"""One workload, in a fresh interpreter: set up, run its passes, check them.

Started by ``run.py``. Prints ``ready`` once set-up is done (the parent times
set-up up to that line), then ``# `` detail lines, then one JSON result line.
A closed loop with one caller: each operation starts when the previous one
has returned, in this one process, with no threads.

``--trace 0`` runs the passes untimed by spans and reports the end-to-end
metrics, with each pass's latencies scaled to the reference host speed by
the host-speed probes timed before its operations (``hostspeed``).
``--trace 1`` runs half as many passes twice, plain and then traced (their
wall-time difference is the tracing overhead), then the scaling-curve
ladder of every workload, untraced, and reports the per-layer metrics named
in ``BENCHMARK.json``. The module metrics come from the traced passes alone.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
HARD_STOP_S = 100.0  # no new pass starts after this much measuring
LADDER_LIMIT_S = 10.0  # per-op limit of the scaling-curve ladder
MODULES = ("parsing", "render", "prover", "monitoring", "textcheck", "freelogic", "cli")


class OpTimeout(BaseException):
    """Raised by the interval timer when an operation misses its limit; a
    BaseException so that no ``except Exception`` in the package absorbs it."""


def _alarm(signum, frame):
    raise OpTimeout


def timed(op, limit, tracer=None):
    """Run one operation under the time limit: (seconds, answer, error)."""
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            if tracer is None:
                answer = op.run()
            else:
                answer = tracer.call(f"op.{op.family}", op.run, ())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        error = None
    except OpTimeout:
        answer, error = None, f"missed the {limit:g} s time limit"
    except Exception as exc:
        answer, error = None, f"raised {type(exc).__name__}"
    return time.perf_counter() - start, answer, error


class Run:
    """Outcome of the operations run so far."""

    def __init__(self):
        self.latencies: list[float] = []  # at the reference host speed
        self.wall_latencies: list[float] = []  # as the clock read them
        self.pass_rates: list[float] = []
        self.passes: list[list[float]] = []  # op wall-clock latencies, pass by pass
        self.probes: list[list[float]] = []  # host-speed probe times, pass by pass
        self.failed = 0
        self.failures: dict[str, dict] = {}  # by input name
        self.wrong = 0
        self.unexpected = 0
        self.loop_wall = 0.0
        self.curves: dict[str, float] = {}  # scaling-curve point -> ms

    def merge(self, other: "Run") -> None:
        """Add another run's outcomes (not its timings) to this one."""
        self.latencies += other.latencies
        self.wall_latencies += other.wall_latencies
        self.failed += other.failed
        self.wrong += other.wrong
        self.unexpected += other.unexpected
        for name, entry in other.failures.items():
            mine = self.failures.setdefault(name, dict(entry, count=0))
            mine["count"] += entry["count"]

    def run_ops(self, ops, limit, tracer=None):
        records = []
        probes = []
        start = time.perf_counter()
        for op in ops:
            # Each op starts with empty collector generations and everything
            # older frozen, so the collections inside it depend on its own
            # allocations only, not on what earlier (seeded) ops left behind.
            gc.collect()
            gc.freeze()
            probes.append(hostspeed.probe())
            seconds, answer, error = timed(op, limit, tracer)
            records.append((op, seconds, answer, error))
        self.loop_wall += time.perf_counter() - start
        gc.unfreeze()
        scale = hostspeed.scale(probes)
        self.probes.append(probes)
        if tracer is not None:
            tracer.enabled = False
        for op, seconds, answer, error in records:  # checked after timing
            if error is None:
                mismatch = op.check(answer)
                if mismatch is not None:
                    error = f"wrong answer: {mismatch}"
                    self.wrong += 1
            if error is not None:
                if op.known_defect is None:
                    self.unexpected += 1
                self.failed += 1
                entry = self.failures.setdefault(op.name, {
                    "count": 0, "reason": error, "known_defect": op.known_defect})
                entry["count"] += 1
            self.wall_latencies.append(seconds)
            self.latencies.append(seconds * scale)
            if op.curve:  # a failed op's time still marks the curve
                self.curves[op.curve] = seconds * 1e3
        if tracer is not None:
            tracer.enabled = True
        self.passes.append([r[1] for r in records])
        self.pass_rates.append(len(records) / (sum(self.passes[-1]) * scale))

    @property
    def correct(self) -> bool:
        """No wrong answer, and every failure is a known defect."""
        return self.wrong == 0 and self.unexpected == 0


def run_passes(workload, indices, first, tracer=None, deadline=None) -> Run:
    from workloads import interleave  # importable once main has set sys.path

    run = Run()
    for index in indices:
        if deadline is not None and time.perf_counter() > deadline:
            break
        ops = first if index == 0 and first is not None else workload.make_pass(index)
        run.run_ops(interleave(ops), workload.limit_s, tracer)
        workload.end_pass(index)
    return run


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(run: Run) -> tuple[dict, dict]:
    """The end-to-end metrics, and the detail that qualifies them: among it
    the time metrics as the clock read them, before scaling to the reference
    host speed."""
    beyond = min(TAIL_BEYOND, len(run.latencies) - 1)

    def times(latencies, pass_rates):
        return {
            "ops_per_s": statistics.median(pass_rates),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": sorted(latencies, reverse=True)[beyond] * 1e3,
        }

    wall_rates = [len(p) / sum(p) for p in run.passes]
    return {
        **times(run.latencies, run.pass_rates),
        "ok_share": 1 - run.failed / len(run.latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {
        "tail_percentile": 100 * (1 - beyond / len(run.latencies)),
        "tail_samples_beyond": beyond,
        "samples": len(run.latencies),
        "passes": len(run.pass_rates),
        "host_scale_median": statistics.median(hostspeed.scale(p) for p in run.probes),
        "wall_clock": times(run.wall_latencies, wall_rates),
    }


def per_layer(tracer, traced: Run, plain: Run, curves: Run) -> dict:
    busy, calls, counts = tracer.busy, tracer.calls, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    parsing_s = tracer.total("parsing.")
    checked_s = busy.get("textcheck.check_document", 0.0)
    steps = calls.get("monitoring.feed", 0)
    sentences = counts.get("textcheck.sentences", 0)
    values = {
        "parsing.busy_s": parsing_s,
        "parsing.calls": sum(v for k, v in calls.items() if k.startswith("parsing.")),
        "parsing.kb_per_s": ratio(counts.get("parsing.chars", 0) / 1e3, parsing_s),
        "render.busy_s": tracer.total("render."),
        "prover.prove_busy_s": busy.get("prover.prove", 0.0),
        "prover.prove_calls": calls.get("prover.prove", 0),
        "prover.derivable": counts.get("prover.derivable", 0),
        "prover.budget_exhausted": counts.get("prover.prove.raised:ResourceLimit", 0),
        "prover.check_proof_busy_s": busy.get("prover.check_proof", 0.0),
        "prover.proof_text_busy_s": busy.get("prover.proof_to_text", 0.0)
        + busy.get("prover.proof_from_text", 0.0),
        "prover.proof_nodes": counts.get("prover.proof_nodes", 0),
        "monitoring.expand_bounded_busy_s": busy.get("monitoring.expand_bounded", 0.0),
        "monitoring.evaluate_busy_s": busy.get("monitoring.evaluate", 0.0),
        "monitoring.feed_busy_s": busy.get("monitoring.feed", 0.0),
        "monitoring.steps": steps,
        "monitoring.feed_us_per_step": ratio(busy.get("monitoring.feed", 0.0) * 1e6, steps),
        "monitoring.residual_nodes_max": counts.get("monitoring.residual_nodes_max", 0),
        "monitoring.raised": sum(v for k, v in counts.items()
                                 if k.startswith("monitoring.") and ".raised:" in k),
        "textcheck.load_spec_busy_s": busy.get("textcheck.load_spec", 0.0),
        "textcheck.check_document_busy_s": checked_s,
        "textcheck.segment_busy_s": busy.get("textcheck.segment", 0.0),
        "textcheck.extract_trace_busy_s": busy.get("textcheck.extract_trace", 0.0),
        "textcheck.monitor_busy_s": busy.get("textcheck.monitor", 0.0),
        "textcheck.render_report_busy_s": busy.get("textcheck.render_report", 0.0),
        "textcheck.sentences": sentences,
        "textcheck.utterances": counts.get("textcheck.utterances", 0),
        "textcheck.utterance_ratio": ratio(counts.get("textcheck.utterances", 0), sentences),
        "textcheck.mb_per_s": ratio(counts.get("textcheck.chars", 0) / 1e6, checked_s),
        "freelogic.eval_busy_s": busy.get("freelogic.eval", 0.0),
        "freelogic.eval_calls": calls.get("freelogic.eval", 0),
        "freelogic.parse_model_busy_s": busy.get("freelogic.parse_model", 0.0),
        "cli.main_busy_s": busy.get("cli.main", 0.0),
        "cli.self_s": tracer.self_time.get("cli.main", 0.0),
        "cli.calls": calls.get("cli.main", 0),
        "bench.traced_wall_s": traced.loop_wall,
        "bench.unattributed_s": traced.loop_wall - tracer.total("op."),
        "bench.trace_overhead_s": traced.loop_wall - plain.loop_wall,
    }
    # check_document's time outside its child spans: trace extraction (which
    # includes segment), expand_bounded and monitor, timed in the same calls
    values["textcheck.check_document_unattributed_s"] = tracer.self_time.get(
        "textcheck.check_document", 0.0)
    values.update(curves.curves)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import tracing
    import workloads

    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return _measure(args, tracing, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, tracing, workloads, workdir) -> int:
    signal.signal(signal.SIGALRM, _alarm)
    api = tracing.plain_api()
    kind = workloads.WORKLOADS[args.workload]
    workload = kind(args.seed, api, ROOT, workdir)
    first = workload.make_pass(0)
    for op in first:
        if op.family in workload.warm_families:
            op.run()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    passes = max(1, round(args.seconds / workload.pass_s))
    start = time.perf_counter()
    if not args.trace:
        run = run_passes(workload, range(passes), first, deadline=start + HARD_STOP_S)
        metrics, detail = end_to_end(run)
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        (out / f"latencies-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"latencies": run.passes, "probes": run.probes}), encoding="utf-8")
        report(args, run, metrics, {**detail, "limit_s": workload.limit_s})
        return 0

    half = range(max(1, passes // 2))
    plain = run_passes(workload, half, first, deadline=start + HARD_STOP_S / 2)
    half = range(len(plain.pass_rates))  # the traced passes are the plain ones
    tracer = tracing.Tracer(OpTimeout)
    saved = tracing.install(api, tracer)
    try:
        traced = run_passes(workload, half, None, tracer)
    finally:
        tracing.uninstall(saved)
    # Every result carries every curve point, so each traced run measures the
    # ladders of all four workloads; they add nothing to the module metrics.
    ladder = []
    for other in workloads.WORKLOADS.values():
        folder = workdir / f"ladder-{other.name}"
        folder.mkdir()
        ladder += other(args.seed, api, ROOT, folder).ladder()
    curves = Run()
    curves.run_ops(ladder, LADDER_LIMIT_S)
    values = per_layer(tracer, traced, plain, curves)
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{args.workload}-seed{args.seed}.jsonl")
    top_spans = {name: busy for name, busy in tracer.busy.items() if name.startswith("op.")}
    idle = {module: f"the {args.workload} workload makes no call into it"
            for module in MODULES if not any(name.startswith(module + ".")
                                             for name in tracer.calls)}
    for other in (plain, curves):
        traced.merge(other)
    report(args, traced, values, {"passes": len(half), "limit_s": workload.limit_s,
                                  "top_spans_s": top_spans, "idle_modules": idle})
    return 0


def report(args, run: Run, values: dict, detail: dict) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in wanted} - ({"setup_s"} if not args.trace else set())
    if set(values) != names:
        raise SystemExit(f"metrics out of step with BENCHMARK.json: "
                         f"missing {sorted(names - set(values))}, "
                         f"extra {sorted(set(values) - names)}")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              **detail, "failures": run.failures, **environment()}
    print("# detail " + json.dumps(detail), flush=True)
    result = {
        "correct": run.correct,
        "attempted": len(run.latencies),
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    sys.exit(main())
