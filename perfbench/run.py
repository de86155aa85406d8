"""Seeded benchmark of the pdlogic package: prove, monitor, check and cli.

    python3 perfbench/run.py --workload prove --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; nothing needs installing. Each
workload runs in a fresh interpreter (``worker.py``). With ``--trace 0`` the
last line of output is the JSON result with the end-to-end metrics; set-up
time is the median over ``SETUP_RUNS`` set-up-only interpreters and the
measuring one, each timed from its start to the ``ready`` line it prints once
set-up is done, and scaled to the reference host speed (``hostspeed``). With
``--trace 1`` the result holds the per-layer metrics, and the spans are
written to ``perfbench/out/``. ``--workload all`` runs every workload in turn
and prints each result line, prefixed with the workload's name.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("prove", "monitor", "check", "cli")
SETUP_RUNS = 5  # set-up-only interpreters, besides the measuring one
SETUP_PROBES = 50  # host-speed probes before each interpreter starts
DEADLINE_S = 170.0  # a run is abandoned after this long


class Failed(Exception):
    pass


def _lines(proc, deadline):
    """Lines of the child's stdout, each with the time it arrived."""
    buffered = b""
    fd = proc.stdout.fileno()
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise Failed("worker ran past the deadline")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 65536)
        now = time.perf_counter()
        if not chunk:
            if buffered:
                yield buffered.decode("utf-8"), now
            return
        buffered += chunk
        *complete, buffered = buffered.split(b"\n")
        for line in complete:
            yield line.decode("utf-8"), now


def _worker(args, deadline, setup_only=False):
    """Run one worker; return (set-up seconds, relayed lines, result)."""
    command = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
    setup = None
    relayed, result = [], None
    try:
        for line, arrived in _lines(proc, deadline):
            if line == "ready" and setup is None:
                setup = arrived - start
            elif line.startswith("# "):
                relayed.append(line)
            elif line.startswith("{"):
                result = json.loads(line)
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup is None or (result is None and not setup_only):
        raise Failed(f"worker for {args.workload} exited with status {code}")
    return setup, relayed, result


def run_workload(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    if args.trace:
        _, relayed, result = _worker(args, deadline)
    else:
        setups, walls = [], []  # at the reference host speed, and as timed
        for i in range(SETUP_RUNS + 1):
            scale = hostspeed.scale([hostspeed.probe() for _ in range(SETUP_PROBES)])
            setup, relayed, result = _worker(args, deadline, setup_only=i < SETUP_RUNS)
            setups.append(setup * scale)
            walls.append(setup)
        print("# setup_s samples " + json.dumps({"scaled": setups, "wall_clock": walls}))
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for line in relayed:
        print(line)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    missing = [p for p in ("src/pdlogic/__init__.py", "tests/oracles.py", "samples",
                           "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a pdlogic source checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args)), flush=True)
            return 0
        for name in WORKLOADS:
            args.workload = name
            print(f"{name} {json.dumps(run_workload(args))}", flush=True)
        return 0
    except Failed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
