"""The host's current speed, from a fixed piece of pure-Python work.

On a shared host the same code runs at speeds up to 1.6x apart, in phases
that last from seconds to minutes, and every time metric of a run moves with
the phase it fell in. ``probe`` times a fixed piece of work that never calls
pdlogic: recursion over tuples, hashing, a dict memo, frozensets and string
formatting, the kinds of work pdlogic's own code does. The worker probes
before every operation and scales the latencies of each pass by
``REFERENCE_S`` over the median probe time of that pass, so the time metrics
read as if every probe had taken ``REFERENCE_S``. The probe runs no pdlogic
code, so a change to pdlogic moves the scaled metrics as much as the
wall-clock ones. It does share the process with the operations: a change that
leaves far more live memory behind could slow the probe a little, which would
show in the ``host_scale_median`` that each result's detail line reports.
"""

from __future__ import annotations

import statistics
import time

# About the median probe time during benchmark runs on the host it was tuned
# on (2 vCPUs of a shared Intel Xeon at 2.1 GHz, Python 3.11.7), where the
# per-run medians ranged from 130 to 245 us.
REFERENCE_S = 2.0e-4


def _tree(depth: int, tag: int):
    if depth == 0:
        return ("leaf", tag)
    return ("node", _tree(depth - 1, 2 * tag), _tree(depth - 1, 2 * tag + 1))


def _work() -> int:
    memo: dict = {}

    def size(t) -> int:
        if t[0] == "leaf":
            return 1
        found = memo.get(t)
        if found is None:
            found = memo[t] = 1 + size(t[1]) + size(t[2])
        return found

    tree = _tree(7, 1)
    labels = frozenset(f"x{tag}/{tag % 7}" for tag in range(128))
    return size(tree) + len(labels)


def probe() -> float:
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def scale(probes: list[float]) -> float:
    """Factor that turns wall-clock times measured among ``probes`` into
    times at the reference speed."""
    return REFERENCE_S / statistics.median(probes)
