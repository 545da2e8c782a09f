"""Exact work counts: ``python -m repro.perf --count``.

One fixed, small Saturn run (seven EC2 sites, half of the operations
updates, every key everywhere: the label path carries the load) under a
``sys.settrace`` counter, once with obs off and once with label tracing
on (``obs=True``).  Python calls and opcodes per client operation, per
module, are the same on every run of one interpreter; they miss C-level
work (``heapq``, dicts, sets) and change between CPython minor versions.
Each row also gives the gen-0/1/2 garbage collections of its counted
section, which starts from a collected heap: they are as exact as the
opcodes, and they are where a recorder that retains objects shows.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.harness.runner import RunResults

__all__ = ["DURATION", "collections", "count_work"]

#: simulated ms of the counted run (fixed, so any two reports compare)
DURATION = 200.0


def collections(obs: bool, duration: float = DURATION,
                before_run: Optional[Callable] = None
                ) -> Tuple[Tuple[int, ...], RunResults]:
    """Run the fixed geo7 cluster for *duration* simulated ms; returns the
    gen-0/1/2 collections of the run (cluster build excluded, heap
    collected first) and its ``RunResults``."""
    from repro.harness.runner import Scale, run_once
    from repro.workloads.synthetic import SyntheticWorkload

    started: List[int] = []

    def begin(cluster) -> None:  # noqa: ANN001 - run_once hook
        gc.collect()
        started.extend(stats["collections"] for stats in gc.get_stats())
        if before_run is not None:
            before_run(cluster)

    scale = Scale(duration=duration, warmup=duration / 5, clients_per_dc=4,
                  seed=7, beam_width=3)
    result = run_once(
        "saturn", SyntheticWorkload(read_ratio=0.5, correlation="full"),
        scale, before_run=begin, obs=obs)
    ended = [stats["collections"] for stats in gc.get_stats()]
    return tuple(end - start for end, start in zip(ended, started)), result


def _counted(obs: bool) -> Tuple[int, Counter, Counter, tuple]:
    """ops, calls and opcodes per module, and collections of one run."""
    calls: Counter = Counter()
    opcodes: Counter = Counter()

    def on_opcode(frame, event, arg):  # noqa: ANN001 - sys.settrace hook
        if event == "opcode":
            opcodes[str(frame.f_globals.get("__name__"))] += 1
        return on_opcode

    def on_call(frame, event, arg):  # noqa: ANN001 - sys.settrace hook
        calls[str(frame.f_globals.get("__name__"))] += 1
        frame.f_trace_lines, frame.f_trace_opcodes = False, True
        return on_opcode

    try:
        collected, result = collections(
            obs, before_run=lambda cluster: sys.settrace(on_call))
    finally:
        sys.settrace(None)
    ops = sum(client.ops_completed for client in result.cluster.clients)
    return ops, calls, opcodes, collected


def count_work() -> List[str]:
    """The report lines: per module, calls and opcodes per op with obs off
    and on; then one row per run with its totals and collections."""
    runs = {"obs off": _counted(obs=False), "obs on": _counted(obs=True)}
    (off_ops, off_calls, off_opcodes, _), (on_ops, on_calls, on_opcodes, _) = \
        runs.values()
    modules = sorted(set(off_opcodes) | set(on_opcodes),
                     key=lambda name: (-off_opcodes[name],
                                       -on_opcodes[name], name))
    ratio = ((sum(on_opcodes.values()) / on_ops)
             / (sum(off_opcodes.values()) / off_ops))
    return [f"{DURATION:g} ms of geo7 Saturn, 50% updates, full replication, "
            f"seed 7, CPython {sys.version_info[0]}.{sys.version_info[1]}: "
            f"{off_ops} ops",
            f"{'module':<32}{'calls/op':>10}{'opcodes/op':>12}"
            f"{'obs calls/op':>14}{'obs opcodes/op':>16}",
            *(f"{name:<32}{off_calls[name] / off_ops:>10.2f}"
              f"{off_opcodes[name] / off_ops:>12.2f}"
              f"{on_calls[name] / on_ops:>14.2f}"
              f"{on_opcodes[name] / on_ops:>16.2f}" for name in modules),
            f"{'run':<10}{'ops':>8}{'calls/op':>10}{'opcodes/op':>12}"
            f"{'gen-0/1/2 collections':>24}",
            *(f"{label:<10}{ops:>8}{sum(calls.values()) / ops:>10.2f}"
              f"{sum(opcodes.values()) / ops:>12.2f}"
              f"{'/'.join(map(str, collected)):>24}"
              for label, (ops, calls, opcodes, collected) in runs.items()),
            f"obs on/off opcodes/op: {ratio:.3f}"]
