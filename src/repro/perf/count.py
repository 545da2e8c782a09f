"""Exact work counts: ``python -m repro.perf --count``.

One fixed, small Saturn run (seven EC2 sites, half of the operations
updates, every key everywhere: the label path carries the load) under a
``sys.settrace`` counter.  Python calls and opcodes per client operation,
per module, are the same on every run of one interpreter; they miss C-level
work (``heapq``, dicts, sets) and change between CPython minor versions.
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import List

__all__ = ["DURATION", "count_work"]

#: simulated ms of the counted run (fixed, so any two reports compare)
DURATION = 200.0


def count_work() -> List[str]:
    """The report lines of the counted run."""
    from repro.harness.runner import Scale, run_once
    from repro.workloads.synthetic import SyntheticWorkload

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

    scale = Scale(duration=DURATION, warmup=DURATION / 5, clients_per_dc=4,
                  seed=7, beam_width=3)
    try:
        result = run_once(
            "saturn", SyntheticWorkload(read_ratio=0.5, correlation="full"),
            scale, before_run=lambda cluster: sys.settrace(on_call))
    finally:
        sys.settrace(None)
    ops = sum(client.ops_completed for client in result.cluster.clients)
    rows = sorted(opcodes.items(), key=lambda row: (-row[1], row[0]))
    rows.append(("total", sum(opcodes.values())))
    calls["total"] = sum(calls.values())
    return [f"{DURATION:g} ms of geo7 Saturn, 50% updates, full replication, "
            f"seed 7, CPython {sys.version_info[0]}.{sys.version_info[1]}: "
            f"{ops} ops", f"{'module':<32}{'calls/op':>10}{'opcodes/op':>12}",
            *(f"{name:<32}{calls[name] / ops:>10.2f}{count / ops:>12.2f}"
              for name, count in rows)]
