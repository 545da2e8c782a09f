"""The declarative client script and its one interpreter.

A script is a JSON-able list of steps, the format ``spec.json`` carries
between the TCP driver and its nodes (:mod:`repro.net.spec`) and the one
every model-checking and chaos scenario is written in:

* ``{"op": "update", "key": k, "size": n}`` — write *k* once (``size``
  defaults to 2 bytes);
* ``{"op": "read", "key": k}`` — read *k* once;
* ``{"op": "poll", "key": k, "cap": n}`` — re-read *k* until the client
  has observed a version of it, at most *n* times (default 400).  The cap
  keeps every client terminating on a cluster that lost the awaited
  update (a model-checker mutation, a wedged TCP node).

Observation is what :meth:`ClientProcess.observed` reports, which is
tracked only while an execution log is attached to the client.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.datacenter.client import ClientProcess
from repro.workloads.ops import ReadOp, UpdateOp

__all__ = ["script_workload", "ScriptedWorkload"]

Script = Sequence[Dict[str, Any]]


def script_workload(script: Script) -> Callable[[ClientProcess], object]:
    """Workload callable playing *script* once, then stopping the client."""
    steps = list(script)
    state = {"index": 0, "reads": 0}

    def workload(client: ClientProcess) -> object:
        while state["index"] < len(steps):
            step = steps[state["index"]]
            op = step["op"]
            if op == "poll":
                if (client.observed(step["key"]) is None
                        and state["reads"] < step.get("cap", 400)):
                    state["reads"] += 1
                    return ReadOp(step["key"])
                # visible (or given up): the next poll counts from zero
                state["index"] += 1
                state["reads"] = 0
                continue
            state["index"] += 1
            if op == "update":
                return UpdateOp(step["key"], step.get("size", 2))
            if op == "read":
                return ReadOp(step["key"])
            raise ValueError(f"unknown script op {op!r}")
        return None

    return workload


class ScriptedWorkload:
    """A client roster of scripts, for :class:`repro.harness.runner.Cluster`.

    ``clients`` is the ``spec.json`` client list (``{"id", "dc",
    "script"}`` each); client *i* starts ``stagger * i`` ms into the run
    so the attaches do not tie at t=0.  Data placement is the caller's:
    pass ``ClusterConfig(replication=...)``.
    """

    def __init__(self, clients: Sequence[Dict[str, Any]],
                 stagger: float) -> None:
        self.clients = list(clients)
        self.stagger = stagger

    def client_roster(self) -> List[Tuple[str, str, Callable, float]]:
        """(client id, site, workload callable, start offset in ms)."""
        return [(client["id"], client["dc"],
                 script_workload(client["script"]), self.stagger * index)
                for index, client in enumerate(self.clients)]
