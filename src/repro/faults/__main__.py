"""CLI for the chaos suite: run scripted fault scenarios and check them.

Usage (also reachable as ``saturn-repro faults ...``)::

    python -m repro.faults --list
    python -m repro.faults --scenario serializer-crash --check-determinism
    python -m repro.faults --scenario root-partition --json out.json
    python -m repro.faults --plan my-plan.json --plan-out resolved.json

``--scenario`` runs one of the built-in chaos scenarios
(:data:`repro.faults.scenarios.CHAOS_SCENARIOS`); ``--plan`` runs an
external :class:`~repro.faults.plan.FaultPlan` JSON file against the same
hardened chain3 deployment the built-ins use.  Every run is evaluated by
the model checker's oracles (FIFO discipline, causal visibility, partial
replication, completeness, liveness); ``--check-determinism`` executes
the scenario twice from scratch and compares the SHA-256 delivery-trace
digests.  Exit status: 0 clean, 2 on violations or a digest mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.mc.oracles import evaluate_oracles
from repro.analysis.mc.scenario import Scenario, build_hardened_chain3
from repro.faults.plan import FaultPlan
from repro.faults.scenarios import CHAOS_SCENARIOS, build_chaos_scenario

__all__ = ["main"]


def _summarize(scenario: Scenario, violations: List[str]) -> dict:
    # baseline scenarios run StabilizedDatacenter subclasses, which have
    # no failover detector, remote proxy, or label sink — guard every
    # Saturn-specific field so one summary shape serves both
    detectors = {}
    for name, dc in sorted(scenario.datacenters.items()):
        failover = getattr(dc, "failover", None)
        if failover is not None:
            detectors[name] = {
                "state": failover.state,
                "transitions": [[t, s] for t, s in failover.transitions],
                "degraded_spans": [[a, b]
                                   for a, b in failover.degraded_spans],
            }
    return {
        "scenario": scenario.name,
        "violations": violations,
        "digest": scenario.digest(),
        "faults_fired": ([[t, kind, at]
                          for t, kind, at in scenario.injector.fired]
                         if scenario.injector is not None else []),
        "detectors": detectors,
        "recoveries": ([[t, e] for t, e in scenario.failover.recoveries]
                       if scenario.failover is not None else []),
        "transitions_escalated": {
            name: dc.proxy.transitions_escalated
            for name, dc in sorted(scenario.datacenters.items())
            if hasattr(dc, "proxy")},
        "sink_replays": {name: dc.sink.replays
                         for name, dc in sorted(scenario.datacenters.items())
                         if hasattr(dc, "sink")},
        "updates_recorded": len(scenario.log.updates),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="Run scripted fault-injection scenarios and check the "
                    "causal-consistency oracles over the whole "
                    "degrade/recover arc.")
    parser.add_argument("--list", action="store_true",
                        help="list the built-in chaos scenarios and exit")
    parser.add_argument("--scenario", choices=sorted(CHAOS_SCENARIOS),
                        help="built-in chaos scenario to run")
    parser.add_argument("--plan", metavar="FILE",
                        help="run an external FaultPlan JSON file instead")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run twice and require identical trace digests")
    parser.add_argument("--json", metavar="FILE", dest="json_out",
                        help="write the run summary as JSON")
    parser.add_argument("--plan-out", metavar="FILE",
                        help="write the scenario's fault plan as JSON")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="trace the run with repro.obs and write the "
                             "JSONL label-lifecycle export")
    args = parser.parse_args(argv)

    if args.list:
        for name in sorted(CHAOS_SCENARIOS):
            print(name)
        return 0
    if bool(args.scenario) == bool(args.plan):
        parser.error("exactly one of --scenario/--plan is required")

    if args.plan:
        plan = FaultPlan.from_json(Path(args.plan).read_text())
        # an external plan runs on the hardened chain3 deployment
        build = lambda: build_hardened_chain3(  # noqa: E731
            plan.name, 260.0, plan)
    else:
        build = lambda: build_chaos_scenario(args.scenario)  # noqa: E731

    scenario = build()
    hub = None
    if args.trace_out:
        from repro.obs import attach_tracer
        hub = attach_tracer(scenario)
    if args.plan_out and scenario.fault_plan is not None:
        Path(args.plan_out).write_text(scenario.fault_plan.to_json() + "\n")
    scenario.run()
    violations = evaluate_oracles(scenario)
    summary = _summarize(scenario, violations)
    if hub is not None:
        meta = {"scenario": summary["scenario"]}
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.trace_out).write_text(hub.export_jsonl(meta=meta))
        summary["obs_digest"] = hub.digest(meta=meta)

    if args.check_determinism:
        second = build()
        hub2 = None
        if hub is not None:
            from repro.obs import attach_tracer
            hub2 = attach_tracer(second)
        second.run()
        evaluate_oracles(second)
        summary["deterministic"] = second.digest() == summary["digest"]
        if not summary["deterministic"]:
            violations.append(
                f"nondeterministic execution: digests differ "
                f"({summary['digest']} vs {second.digest()})")
            summary["violations"] = violations
        if hub2 is not None:
            obs_ok = (hub2.digest(meta={"scenario": summary["scenario"]})
                      == summary["obs_digest"])
            summary["obs_deterministic"] = obs_ok
            if not obs_ok:
                violations.append(
                    "nondeterministic trace export: obs digests differ")
                summary["deterministic"] = False
                summary["violations"] = violations

    if args.json_out:
        Path(args.json_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json_out).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")

    print(f"scenario   : {summary['scenario']}")
    print(f"digest     : {summary['digest']}")
    if args.check_determinism:
        print(f"determinism: "
              f"{'OK' if summary['deterministic'] else 'MISMATCH'}")
    for name, info in summary["detectors"].items():
        arcs = " -> ".join(s for _, s in info["transitions"]) or "attached"
        print(f"detector {name} : {arcs}")
    if summary["recoveries"]:
        spans = ", ".join(f"epoch {e} at t={t:.2f}"
                          for t, e in summary["recoveries"])
        print(f"recoveries : {spans}")
    print(f"violations : {len(violations)}")
    for violation in violations[:10]:
        print(f"  - {violation}")
    return 2 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
