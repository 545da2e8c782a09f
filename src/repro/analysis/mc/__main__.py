"""CLI for the schedule-space model checker: the one runner of every
scenario in :data:`repro.analysis.mc.scenario.SCENARIOS`, the fault
scenarios included.

Exit codes: ``0`` — no violation found (or a counterexample replayed
bit-identically); ``2`` — a counterexample was found (sweeps), a FIFO run
did not reproduce itself, or a counterexample failed to reproduce
(replay); ``1`` — usage or internal error.

``--strategy fifo`` runs the default schedule twice from scratch and
requires equal delivery-trace digests (and equal trace exports under
``--trace-out``); its ``--json`` payload carries the run's
degrade/recover arc (:meth:`~repro.analysis.mc.scenario.Scenario.summary`).

Examples::

    # exhaustively permute the first 4 same-time ties of the 3-DC chain
    python -m repro.analysis.mc --scenario chain3 --strategy exhaustive --depth 4

    # a chaos scenario, determinism-checked, with its arc and its trace
    python -m repro.analysis.mc --scenario serializer-crash --strategy fifo \\
        --json --trace-out trace.jsonl > summary.json

    # 50 randomized priority schedules, fixed seed
    python -m repro.analysis.mc --scenario chain3 --strategy pct --budget 50 --seed 7

    # prove the checker catches a seeded bug, write the shrunk witness
    python -m repro.analysis.mc --scenario chain3 --strategy fifo \\
        --mutate drop-fifo --out ce.json

    # replay a counterexample twice and check it is bit-identical
    python -m repro.analysis.mc --replay ce.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from repro.analysis.mc.checker import ModelChecker, SweepResult
from repro.analysis.mc.scenario import MUTATIONS, SCENARIOS
from repro.analysis.mc.shrink import Counterexample
from repro.analysis.mc.strategies import FifoStrategy

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_COUNTEREXAMPLE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.mc",
        description="Schedule-space model checker for the Saturn simulator")
    parser.add_argument("--scenario", default="chain3",
                        help="scenario name (see --list)")
    parser.add_argument("--strategy", default="exhaustive",
                        choices=("fifo", "exhaustive", "pct", "delay"),
                        help="exploration strategy")
    parser.add_argument("--mutate", default=None, metavar="MUTATION",
                        help="inject a known protocol bug (self-test mode; "
                             "see --list); a found counterexample is the "
                             "expected outcome")
    parser.add_argument("--depth", type=int, default=4,
                        help="exhaustive: tie choice points to permute")
    parser.add_argument("--budget", type=int, default=50,
                        help="pct/delay: schedules to run; exhaustive: "
                             "cap on total runs")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for randomized strategies")
    parser.add_argument("--delay-bound", type=float, default=3.0,
                        help="delay: max injected per-send delay (ms)")
    parser.add_argument("--change-points", type=int, default=3,
                        help="pct: number of priority-change points")
    parser.add_argument("--stop-on-first", action="store_true",
                        help="stop a sweep at the first counterexample")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the shrunk counterexample JSON here")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write the label-lifecycle trace (repro.obs "
                             "JSONL export) of the shrunk counterexample, "
                             "or of the default schedule when the run is "
                             "clean")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable summary on stdout")
    parser.add_argument("--replay", default=None, metavar="CE_JSON",
                        help="replay a counterexample file twice and check "
                             "both runs are bit-identical")
    parser.add_argument("--list", action="store_true", dest="list_only",
                        help="list scenarios and mutations, then exit")
    return parser


def _print_listing() -> None:
    print("scenarios:")
    for name in sorted(SCENARIOS):
        print(f"  {name}")
    print("mutations (self-test bugs):")
    for name in sorted(MUTATIONS):
        print(f"  {name}")


def _run_fifo(checker: ModelChecker, traced: bool
              ) -> Tuple[SweepResult, dict, bool, object]:
    """The default schedule, run twice from scratch: every replay relies
    on a build that reproduces itself.  Returns the result, the first
    run's arc, whether both runs left the same digest (and, when
    *traced*, the same trace export) and the first run's obs hub."""
    from repro.obs import attach_tracer

    built: list = []

    def instrument(scenario) -> None:
        built.append((scenario, attach_tracer(scenario) if traced else None))

    first, second = (checker.run_once(FifoStrategy(), instrument=instrument)
                     for _ in range(2))
    result = SweepResult(mode="fifo", runs=1)
    result.digests.update((first.digest, second.digest))
    if first.violations:
        result.counterexamples.append(first)
    (scenario, hub), (_, hub2) = built
    deterministic = first.digest == second.digest and (
        hub is None or hub.digest(meta=_trace_meta(checker))
        == hub2.digest(meta=_trace_meta(checker)))
    return result, scenario.summary(first.violations), deterministic, hub


def _arc_lines(summary: dict, deterministic: bool) -> List[str]:
    lines = [f"digest     : {summary['digest']}",
             f"determinism: {'OK' if deterministic else 'MISMATCH'}"]
    for name, info in summary["detectors"].items():
        arcs = " -> ".join(s for _, s in info["transitions"]) or "attached"
        lines.append(f"detector {name} : {arcs}")
    if summary["recoveries"]:
        spans = ", ".join(f"epoch {e} at t={t:.2f}"
                          for t, e in summary["recoveries"])
        lines.append(f"recoveries : {spans}")
    return lines


def _run_sweep(args: argparse.Namespace,
               checker: ModelChecker) -> SweepResult:
    if args.strategy == "exhaustive":
        return checker.sweep_exhaustive(depth=args.depth,
                                        max_runs=args.budget,
                                        stop_on_first=args.stop_on_first)
    if args.strategy == "pct":
        return checker.sweep_pct(budget=args.budget, seed=args.seed,
                                 change_points=args.change_points,
                                 stop_on_first=args.stop_on_first)
    return checker.sweep_delay(budget=args.budget, seed=args.seed,
                               bound=args.delay_bound,
                               stop_on_first=args.stop_on_first)


def _trace_meta(checker: ModelChecker) -> dict:
    """Export header of a clean run's trace."""
    return {"scenario": checker.scenario}


def _write_trace(hub, meta: dict, path: str) -> str:
    """Write *hub*'s JSONL export to *path*; returns its digest (one pass
    over the export's lines does both)."""
    from repro.obs import digest_jsonl

    with open(path, "w", encoding="utf-8") as handle:
        return digest_jsonl(hub.tracer, meta=meta, handle=handle)


def _traced_replay(checker: ModelChecker, decisions: List[list]):
    """Replay *decisions* (FIFO beyond their end) with label-lifecycle
    tracing; returns the obs hub."""
    from repro.analysis.mc.controller import DELAY
    from repro.obs import attach_tracer

    hubs: list = []
    checker.run_once(
        FifoStrategy(), script=decisions,
        use_delays=any(d[0] == DELAY for d in decisions),
        instrument=lambda scenario: hubs.append(attach_tracer(scenario)))
    return hubs[0]


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _replay(args: argparse.Namespace) -> int:
    try:
        with open(args.replay, "r", encoding="utf-8") as handle:
            ce = Counterexample.from_json(handle.read())
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load counterexample: {exc}", file=sys.stderr)
        return EXIT_ERROR
    checker = ModelChecker(ce.scenario, mutation=ce.mutation)
    first = checker.replay(ce.decisions)
    second = checker.replay(ce.decisions)
    deterministic = first.digest == second.digest
    reproduced = (deterministic
                  and bool(first.violations) == bool(ce.violations)
                  and (ce.digest == "" or first.digest == ce.digest))
    payload = {
        "mode": "replay",
        "scenario": ce.scenario,
        "mutation": ce.mutation,
        "schedule_hash": ce.schedule_hash,
        "stored_digest": ce.digest,
        "replay_digest_1": first.digest,
        "replay_digest_2": second.digest,
        "deterministic": deterministic,
        "reproduced": reproduced,
        "violations": first.violations,
    }
    lines = [
        f"replayed {args.replay} twice "
        f"(schedule hash {ce.schedule_hash[:16]}...):",
        f"  digest run 1 : {first.digest}",
        f"  digest run 2 : {second.digest}",
        f"  deterministic: {'yes' if deterministic else 'NO'}",
        f"  violations   : {len(first.violations)} "
        f"(stored: {len(ce.violations)})",
    ]
    lines.extend(f"    - {violation}" for violation in first.violations[:10])
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if reproduced else EXIT_COUNTEREXAMPLE


def main(argv: Optional[list] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_only:
        _print_listing()
        return EXIT_OK
    if args.replay is not None:
        return _replay(args)

    try:
        checker = ModelChecker(args.scenario, mutation=args.mutate)
        summary, reproduced, hub = None, True, None
        if args.strategy == "fifo":
            result, summary, reproduced, hub = _run_fifo(
                checker, traced=bool(args.trace_out))
        else:
            result = _run_sweep(args, checker)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    payload = {
        "mode": result.mode,
        "scenario": args.scenario,
        "mutation": args.mutate,
        "runs": result.runs,
        "distinct_executions": len(result.digests),
        "counterexamples": len(result.counterexamples),
        "truncated": result.truncated,
    }
    lines = [result.summary()]
    if summary is not None:
        payload["summary"] = summary
        payload["deterministic"] = reproduced
        lines.extend(_arc_lines(summary, reproduced))

    if result.ok or not reproduced:
        if args.trace_out:
            payload["trace_out"] = args.trace_out
            payload["trace_digest"] = _write_trace(
                hub if hub is not None else _traced_replay(checker, []),
                _trace_meta(checker), args.trace_out)
            lines.append(f"trace written to {args.trace_out}")
        _emit(args, payload, "\n".join(lines))
        return EXIT_OK if reproduced else EXIT_COUNTEREXAMPLE

    ce = checker.shrink(result.counterexamples[0])
    payload["counterexample"] = json.loads(ce.to_json())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(ce.to_json() + "\n")
    if args.trace_out:
        payload["trace_out"] = args.trace_out
        payload["trace_digest"] = _write_trace(
            _traced_replay(checker, ce.decisions),
            {"scenario": ce.scenario, "mutation": ce.mutation,
             "schedule_hash": ce.schedule_hash}, args.trace_out)
    text = "\n".join(lines + [
        "",
        "minimal counterexample:",
        ce.summary(),
    ] + ([f"written to {args.out}"] if args.out else [])
      + ([f"trace written to {args.trace_out}"] if args.trace_out else []))
    _emit(args, payload, text)
    return EXIT_COUNTEREXAMPLE


if __name__ == "__main__":
    sys.exit(main())
