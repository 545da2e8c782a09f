"""CLI: turn a traced run into a per-edge visibility-latency breakdown.

Usage (also reachable as ``saturn-repro obs ...``)::

    python -m repro.obs                         # Fig. 4 M-configuration
    python -m repro.obs --pair T S --pair I F --scale smoke
    python -m repro.obs --scenario chain3       # a scripted mc scenario
    python -m repro.obs --jsonl trace.jsonl --chrome trace.json
    python -m repro.obs --check-determinism

The default mode rebuilds the Fig. 4 M-configuration cluster (Algorithm 3
over the seven EC2 regions) with tracing on and reports, for each
origin->destination pair, which tree hop / artificial delay / sink dwell /
proxy wait contributed what to end-to-end visibility.  The per-label
segment sums must reproduce the measured end-to-end latency to within
1e-6 ms, and ``--check-determinism`` re-runs the whole thing and requires
a bit-identical export digest; either failing exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from repro.obs import ObsHub, attach_tracer, digest_jsonl
from repro.obs.report import format_breakdown, pair_breakdown

__all__ = ["main"]

#: per-label segment sums must reproduce end-to-end latency this tightly
SUM_TOLERANCE_MS = 1e-6


def _scenario_names() -> List[str]:
    from repro.analysis.mc.scenario import SCENARIOS
    return sorted(SCENARIOS)


def _run_scenario(name: str) -> Tuple[ObsHub, object]:
    from repro.analysis.mc.scenario import build_scenario
    scenario = build_scenario(name)
    hub = attach_tracer(scenario)
    scenario.run()
    return hub, scenario


def _run_fig4(scale_name: str, seed: int) -> Tuple[ObsHub, object]:
    import dataclasses

    from repro.harness.experiments import EXPERIMENTS
    from repro.harness.runner import DEFAULT, SMOKE, run_once

    scale = {"smoke": SMOKE, "default": DEFAULT}[scale_name]
    if seed:
        scale = dataclasses.replace(scale, seed=seed)
    # the M-conf run of the fig4 experiment: Algorithm 3 with weights from
    # the workload's replication map
    runs, _ = EXPERIMENTS["fig4"].plan(scale)
    (_, system, workload, kwargs), = [run for run in runs
                                      if run[0] == "M-conf"]
    result = run_once(system, workload, scale, obs=True, **kwargs)
    return result.cluster.obs_hub, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace a run and attribute per-pair visibility latency "
                    "to individual tree hops, delays and dwell times.")
    parser.add_argument("--scenario", choices=_scenario_names(),
                        help="trace a scripted mc scenario instead of "
                             "the Fig. 4 M-configuration cluster")
    parser.add_argument("--scale", choices=["smoke", "default"],
                        default="smoke",
                        help="Fig. 4 run sizing (default: smoke)")
    parser.add_argument("--seed", type=int, default=0,
                        help="override the Fig. 4 scale's seed (0 = keep)")
    parser.add_argument("--pair", nargs=2, action="append",
                        metavar=("ORIGIN", "DEST"),
                        help="origin/destination datacenter pair to break "
                             "down (repeatable; default: T S)")
    parser.add_argument("--top", type=int, default=0,
                        help="also print the N slowest labels per pair")
    parser.add_argument("--jsonl", metavar="FILE",
                        help="write the canonical JSONL trace export")
    parser.add_argument("--chrome", metavar="FILE",
                        help="write a Chrome trace-event JSON export")
    parser.add_argument("--json", metavar="FILE", dest="json_out",
                        help="write the breakdown summary as JSON")
    parser.add_argument("--check-determinism", action="store_true",
                        help="run twice and require identical trace digests")
    args = parser.parse_args(argv)

    if args.scenario:
        hub, run = _run_scenario(args.scenario)
        pairs = args.pair or [["I", "T"]]
        source = args.scenario
    else:
        hub, run = _run_fig4(args.scale, args.seed)
        pairs = args.pair or [["T", "S"]]
        source = f"fig4-mconf/{args.scale}"

    # one pass over the export's lines hashes it and writes --jsonl
    if args.jsonl:
        Path(args.jsonl).parent.mkdir(parents=True, exist_ok=True)
        with open(args.jsonl, "w", encoding="utf-8") as handle:
            digest = digest_jsonl(hub.tracer, meta={"source": source},
                                  handle=handle)
    else:
        digest = hub.digest(meta={"source": source})
    failures: List[str] = []

    summary = {"source": source, "digest": digest,
               "chains": hub.tracer.num_chains(), "pairs": {}}
    print(f"source : {source}")
    print(f"chains : {summary['chains']} labels traced")
    print(f"digest : {digest}")
    for origin, dest in pairs:
        breakdown = pair_breakdown(hub.tracer, origin, dest)
        summary["pairs"][f"{origin}->{dest}"] = {
            "labels": len(breakdown["labels"]),
            "incomplete": breakdown["incomplete"],
            "end_to_end_mean": breakdown["end_to_end_mean"],
            "max_sum_error": breakdown["max_sum_error"],
            "segments": breakdown["segments"],
        }
        print()
        print(format_breakdown(breakdown))
        if args.top and breakdown["labels"]:
            slowest = sorted(breakdown["labels"],
                             key=lambda e: e["end_to_end"],
                             reverse=True)[:args.top]
            for entry in slowest:
                path = " -> ".join(entry["path"])
                print(f"  slow label ts={entry['label']['ts']:.3f} "
                      f"{entry['end_to_end']:.3f} ms via {path}")
        if breakdown["labels"] and (breakdown["max_sum_error"]
                                    > SUM_TOLERANCE_MS):
            failures.append(
                f"{origin}->{dest}: segment sums drift from end-to-end "
                f"latency by {breakdown['max_sum_error']:.3e} ms")

    if args.check_determinism:
        if args.scenario:
            hub2, _ = _run_scenario(args.scenario)
        else:
            hub2, _ = _run_fig4(args.scale, args.seed)
        digest2 = hub2.digest(meta={"source": source})
        deterministic = digest2 == digest
        summary["deterministic"] = deterministic
        print()
        print(f"determinism: {'OK' if deterministic else 'MISMATCH'}")
        if not deterministic:
            failures.append(f"nondeterministic trace: {digest} vs {digest2}")

    if args.chrome:
        Path(args.chrome).parent.mkdir(parents=True, exist_ok=True)
        Path(args.chrome).write_text(
            json.dumps(hub.export_chrome(), sort_keys=True) + "\n")
    if args.json_out:
        Path(args.json_out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.json_out).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
