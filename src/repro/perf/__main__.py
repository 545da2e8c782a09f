"""CLI for the perf harness.

Examples::

    python -m repro.perf                          # run, write BENCH_perf.json
    python -m repro.perf --json                   # same, JSON on stdout
    python -m repro.perf --compare BENCH_perf.json
    python -m repro.perf --skip figure --repeat 1 # quick kernel+fabric+tree check
    python -m repro.perf --count                  # exact work counts per op

``--compare`` loads the given baseline *before* the run, compares the fresh
numbers against it (machine-normalized) and exits 1 on the regression
verdict; the fresh result is still written to ``--output`` so CI can upload
it as an artifact (and so refreshing the committed baseline is just
re-running the tool and committing the file).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.perf.baseline import (DEFAULT_TOLERANCE, build_result, compare,
                                 load_result, save_result)
from repro.perf.benches import (bench_codec, bench_config_solve,
                                bench_fabric, bench_figure, bench_kernel,
                                bench_obs_enabled, bench_saturation,
                                bench_tree)
from repro.perf.measure import calibrate

BENCHES = ("kernel", "fabric", "tree", "obs", "codec", "config", "figure",
           "saturation")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf",
        description="Simulator performance harness with regression verdicts")
    parser.add_argument("--json", action="store_true",
                        help="emit the result document as JSON on stdout")
    parser.add_argument("--compare", metavar="BASELINE",
                        help="baseline result file to compare against; "
                             "exit 1 when any metric regresses")
    parser.add_argument("--output", default="BENCH_perf.json",
                        metavar="PATH",
                        help="where to write the fresh result "
                             "(default: %(default)s; 'none' disables)")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        metavar="FRACTION",
                        help="allowed normalized slowdown before a metric "
                             "fails (default: %(default)s)")
    parser.add_argument("--repeat", type=int, default=None, metavar="N",
                        help="override per-bench repeat count")
    parser.add_argument("--skip", action="append", default=[],
                        choices=BENCHES, metavar="BENCH",
                        help="skip one bench (repeatable): "
                             + ", ".join(BENCHES))
    parser.add_argument("--kernel-events", type=int, default=300_000,
                        metavar="N", help="kernel bench event count "
                        "(and fabric bench message count)")
    parser.add_argument("--tree-batches", type=int, default=120, metavar="N",
                        help="tree bench batches per datacenter")
    parser.add_argument("--count", action="store_true",
                        help="only print exact work counts per op of one "
                             "fixed Saturn run (repro.perf.count)")
    args = parser.parse_args(argv)
    if args.count:
        from repro.perf.count import count_work
        print("\n".join(count_work()))
        return 0

    baseline = None
    if args.compare:
        try:
            baseline = load_result(args.compare)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            parser.error(f"cannot load baseline {args.compare}: {exc}")

    def repeats(default: int) -> int:
        return args.repeat if args.repeat is not None else default

    calibration = calibrate()
    metrics = {}
    if "kernel" not in args.skip:
        metrics["kernel_events_per_sec"] = bench_kernel(
            events=args.kernel_events, repeats=repeats(3))
    if "fabric" not in args.skip:
        metrics["fabric_messages_per_sec"] = bench_fabric(
            messages=args.kernel_events, repeats=repeats(3))
    if "tree" not in args.skip:
        metrics["tree_label_deliveries_per_sec"] = bench_tree(
            batches_per_dc=args.tree_batches, repeats=repeats(3))
    if "obs" not in args.skip:
        untraced = metrics.get("tree_label_deliveries_per_sec", {"raw": 0.0})
        metrics["obs_enabled_tree_labels_per_sec"] = bench_obs_enabled(
            untraced["raw"], batches_per_dc=args.tree_batches,
            repeats=repeats(3))
    if "codec" not in args.skip:
        metrics["codec_frames_per_sec"] = bench_codec(repeats=repeats(3))
    if "config" not in args.skip:
        metrics["config_solve_seconds"] = bench_config_solve(
            repeats=repeats(3))
    if "figure" not in args.skip:
        metrics["figure_smoke_seconds"] = bench_figure(repeats=repeats(2))
    if "saturation" not in args.skip:
        # deterministic simulated quantity: repeats would be identical
        metrics["overload_saturation_ops_s"] = bench_saturation()

    result = build_result(metrics, calibration)

    if args.output and args.output != "none":
        save_result(result, args.output)

    report = None
    if baseline is not None:
        report = compare(result, baseline, tolerance=args.tolerance)

    if args.json:
        document = dict(result)
        if report is not None:
            document["comparison"] = {
                "baseline": args.compare,
                "tolerance": report.tolerance,
                "verdict": report.verdict(),
                "metrics": {
                    c.name: {"change": c.change, "regression": c.regression}
                    for c in report.comparisons
                },
            }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        machine = result["machine"]
        print(f"calibration: {machine['calibration_ops_per_sec']:,.0f} ops/s "
              f"({machine['implementation']} {machine['python']})")
        for name, entry in sorted(result["metrics"].items()):
            print(f"  {name}: {entry['raw']:,.1f} {entry['unit']} "
                  f"(normalized {entry['normalized']:.6g})")
        if report is not None:
            print(report.summary())

    if report is not None and not report.ok:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
