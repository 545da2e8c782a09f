#!/usr/bin/env python3
"""Benchmark runner.  See bench/README.md.

One workload, one pass (what the driver and the all-workloads mode call)::

    python3 bench/run.py --workload geo7_writes --seed 7 --seconds 10 --trace 0

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, both passes, each in a fresh interpreter, as a table::

    python3 bench/run.py [--runs N] [--out bench/out/results.json]

Two result files against the bounds of BENCHMARK.json::

    python3 bench/run.py --compare parent.json change.json
"""

import time

_STARTED = time.perf_counter()  # set-up time is counted from here

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
#: set-ups measured per run; the median is reported
SETUP_REPS = 3
#: the oracle block runs at this share of the block size: ExecutionLog.check
#: grows faster than linearly with the run
ORACLE_SCALE = 0.4

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench/run.py: {ROOT / 'src' / 'repro'} not found; the "
             "benchmark measures the repository it is checked out in")
# the repository root replaces the script directory, so that bench/trace.py
# cannot shadow the standard library's `trace`
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from bench.trace import Recorder, instrument, layer_self_s  # noqa: E402


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# one workload, one pass
# ---------------------------------------------------------------------------

def _run_blocks(workload: Any, seed: int, scale: float, seconds: float,
                began: float, **kwargs: Any) -> List[Any]:
    """Blocks until *seconds* have passed since *began*; at least one."""
    blocks = [workload.block(seed, scale, **kwargs)]
    while time.perf_counter() - began < seconds:
        blocks.append(workload.block(seed, scale, **kwargs))
    return blocks


def _end_to_end(blocks: List[Any], setup_s: float) -> Dict[str, float]:
    """A run reports its best block: whatever else the machine is doing
    only ever slows a block down, so the fastest is the least disturbed.
    (On the simulated workloads the own-clock values are the same in every
    block anyway.)"""
    return {
        "setup_s": setup_s,
        "ops_per_s": max(b.ops / b.wall_s for b in blocks),
        "model_ops_per_s": max(b.own_clock["model_ops_per_s"] for b in blocks),
        "visibility_p50_ms":
            min(b.own_clock["visibility_p50_ms"] for b in blocks),
        "visibility_p99_ms":
            min(b.own_clock["visibility_p99_ms"] for b in blocks),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(setups: List[Any], reference: Any, traced: List[Any],
               oracle: Any, obs_off: Optional[Any]) -> Dict[str, float]:
    first = traced[0]
    ops = first.ops
    metrics: Dict[str, float] = dict(first.counters)

    def calls(name: str) -> int:
        entry = first.span_totals.get(name)
        return entry[1] if entry else 0

    def name_self_s(name: str) -> float:
        return median(b.span_totals.get(name, (None, 0, 0, 0))[3] / 1e9
                       for b in traced)

    # the ledger: every layer's self time, and what no span covered
    ledgers = [layer_self_s(b.span_totals) for b in traced]
    for layer in sorted(set().union(*ledgers)):
        key = ("net.kernel.idle_s" if layer == "net.kernel.idle"
               else f"{layer}.self_s")
        metrics[key] = median(ledger.get(layer, 0.0) for ledger in ledgers)
    traced_wall = median(b.wall_s for b in traced)
    metrics["harness.traced_wall_s"] = traced_wall
    metrics["harness.unattributed_pct"] = median(
        100.0 * (b.wall_s - sum(ledger.values())) / b.wall_s
        for b, ledger in zip(traced, ledgers))
    metrics["harness.trace_overhead_pct"] = (
        100.0 * (traced_wall - reference.wall_s) / reference.wall_s)
    metrics["harness.cpu_busy_frac"] = reference.cpu_s / reference.wall_s
    metrics["harness.cluster_build_s"] = median(s.build_s for s in setups)
    metrics["config.solve_s"] = median(s.solve_s for s in setups)

    events = metrics.get("sim.engine.events", 0)
    messages = metrics.get("sim.network.messages", 0)
    metrics["sim.engine.events_per_op"] = events / ops
    metrics["sim.engine.host_events_per_s"] = events / reference.wall_s
    metrics["sim.network.messages_per_op"] = messages / ops
    metrics["sim.network.send_calls"] = calls("sim.network.send")
    metrics["workloads.generator_calls"] = calls("workloads.generator")
    metrics["datacenter.frontend.messages"] = calls(
        "datacenter.frontend.receive")
    metrics["core.serializer.batches"] = calls("core.serializer.receive")
    metrics["datacenter.remote_proxy.batches"] = calls(
        "datacenter.remote_proxy.on_labels")
    metrics["datacenter.remote_proxy.payloads"] = calls(
        "datacenter.remote_proxy.on_payload")
    metrics["datacenter.remote_proxy.heartbeats"] = calls(
        "datacenter.remote_proxy.on_heartbeat")
    for name in ("op_mean_ms", "op_p50_ms", "op_p99_ms"):
        metrics[f"datacenter.client.{name}"] = first.own_clock[name]
    metrics["metrics.visibility_samples"] = first.own_clock[
        "visibility_samples"]
    metrics["metrics.op_samples"] = first.own_clock["op_samples"]

    metrics["verify.records"] = oracle.oracle_records
    metrics["verify.record_self_s"] = layer_self_s(
        oracle.span_totals).get("verify", 0.0)
    metrics["verify.check_s"] = oracle.oracle_check_s
    metrics["verify.violations"] = oracle.oracle_violations

    metrics["obs.events"] = first.obs_events
    metrics["obs.export_s"] = median(b.obs_export_s for b in traced)
    metrics["obs.export_bytes"] = first.obs_export_bytes
    if obs_off is not None:
        metrics["obs.host_slowdown_x"] = ((obs_off.ops / obs_off.wall_s)
                                          / (reference.ops / reference.wall_s))

    encoded = calls("net.codec.encode_frame")
    decoded = calls("net.codec.decode_frame_body")
    metrics["net.codec.frames_encoded"] = encoded
    metrics["net.codec.frames_decoded"] = decoded
    if encoded:  # the realtime path ran
        encode_s = name_self_s("net.codec.encode_frame")
        decode_s = name_self_s("net.codec.decode_frame_body")
        metrics["net.codec.encode_self_s"] = encode_s
        metrics["net.codec.decode_self_s"] = decode_s
        metrics["net.codec.encode_us_per_frame"] = 1e6 * encode_s / encoded
        metrics["net.codec.decode_us_per_frame"] = 1e6 * decode_s / decoded
        metrics["net.codec.bytes_per_frame"] = (
            metrics["net.tcp.bytes_sent"] / encoded)
        metrics["net.tcp.send_self_s"] = name_self_s("net.tcp.send")
        metrics["net.kernel.callbacks_per_op"] = (
            metrics["net.kernel.callbacks"] / ops)
        metrics["net.kernel.timer_lag_p50_ms"] = median(
            median(b.timer_lags_ns) / 1e6 for b in traced)
    return metrics


def run_one(args: argparse.Namespace) -> int:
    from bench.workloads import WORKLOADS  # the imports set-up time counts

    import_s = time.perf_counter() - _STARTED
    spec = load_spec()
    workload = WORKLOADS[args.workload]()
    setups = [workload.setup(args.seed) for _ in range(SETUP_REPS)]
    setup_s = import_s + median(s.solve_s + s.build_s for s in setups)

    began = time.perf_counter()
    problems: List[str] = []
    if args.trace == 0:
        blocks = _run_blocks(workload, args.seed, args.scale, args.seconds,
                             began)
        declared = spec["end_to_end"]
        measured = _end_to_end(blocks, setup_s)
        judged = blocks
    else:
        reference = workload.block(args.seed, args.scale)
        obs_off = (workload.block(args.seed, args.scale, obs=False)
                   if getattr(workload, "obs", False) else None)
        recorder = Recorder()
        restore = instrument(recorder)
        try:
            traced = _run_blocks(workload, args.seed, args.scale,
                                 args.seconds, began, recorder=recorder)
            oracle = workload.block(args.seed, args.scale * ORACLE_SCALE,
                                    recorder=recorder, oracle=True)
        finally:
            restore()
        OUT.mkdir(parents=True, exist_ok=True)
        recorder.write_jsonl(OUT / f"{args.workload}.trace.jsonl")
        declared = spec["per_layer"]
        measured = {m["name"]: 0.0 for m in declared}
        computed = _per_layer(setups, reference, traced, oracle, obs_off)
        undeclared = sorted(set(computed) - set(measured))
        if undeclared:
            problems.append(f"not in BENCHMARK.json: {undeclared}")
        measured.update(computed)
        judged = [reference, *traced, oracle]
        # transparency: tracing must not have changed the run
        blocks = [reference, *traced]

    if workload.sim:
        for block in blocks[1:]:
            if block.exact != blocks[0].exact:
                problems.append(f"same seed, different run: {block.exact} "
                                f"!= {blocks[0].exact}")
    for block in judged:
        problems.extend(block.problems)
    for problem in problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": sum(b.attempted for b in judged),
        "failed": sum(b.failed for b in judged),
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# every workload, both passes
# ---------------------------------------------------------------------------

def _machine() -> Dict[str, Any]:
    from repro.perf.measure import calibrate
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            # informational: never used to normalise a metric
            "calibration_ops_per_s": calibrate()}


def run_all(args: argparse.Namespace) -> int:
    spec = load_spec()
    passes = (0, 1) if args.trace is None else (args.trace,)
    results: Dict[str, Any] = {
        "machine": _machine(), "seconds": args.seconds, "scale": args.scale,
        "seeds": [args.seed + run for run in range(args.runs)],
        "workloads": {}}
    failed = False
    for entry in spec["workloads"]:
        name = entry["name"]
        collected: Dict[str, Dict[str, List[float]]] = {
            "end_to_end": {}, "per_layer": {}}
        for trace in passes:
            kind = "per_layer" if trace else "end_to_end"
            for seed in results["seeds"]:
                command = [sys.executable, str(Path(__file__).resolve()),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(args.seconds),
                           "--scale", str(args.scale), "--trace", str(trace)]
                done = subprocess.run(command, stdout=subprocess.PIPE,
                                      text=True, cwd=ROOT)
                try:
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                except (IndexError, ValueError):
                    print(f"{name} seed={seed} trace={trace}: no result "
                          f"(exit {done.returncode})")
                    failed = True
                    continue
                failed |= done.returncode != 0 or not result["correct"]
                print(f"\n{name}  seed={seed} trace={trace}  "
                      f"correct={result['correct']} "
                      f"attempted={result['attempted']} "
                      f"failed={result['failed']}")
                for metric, reading in result["metrics"].items():
                    print(f"  {metric:<48} {reading['value']:>16.6g} "
                          f"{reading['unit']}")
                    collected[kind].setdefault(metric, []).append(
                        reading["value"])
        results["workloads"][name] = collected
    OUT.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else OUT / "results.json"
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"\nresults written to {out}")
    return 1 if failed else 0


def run_compare(parent_path: str, change_path: str) -> int:
    from bench.stats import compare

    parent = json.loads(Path(parent_path).read_text(encoding="utf-8"))
    change = json.loads(Path(change_path).read_text(encoding="utf-8"))
    rows = compare(parent, change, load_spec()["end_to_end"])
    print(f"{'workload':<16} {'metric':<20} {'parent':>12} {'change':>12} "
          f"{'worse by':>9} {'spread':>8} {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<16} {row['metric']:<20} "
              f"{row['parent']:>12.6g} {row['change']:>12.6g} "
              f"{100 * row['worse_by']:>8.2f}% {100 * row['spread']:>7.2f}% "
              f"{100 * row['bound']:>5.0f}%  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only and "
                        "print one JSON result (default: all, as a table)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure for at least this long (default 10)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, untraced; 1: per-layer "
                        "metrics, traced (default: 0 with --workload, "
                        "both without)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every block's simulated ms / "
                        "operation count (default 1.0)")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: runs per workload and "
                        "pass, on seeds seed..seed+runs-1")
    parser.add_argument("--out", help="all-workloads mode: results file "
                        "(default bench/out/results.json)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two results files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if args.workload is None:
        return run_all(args)
    if args.trace is None:
        args.trace = 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
