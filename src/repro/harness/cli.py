"""Command-line interface: run any paper experiment from the shell.

Installed as the ``saturn-repro`` console script::

    saturn-repro list                      # available experiments/systems
    saturn-repro run fig4                  # regenerate a figure
    saturn-repro run fig5 --scale smoke --json out.json
    saturn-repro bench --system saturn     # one ad-hoc cluster run
    saturn-repro configure                 # print the M-configuration
    saturn-repro mc --scenario chain3      # schedule-space model checking
    saturn-repro mc --list                 # every mc and fault scenario
    saturn-repro obs --pair T S            # per-edge visibility breakdown
    saturn-repro audit                     # SAT + ARCH + CONC static analysis
    saturn-repro net run --dcs 3           # real asyncio TCP cluster
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from typing import Dict, Optional, Tuple

from repro.config.latencies import EC2_REGIONS, ec2_latency
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.report import format_cdf_summary, format_table
from repro.harness.runner import DEFAULT, SMOKE, SYSTEMS, Scale, run_once
from repro.protocols import PROTOCOLS

__all__ = ["main", "build_parser"]

_SCALES = {"smoke": SMOKE, "default": DEFAULT}

#: subcommands that belong to another tool: name -> (module whose
#: ``main(argv)`` takes the rest of the command line, --help summary)
FORWARDED: Dict[str, Tuple[str, str]] = {
    "mc": ("repro.analysis.mc.__main__",
           "schedule-space model checking (repro.analysis.mc)"),
    "obs": ("repro.obs.__main__",
            "label-lifecycle tracing + per-edge visibility breakdown "
            "(repro.obs)"),
    "audit": ("repro.analysis.__main__",
              "static analysis: SAT determinism, ARCH architecture and "
              "CONC async-concurrency rules (repro.analysis)"),
    "net": ("repro.net.cli",
            "real asyncio TCP cluster over localhost (repro.net)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saturn-repro",
        description="Reproduction of Saturn (EuroSys 2017): run the "
                    "paper's experiments on the simulated testbed.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and systems")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--scale", choices=sorted(_SCALES), default="default")
    run.add_argument("--json", metavar="PATH",
                     help="also dump the raw result dict as JSON")

    bench = sub.add_parser("bench", help="one ad-hoc cluster run")
    bench.add_argument("--system", choices=SYSTEMS, default="saturn")
    bench.add_argument("--duration", type=float, default=1000.0,
                       help="simulated milliseconds (default 1000)")
    bench.add_argument("--clients", type=int, default=8,
                       help="clients per datacenter")
    bench.add_argument("--read-ratio", type=float, default=0.9)
    bench.add_argument("--value-size", type=int, default=2)
    bench.add_argument("--correlation", default="exponential")
    bench.add_argument("--remote-reads", type=float, default=0.0)
    bench.add_argument("--seed", type=int, default=1)

    conf = sub.add_parser("configure",
                          help="run Algorithm 3 over the EC2 regions")
    conf.add_argument("--beam-width", type=int, default=8)

    # help-only entries: main() forwards these before argparse runs
    for name, (module, summary) in FORWARDED.items():
        forwarded = sub.add_parser(name, help=summary, add_help=False)
        forwarded.add_argument(f"{name}_args", nargs=argparse.REMAINDER,
                               help=f"arguments forwarded to {module}.main")

    return parser


def _summarize(name: str, result: Dict) -> str:
    """The rows as a table, every series (a ``{pair: samples}`` mapping, or
    a ``series`` dict of them) as CDF lines, every other key as it is."""
    lines = [f"== {name} =="]
    pairs = result.get("pairs", [])

    def cdfs(label: str, series: Dict) -> None:
        lines.extend(format_cdf_summary(f"{label} {a}->{b}",
                                        series.get((a, b), []))
                     for a, b in pairs)

    for key, value in result.items():
        if key == "rows":
            if value:
                headers = list(value[0])  # dicts keep column order
                lines.append(format_table(
                    headers, [[row.get(h, "") for h in headers]
                              for row in value]))
        elif key == "series":
            for label, series in value.items():
                cdfs(label, series)
        elif isinstance(value, dict) and pairs and pairs[0] in value:
            cdfs(key, value)
        elif key != "pairs":
            lines.append(f"{key}: {value}")
    return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def main(argv: Optional[list] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in FORWARDED:
        # forwarded before argparse sees it: REMAINDER cannot capture a
        # leading --flag, and each tool owns its own --help
        module, _ = FORWARDED[argv[0]]
        return importlib.import_module(module).main(list(argv[1:]))
    args = build_parser().parse_args(argv)

    if args.command == "list":
        print("experiments:")
        for name, experiment in sorted(EXPERIMENTS.items()):
            print(f"  {name:28s} {experiment.summary}")
        print("systems:")
        for protocol in PROTOCOLS.values():
            print(f"  {protocol.name:28s} {protocol.description}")
        return 0

    if args.command == "run":
        result = run_experiment(args.experiment, _SCALES[args.scale])
        print(_summarize(args.experiment, result))
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(_jsonable(result), handle, indent=2)
            print(f"raw results written to {args.json}")
        return 0

    if args.command == "bench":
        from repro.workloads.synthetic import SyntheticWorkload
        # degree only shapes the "degree" correlation pattern
        workload = SyntheticWorkload(
            read_ratio=args.read_ratio, value_size=args.value_size,
            correlation=args.correlation,
            remote_read_fraction=args.remote_reads, degree=2)
        results = run_once(args.system, workload, Scale(
            duration=args.duration, warmup=min(200.0, args.duration / 4),
            clients_per_dc=args.clients, seed=args.seed))
        print(f"system:           {args.system}")
        print(f"throughput:       {results.throughput:.0f} ops/s")
        print(f"ops completed:    {results.ops_completed}")
        if results.visibility.count():
            print(f"visibility mean:  {results.visibility.mean():.1f} ms")
            print(f"visibility p90:   {results.visibility.percentile(90):.1f} ms")
        return 0

    if args.command == "configure":
        from repro.config.placement import find_configuration, fuse_topology
        dc_sites = {r: r for r in EC2_REGIONS}
        solved = find_configuration(EC2_REGIONS, dc_sites, ec2_latency,
                                    beam_width=args.beam_width)
        topology = fuse_topology(solved.topology)
        print(f"score: {solved.score:.1f} weighted-ms")
        for serializer, site in sorted(topology.serializer_sites.items()):
            attached = sorted(dc for dc, s in topology.attachments.items()
                              if s == serializer)
            print(f"  {serializer} @ {site} <- {attached}")
        print(f"  edges: {topology.edges}")
        print(f"  delays: {topology.delays or '(none needed)'}")
        return 0

    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
