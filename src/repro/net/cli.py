"""``saturn-repro net``: boot and check a real cluster over localhost TCP.

Subcommands
-----------

``run``
    Boot the directory service plus one OS process per datacenter and
    serializer of ``--system``, drive the chain causal-visibility smoke
    workload to completion, stop everything gracefully, and replay the
    per-node hook journals through the simulator's ``ExecutionLog`` oracle
    (:mod:`repro.net.check`).  Exit 0 on success, 1 on a visibility /
    causal violation, 2 on timeout or unclean shutdown.
``check``
    Re-run the oracle over an existing cluster directory.
``spec``
    Print the chain smoke :class:`~repro.net.spec.ClusterSpec` as JSON.

The driver is the only place in the net stack that blocks on wall time:
everything below it is event-driven.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.net.check import check_cluster
from repro.net.directory import DirectoryClient
from repro.net.spec import ClusterSpec, chain_smoke_spec, write_cluster
from repro.protocols import SYSTEMS

__all__ = ["main"]

_ENDPOINT_WAIT_S = 15.0
_POLL_PERIOD_S = 0.2
_STOP_GRACE_S = 10.0


def _python_env() -> Dict[str, str]:
    """Child env whose PYTHONPATH can import this very ``repro``."""
    env = dict(os.environ)
    # this file is <src>/repro/net/cli.py — parents[2] is <src>
    src_root = str(Path(__file__).resolve().parents[2])
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (src_root if not extra
                         else src_root + os.pathsep + extra)
    return env


def _spawn(cmd: List[str], log_path: Path,
           env: Dict[str, str]) -> Tuple[subprocess.Popen, Any]:
    fh = open(log_path, "ab")
    proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT,
                            env=env)
    return proc, fh


def _wait_endpoint(path: Path) -> Tuple[str, int]:
    deadline = time.monotonic() + _ENDPOINT_WAIT_S  # noqa: SAT001 - driver orchestrates real processes on wall time
    while True:
        if path.exists():
            text = path.read_text(encoding="utf-8").strip()
            if text:
                host, port = text.split()
                return host, int(port)
        if time.monotonic() > deadline:  # noqa: SAT001 - driver orchestrates real processes on wall time
            raise TimeoutError("directory service never wrote its endpoint")
        time.sleep(0.05)


def _expected_by_node(spec: ClusterSpec) -> Dict[str, Set[Tuple[str, str]]]:
    """dc node name -> (origin, key) pairs that must become visible."""
    replication = spec.replication()
    expected: Dict[str, Set[Tuple[str, str]]] = {
        f"dc-{site}": set() for site in spec.sites}
    for origin, key in spec.scripted_updates():
        for site in sorted(replication.replicas(key)):
            expected[f"dc-{site}"].add((origin, key))
    return expected


def _workload_done(directory: DirectoryClient,
                   expected: Dict[str, Set[Tuple[str, str]]]) -> bool:
    reports = directory.snapshot()["state"]["reports"]
    for node, pairs in expected.items():
        report = reports.get(node)
        if report is None or not report.get("clients_done"):
            return False
        # a finished client has applied its own updates; the datacenter
        # counts the remote ones (each scripted pair is written exactly once)
        remote = sum(f"dc-{origin}" != node for origin, _ in pairs)
        if report.get("updates_applied", 0) < remote:
            return False
    return True


def _run(args: argparse.Namespace) -> int:
    spec = chain_smoke_spec(args.dcs, args.system)
    cluster_dir = Path(args.cluster_dir)
    cluster_dir.mkdir(parents=True, exist_ok=True)
    env = _python_env()
    children: List[Tuple[str, subprocess.Popen, Any]] = []
    outcome: Dict[str, Any] = {"cluster_dir": str(cluster_dir)}
    exit_code = 2
    try:
        # 1. directory service (endpoint file is the readiness handshake)
        endpoint_path = cluster_dir / "directory.endpoint"
        expected_nodes = sorted(spec.nodes())
        directory_proc, directory_fh = _spawn(
            [sys.executable, "-m", "repro.net.directory",
             "--expected", ",".join(expected_nodes),
             "--state-file", str(cluster_dir / "directory.json"),
             "--endpoint-file", str(endpoint_path)],
            cluster_dir / "directory.log", env)
        children.append(("directory", directory_proc, directory_fh))
        host, port = _wait_endpoint(endpoint_path)
        directory = DirectoryClient(host, port)

        # 2. per-node config dirs, then one OS process per node
        node_dirs = write_cluster(spec, cluster_dir, host, port,
                                  deadline_s=args.timeout,
                                  sanitize=args.sanitize,
                                  stall_ms=args.stall_ms)
        for node, node_dir in sorted(node_dirs.items()):
            proc, fh = _spawn(
                [sys.executable, "-m", "repro.net.node",
                 "--dir", str(node_dir)],
                node_dir / "node.log", env)
            children.append((node, proc, fh))

        # 3. wait for the workload: every client done, every expected
        #    remote update applied at its replicas
        expected = _expected_by_node(spec)
        deadline = time.monotonic() + args.timeout  # noqa: SAT001 - driver orchestrates real processes on wall time
        timed_out = False
        while True:
            if _workload_done(directory, expected):
                break
            if time.monotonic() > deadline:  # noqa: SAT001 - driver orchestrates real processes on wall time
                timed_out = True
                break
            dead = [name for name, proc, _ in children[1:]
                    if proc.poll() not in (None, 0)]
            if dead:
                outcome["crashed"] = dead
                timed_out = True
                break
            time.sleep(_POLL_PERIOD_S)
        outcome["timed_out"] = timed_out

        # 4. graceful stop: flip the phase, let nodes drain and exit
        try:
            directory.set_phase("stop")
        except OSError:
            pass
        exits: Dict[str, Optional[int]] = {}
        for name, proc, _ in children[1:]:
            try:
                exits[name] = proc.wait(timeout=_STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                exits[name] = None
        try:
            directory.shutdown()
            directory_proc.wait(timeout=_STOP_GRACE_S)
        except (OSError, subprocess.TimeoutExpired):
            directory_proc.kill()
        outcome["node_exits"] = exits
        clean = (not timed_out
                 and all(code == 0 for code in exits.values()))

        # 5. causal checks over the logs the nodes left behind
        result = check_cluster(cluster_dir)
        outcome["check"] = result.to_json()

        # 6. sanitizer verdicts (only when the run asked for them)
        sanitizers_ok = True
        if args.sanitize:
            verdicts: Dict[str, Any] = {}
            for node, node_dir in sorted(node_dirs.items()):
                report_path = node_dir / "sanitizers.json"
                if report_path.is_file():
                    verdicts[node] = json.loads(
                        report_path.read_text(encoding="utf-8"))
                else:
                    verdicts[node] = {"ok": False,
                                      "error": "missing sanitizers.json"}
            outcome["sanitizers"] = verdicts
            sanitizers_ok = all(v.get("ok") for v in verdicts.values())

        if not clean:
            exit_code = 2
        elif not result.ok or not sanitizers_ok:
            exit_code = 1
        else:
            exit_code = 0
        return exit_code
    finally:
        for _, proc, fh in children:
            if proc.poll() is None:
                proc.kill()
            fh.close()
        outcome["exit_code"] = exit_code
        (cluster_dir / "outcome.json").write_text(
            json.dumps(outcome, sort_keys=True, indent=2), encoding="utf-8")
        if args.json:
            print(json.dumps(outcome, sort_keys=True, indent=2))
        else:
            _summarize(outcome)


def _summarize(outcome: Dict[str, Any]) -> None:
    check = outcome.get("check")
    if outcome.get("timed_out"):
        print("net: TIMEOUT waiting for the workload"
              + (f" (crashed: {outcome['crashed']})"
                 if outcome.get("crashed") else ""))
    if outcome.get("node_exits"):
        unclean = {n: c for n, c in outcome["node_exits"].items() if c != 0}
        if unclean:
            print(f"net: unclean node exits: {unclean}")
    sanitizers = outcome.get("sanitizers")
    if sanitizers is not None:
        dirty = {node: report for node, report in sanitizers.items()
                 if not report.get("ok")}
        for node, report in sorted(dirty.items()):
            detail = report.get("error") or (
                f"stalls={len(report.get('stalls', []))}, "
                f"reentrancy={len(report.get('reentrancy', []))}, "
                f"leaks={len(report.get('task_leaks', []))}")
            print(f"net: SANITIZER {node}: {detail}")
        if not dirty:
            print(f"net: sanitizers clean on all {len(sanitizers)} nodes")
    if check is not None:
        _report_torn(check)
        for problem in check["problems"]:
            print(f"net: VIOLATION {problem}")
        if check["ok"]:
            print(f"net: OK — {sum(check['visible'].values())} visibility "
                  f"events across {len(check['visible'])} datacenters, all "
                  f"causal checks passed (logs in {outcome['cluster_dir']})")


def _report_torn(check: Dict[str, Any], file=None) -> None:
    for dc, torn in sorted(check["torn_lines"].items()):
        if torn:
            print(f"net: ignored a torn final line in dc-{dc}/visibility.jsonl",
                  file=file)


def _check(args: argparse.Namespace) -> int:
    report = check_cluster(Path(args.cluster_dir)).to_json()
    print(json.dumps(report, sort_keys=True, indent=2))
    _report_torn(report, file=sys.stderr)
    return 0 if report["ok"] else 1


def _spec(args: argparse.Namespace) -> int:
    spec = chain_smoke_spec(args.dcs, args.system)
    print(json.dumps(spec.to_json(), sort_keys=True, indent=2))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="saturn-repro net",
        description="run any system on a real asyncio TCP cluster")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="boot a chain cluster and smoke it")
    run.add_argument("--dcs", type=int, default=3,
                     help="number of datacenters in the chain (default 3)")
    run.add_argument("--system", choices=SYSTEMS, default="saturn",
                     help="system every datacenter runs (default saturn)")
    run.add_argument("--cluster-dir", default="net-cluster",
                     help="directory for configs, logs, and state")
    run.add_argument("--timeout", type=float, default=60.0,
                     help="workload deadline in seconds (default 60)")
    run.add_argument("--sanitize", action="store_true",
                     help="enable runtime sanitizers on every node "
                          "(stall watchdog, reentrancy check, task-leak "
                          "check); violations fail the run")
    run.add_argument("--stall-ms", type=float, default=250.0,
                     help="event-loop stall threshold in ms "
                          "(default 250)")
    run.add_argument("--json", action="store_true",
                     help="print the outcome as JSON")
    run.set_defaults(func=_run)

    check = sub.add_parser("check", help="re-check an existing cluster dir")
    check.add_argument("--cluster-dir", default="net-cluster")
    check.set_defaults(func=_check)

    spec = sub.add_parser("spec", help="print the smoke spec as JSON")
    spec.add_argument("--dcs", type=int, default=3)
    spec.add_argument("--system", choices=SYSTEMS, default="saturn")
    spec.set_defaults(func=_spec)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
