"""Sim/TCP equivalence: the same protocol code, two transports, one oracle.

The net-smoke cluster spec (``chain_smoke_spec(3)``) is deliberately the
same scenario as the model checker's ``chain3``: sites I/F/T, the causal
write chain ``g0:a -> g0:b -> g0:y`` plus the partial-group bait
``g1:p``.  Running it on the sim kernel and on real asyncio TCP fills
the same :class:`~repro.verify.ExecutionLog` — directly in the sim,
replayed from the hook journals on TCP — and both logs must

* hold the same **set** of (origin, key) pairs visible at each
  datacenter,
* pass ``check()`` and ``check_completeness()``, and
* know every causal edge the scripts imply (an oracle fed empty causal
  pasts would pass vacuously).

Visibility *order* is not compared across transports: ``g1:p`` and
``g0:y`` are concurrent (both depend only on ``g0:b``), so their
relative order at F legitimately differs.

The sim side is additionally pinned to the pre-refactor trace digest —
the transport seam must not perturb the deterministic path by one bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.mc.scenario import build_scenario
from repro.net.check import check_cluster
from repro.net.spec import chain_smoke_spec

# trace digest of the chain3 scenario as of the pre-transport seed; any
# drift here means the refactor changed the deterministic sim path
CHAIN3_DIGEST = \
    "e9807032bc72324a6c310699ed04e8104a8d1544f3601a17497d22e783d697a8"


def chain_dependencies(spec):
    """Causal (dep_key, key) edges implied by the scripts — the test-side
    reference for what the recorded causal pasts must at least contain.

    Same-client session order links consecutive updates; a poll followed
    by an update links the awaited key to the write (the relay pattern).
    """
    edges = []
    for client in spec.clients:
        pending_deps = []
        for op in client["script"]:
            if op["op"] == "poll":
                pending_deps.append(op["key"])
            elif op["op"] == "update":
                for dep in pending_deps:
                    edges.append((dep, op["key"]))
                pending_deps = [op["key"]]
    return edges


def _visible_sets(log):
    """dc -> {(origin, key)} visible there, from an ExecutionLog."""
    return {dc: {(log.updates[version].origin, log.updates[version].key)
                 for version in log.visibility_positions(dc)}
            for dc in log.visible_counts()}


def _assert_oracle_holds(spec, log):
    """The one contract both transports meet."""
    assert log.check() == []
    assert log.check_completeness() == []
    expected = {site: set() for site in spec.sites}
    for origin, key in spec.scripted_updates():
        for site in spec.replication().replicas(key):
            expected[site].add((origin, key))
    assert _visible_sets(log) == expected
    recorded = {(log.updates[dep].key, record.key)
                for record in log.updates.values() for dep in record.deps}
    assert set(chain_dependencies(spec)) <= recorded


def test_sim_transport_digest_is_bit_identical_to_seed():
    scenario = build_scenario("chain3")
    scenario.run()
    assert scenario.digest() == CHAIN3_DIGEST


def test_sim_sequences_satisfy_the_net_smoke_contract():
    scenario = build_scenario("chain3")
    scenario.run()
    _assert_oracle_holds(chain_smoke_spec(3), scenario.log)


@pytest.mark.slow
def test_tcp_transport_agrees_with_the_sim_transport(tmp_path):
    """Boot the real 3-DC TCP cluster and compare against the sim run."""
    scenario = build_scenario("chain3")
    scenario.run()
    assert scenario.digest() == CHAIN3_DIGEST

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = (src_root + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src_root)
    cluster_dir = tmp_path / "cluster"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.net", "run", "--dcs", "3",
         "--cluster-dir", str(cluster_dir), "--timeout", "60", "--json"],
        env=env, capture_output=True, text=True, timeout=150)
    outcome = json.loads(
        (cluster_dir / "outcome.json").read_text(encoding="utf-8"))
    assert proc.returncode == 0, (
        f"net run failed (exit {proc.returncode}):\n{proc.stdout}\n"
        f"{proc.stderr}\noutcome: {json.dumps(outcome, indent=2)}")
    assert outcome["check"]["ok"] is True
    assert not outcome["timed_out"]
    assert all(code == 0 for code in outcome["node_exits"].values())

    # the two transports see the same worlds, under the same oracle
    spec = chain_smoke_spec(3)
    tcp_log = check_cluster(cluster_dir).log
    _assert_oracle_holds(spec, scenario.log)
    _assert_oracle_holds(spec, tcp_log)
    assert _visible_sets(tcp_log) == _visible_sets(scenario.log)
