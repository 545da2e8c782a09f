"""Sim/TCP equivalence: the same protocol code, two transports, one oracle.

The net-smoke cluster spec (``chain_smoke_spec(3, system)``) is
deliberately the same scenario as the model checker's ``chain3``: sites
I/F/T, the causal write chain ``g0:a -> g0:b -> g0:y`` plus the
partial-group bait ``g1:p``.  For every system of the protocol table,
running it on the sim kernel (``build_chain3`` with the spec's scripts)
and on real asyncio TCP (``net run --system``) fills the same
:class:`~repro.verify.ExecutionLog` — directly in the sim, replayed from
the hook journals on TCP — and both logs must

* hold the same **set** of (origin, key) pairs visible at each
  datacenter,
* pass ``check()`` and ``check_completeness()``, and
* know every causal edge the scripts imply (an oracle fed empty causal
  pasts would pass vacuously).

``eventual`` is held to all of it but the causal order, which it does not
promise (:data:`UNORDERED`).

Visibility *order* is not compared across transports: ``g1:p`` and
``g0:y`` are concurrent (both depend only on ``g0:b``), so their
relative order at F legitimately differs.

Saturn's ``chain3`` is additionally pinned to the pre-refactor trace
digest — the transport seam must not perturb the deterministic path by
one bit.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.mc.scenario import build_chain3, build_scenario
from repro.net.check import check_cluster
from repro.net.spec import chain_smoke_spec
from repro.protocols import PROTOCOLS

# trace digest of the chain3 scenario as of the pre-transport seed; any
# drift here means the refactor changed the deterministic sim path
CHAIN3_DIGEST = \
    "e9807032bc72324a6c310699ed04e8104a8d1544f3601a17497d22e783d697a8"

#: systems that promise no causal order: eventual consistency is the
#: checker's positive control (tests/integration/test_causality.py), and
#: on sockets a client's write on an idle partition can become visible at
#: a replica before its previous write, still queued on a busy partition
UNORDERED = {"eventual"}


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
    assert [violation for violation in log.check()
            if not (spec.system in UNORDERED
                    and violation.kind == "causal-order")] == []
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


def _sim_log(spec):
    """The spec's scripts on the sim kernel, over chain3's deployment."""
    scenario = build_chain3(f"{spec.system}-net", horizon=300.0,
                            system=spec.system, clients=spec.clients)
    scenario.run()
    return scenario.log


@pytest.mark.parametrize("system", sorted(PROTOCOLS))
def test_sim_sequences_satisfy_the_net_smoke_contract(system):
    spec = chain_smoke_spec(3, system)
    _assert_oracle_holds(spec, _sim_log(spec))


@pytest.mark.slow
@pytest.mark.parametrize("system", sorted(PROTOCOLS))
def test_tcp_transport_agrees_with_the_sim_transport(system, tmp_path):
    """Boot the real 3-DC TCP cluster and compare against the sim run."""
    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = (src_root + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src_root)
    cluster_dir = tmp_path / "cluster"
    proc = subprocess.run(
        [sys.executable, "-m", "repro.net", "run", "--system", system,
         "--dcs", "3", "--cluster-dir", str(cluster_dir), "--timeout", "60",
         "--json"],
        env=env, capture_output=True, text=True, timeout=150)
    outcome = json.loads(
        (cluster_dir / "outcome.json").read_text(encoding="utf-8"))
    problems = outcome["check"]["problems"]
    assert proc.returncode == (1 if problems else 0) and [
        problem for problem in problems
        if not (system in UNORDERED and problem.startswith("causal-order:"))
    ] == [], (
        f"net run failed (exit {proc.returncode}):\n{proc.stdout}\n"
        f"{proc.stderr}\noutcome: {json.dumps(outcome, indent=2)}")
    assert not outcome["timed_out"]
    assert all(code == 0 for code in outcome["node_exits"].values())

    # the two transports see the same worlds, under the same oracle
    spec = chain_smoke_spec(3, system)
    sim_log, tcp_log = _sim_log(spec), check_cluster(cluster_dir).log
    _assert_oracle_holds(spec, sim_log)
    _assert_oracle_holds(spec, tcp_log)
    assert _visible_sets(tcp_log) == _visible_sets(sim_log)
