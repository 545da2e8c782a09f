"""Cross-baseline causal-conformance harness.

Every causally consistent system in the five-way comparison — Saturn and
the four stabilization/sequencer baselines — must pass the *same*
oracles on the *same* deployments: causal visibility order, session
monotonicity, genuine partial replication (items are visible only where
replicated), and bit-identical double-run delivery digests.  The
property tests then drive randomized workload shapes through each
protocol and check, with an oracle written independently from
``repro.verify.checker``, that every datacenter's visibility sequence is
a linear extension of the happens-before order.
"""

import bisect

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.runtime import HazardMonitor
from repro.harness.runner import Cluster, ClusterConfig
from repro.verify.checker import ExecutionLog
from repro.workloads.synthetic import SyntheticWorkload

FIVE_WAY = ("saturn", "gentlerain", "cure", "eunomia", "okapi")

#: the two conformance deployments: the 3-site chain the model checker
#: uses, and a 5-site spread across both EC2 coasts plus Europe/Asia
CHAIN3 = ("I", "F", "T")
TREE5 = ("NV", "I", "F", "T", "S")
TOPOLOGIES = {"chain3": CHAIN3, "tree5": TREE5}


def run_cluster(system, sites=CHAIN3, workload=None, duration=600.0,
                seed=1, clients_per_dc=4, monitored=False, **overrides):
    workload = workload or SyntheticWorkload(
        correlation="full", read_ratio=0.7, value_size=8,
        keys_per_group=4, groups_per_dc=2)
    cluster = Cluster(ClusterConfig(system=system, sites=sites,
                                    clients_per_dc=clients_per_dc,
                                    seed=seed, **overrides),
                      workload)
    if monitored:
        HazardMonitor.install(cluster.network)
    log = ExecutionLog(cluster.replication)
    cluster.attach_execution_log(log)
    results = cluster.run(duration=duration, warmup=100.0)
    return results, log, cluster


# one full run per (system, topology), shared by the oracle tests below
_RUNS = {}


def checked_run(system, topo_name):
    key = (system, topo_name)
    if key not in _RUNS:
        _RUNS[key] = run_cluster(system, sites=TOPOLOGIES[topo_name])
    return _RUNS[key]


def assert_linear_extension(log, replication):
    """Independent oracle: at every datacenter the visibility order must
    linearly extend happens-before, restricted to the keys that
    datacenter replicates.  A dependency counts as satisfied when it —
    or, with last-writer-wins registers, a newer version of its key —
    became visible earlier (the causal+ convergence rule)."""
    for dc in replication.datacenters:
        positions = log.visibility_positions(dc)
        by_key = {}
        for version, pos in positions.items():
            record = log.updates.get(version)
            if record is not None and record.key:
                by_key.setdefault(record.key, []).append((pos, version))
        # per key: visibility positions (sorted) + prefix-max version, so
        # each dependency check is a binary search instead of a scan
        prepared = {}
        for key, entries in by_key.items():
            entries.sort()
            best, prefix_max = None, []
            for _, v in entries:
                best = v if best is None or v > best else best
                prefix_max.append(best)
            prepared[key] = ([p for p, _ in entries], prefix_max)
        for version, pos in positions.items():
            record = log.updates.get(version)
            if record is None:
                continue
            for dep in log.past(version):
                dep_record = log.updates.get(dep)
                if dep_record is None:
                    continue
                if not replication.is_replicated_at(dep_record.key, dc):
                    continue  # genuine partial replication
                poss, prefix_max = prepared.get(dep_record.key, ([], []))
                before = bisect.bisect_left(poss, pos)
                assert before > 0 and prefix_max[before - 1] >= dep, (
                    f"{dc}: {version} visible before dependency {dep}")


# ---------------------------------------------------------------------------
# shared oracles, all five systems x both topologies
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("topo", TOPOLOGIES)
@pytest.mark.parametrize("system", FIVE_WAY)
def test_causal_visibility_and_sessions(system, topo):
    results, log, _ = checked_run(system, topo)
    assert results.ops_completed > 500
    assert log.check() == []


@pytest.mark.parametrize("topo", TOPOLOGIES)
@pytest.mark.parametrize("system", FIVE_WAY)
def test_visibility_is_linear_extension_of_happens_before(system, topo):
    _, log, cluster = checked_run(system, topo)
    assert len(log.updates) > 100
    assert_linear_extension(log, cluster.replication)


@pytest.mark.parametrize("system", FIVE_WAY)
def test_genuine_partial_replication(system):
    """Degree-2 replication: every version a datacenter reveals must be
    of a key that datacenter actually replicates, and remote groups must
    still converge (no liveness loss from the partial topology)."""
    workload = SyntheticWorkload(correlation="degree", degree=2,
                                 read_ratio=0.7, remote_read_fraction=0.2,
                                 keys_per_group=4)
    results, log, cluster = run_cluster(system, workload=workload,
                                        duration=800.0)
    assert results.ops_completed > 200
    assert log.check() == []
    replication = cluster.replication
    leaked = []
    for dc in CHAIN3:
        for version in log.visibility_positions(dc):
            record = log.updates.get(version)
            if record is None or not record.key:
                continue
            if not replication.is_replicated_at(record.key, dc):
                leaked.append((dc, record.key, version))
    assert leaked == []
    # liveness: at least one remote group's updates became visible
    remote = [version for dc in CHAIN3
              for version in log.visibility_positions(dc)
              if (record := log.updates.get(version)) is not None
              and record.origin and record.origin != dc]
    assert remote


@pytest.mark.parametrize("system", FIVE_WAY)
def test_double_run_digest_determinism(system):
    digests = []
    for _ in range(2):
        _, _, cluster = run_cluster(system, duration=400.0, monitored=True)
        (monitor,) = cluster.network.observers
        assert monitor.report().ok
        digests.append(monitor.trace_digest())
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# property tests: randomized workload shapes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("system", FIVE_WAY)
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(seed=st.integers(min_value=1, max_value=10_000),
       read_ratio=st.floats(min_value=0.3, max_value=0.9),
       keys=st.integers(min_value=2, max_value=6))
def test_conformance_under_random_workloads(system, seed, read_ratio, keys):
    workload = SyntheticWorkload(correlation="full", read_ratio=read_ratio,
                                 value_size=8, keys_per_group=keys,
                                 groups_per_dc=1)
    _, log, cluster = run_cluster(system, workload=workload, seed=seed,
                                  duration=300.0, clients_per_dc=2)
    assert log.check() == []
    assert_linear_extension(log, cluster.replication)
