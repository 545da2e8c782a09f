"""Recovery regression: after the automatic emergency epoch change, remote
visibility must return to (near) the pre-fault steady state — and the
causal-consistency oracle must have nothing to say about the whole arc.

Uses the ``visibility-under-failure`` experiment at smoke scale: the whole
serializer tree crashes 100 ms after warmup, restarts 200 ms later, every
datacenter degrades to the timestamp total order in between, and the
restarted tree's beacons drive the coordinator's recovery.  The tolerance
(30 % + 10 ms) is deliberately loose — the post-recovery window is shorter
than the steady-state window, so its mean is noisier — but it fails
decisively if recovery strands the cluster in degraded mode (visibility
then rides the bulk-heartbeat period and roughly doubles).

Every run here has an :class:`ExecutionLog` attached.  Unlike the scripted
chaos scenarios (7 + 4 ms detector timings, a handful of clients) these use
the experiment's 100 + 50 ms detector and a closed-loop workload, so the
sink replay is long enough to outrun the stability cut — the condition
under which returning to tree order at a *replayed* label, or trusting the
dedup set alone for a fresh one, goes wrong."""

from repro.core.tree import TreeTopology
from repro.harness import experiments
from repro.harness.experiments import run_experiment
from repro.harness.runner import SMOKE, Scale, run_once
from repro.verify.checker import ExecutionLog
from repro.workloads.synthetic import SyntheticWorkload

SITES = ("I", "F", "T")
CRASH_AT = 200.0


def _with_oracle(before_run, logs):
    """A ``before_run`` hook that also attaches an ExecutionLog."""
    def hook(cluster):
        log = ExecutionLog(cluster.replication)
        cluster.attach_execution_log(log)
        logs.append(log)
        if before_run is not None:
            before_run(cluster)
    return hook


def _outage_run(inject, duration, auto_failover):
    """The experiment's cluster and detector timings under another fault
    script and a write-heavier mix (more labels parked and replayed per
    outage millisecond); returns (results, oracle log)."""
    logs = []
    result = run_once(
        "saturn", SyntheticWorkload(correlation="full", read_ratio=0.5),
        Scale(duration=duration, warmup=SMOKE.warmup,
              clients_per_dc=SMOKE.clients_per_dc, seed=SMOKE.seed,
              beam_width=SMOKE.beam_width),
        sites=SITES, topology=TreeTopology.star("I", {s: s for s in SITES}),
        before_run=_with_oracle(inject, logs),
        beacon_period=25.0, auto_failover=auto_failover,
        dc_params=dict(beacon_timeout=100.0, stabilization_wait=50.0,
                       probe_period=50.0))
    return result, logs[0]


def _assert_recovered_and_live(result, log, duration):
    cluster = result.cluster
    assert log.check() == []
    assert cluster.manager.last_epoch is not None
    assert cluster.manager.complete()
    # remote updates are still becoming visible at the very end ...
    assert result.visibility.samples_in_window(duration - 500.0, duration)
    # ... and no proxy is wedged behind a label it will never satisfy
    for name, dc in cluster.datacenters.items():
        assert not dc.proxy._in_timestamp_mode(), name
        assert len(dc.proxy._queue) < 50, (name, len(dc.proxy._queue))


def test_visibility_returns_to_steady_state_after_recovery(monkeypatch):
    logs = []
    monkeypatch.setattr(
        experiments, "run_once",
        lambda *args, before_run=None, **kwargs: run_once(
            *args, before_run=_with_oracle(before_run, logs), **kwargs))
    result = run_experiment("visibility-under-failure", SMOKE)
    assert len(logs) == 1 and logs[0].check() == []

    assert result["recovered"], "automatic recovery never fired"
    epochs = [epoch for _, epoch in result["recovery_epochs"]]
    assert 1 in epochs
    # every datacenter went through a degraded span and closed it
    assert set(result["degraded_spans"]) == {"I", "F", "T"}
    for name, spans in result["degraded_spans"].items():
        assert spans, f"{name} never degraded"
        for degraded_at, reattached_at in spans:
            assert result["crash_at_ms"] <= degraded_at < reattached_at

    pre = result["pre_fault_visibility_ms"]
    post = result["post_recovery_visibility_ms"]
    assert pre > 0 and post > 0
    assert post <= pre * 1.3 + 10.0, (
        f"post-recovery visibility {post:.1f} ms vs pre-fault {pre:.1f} ms")
    # degraded mode kept updates visible (staler, but flowing)
    assert result["outage_visibility_ms"] > 0
    assert result["throughput"] > 0


def test_long_outage_recovers_without_violation_or_wedge():
    """1,000 ms of dead tree: the parked backlog dwarfs the replay window."""
    duration = CRASH_AT + 1000.0 + 1500.0

    def inject(cluster):
        cluster.sim.schedule(
            CRASH_AT, lambda: cluster.service.fail_tree(epoch=0))
        cluster.sim.schedule(
            CRASH_AT + 1000.0, lambda: cluster.service.restart_tree(epoch=0))

    result, log = _outage_run(inject, duration, auto_failover=True)
    assert result.cluster.failover.recoveries, "automatic recovery never fired"
    _assert_recovered_and_live(result, log, duration)


def test_operator_switch_on_dead_tree_recovers_without_violation_or_wedge():
    """C1 stays dead; an operator installs C2 through the failure path."""
    duration = CRASH_AT + 1000.0 + 1000.0
    c2 = TreeTopology(
        serializer_sites={"s0": "I", "s1": "F", "s2": "T"},
        edges=[("s0", "s1"), ("s1", "s2")],
        attachments={"I": "s0", "F": "s1", "T": "s2"})

    def inject(cluster):
        cluster.sim.schedule(
            CRASH_AT, lambda: cluster.service.fail_tree(epoch=0))
        cluster.sim.schedule(
            CRASH_AT + 1000.0,
            lambda: cluster.manager.reconfigure(c2, emergency=True))

    result, log = _outage_run(inject, duration, auto_failover=False)
    _assert_recovered_and_live(result, log, duration)
