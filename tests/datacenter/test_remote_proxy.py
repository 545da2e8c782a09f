"""Unit tests for the remote proxy: Saturn-order application, timestamp
fallback, migrations, watermarks, and epoch transitions."""

import random

import pytest

from repro.core.label import Label, LabelType
from repro.datacenter import remote_proxy
from repro.datacenter.messages import BulkHeartbeat, LabelBatch, RemotePayload

from conftest import MiniCluster


def update(ts, origin="I", key="k", src_gear="g0"):
    return Label(LabelType.UPDATE, src=f"{origin}/{src_gear}", ts=ts,
                 target=key, origin_dc=origin)


def payload(label, size=8, created_at=0.0):
    return RemotePayload(label=label, key=label.target, value_size=size,
                         created_at=created_at)


def proxy_of(cluster, dc="F"):
    return cluster.dcs[dc].proxy


def deliver_labels(cluster, dc, labels, epoch=0):
    proxy_of(cluster, dc).on_labels(LabelBatch(tuple(labels), epoch=epoch))


def test_update_waits_for_payload():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    label = update(1.0)
    deliver_labels(cluster, "F", [label])
    cluster.sim.run(until=5.0)
    assert proxy.updates_applied == 0
    proxy.on_payload(payload(label))
    cluster.sim.run(until=10.0)
    assert proxy.updates_applied == 1
    assert cluster.dcs["F"].store.get("k") is not None


def test_payload_waits_for_label():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    label = update(1.0)
    proxy.on_payload(payload(label))
    cluster.sim.run(until=5.0)
    assert proxy.updates_applied == 0
    deliver_labels(cluster, "F", [label])
    cluster.sim.run(until=10.0)
    assert proxy.updates_applied == 1


def test_visibility_follows_label_order_across_partitions():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    visible = []
    cluster.dcs["F"].revealed = lambda label, created_at, mode: visible.append(
        label.ts)
    labels = [update(float(i), key=f"k{i}") for i in range(1, 6)]
    deliver_labels(cluster, "F", labels)
    for l in reversed(labels):  # payloads arrive in reverse
        proxy.on_payload(payload(l))
    cluster.sim.run(until=10.0)
    assert visible == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_migration_waits_for_all_prior_labels():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    u = update(1.0)
    migration = Label(LabelType.MIGRATION, src="I/g0", ts=2.0, target="F",
                      origin_dc="I")
    deliver_labels(cluster, "F", [u, migration])
    cluster.sim.run(until=5.0)
    assert not proxy.migration_processed(migration)  # u's payload missing
    proxy.on_payload(payload(u))
    cluster.sim.run(until=10.0)
    assert proxy.migration_processed(migration)


def test_heartbeat_label_advances_watermark():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    heartbeat = Label(LabelType.HEARTBEAT, src="I/sink", ts=7.0,
                      origin_dc="I")
    deliver_labels(cluster, "F", [heartbeat])
    cluster.sim.run(until=1.0)
    assert proxy.applied_ts["I"] == 7.0


def test_update_stable_requires_all_origins():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    label = update(5.0, origin="I")
    deliver_labels(cluster, "F", [
        Label(LabelType.HEARTBEAT, src="I/sink", ts=9.0, origin_dc="I")])
    cluster.sim.run(until=1.0)
    assert not proxy.update_stable(label)  # T has not reached 5.0 yet
    deliver_labels(cluster, "F", [
        Label(LabelType.HEARTBEAT, src="T/sink", ts=9.0, origin_dc="T")])
    cluster.sim.run(until=2.0)
    assert proxy.update_stable(label)


def test_wait_for_immediate_and_deferred():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    fired = []
    proxy.wait_for(lambda: True, lambda: fired.append("now"))
    assert fired == ["now"]
    flag = []
    proxy.wait_for(lambda: bool(flag), lambda: fired.append("later"))
    flag.append(1)
    heartbeat = Label(LabelType.HEARTBEAT, src="I/sink", ts=1.0,
                      origin_dc="I")
    deliver_labels(cluster, "F", [heartbeat])
    cluster.sim.run(until=1.0)
    assert fired == ["now", "later"]


# -- timestamp mode (P-configuration / fallback) -------------------------------


def test_timestamp_mode_applies_only_when_stable():
    cluster = MiniCluster(consistency="timestamp")
    proxy = proxy_of(cluster)
    label = update(5.0, origin="I")
    proxy.on_payload(payload(label))
    proxy.on_heartbeat(BulkHeartbeat(origin_dc="I", ts=10.0))
    cluster.sim.run(until=5.0)
    assert proxy.updates_applied == 0  # T's cut still unknown
    proxy.on_heartbeat(BulkHeartbeat(origin_dc="T", ts=10.0))
    cluster.sim.run(until=10.0)
    assert proxy.updates_applied == 1
    assert proxy._ts_watermark == 10.0


def test_timestamp_mode_applies_in_ts_order():
    cluster = MiniCluster(consistency="timestamp")
    proxy = proxy_of(cluster)
    visible = []
    cluster.dcs["F"].revealed = lambda label, created_at, mode: visible.append(
        label.ts)
    for ts in (3.0, 1.0, 2.0):
        proxy.on_payload(payload(update(ts, key=f"k{ts}")))
    proxy.on_heartbeat(BulkHeartbeat(origin_dc="I", ts=10.0))
    proxy.on_heartbeat(BulkHeartbeat(origin_dc="T", ts=10.0))
    cluster.sim.run(until=10.0)
    assert visible == [1.0, 2.0, 3.0]


def test_fallback_moves_pending_payloads_to_ts_path():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    label = update(5.0, origin="I")
    proxy.on_payload(payload(label))  # label never arrives (outage)
    proxy.enter_fallback()
    proxy.on_heartbeat(BulkHeartbeat(origin_dc="I", ts=10.0))
    proxy.on_heartbeat(BulkHeartbeat(origin_dc="T", ts=10.0))
    cluster.sim.run(until=10.0)
    assert proxy.updates_applied == 1


def test_fallback_is_idempotent():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    proxy.enter_fallback()
    proxy.enter_fallback()
    assert proxy._in_timestamp_mode()


def test_duplicate_label_after_fallback_application_skipped():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    label = update(5.0, origin="I")
    proxy.on_payload(payload(label))
    proxy.enter_fallback()
    proxy.on_heartbeat(BulkHeartbeat(origin_dc="I", ts=10.0))
    proxy.on_heartbeat(BulkHeartbeat(origin_dc="T", ts=10.0))
    cluster.sim.run(until=10.0)
    assert proxy.updates_applied == 1
    # recovery replays the same label through a later Saturn stream
    proxy._emergency = False
    deliver_labels(cluster, "F", [label])
    cluster.sim.run(until=20.0)
    assert proxy.updates_applied == 1  # not applied twice


# -- epoch transitions ---------------------------------------------------------


def test_future_epoch_batches_are_buffered():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    label = update(1.0)
    deliver_labels(cluster, "F", [label], epoch=1)
    proxy.on_payload(payload(label))
    cluster.sim.run(until=5.0)
    assert proxy.updates_applied == 0
    assert proxy._epoch_buffers[1] == [label]


def test_fast_transition_requires_all_marks():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    proxy.begin_transition(1)
    mark_i = Label(LabelType.EPOCH_CHANGE, src="I/sink", ts=1.0, target="1",
                   origin_dc="I")
    deliver_labels(cluster, "F", [mark_i])
    cluster.sim.run(until=1.0)
    assert proxy.current_epoch == 0
    mark_t = Label(LabelType.EPOCH_CHANGE, src="T/sink", ts=1.0, target="1",
                   origin_dc="T")
    deliver_labels(cluster, "F", [mark_t])
    cluster.sim.run(until=2.0)
    assert proxy.current_epoch == 1
    assert len(proxy.reconfiguration_times) == 1


def test_buffered_labels_processed_after_transition():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    new_label = update(9.0)
    deliver_labels(cluster, "F", [new_label], epoch=1)
    proxy.on_payload(payload(new_label))
    proxy.begin_transition(1)
    for origin in ("I", "T"):
        mark = Label(LabelType.EPOCH_CHANGE, src=f"{origin}/sink", ts=1.0,
                     target="1", origin_dc=origin)
        deliver_labels(cluster, "F", [mark])
    cluster.sim.run(until=5.0)
    assert proxy.current_epoch == 1
    assert proxy.updates_applied == 1


def test_emergency_transition_adopts_after_ts_stability():
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    c2_label = update(5.0, origin="I")
    deliver_labels(cluster, "F", [c2_label], epoch=1)
    proxy.begin_transition(1, emergency=True)
    assert proxy._in_timestamp_mode()
    # the bulk channel is FIFO: I's payload (ts 5) precedes its heartbeat
    proxy.on_payload(payload(c2_label))
    proxy.on_heartbeat(BulkHeartbeat(origin_dc="I", ts=10.0))
    proxy.on_heartbeat(BulkHeartbeat(origin_dc="T", ts=10.0))
    cluster.sim.run(until=5.0)
    assert proxy.current_epoch == 1
    assert not proxy._in_timestamp_mode()
    # applied once, in timestamp order; the adopted C2 label is a duplicate
    cluster.sim.run(until=10.0)
    assert proxy.updates_applied == 1
    assert not proxy._queue and not proxy._dispatch


# -- one pipeline, two order sources -------------------------------------------


def watch_visible(cluster, dc="F"):
    visible = []
    cluster.dcs[dc].revealed = lambda label, created_at, mode: visible.append(
        (label.origin_dc, label.ts))
    return visible


def both_heartbeats(proxy, ts):
    for origin in ("I", "T"):
        proxy.on_heartbeat(BulkHeartbeat(origin_dc=origin, ts=ts))


def test_fallback_readmits_every_unfinalized_slot():
    """enter_fallback abandons the pipeline: a slot whose storage work is
    already done but whose turn has not come is as unfinalized as one still
    executing — both go back through timestamp order, and the orphans
    completing afterwards change nothing."""
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    visible = watch_visible(cluster)
    store = cluster.dcs["F"].store
    key_on = {}
    for i in range(50):
        key_on.setdefault(store.partition_for(f"k{i}").index, f"k{i}")
    slow = update(1.0, key=key_on[0])
    fast = update(2.0, key=key_on[1])
    deliver_labels(cluster, "F", [slow, fast])
    proxy.on_payload(payload(slow, size=100_000))
    proxy.on_payload(payload(fast, size=8))
    now = 0.0
    while not proxy._dispatch[1].done:
        now += 0.01
        cluster.sim.run(until=now)
    assert [slot.done for slot in proxy._dispatch] == [False, True]
    processed = proxy.labels_processed
    proxy.enter_fallback()
    cluster.sim.run(until=now + 50.0)  # the orphaned slow apply completes
    assert visible == [] and proxy.updates_applied == 0
    both_heartbeats(proxy, 10.0)
    cluster.sim.run(until=now + 100.0)
    assert visible == [("I", 1.0), ("I", 2.0)]
    assert proxy.labels_processed == processed  # counts tree order only
    assert not proxy._dispatch and not proxy._ts_heap


def test_pruned_migration_label_stays_processed(monkeypatch):
    monkeypatch.setattr(remote_proxy, "APPLIED_PRUNE_INTERVAL", 4)
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    migration = Label(LabelType.MIGRATION, src="I/g0", ts=2.0, target="F",
                      origin_dc="I")
    deliver_labels(cluster, "F", [migration])
    assert proxy.migration_processed(migration)
    for ts in range(3, 12):  # several prunes, floor far above the label
        deliver_labels(cluster, "F", [
            Label(LabelType.HEARTBEAT, src=f"{origin}/sink", ts=float(ts),
                  origin_dc=origin) for origin in ("I", "T")])
    assert proxy.migration_processed(migration)
    fired = []
    proxy.wait_for(lambda: proxy.migration_processed(migration),
                   lambda: fired.append(True))
    assert fired == [True]


def test_fresh_label_of_pruned_fallback_update_does_not_block(monkeypatch):
    """The timestamp fallback applied the update and the dedup set forgot
    it; its label then arrives *fresh* (not replayed) through the new tree.
    The applied watermark answers for it."""
    monkeypatch.setattr(remote_proxy, "APPLIED_PRUNE_INTERVAL", 2)
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    visible = watch_visible(cluster)
    labels = [update(float(ts), key=f"k{ts}") for ts in (1, 2, 3, 4, 6, 7)]
    proxy.begin_transition(1, emergency=True)
    for cut, batch in ((5.0, labels[:4]), (8.0, labels[4:])):
        for label in batch:
            proxy.on_payload(payload(label))
        both_heartbeats(proxy, cut)
        cluster.sim.run(until=cut)
    assert len(visible) == 6  # all applied in timestamp order ...
    assert not {(l.ts, l.src) for l in labels[:4]} & proxy._applied  # pruned
    later = update(9.0, key="k9")
    proxy.on_labels(LabelBatch(tuple(labels) + (later,), epoch=1))
    assert proxy.current_epoch == 1 and not proxy._in_timestamp_mode()
    proxy.on_payload(payload(later))
    cluster.sim.run(until=20.0)
    assert visible[-1] == ("I", 9.0) and len(visible) == 7
    assert not proxy._queue and not proxy._pending_payloads


def test_dedup_set_is_pruned_when_some_origin_sends_no_label(monkeypatch):
    """Partial replication: T's writes are replicated nowhere else and no
    heartbeat labels run, so no proxy ever holds a watermark for T.  The
    prune floor is over the origins that have one, so each proxy that has
    finalized more than an interval's worth forgets the applied updates
    its watermarks answer for."""
    from repro.harness.runner import Cluster, ClusterConfig
    from repro.workloads.synthetic import SyntheticWorkload

    monkeypatch.setattr(remote_proxy, "APPLIED_PRUNE_INTERVAL", 64)
    cluster = Cluster(ClusterConfig(system="saturn", sites=("I", "F", "T"),
                                    clients_per_dc=4, seed=7),
                      SyntheticWorkload())
    cluster.run(duration=1000.0, warmup=0.0)
    proxies = [dc.proxy for dc in cluster.datacenters.values()]
    assert all("T" not in proxy.applied_ts for proxy in proxies)
    pruning = [proxy for proxy in proxies
               if proxy.updates_applied > remote_proxy.APPLIED_PRUNE_INTERVAL]
    assert pruning
    for proxy in pruning:
        assert len(proxy._applied) < proxy.updates_applied


@pytest.mark.parametrize("block", range(4))
def test_any_interleaving_installs_every_update_once_in_origin_order(block):
    """Label batches, payloads and bulk heartbeats from two origins in any
    interleaving that respects the channels' FIFO, a fallback at a random
    point and a failure-path adoption later: one pipeline, whichever order
    source feeds it, installs every update exactly once, per origin in
    timestamp order, and drains completely."""
    for seed in range(block * 100, (block + 1) * 100):
        try:
            _drive_random_schedule(random.Random(seed))
        except AssertionError as error:
            raise AssertionError(f"seed {seed}: {error}") from error


def _drive_random_schedule(rng):
    saved = remote_proxy.APPLIED_PRUNE_INTERVAL
    remote_proxy.APPLIED_PRUNE_INTERVAL = rng.choice([3, 8, saved])
    try:
        _drive(rng, MiniCluster())
    finally:
        remote_proxy.APPLIED_PRUNE_INTERVAL = saved


def _drive(rng, cluster):
    proxy = proxy_of(cluster)
    visible = watch_visible(cluster)
    total = rng.randint(4, 24)
    streams = {"I": [], "T": []}   # per-origin label stream, ts-ordered
    for ts in range(1, total + 1):
        origin = rng.choice("IT")
        if rng.random() < 0.12:
            streams[origin].append(Label(
                LabelType.MIGRATION, src=f"{origin}/g0", ts=float(ts),
                target="F", origin_dc=origin))
        else:
            streams[origin].append(update(
                float(ts), origin=origin, key=f"k{rng.randint(0, 5)}"))
    # a sink heartbeat closes each stream, so C2 always carries a fresh label
    for origin in streams:
        streams[origin].append(Label(
            LabelType.HEARTBEAT, src=f"{origin}/sink", ts=total + 5.0,
            origin_dc=origin))
    updates = {o: [l for l in s if l.type is LabelType.UPDATE]
               for o, s in streams.items()}

    def bulk_channel(origin):
        events = []
        for label in updates[origin]:
            size = rng.choice([8, 2_000, 50_000])
            events.append(lambda l=label, s=size: proxy.on_payload(
                payload(l, size=s)))
            if rng.random() < 0.5:
                events.append(lambda l=label: proxy.on_heartbeat(
                    BulkHeartbeat(origin_dc=origin, ts=l.ts + 0.25)))
        events.append(lambda: proxy.on_heartbeat(
            BulkHeartbeat(origin_dc=origin, ts=total + 10.0)))
        return events

    def batches(labels, epoch, replayed=False):
        out = []
        while labels:
            n = rng.randint(1, 4)
            chunk, labels = labels[:n], labels[n:]
            out.append(lambda c=chunk: proxy.on_labels(LabelBatch(
                tuple(c), epoch=epoch, replayed=replayed)))
        return out

    merged = sorted(streams["I"][:-1] + streams["T"][:-1],
                    key=lambda l: l.ts)
    channels = {"bulk-I": bulk_channel("I"), "bulk-T": bulk_channel("T"),
                "tree-0": batches(merged, epoch=0)}
    steps = sum(len(c) for c in channels.values())
    fallback_at = rng.randint(0, steps)
    switch_at = fallback_at + rng.randint(0, steps)

    released = []
    stable_targets = [max(us, key=lambda l: l.ts) for us in updates.values()
                      if us]
    migrations = [l for s in streams.values() for l in s
                  if l.type is LabelType.MIGRATION]
    for label in stable_targets:
        proxy.wait_for(lambda l=label: proxy.update_stable(l),
                       lambda: released.append("stable"))
    for label in migrations:
        proxy.wait_for(lambda l=label: proxy.migration_processed(l),
                       lambda: released.append("migration"))
    assert not released

    def fallback():
        # the sinks will replay everything tree order has not finalized
        for origin, stream in streams.items():
            finalized = sum(1 for l in stream if l.ts <= proxy.applied_ts.get(
                origin, float("-inf")))
            replay_from[origin] = rng.randint(0, finalized)
        proxy.enter_fallback()

    def switch():
        proxy.begin_transition(1, emergency=True)
        for origin, stream in streams.items():
            fresh_from = rng.randint(replay_from[origin], len(stream) - 1)
            channels[f"tree-1-{origin}"] = (
                batches(stream[replay_from[origin]:fresh_from], epoch=1,
                        replayed=True)
                + batches(stream[fresh_from:], epoch=1))

    now = 0.0
    step = 0
    replay_from = {}
    switched = False
    while any(channels.values()) or not switched:
        if not replay_from and step >= fallback_at:
            fallback()
        elif replay_from and not switched and step >= switch_at:
            switch()
            switched = True
        step += 1
        ready = sorted(name for name, events in channels.items() if events)
        if not ready:
            continue
        in_ts_order = proxy._in_timestamp_mode()
        processed = proxy.labels_processed
        if rng.random() < 0.25:
            now += rng.choice([0.01, 0.2, 5.0])
            cluster.sim.run(until=now)
        else:
            channels[rng.choice(ready)].pop(0)()
        if in_ts_order and proxy._in_timestamp_mode():
            assert proxy.labels_processed == processed
    # drain: the bulk heartbeats of a live deployment keep pumping
    for beat in range(1, 80):
        both_heartbeats(proxy, total + 10.0 + beat)
        cluster.sim.run(until=now + 5.0 * beat)

    assert proxy.current_epoch == 1 and not proxy._in_timestamp_mode()
    for origin in ("I", "T"):
        assert [ts for o, ts in visible if o == origin] == [
            l.ts for l in updates[origin]]
    assert not proxy._dispatch and not proxy._ts_heap
    assert not proxy._queue and not proxy._pending_payloads
    assert not proxy._epoch_buffers and not proxy._waiters
    assert len(released) == len(stable_targets) + len(migrations)


def test_a_pump_admits_then_finalizes_once():
    """A pump admits before it finalizes, and only once: the room that a
    finalize makes is filled by the *next* pump, not by the one that made
    it (every pinned digest rests on this order)."""
    cluster = MiniCluster()
    proxy = proxy_of(cluster)
    window = remote_proxy.DISPATCH_WINDOW
    labels = [update(float(i)) for i in range(1, window + 2)]
    for label in labels:  # one key: the storage work completes serially
        proxy.on_payload(payload(label))
    deliver_labels(cluster, "F", labels)
    assert len(proxy._dispatch) == window
    assert list(proxy._queue) == labels[-1:]
    cost = cluster.dcs["F"].remote_apply_cost(8)
    cluster.sim.run(until=cost)  # the head's storage work completes
    assert proxy.updates_applied == 1
    assert len(proxy._dispatch) == window - 1  # room made, not yet filled
    assert list(proxy._queue) == labels[-1:]
    cluster.sim.run(until=2 * cost)  # the next completion's pump admits it
    assert proxy.updates_applied == 2
    assert not proxy._queue and len(proxy._dispatch) == window - 1
