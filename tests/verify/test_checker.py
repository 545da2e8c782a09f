"""The offline causal-consistency checker itself."""

import random

import pytest

from repro.core.label import Label, LabelType
from repro.core.replication import ReplicationMap
from repro.verify.checker import ExecutionLog


def label(ts, origin, key="k"):
    return Label(LabelType.UPDATE, src=f"{origin}/g0", ts=ts, target=key,
                 origin_dc=origin)


def make_log(replication=None):
    return ExecutionLog(replication or ReplicationMap(["A", "B"]))


def test_clean_history_passes():
    log = make_log()
    a = label(1.0, "A")
    b = label(2.0, "B")
    log.record_update(a, "A", 1.0)
    log.record_visible(a, "B", 10.0)
    log.record_read("c", "B", "k", (1.0, "A/g0"), None)
    log.record_update(b, "B", 11.0)
    log.record_update_deps("c", (2.0, "B/g0"))
    log.record_visible(b, "A", 20.0)
    assert log.check() == []


def test_detects_causal_order_violation():
    a = label(1.0, "A")
    b = label(2.0, "B")
    # at C the dependent update surfaces before its dependency
    log3 = make_log(ReplicationMap(["A", "B", "C"]))
    log3.record_update(a, "A", 1.0)
    log3.record_visible(a, "B", 5.0)   # a was visible at B before b issued
    log3.record_read("c", "B", "k", (1.0, "A/g0"), None)
    log3.record_update(b, "B", 11.0)
    log3.record_update_deps("c", (2.0, "B/g0"))
    log3.record_visible(b, "C", 20.0)   # b before a at C
    log3.record_visible(a, "C", 25.0)
    violations = [v for v in log3.check() if v.kind == "causal-order"]
    assert len(violations) == 1
    assert violations[0].dc == "C"


def test_missing_dependency_is_violation_when_replicated():
    log = make_log()
    a = label(1.0, "A")
    b = label(2.0, "B")
    log.record_update(a, "A", 1.0)
    log.record_read("c", "B", "k", (1.0, "A/g0"), None)
    log.record_update(b, "B", 11.0)
    log.record_update_deps("c", (2.0, "B/g0"))
    log.record_visible(b, "A", 5.0)  # fine: a is local at A
    log2 = make_log(ReplicationMap(["A", "B", "C"]))
    log2.record_update(a, "A", 1.0)
    log2.record_visible(a, "B", 5.0)
    log2.record_read("c", "B", "k", (1.0, "A/g0"), None)
    log2.record_update(b, "B", 11.0)
    log2.record_update_deps("c", (2.0, "B/g0"))
    log2.record_visible(b, "C", 15.0)  # a never visible at C
    violations = [v for v in log2.check() if v.kind == "causal-order"]
    assert len(violations) == 1


def test_partial_replication_exemption():
    """A dependency on an item the datacenter does not replicate is not a
    violation (genuine partial replication, §2)."""
    replication = ReplicationMap(["A", "B", "C"])
    replication.set_group("gab", ["A", "B"])
    log = make_log(replication)
    a = label(1.0, "A", key="gab:0")   # only replicated at A, B
    b = label(2.0, "B", key="other")
    log.record_update(a, "A", 1.0)
    log.record_visible(a, "B", 5.0)
    log.record_read("c", "B", "gab:0", (1.0, "A/g0"), None)
    log.record_update(b, "B", 11.0)
    log.record_update_deps("c", (2.0, "B/g0"))
    log.record_visible(b, "C", 20.0)   # a never goes to C: exempt
    assert [v for v in log.check() if v.kind == "causal-order"] == []


def test_session_monotonicity_violation():
    log = make_log()
    log.record_read("c1", "A", "k", returned=(1.0, "A/g0"),
                    observed_max=(2.0, "B/g0"))
    violations = [v for v in log.check()
                  if v.kind == "session-monotonicity"]
    assert len(violations) == 1
    assert "c1" in violations[0].detail


def test_session_read_of_nothing_after_observation_is_violation():
    log = make_log()
    log.record_read("c1", "A", "k", returned=None,
                    observed_max=(2.0, "B/g0"))
    assert any(v.kind == "session-monotonicity" for v in log.check())


def test_session_clean_reads_pass():
    log = make_log()
    log.record_read("c1", "A", "k", returned=(3.0, "B/g0"),
                    observed_max=(2.0, "B/g0"))
    log.record_read("c1", "A", "k", returned=(3.0, "B/g0"),
                    observed_max=(3.0, "B/g0"))
    log.record_read("c2", "A", "k", returned=None, observed_max=None)
    assert log.check() == []


def test_deps_recorded_before_update_hook():
    """Merged per-node journals can deliver a client's ``record_update_deps``
    ahead of the datacenter's ``record_update`` (a migrated client's reply
    and its update live in different files): the two are separate facts,
    so either arrival order gives the same record and the same verdict."""
    verdicts = []
    for deps_first in (False, True):
        log = make_log(ReplicationMap(["A", "B", "C"]))
        a = label(1.0, "A", key="ka")
        b = label(2.0, "B", key="kb")
        log.record_update(a, "A", 1.0)
        log.record_visible(a, "B", 5.0)
        log.record_read("c", "B", "ka", (1.0, "A/g0"), None)
        hooks = [lambda: log.record_update(b, "B", 11.0),
                 lambda: log.record_update_deps("c", (2.0, "B/g0"))]
        for hook in reversed(hooks) if deps_first else hooks:
            hook()
        record = log.updates[(2.0, "B/g0")]
        assert (record.key, record.origin, record.created_at) == (
            "kb", "B", 11.0)
        assert set(log.past((2.0, "B/g0"))) == {(1.0, "A/g0")}
        log.record_visible(b, "C", 20.0)   # b before its dependency a at C
        log.record_visible(a, "C", 25.0)
        verdicts.append((log.check(), log.check_completeness()))
    assert verdicts[0] == verdicts[1]
    violations, lost = verdicts[0]
    assert [(v.kind, v.dc) for v in violations] == [("causal-order", "C")]
    assert [(v.kind, v.dc) for v in lost] == [("completeness", "A")]


def test_dependency_on_a_deps_first_update_is_checked_not_assumed_missing():
    log = make_log()
    a = label(1.0, "A")
    b = label(2.0, "B")
    log.record_update_deps("c", (1.0, "A/g0"))   # client's call first
    log.record_update(a, "A", 1.0)
    log.record_visible(a, "B", 5.0)
    log.record_update(b, "B", 11.0)
    log.record_update_deps("c", (2.0, "B/g0"))
    log.record_visible(b, "A", 20.0)
    assert log.check() == []


def partial_log():
    replication = ReplicationMap(["A", "B", "C"])
    replication.set_group("gab", ["A", "B"])
    log = make_log(replication)
    a = label(1.0, "A", key="gab:0")
    log.record_update(a, "A", 1.0)
    log.record_visible(a, "B", 5.0)
    return log, a


def test_completeness_reports_a_leak_past_the_replication_group():
    log, a = partial_log()
    assert log.check_completeness() == []
    log.record_visible(a, "C", 9.0)        # C does not replicate gab
    violations = log.check_completeness()
    assert [(v.kind, v.dc) for v in violations] == [
        ("partial-replication", "C")]
    assert "gab:0" in violations[0].detail
    assert log.check() == []               # check() is untouched by it


def test_leak_check_exempts_a_version_whose_key_is_unknown():
    log, _ = partial_log()
    stub = label(2.0, "B", key="gab:1")
    log.record_update_deps("c", (2.0, "B/g0"))   # origin hook lost
    log.record_visible(stub, "C", 9.0)
    assert log.check_completeness() == []


def test_visible_counts():
    log = make_log()
    a = label(1.0, "A")
    log.record_update(a, "A", 1.0)
    log.record_visible(a, "B", 5.0)
    log.record_visible(a, "B", 6.0)  # duplicate ignored
    assert log.visible_counts() == {"A": 1, "B": 1}
    assert log.read_count() == 0




# -- the one-pass oracle against the per-edge reference ----------------------

def linear_scan_violations(log):
    """The per-edge reference: for every dependency in an update's past,
    scan every visible version of that key for one at least as new and
    earlier."""
    found = []
    for dc, positions in log._visible_pos.items():
        by_key = {}
        for version, pos in positions.items():
            record = log.updates.get(version)
            if record is not None and record.key:
                by_key.setdefault(record.key, []).append((pos, version))
        for version, pos in positions.items():
            record = log.updates.get(version)
            if record is None:
                continue
            for dep in log.past(version):
                dep_record = log.updates.get(dep)
                if dep_record is None:
                    continue
                if not log.replication.is_replicated_at(dep_record.key, dc):
                    continue
                if not any(p < pos and v >= dep
                           for p, v in by_key.get(dep_record.key, ())):
                    found.append((dc, version, dep))
    return found


def random_log(seed, updates=120, deps_first=0.1, clients=8):
    """A seeded log over three datacenters: two partially replicated
    groups, a few hot keys, and *clients* sessions that each read a few
    versions between their updates — a recorded one, the one the client
    read last again, one never recorded, or nothing.  The visibility order
    is causal (timestamp order) except for a share of versions moved to a
    random position or never delivered.  A share *deps_first* of the
    updates reports the client's call before its origin hook."""
    rng = random.Random(seed)
    dcs = ["A", "B", "C"]
    replication = ReplicationMap(dcs)
    replication.set_group("gab", ["A", "B"])
    replication.set_group("gbc", ["B", "C"])
    log = ExecutionLog(replication)
    keys = ["gab:0", "gab:1", "gbc:0", "hot", "warm", "cold"]
    key_of = {(999.0, "nowhere/g0"): "cold"}     # never recorded
    last_read = {}
    arrival = {dc: [] for dc in dcs}
    for i in range(updates):
        client = f"c{rng.randrange(clients)}"
        for _ in range(rng.randrange(3)):
            roll = rng.random()
            if roll < 0.1:
                returned = (999.0, "nowhere/g0")
            elif roll < 0.2:
                returned = None
            elif roll < 0.4:
                returned = last_read.get(client)
            else:
                returned = rng.choice(sorted(key_of))
            key = key_of[returned] if returned else rng.choice(keys)
            log.record_read(client, rng.choice(dcs), key, returned, None)
            last_read[client] = returned
        key = rng.choice(keys)
        origin = rng.choice(sorted(replication.replicas(key)))
        # timestamps collide across origins: versions tie-break on src
        lbl = label(float(1 + i // 2), origin, key=key)
        version = (lbl.ts, lbl.src)
        if version in key_of:
            continue
        key_of[version] = key
        if rng.random() < deps_first:
            log.record_update_deps(client, version)   # client's call first
            log.record_update(lbl, lbl.origin_dc, lbl.ts)
        else:
            log.record_update(lbl, lbl.origin_dc, lbl.ts)
            log.record_update_deps(client, version)
        for dc in replication.replicas(lbl.target):
            if dc != lbl.origin_dc and rng.random() > 0.05:   # 5 % lost
                arrival[dc].append(lbl)
    for dc in dcs:
        order = arrival[dc]
        for _ in range(len(order) // 5):                # injected reorders
            order.insert(rng.randrange(len(order)),
                         order.pop(rng.randrange(len(order))))
        for at, lbl in enumerate(order):
            log.record_visible(lbl, dc, float(at))
    return log


@pytest.mark.parametrize("seed", range(200))
def test_bisect_oracle_agrees_with_the_linear_scan(seed):
    """One pass per session finds exactly the reference's late
    dependencies, in the same order."""
    log = random_log(seed)
    reference = linear_scan_violations(log)
    found = [v for v in log.check() if v.kind == "causal-order"]
    assert [(v.dc, v.detail) for v in found] == [
        (dc, f"update {version} visible at {dc} before its dependency {dep}")
        for dc, version, dep in reference]


@pytest.mark.parametrize("seed", range(10))
def test_hook_arrival_order_does_not_change_the_verdict(seed):
    mixed, update_first = random_log(seed), random_log(seed, deps_first=0.0)
    assert mixed.check() == update_first.check()
    assert mixed.check_completeness() == update_first.check_completeness()


def test_random_logs_exercise_both_outcomes():
    # the comparison above is vacuous unless the generator produces both
    # satisfied and violated dependencies
    logs = [random_log(seed) for seed in range(40)]
    violated = sum(len(linear_scan_violations(log)) for log in logs)
    checked = sum(len(log.past(version)) for log in logs
                  for version in log.updates)
    assert 200 < violated < checked
