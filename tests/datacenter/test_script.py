"""The one client-script interpreter against the closures it replaced.

``_scripted`` / ``_poll_then`` / ``_then_poll_then`` below are the
generators the model checker used before every scenario was written in
the declarative format; they stay here as the reference the interpreter
must match op for op, whenever the awaited version shows up (or never
does and the cap cuts the poll off).
"""

import pytest

from repro.datacenter.script import script_workload
from repro.workloads.ops import ReadOp, UpdateOp


class FakeClient:
    """Observes *key* from the *visible_after*-th generator call on."""

    def __init__(self, visible_after=None):
        self.visible_after = visible_after or {}
        self.calls = 0

    def observed(self, key):
        after = self.visible_after.get(key)
        return (1.0, "gear") if after is not None and self.calls > after \
            else None


def _drain(generator, client, limit=200):
    ops = []
    while len(ops) < limit:
        client.calls += 1
        op = generator(client)
        if op is None:
            break
        ops.append(op)
    return ops


# -- reference closures (mc/scenario.py at dbf5ae4) ---------------------------

def _scripted(ops):
    queue = list(ops)

    def generator(client):
        return queue.pop(0) if queue else None
    return generator


def _poll_then(key, cap, then):
    state = {"reads": 0}
    queue = list(then)

    def generator(client):
        if client.observed(key) is None and state["reads"] < cap:
            state["reads"] += 1
            return ReadOp(key)
        return queue.pop(0) if queue else None
    return generator


def _then_poll_then(first, key, cap, then):
    first_queue = list(first)
    state = {"reads": 0}
    then_queue = list(then)

    def generator(client):
        if first_queue:
            return first_queue.pop(0)
        if client.observed(key) is None and state["reads"] < cap:
            state["reads"] += 1
            return ReadOp(key)
        return then_queue.pop(0) if then_queue else None
    return generator


WRITES = [UpdateOp("g0:a", 2), UpdateOp("g0:b", 2), UpdateOp("g1:p", 2)]
WRITES_SCRIPT = [{"op": "update", "key": op.key, "size": 2} for op in WRITES]


def test_scripted_form_issues_the_same_ops():
    assert _drain(script_workload(WRITES_SCRIPT), FakeClient()) \
        == _drain(_scripted(WRITES), FakeClient()) == WRITES


@pytest.mark.parametrize("visible_after", [None, 0, 1, 7, 39, 40, 41])
def test_poll_then_form_issues_the_same_ops(visible_after):
    seen = {} if visible_after is None else {"g0:b": visible_after}
    script = [{"op": "poll", "key": "g0:b", "cap": 40},
              {"op": "update", "key": "g0:y", "size": 2}]
    reference = _drain(_poll_then("g0:b", 40, [UpdateOp("g0:y", 2)]),
                       FakeClient(seen))
    assert _drain(script_workload(script), FakeClient(seen)) == reference
    # the cap cuts a never-satisfied poll off, and the script still ends
    assert reference[-1] == UpdateOp("g0:y", 2)
    assert len(reference) <= 41


@pytest.mark.parametrize("visible_after", [None, 3, 4, 10, 302, 303, 304])
def test_then_poll_then_form_issues_the_same_ops(visible_after):
    seen = {} if visible_after is None else {"g0:y": visible_after}
    script = WRITES_SCRIPT + [{"op": "poll", "key": "g0:y", "cap": 300},
                              {"op": "update", "key": "g0:c", "size": 2}]
    reference = _drain(
        _then_poll_then(WRITES, "g0:y", 300, [UpdateOp("g0:c", 2)]),
        FakeClient(seen), limit=400)
    assert _drain(script_workload(script), FakeClient(seen), limit=400) \
        == reference
    assert reference[:3] == WRITES and reference[-1] == UpdateOp("g0:c", 2)


def test_each_poll_counts_from_zero():
    """A second poll gets its own cap (the reset the TCP node relies on:
    one generator plays a whole multi-poll script)."""
    script = [{"op": "poll", "key": "k1", "cap": 3},
              {"op": "poll", "key": "k2", "cap": 5},
              {"op": "read", "key": "k3"}]
    assert _drain(script_workload(script), FakeClient()) \
        == [ReadOp("k1")] * 3 + [ReadOp("k2")] * 5 + [ReadOp("k3")]


def test_defaults_and_unknown_ops():
    assert _drain(script_workload([{"op": "update", "key": "k"}]),
                  FakeClient()) == [UpdateOp("k", 2)]
    assert len(_drain(script_workload([{"op": "poll", "key": "k"}]),
                      FakeClient(), limit=1000)) == 400
    with pytest.raises(ValueError, match="frobnicate"):
        script_workload([{"op": "frobnicate", "key": "k"}])(FakeClient())
