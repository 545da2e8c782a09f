"""Overload study: golden smoke summary + saturation qualitative checks.

The committed fixture pins the smoke-scale open-loop saturation sweep
(saturn + gentlerain over 500/2000/8000 ops/s per DC) byte-for-byte,
exactly like ``tests/harness/golden/five_way_smoke.json`` pins the
closed-loop comparison: any change to the arrival processes, the
social workload, the backpressure chain, or the kernel shows up as a
diff here.  If a change is *deliberate*, regenerate with::

    PYTHONPATH=src:. python -c "
    import json
    from tests.harness.test_overload import smoke_summary
    print(json.dumps(smoke_summary(), indent=2, sort_keys=True))
    " > tests/harness/golden/overload_smoke.json

and update ``GOLDEN_SHA256`` below.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.experiments import OVERLOAD_SYSTEMS, run_experiment
from repro.harness.runner import Scale
from repro.harness.report import round_floats

GOLDEN = Path(__file__).parent / "golden" / "overload_smoke.json"
GOLDEN_SHA256 = \
    "46de7a83926120e2d0af4314afe260dfc2e33addcd3f7f8ce3a997a10d4fea27"


def smoke_summary():
    """The saturation sweep at a pinned smoke scale, every float rounded
    to 6 places."""
    return round_floats(run_experiment(
        "overload", Scale(duration=400.0, warmup=100.0, num_partitions=2,
                          seed=11),
        rates=(500.0, 2000.0, 8000.0)))


@pytest.fixture(scope="module")
def summary():
    return smoke_summary()


def test_golden_overload_smoke_is_reproduced_byte_for_byte(summary):
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert text == GOLDEN.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


def test_golden_fixture_covers_systems_and_rates():
    pinned = json.loads(GOLDEN.read_text())
    systems = {row["system"] for row in pinned["rows"]}
    assert systems == set(OVERLOAD_SYSTEMS) == {"saturn", "gentlerain"}
    rates = sorted({row["offered_ops_s_per_dc"] for row in pinned["rows"]})
    assert rates == [500.0, 2000.0, 8000.0]
    assert pinned["p99_slo_ms"] == 400.0
    assert pinned["goodput_floor"] == 0.95


def test_summary_reports_a_throughput_cliff(summary):
    """Both systems sustain the low rates and fall off the cliff at
    8000 ops/s/DC — the open loop exposes what a closed loop cannot."""
    for system in OVERLOAD_SYSTEMS:
        rows = {row["offered_ops_s_per_dc"]: row
                for row in summary["rows"] if row["system"] == system}
        assert rows[500.0]["sustainable"]
        assert rows[2000.0]["sustainable"]
        assert not rows[8000.0]["sustainable"]
        assert summary["max_sustainable_ops_s"][system] == 2000.0


def test_saturn_sheds_load_at_admission_baseline_does_not(summary):
    """Only Saturn runs the admission controller, so only Saturn shows
    rejections — and its goodput past the cliff must not trail the
    uncontrolled baseline's."""
    at_cliff = {row["system"]: row for row in summary["rows"]
                if row["offered_ops_s_per_dc"] == 8000.0}
    assert at_cliff["saturn"]["rejected"] > 0
    assert at_cliff["gentlerain"]["rejected"] == 0
    assert at_cliff["saturn"]["goodput"] >= at_cliff["gentlerain"]["goodput"]


def test_goodput_is_monotone_in_offered_load(summary):
    """More offered load never yields *better* goodput once queues grow."""
    for system in OVERLOAD_SYSTEMS:
        goodputs = [row["goodput"] for row in summary["rows"]
                    if row["system"] == system]  # rows are rate-ordered
        assert goodputs[0] >= goodputs[-1]
        assert all(0.0 < g <= 1.0 for g in goodputs)


def test_overload_sweep_is_deterministic():
    """Double-run equality on a reduced sweep: the whole open-loop path
    (arrival draws, client spawning, backpressure scheduling) is a pure
    function of the seed."""
    scale = Scale(duration=200.0, warmup=50.0, num_partitions=2, seed=11)

    def run():
        result = run_experiment("overload", scale, systems=("saturn",),
                                rates=(2000.0,), num_users=1000)
        return json.dumps(result, indent=2, sort_keys=True)

    assert run() == run()
