"""Five-way comparison: golden smoke summary + qualitative rankings.

The committed fixture pins the smoke-scale saturn / gentlerain / cure /
eunomia / okapi comparison byte-for-byte (mirrors ``tests/obs/golden``):
any change to protocol behaviour, the metadata accounting, or the
simulation kernel shows up as a diff here before it shows up as a silent
drift in EXPERIMENTS.md numbers.  If a change is *deliberate*,
regenerate with::

    PYTHONPATH=src:. python -c "
    import json
    from tests.harness.test_five_way import smoke_summary
    print(json.dumps(smoke_summary(), indent=2, sort_keys=True))
    " > tests/harness/golden/five_way_smoke.json

and update ``GOLDEN_SHA256`` below.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.harness.experiments import FIVE_WAY_SYSTEMS, run_experiment
from repro.harness.runner import Scale
from repro.harness.report import round_floats

GOLDEN = Path(__file__).parent / "golden" / "five_way_smoke.json"
GOLDEN_SHA256 = \
    "08f30d75861ade946596e7493f4fd99bc0a9bb837c3423612867175d86b185af"


def smoke_summary():
    """The five-way comparison at a pinned smoke scale, one entry per
    system, every float rounded to 6 places."""
    result = run_experiment(
        "five-way", Scale(duration=400.0, warmup=100.0, clients_per_dc=4,
                          num_partitions=2, seed=11, beam_width=3),
        sites=("I", "F", "T"), pairs=(("I", "F"), ("I", "T")))
    return {row.pop("system"): row for row in round_floats(result["rows"])}


@pytest.fixture(scope="module")
def summary():
    return smoke_summary()


def test_golden_five_way_smoke_is_reproduced_byte_for_byte(summary):
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    assert text == GOLDEN.read_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256


def test_golden_fixture_covers_all_five_systems():
    pinned = json.loads(GOLDEN.read_text())
    assert sorted(pinned) == sorted(FIVE_WAY_SYSTEMS)
    for row in pinned.values():
        assert row["ops_completed"] > 1000
        assert row["visible_updates"] > 100


def test_metadata_cost_ranking(summary):
    """The paper's taxonomy, §2/§7: scalar stamps (GentleRain, Eunomia)
    are cheaper than Saturn's per-label metadata, which at 3 sites is
    cheaper than the vector protocols; Okapi's knowledge rows cost at
    least Cure's per-origin streams."""
    meta = {system: row["metadata_bytes_per_update"]
            for system, row in summary.items()}
    assert meta["gentlerain"] < meta["eunomia"] < meta["saturn"]
    assert meta["saturn"] < meta["cure"] <= meta["okapi"]


def test_visibility_ranking(summary):
    """Saturn's tree routing beats every stabilization baseline on mean
    remote visibility; the global-cut protocols pay for their cheaper
    exchanges with staleness (Okapi is the slowest of the five)."""
    mean = {system: row["mean_visibility_ms"] for system, row in
            summary.items()}
    assert mean["saturn"] < min(mean["gentlerain"], mean["eunomia"],
                                mean["okapi"])
    assert mean["okapi"] == max(mean.values())
