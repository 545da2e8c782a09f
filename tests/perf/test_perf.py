"""The perf harness: benches produce sane numbers, the baseline schema
round-trips, and the regression verdict trips exactly when it should."""

import json
from pathlib import Path

import pytest

from repro.config.latencies import ec2_latency
from repro.config.placement import find_configuration
from repro.perf import __main__ as perf_cli
from repro.perf.baseline import (SCHEMA_VERSION, build_result, compare,
                                 load_result, normalize, save_result)
from repro.perf.benches import (TREE_SITES, bench_codec, bench_config_solve,
                                bench_fabric, bench_kernel, bench_obs_enabled,
                                bench_tree)
from repro.perf.measure import best_rate, calibrate


# -- measurement primitives --------------------------------------------------

def test_calibration_is_positive():
    assert calibrate(samples=1, ops=20_000) > 0


def test_best_rate_keeps_the_fastest_sample():
    samples = iter([(100, 1.0), (100, 0.5), (100, 2.0)])
    rate, work, elapsed = best_rate(lambda: next(samples), repeats=3)
    assert rate == pytest.approx(200.0)
    assert work == 100
    assert elapsed == pytest.approx(0.5)


# -- benches -----------------------------------------------------------------

def test_kernel_bench_executes_requested_events():
    result = bench_kernel(events=5_000, chains=10, repeats=1)
    assert result["higher_is_better"] is True
    assert result["raw"] > 0
    # every chain decrements the shared budget; total executed is events
    # plus the initial kick-offs that found the budget already drained
    assert result["meta"]["events"] >= 5_000


def test_fabric_bench_spends_its_message_budget_on_every_link():
    result = bench_fabric(messages=2_000, repeats=1)
    assert result["higher_is_better"] is True
    assert result["unit"] == "messages/s"
    assert result["raw"] > 0
    # one opening message per ordered pair of the seven sites, then one
    # reply per unit of budget; the last budget unit is answered by silence
    links = len(TREE_SITES) * (len(TREE_SITES) - 1)
    assert result["meta"]["messages"] == links + 2_000 - 1


def test_tree_bench_delivers_every_interested_label():
    result = bench_tree(batches_per_dc=4, labels_per_batch=5, repeats=1)
    meta = result["meta"]
    expected = len(TREE_SITES) * 4 * 5 * (len(TREE_SITES) - 1)
    assert meta["expected"] == expected
    assert meta["labels_delivered"] == expected
    assert result["raw"] > 0


def test_obs_enabled_bench_traces_the_same_tree_run():
    result = bench_obs_enabled(untraced_rate=1e12, batches_per_dc=4,
                               labels_per_batch=5, repeats=1)
    expected = len(TREE_SITES) * 4 * 5 * (len(TREE_SITES) - 1)
    assert result["meta"]["labels_delivered"] == expected
    assert result["raw"] > 0
    assert 99.0 < result["meta"]["traced_overhead_pct"] <= 100.0


REPO = Path(__file__).resolve().parents[2]


def test_codec_bench_round_trips_the_golden_frame_shapes():
    result = bench_codec(frames=600, repeats=1)
    assert result["unit"] == "frames/s" and result["higher_is_better"] is True
    assert result["raw"] > 0
    assert result["meta"]["frames"] == 600
    # the six shapes the golden fixture pins, so the gate times exactly
    # the bytes tests/net/golden/frames.hex commits to
    golden = (REPO / "tests/net/golden/frames.hex").read_text().split()
    assert result["meta"]["bytes_per_frame"] == pytest.approx(
        sum(len(line) // 2 for line in golden) / len(golden))


def test_committed_baseline_gates_the_codec():
    baseline = load_result(str(REPO / "BENCH_perf.json"))
    assert len(baseline["metrics"]) == 8
    assert baseline["metrics"]["codec_frames_per_sec"]["unit"] == "frames/s"
    assert baseline["metrics"]["config_solve_seconds"]["unit"] == "s"


def test_config_solve_bench_times_the_seven_site_search():
    result = bench_config_solve(repeats=1)
    assert result["raw"] > 0 and not result["higher_is_better"]
    assert result["meta"]["sites"] == 7
    assert result["meta"]["score"] == find_configuration(
        list(TREE_SITES), {s: s for s in TREE_SITES}, ec2_latency,
        beam_width=3).score


# -- baseline schema ---------------------------------------------------------

def _result(kernel_norm=2.0, figure_norm=10.0):
    return {
        "schema": SCHEMA_VERSION,
        "machine": {"calibration_ops_per_sec": 1.0},
        "metrics": {
            "kernel_events_per_sec": {
                "raw": kernel_norm, "normalized": kernel_norm,
                "unit": "events/s", "higher_is_better": True, "meta": {}},
            "figure_smoke_seconds": {
                "raw": figure_norm, "normalized": figure_norm,
                "unit": "s", "higher_is_better": False, "meta": {}},
        },
    }


def test_normalize_direction():
    assert normalize(100.0, True, 10.0) == pytest.approx(10.0)
    assert normalize(2.0, False, 10.0) == pytest.approx(20.0)


def test_build_result_normalizes_with_calibration():
    metrics = {"kernel_events_per_sec": {
        "raw": 500.0, "unit": "events/s", "higher_is_better": True}}
    document = build_result(metrics, calibration=100.0)
    assert document["schema"] == SCHEMA_VERSION
    entry = document["metrics"]["kernel_events_per_sec"]
    assert entry["normalized"] == pytest.approx(5.0)


def test_build_result_calibration_free_skips_normalization():
    """A simulated metric's normalized value IS its raw value: identical
    on any machine, so the committed baseline never drifts with host
    speed (the saturation bench relies on this)."""
    metrics = {
        "overload_saturation_ops_s": {
            "raw": 6000.0, "unit": "ops/s/dc", "higher_is_better": True,
            "calibration_free": True},
        "kernel_events_per_sec": {
            "raw": 500.0, "unit": "events/s", "higher_is_better": True},
    }
    document = build_result(metrics, calibration=100.0)
    saturation = document["metrics"]["overload_saturation_ops_s"]
    assert saturation["normalized"] == 6000.0
    assert saturation["calibration_free"] is True
    # ordinary metrics still normalize, and don't grow the flag
    kernel = document["metrics"]["kernel_events_per_sec"]
    assert kernel["normalized"] == pytest.approx(5.0)
    assert "calibration_free" not in kernel


def test_calibration_free_metrics_compare_raw_to_raw():
    """The 15% gate on a calibration-free metric fires on raw movement —
    e.g. the saturation cliff dropping a full sweep step."""
    def doc(raw):
        return build_result({"overload_saturation_ops_s": {
            "raw": raw, "unit": "ops/s/dc", "higher_is_better": True,
            "calibration_free": True}}, calibration=123.456)

    assert compare(doc(6000.0), doc(6000.0)).ok
    assert compare(doc(5500.0), doc(6000.0)).ok        # within 15%
    assert not compare(doc(4000.0), doc(6000.0)).ok    # cliff moved


def test_save_and_load_round_trip(tmp_path):
    path = str(tmp_path / "BENCH_perf.json")
    save_result(_result(), path)
    assert load_result(path)["metrics"].keys() == _result()["metrics"].keys()


def test_load_rejects_unknown_schema(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as handle:
        json.dump({"schema": 999}, handle)
    with pytest.raises(ValueError):
        load_result(path)


# -- regression verdict ------------------------------------------------------

def test_identical_results_pass():
    report = compare(_result(), _result())
    assert report.ok and report.verdict() == "PASS"


def test_small_slowdown_within_tolerance_passes():
    report = compare(_result(kernel_norm=1.8), _result(kernel_norm=2.0),
                     tolerance=0.15)
    assert report.ok


def test_rate_regression_beyond_tolerance_fails():
    report = compare(_result(kernel_norm=1.5), _result(kernel_norm=2.0),
                     tolerance=0.15)
    assert not report.ok
    failing = [c for c in report.comparisons if c.regression]
    assert [c.name for c in failing] == ["kernel_events_per_sec"]


def test_duration_regression_direction_is_inverted():
    # figure time going UP is the regression
    report = compare(_result(figure_norm=12.0), _result(figure_norm=10.0),
                     tolerance=0.15)
    assert not report.ok
    report = compare(_result(figure_norm=8.0), _result(figure_norm=10.0),
                     tolerance=0.15)
    assert report.ok


def test_speedups_never_fail():
    report = compare(_result(kernel_norm=20.0, figure_norm=1.0), _result())
    assert report.ok


def test_metric_missing_from_baseline_is_reported_not_failed():
    baseline = _result()
    del baseline["metrics"]["figure_smoke_seconds"]
    report = compare(_result(), baseline)
    assert report.ok
    assert report.missing_in_baseline == ["figure_smoke_seconds"]


# -- CLI ---------------------------------------------------------------------

def _quick_args(output):
    # figure and saturation are full cluster runs — far too heavy for
    # the quick CLI round-trips (saturation alone is a 5-rate sweep)
    return ["--repeat", "1", "--kernel-events", "4000", "--tree-batches", "2",
            "--skip", "figure", "--skip", "saturation", "--output", output]


def test_cli_writes_result_file(tmp_path, capsys):
    out = str(tmp_path / "BENCH_perf.json")
    assert perf_cli.main(_quick_args(out) + ["--json"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert "kernel_events_per_sec" in document["metrics"]
    assert "fabric_messages_per_sec" in document["metrics"]
    # the traced tree run is an entry of its own, hence gated by --compare
    assert "obs_enabled_tree_labels_per_sec" in document["metrics"]
    assert "codec_frames_per_sec" in document["metrics"]
    on_disk = load_result(out)
    assert on_disk["metrics"].keys() == document["metrics"].keys()


def test_cli_compare_against_own_output_passes(tmp_path, capsys):
    out = str(tmp_path / "BENCH_perf.json")
    assert perf_cli.main(_quick_args(out)) == 0
    # second run compared against the first: same machine, same code — any
    # honest tolerance passes; use a generous one to keep CI noise-proof
    code = perf_cli.main(_quick_args(str(tmp_path / "second.json"))
                         + ["--compare", out, "--tolerance", "0.9"])
    capsys.readouterr()
    assert code == 0


def test_cli_flags_regression_with_exit_one(tmp_path, capsys):
    out = str(tmp_path / "BENCH_perf.json")
    assert perf_cli.main(_quick_args(out)) == 0
    capsys.readouterr()  # drain the first run's human-readable output
    inflated = load_result(out)
    for entry in inflated["metrics"].values():
        factor = 1000.0 if entry["higher_is_better"] else 0.001
        entry["normalized"] *= factor
    baseline_path = str(tmp_path / "inflated.json")
    save_result(inflated, baseline_path)
    code = perf_cli.main(_quick_args(str(tmp_path / "fresh.json"))
                         + ["--compare", baseline_path, "--json"])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert document["comparison"]["verdict"] == "FAIL"
