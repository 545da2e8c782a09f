"""Command-line interface."""

import json

import pytest

from repro.harness.cli import build_parser, main
from repro.harness.experiments import EXPERIMENTS


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig4" in out
    assert "saturn" in out
    assert "cops" in out


def test_every_experiment_registered(capsys):
    """`list` prints exactly the table: every name with its summary."""
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    listed = out.split("experiments:\n")[1].split("systems:\n")[0]
    assert listed.splitlines() == [
        f"  {name:28s} {experiment.summary}"
        for name, experiment in sorted(EXPERIMENTS.items())]
    for name in EXPERIMENTS:
        assert build_parser().parse_args(["run", name]).experiment == name


def test_run_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig99"])


def test_run_experiment_smoke(capsys, tmp_path):
    out_file = tmp_path / "result.json"
    assert main(["run", "ablation-artificial-delays", "--scale", "smoke",
                 "--json", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "ablation-artificial-delays" in out
    payload = json.loads(out_file.read_text())
    assert "rows" in payload


def test_run_prints_every_scalar_result(capsys):
    """Top-level keys that are neither rows nor series are printed too."""
    assert main(["run", "visibility-under-failure", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    for key in ("crash_at_ms", "recovered", "degraded_spans",
                "post_recovery_visibility_ms", "throughput"):
        assert f"\n{key}: " in out


def test_bench_command(capsys):
    assert main(["bench", "--system", "eventual", "--duration", "400",
                 "--clients", "2"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "visibility mean" in out


def test_bench_rejects_unknown_system():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench", "--system", "spanner"])


def test_configure_command(capsys):
    assert main(["configure", "--beam-width", "2"]) == 0
    out = capsys.readouterr().out
    assert "score" in out
    assert "edges" in out


def test_mc_subcommand_forwards_to_model_checker(capsys):
    from repro.analysis.mc.scenario import SCENARIOS

    assert main(["mc", "--list"]) == 0
    out = capsys.readouterr().out
    # the one scenario table: the mc scenarios and the chaos scenarios
    assert len(SCENARIOS) == 13
    listed = {line.strip() for line in out.splitlines()}
    assert set(SCENARIOS) <= listed
    assert "serializer-crash" in listed and "okapi-clock-skew" in listed
    assert "drop-fifo" in out


def test_mc_subcommand_clean_sweep(capsys):
    assert main(["mc", "--scenario", "chain3", "--strategy", "exhaustive",
                 "--depth", "2"]) == 0
    assert "0 counterexample" in capsys.readouterr().out


def test_audit_subcommand_forwards_to_the_engine(capsys):
    assert main(["audit", "--select", "ARCH"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_audit_subcommand_list_rules(capsys):
    assert main(["audit", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "SAT001" in out and "ARCH101" in out and "CONC006" in out
