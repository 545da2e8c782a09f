"""CLI and harness-integration tests for repro.obs: the ``obs`` command
(both entry points), harness ``obs=True`` wiring, and the trace exports
grown onto the faults / model-checker CLIs."""

import hashlib
import json

from repro.obs import export
from repro.obs.__main__ import main as obs_main

#: SHA-256 of the serializer-crash scenario's trace with the mc CLI's
#: header, as written before the trace file was streamed
SERIALIZER_CRASH_TRACE_SHA256 = \
    "effd2877acc55db8d8217aa1f0bfeb6ebebc4672453b8035d4e10e427e26917a"


def _count_exports(monkeypatch) -> list:
    """Count the passes over the canonical export's lines."""
    calls = []
    iter_jsonl = export.iter_jsonl

    def counted(*args, **kwargs):
        calls.append(args)
        return iter_jsonl(*args, **kwargs)

    monkeypatch.setattr(export, "iter_jsonl", counted)
    return calls


# ---------------------------------------------------------------------------
# python -m repro.obs / saturn-repro obs
# ---------------------------------------------------------------------------

def test_obs_cli_scenario_run_writes_all_exports(tmp_path, capsys):
    jsonl = tmp_path / "trace.jsonl"
    chrome = tmp_path / "trace-chrome.json"
    summary_path = tmp_path / "summary.json"
    exit_code = obs_main(["--scenario", "chain3",
                          "--jsonl", str(jsonl),
                          "--chrome", str(chrome),
                          "--json", str(summary_path),
                          "--top", "2"])
    assert exit_code == 0
    printed = capsys.readouterr().out
    assert "visibility breakdown I -> T" in printed
    assert "slow label" in printed

    lines = [json.loads(line)
             for line in jsonl.read_text().strip().split("\n")]
    assert lines[0]["meta"] == {"source": "chain3"}
    assert any(line["kind"] == "chain" for line in lines)

    document = json.loads(chrome.read_text())
    assert document["displayTimeUnit"] == "ms"
    assert any(e["ph"] == "X" for e in document["traceEvents"])

    summary = json.loads(summary_path.read_text())
    assert summary["source"] == "chain3"
    assert summary["chains"] > 0
    pair = summary["pairs"]["I->T"]
    assert pair["labels"] > 0
    assert pair["max_sum_error"] <= 1e-6


def test_obs_cli_hashes_and_writes_the_export_in_one_pass(tmp_path,
                                                         monkeypatch):
    jsonl = tmp_path / "trace.jsonl"
    summary_path = tmp_path / "summary.json"
    calls = _count_exports(monkeypatch)
    assert obs_main(["--scenario", "chain3", "--jsonl", str(jsonl),
                     "--json", str(summary_path)]) == 0
    assert len(calls) == 1
    summary = json.loads(summary_path.read_text())
    assert summary["digest"] == hashlib.sha256(
        jsonl.read_bytes()).hexdigest()


def test_obs_cli_scenario_determinism_check(capsys):
    assert obs_main(["--scenario", "chain3", "--check-determinism"]) == 0
    assert "determinism: OK" in capsys.readouterr().out


def test_obs_cli_chaos_scenario_counts_incomplete_chains(capsys):
    # the crash scenario drains one label via the (ts, source) fallback —
    # no tree path exists for it, so it must count as incomplete, not fail
    assert obs_main(["--scenario", "serializer-crash",
                     "--pair", "I", "T"]) == 0
    assert "incomplete" in capsys.readouterr().out


def test_obs_cli_fig4_smoke_breakdown(tmp_path):
    """The acceptance scenario: the Fig. 4 M-configuration run attributes
    T->S visibility to individual tree hops whose sum reproduces the
    measured end-to-end latency."""
    summary_path = tmp_path / "fig4.json"
    exit_code = obs_main(["--scale", "smoke", "--pair", "T", "S",
                          "--json", str(summary_path)])
    assert exit_code == 0
    summary = json.loads(summary_path.read_text())
    assert summary["source"] == "fig4-mconf/smoke"
    pair = summary["pairs"]["T->S"]
    assert pair["labels"] > 0
    assert pair["max_sum_error"] <= 1e-6
    # the breakdown names real tree edges, not just endpoints
    segment_names = [entry["segment"] for entry in pair["segments"]]
    assert any(name.startswith("wire ser:") for name in segment_names)
    assert "proxy-wait S" in segment_names


def test_saturn_repro_forwards_obs(capsys):
    from repro.harness.cli import main as cli_main
    assert cli_main(["obs", "--scenario", "chain3"]) == 0
    assert "visibility breakdown" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# harness wiring: ClusterConfig(obs=True)
# ---------------------------------------------------------------------------

def test_run_once_obs_flag_builds_a_hub():
    from repro.harness.runner import SMOKE, run_once
    from repro.workloads.synthetic import SyntheticWorkload

    result = run_once("saturn", SyntheticWorkload(), SMOKE, obs=True)
    hub = result.cluster.obs_hub
    assert hub is not None
    assert hub.tracer.num_chains() > 0
    # end-of-run kernel gauges were sampled
    gauges = hub.tracer.metrics()["gauges"]
    assert gauges["kernel/now"]["updates"] == 1
    assert gauges["kernel/now"]["value"] > 0
    assert gauges["network/messages_sent"]["value"] > 0
    assert len(hub.digest()) == 64


def test_run_once_without_obs_has_no_hub():
    from repro.harness.runner import SMOKE, run_once
    from repro.workloads.synthetic import SyntheticWorkload

    result = run_once("saturn", SyntheticWorkload(), SMOKE)
    assert result.cluster.obs_hub is None


# ---------------------------------------------------------------------------
# faults / mc CLI integration
# ---------------------------------------------------------------------------

def test_faults_cli_trace_out_and_obs_determinism(tmp_path, capsys):
    """A fault scenario's clean FIFO run through the mc CLI: run twice,
    equal trace exports, and the first run's trace written out."""
    from repro.analysis.mc.__main__ import main as mc_main

    trace = tmp_path / "chaos-trace.jsonl"
    exit_code = mc_main(["--scenario", "serializer-crash",
                         "--strategy", "fifo",
                         "--trace-out", str(trace), "--json"])
    assert exit_code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["deterministic"] is True
    assert len(payload["trace_digest"]) == 64
    header = json.loads(trace.read_text().split("\n", 1)[0])
    assert header["meta"] == {"scenario": "serializer-crash"}


def test_write_trace_streams_the_export_once(tmp_path, monkeypatch):
    """The trace file and its digest come from one pass over the lines,
    and they are the bytes the whole export was."""
    from repro.analysis.mc.__main__ import _write_trace
    from repro.analysis.mc.scenario import build_scenario
    from repro.obs import attach_tracer

    scenario = build_scenario("serializer-crash")
    hub = attach_tracer(scenario)
    scenario.run()
    meta = {"scenario": "serializer-crash"}
    trace = tmp_path / "trace.jsonl"
    calls = _count_exports(monkeypatch)
    digest = _write_trace(hub, meta, str(trace))
    assert len(calls) == 1
    assert digest == SERIALIZER_CRASH_TRACE_SHA256
    assert trace.read_bytes() == hub.export_jsonl(meta).encode("utf-8")
    assert hashlib.sha256(hub.export_jsonl(meta).encode("utf-8")).hexdigest() \
        == digest


def test_model_checker_instrument_hook():
    from repro.analysis.mc.checker import ModelChecker
    from repro.analysis.mc.strategies import FifoStrategy
    from repro.obs import attach_tracer

    hubs = []
    checker = ModelChecker("chain3")
    outcome = checker.run_once(
        FifoStrategy(),
        instrument=lambda scenario: hubs.append(attach_tracer(scenario)))
    assert outcome.violations == []
    assert len(hubs) == 1
    assert hubs[0].tracer.num_chains() > 0
