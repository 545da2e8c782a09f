"""End-to-end model checking: sweeps are clean on the real protocol, every
seeded mutation is caught and shrinks to a tiny replayable counterexample."""

import json

import pytest

from repro.analysis.mc.__main__ import main
from repro.analysis.mc.checker import ModelChecker
from repro.analysis.mc.controller import nondefault_count
from repro.analysis.mc.scenario import MUTATIONS, SCENARIOS
from repro.analysis.mc.strategies import FifoStrategy


def test_baseline_chain3_has_no_violations():
    outcome = ModelChecker("chain3").run_once(FifoStrategy())
    assert outcome.ok, outcome.violations
    assert outcome.decisions, "a run with zero choice points proves nothing"


def test_exhaustive_sweep_is_clean_and_covers_permutations():
    result = ModelChecker("chain3").sweep_exhaustive(depth=3)
    assert result.ok, [o.violations for o in result.counterexamples]
    assert not result.truncated
    assert result.runs > 1  # the first ties really do branch


def test_pct_sweep_is_clean():
    result = ModelChecker("chain3").sweep_pct(budget=8, seed=11)
    assert result.ok, [o.violations for o in result.counterexamples]
    assert len(result.digests) > 1  # priorities genuinely reorder events


def test_delay_sweep_is_clean():
    result = ModelChecker("chain3").sweep_delay(budget=8, seed=11)
    assert result.ok, [o.violations for o in result.counterexamples]
    assert len(result.digests) > 1


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_is_caught_and_shrinks_small(mutation):
    checker = ModelChecker("chain3", mutation=mutation)
    outcome = checker.run_once(FifoStrategy())
    assert not outcome.ok, f"checker failed to catch {mutation}"
    ce = checker.shrink(outcome)
    assert ce.violations
    assert len(ce.decisions) <= 10
    assert nondefault_count(ce.decisions) <= 10


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_counterexample_replays_bit_identically(mutation):
    checker = ModelChecker("chain3", mutation=mutation)
    ce = checker.shrink(checker.run_once(FifoStrategy()))
    first = checker.replay(ce.decisions)
    second = checker.replay(ce.decisions)
    assert first.digest == second.digest == ce.digest
    assert first.violations == second.violations == ce.violations


def test_expected_oracle_fires_per_mutation():
    kinds = {
        "drop-fifo": "causality:",
        "drop-label": "completeness:",
        "leak-routing": "partial-replication:",
    }
    for mutation, prefix in kinds.items():
        outcome = ModelChecker("chain3", mutation=mutation).run_once(
            FifoStrategy())
        assert any(v.startswith(prefix) for v in outcome.violations), (
            f"{mutation} should trip the {prefix} oracle; "
            f"got {outcome.violations}")


def test_every_scenario_baseline_is_clean():
    for name in sorted(SCENARIOS):
        outcome = ModelChecker(name).run_once(FifoStrategy())
        assert outcome.ok, (name, outcome.violations)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_list_exits_zero(capsys):
    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out
    for name in MUTATIONS:
        assert name in out


def test_cli_clean_sweep_exits_zero(capsys):
    assert main(["--scenario", "chain3", "--strategy", "exhaustive",
                 "--depth", "2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counterexamples"] == 0


def test_cli_mutation_writes_counterexample_and_replays(tmp_path, capsys):
    out = tmp_path / "ce.json"
    code = main(["--scenario", "chain3", "--strategy", "fifo",
                 "--mutate", "drop-fifo", "--out", str(out)])
    capsys.readouterr()
    assert code == 2
    assert out.exists()
    assert main(["--replay", str(out)]) == 0
    text = capsys.readouterr().out
    assert "deterministic: yes" in text


def test_cli_unknown_scenario_is_an_error(capsys):
    assert main(["--scenario", "nope"]) == 1


def test_cli_fifo_run_must_reproduce_itself(monkeypatch, capsys):
    """A --strategy fifo run is built and run twice; two digests exit 2."""
    import itertools

    from repro.analysis.mc.scenario import Scenario

    counter = itertools.count()
    monkeypatch.setattr(Scenario, "digest",
                        lambda self: f"{next(counter):064d}")
    assert main(["--scenario", "chain3", "--strategy", "fifo", "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["deterministic"] is False
    assert payload["distinct_executions"] == 2
    assert payload["summary"]["violations"] == []
