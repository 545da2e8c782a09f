"""The real-cluster verdict: hook journals replayed into the sim oracle."""

import json

import pytest

from journals import (edit_journal, journal_lines, line_of, open_journal,
                      write_journals)
from repro.net.check import check_cluster
from repro.net.codec import decode_value
from repro.net.spec import chain_smoke_spec


@pytest.fixture
def cluster(tmp_path):
    write_journals(tmp_path, chain_smoke_spec(3))
    return tmp_path


def _kinds(result):
    return [problem.split(":")[0] for problem in result.problems]


def test_conforming_run_passes_all_checks(cluster):
    result = check_cluster(cluster)
    assert result.ok, result.problems
    assert result.log.visible_counts() == {"I": 4, "F": 4, "T": 3}
    # the writer's true causal pasts were replayed, not inferred
    deps = {record.key: {result.log.updates[dep].key
                         for dep in result.log.past(version)}
            for version, record in result.log.updates.items()}
    assert deps == {"g0:a": set(), "g0:b": {"g0:a"},
                    "g1:p": {"g0:a", "g0:b"}, "g0:y": {"g0:b"}}


def test_missing_visibility_is_a_completeness_problem(cluster):
    edit_journal(cluster, "T",
                 lambda lines: lines.pop(
                     line_of(lines, "record_visible", "g0:y")))
    result = check_cluster(cluster)
    assert _kinds(result) == ["completeness"]
    assert "g0:y" in result.problems[0] and "at T" in result.problems[0]


def test_partial_replication_leak_is_reported(cluster):
    at_f = journal_lines(cluster, "F")
    bait, _, at = decode_value(json.loads(
        at_f[line_of(at_f, "record_visible", "g1:p")])["args"])
    with open_journal(cluster, "T") as journal:
        journal.record_visible(bait, "T", at)
    result = check_cluster(cluster)
    assert _kinds(result) == ["partial-replication"]
    assert "g1:p" in result.problems[0] and "at T" in result.problems[0]


def test_causal_inversion_is_reported(cluster):
    def swap(lines):
        b = line_of(lines, "record_visible", "g0:b")
        y = line_of(lines, "record_visible", "g0:y")
        lines[b], lines[y] = lines[y], lines[b]
    edit_journal(cluster, "T", swap)
    result = check_cluster(cluster)
    assert _kinds(result) == ["causal-order"]
    assert "at T" in result.problems[0]


def test_inversion_the_scripts_do_not_link_is_caught(tmp_path):
    """F's gossip client learns ``g0:a`` through a *plain read* and then
    writes ``g0:z``: no poll and no session edge joins the two keys, so a
    dependency model read off the scripts cannot order them.  The
    journal carries the client's true causal past, and the oracle uses
    it."""
    spec = chain_smoke_spec(3)
    spec.clients.insert(1, {"id": "gossip-F", "dc": "F", "script": [
        {"op": "read", "key": "g0:a"},
        {"op": "update", "key": "g0:z", "size": 2}]})
    write_journals(tmp_path, spec)
    assert check_cluster(tmp_path).ok

    edit_journal(tmp_path, "T", lambda lines: lines.insert(
        0, lines.pop(line_of(lines, "record_visible", "g0:z"))))
    result = check_cluster(tmp_path)
    assert _kinds(result) == ["causal-order"]


def test_stale_read_is_a_session_violation(cluster):
    """``observed_max`` travels in the journal, so session monotonicity
    is checkable on sockets."""
    with open_journal(cluster, "T") as journal:
        journal.record_read("reader-T", "T", "g0:a",
                            (1.0, "I/g0"), (2.0, "I/g0"))
    result = check_cluster(cluster)
    assert _kinds(result) == ["session-monotonicity"]
    assert "reader-T" in result.problems[0]


def test_versionless_reads_are_reported(cluster):
    def forget(lines):
        lines[:] = [line for line in lines
                    if not ('"record_read"' in line and '"g0:a"' in line)]
    edit_journal(cluster, "T", forget)
    with open_journal(cluster, "T") as journal:
        journal.record_read("reader-T", "T", "g0:a", None, None)
    result = check_cluster(cluster)
    assert _kinds(result) == ["read"]
    assert "reader-T" in result.problems[0] and "g0:a" in result.problems[0]


def test_a_torn_final_line_is_ignored_and_counted(cluster):
    """A node killed mid-write leaves a partial last line: it is skipped,
    counted per datacenter, and the rest of the journal is judged."""
    edit_journal(cluster, "T",
                 lambda lines: lines.append(lines[-1][:len(lines[-1]) // 2]))
    result = check_cluster(cluster)
    assert result.ok, result.problems
    report = result.to_json()
    assert report["torn_lines"] == {"I": 0, "F": 0, "T": 1}
    assert report["journal_lines"]["T"] == len(journal_lines(cluster, "T")) - 1


def test_a_malformed_line_before_the_last_is_an_error(cluster):
    edit_journal(cluster, "T",
                 lambda lines: lines.insert(1, lines[1][:len(lines[1]) // 2]))
    with pytest.raises(json.JSONDecodeError):
        check_cluster(cluster)


def test_check_cluster_reads_logs_from_disk(tmp_path):
    write_journals(tmp_path, chain_smoke_spec(2))
    report = check_cluster(tmp_path).to_json()
    assert report["ok"] is True and report["problems"] == []
    assert report["visible"] == {"I": 3, "F": 3}
    assert report["journal_lines"]["I"] > 0
    # the latency / op lines have a reader: the replayed metrics recorders
    assert report["visibility"] == {"samples": 3, "mean_ms": 10.0}
    assert report["ops"] == {"samples": 5, "mean_ms": 1.0}
