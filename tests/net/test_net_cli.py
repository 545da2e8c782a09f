"""The ``saturn-repro net`` driver paths that need no subprocesses."""

import json

from journals import write_journals
from repro.net.check import check_cluster
from repro.net.cli import (_expected_by_node, _python_env, _summarize,
                           _workload_done, main)
from repro.net.spec import chain_smoke_spec


def test_spec_subcommand_prints_the_cluster_spec(capsys):
    assert main(["spec", "--dcs", "4", "--system", "cure"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == chain_smoke_spec(4, "cure").to_json()
    assert printed["system"] == "cure"


def test_check_subcommand_over_a_conforming_cluster(tmp_path, capsys):
    cluster = tmp_path / "cluster"
    write_journals(cluster, chain_smoke_spec(3))
    assert main(["check", "--cluster-dir", str(cluster)]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_check_subcommand_flags_a_violating_cluster(tmp_path, capsys):
    cluster = tmp_path / "cluster"
    write_journals(cluster, chain_smoke_spec(3))
    # erase one replica's log: completeness must fail
    (cluster / "dc-T" / "visibility.jsonl").write_text("", encoding="utf-8")
    assert main(["check", "--cluster-dir", str(cluster)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    assert any(p.startswith("completeness: at T") for p in report["problems"])


def test_expected_by_node_respects_partial_replication():
    expected = _expected_by_node(chain_smoke_spec(3))
    assert ("I", "g1:p") in expected["dc-F"]
    assert ("I", "g1:p") not in expected["dc-T"]
    assert ("F", "g0:y") in expected["dc-T"]


def test_workload_done_needs_finished_clients_and_every_remote_update():
    class Directory:
        def snapshot(self):
            return {"state": {"reports": reports}}

    expected = _expected_by_node(chain_smoke_spec(3))
    # remote updates owed: I gets F's g0:y; F gets I's three; T gets
    # g0:a, g0:b and g0:y but not the partial group's g1:p
    reports = {node: {"clients_done": True, "updates_applied": owed}
               for node, owed in (("dc-I", 1), ("dc-F", 3), ("dc-T", 3))}
    assert _workload_done(Directory(), expected)
    reports["dc-T"]["updates_applied"] = 2
    assert not _workload_done(Directory(), expected)
    reports["dc-T"]["updates_applied"] = 3
    reports["dc-F"]["clients_done"] = False
    assert not _workload_done(Directory(), expected)
    del reports["dc-F"]
    assert not _workload_done(Directory(), expected)


def test_python_env_prepends_the_src_root():
    env = _python_env()
    first = env["PYTHONPATH"].split(":")[0]
    assert (first + "/repro/net/cli.py").replace("//", "/")


def test_summarize_reports_ok_and_violations(tmp_path, capsys):
    cluster = tmp_path / "cluster"
    write_journals(cluster, chain_smoke_spec(3))
    ok = check_cluster(cluster).to_json()
    _summarize({"cluster_dir": str(cluster), "check": ok,
                "node_exits": {"dc-I": 0}, "timed_out": False})
    out = capsys.readouterr().out
    assert "net: OK" in out and "causal" in out

    bad = dict(ok)
    bad["ok"] = False
    bad["problems"] = ["completeness: g0:y never visible at T"]
    _summarize({"cluster_dir": str(cluster), "check": bad,
                "node_exits": {"dc-I": 3}, "timed_out": True,
                "crashed": ["dc-I"]})
    out = capsys.readouterr().out
    assert "TIMEOUT" in out and "VIOLATION" in out and "unclean" in out
