"""One fixture harness for all three rule families.

``golden/fixture_findings.json`` maps every fixture tree — the SAT files
under ``fixtures/``, the ARCH trees under ``arch/fixtures/*/app`` and the
CONC trees under ``conc/fixtures/*/app`` — to the sorted
``[relative file, line, code]`` list the three pre-merge auditors reported
on it (captured from their ``--json`` at commit ba646d7; the five ARCH
trees added since were captured with the same old CLIs; the rows of the
rules since replaced by the codec's ``register()`` checks and the handler
table test were dropped with them, and so were the two trees of the
handler/message rules, whose every site tier-1 executes).  The engine
must reproduce it exactly with every rule enabled, which pins each rule
*and* what the other two families say about each tree.
"""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, analyze
from repro.analysis.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SNAPSHOT = json.loads(
    (Path(__file__).parent / "golden" / "fixture_findings.json").read_text())
TREES = sorted(SNAPSHOT)


def family(tree: str) -> str:
    """The rule family a fixture tree was written to exercise."""
    parent = Path(tree).parts[2]
    return {"fixtures": "SAT", "arch": "ARCH", "conc": "CONC"}[parent]


def expected(tree: str, prefix: str = ""):
    return [row for row in SNAPSHOT[tree] if row[2].startswith(prefix)]


def rows(report, tree: str):
    base = REPO_ROOT / tree
    return sorted(
        [os.path.relpath(f.file, base) if base.is_dir() else Path(f.file).name,
         f.line, f.code] for f in report.findings)


def audit(tree: str, **kwargs):
    return analyze([REPO_ROOT / tree], **kwargs)


@pytest.mark.parametrize("tree", TREES)
def test_engine_reproduces_the_parent_snapshot(tree):
    assert rows(audit(tree), tree) == SNAPSHOT[tree]


def test_snapshot_covers_every_fixture_tree():
    analysis = REPO_ROOT / "tests" / "analysis"
    on_disk = [*analysis.glob("fixtures/*.py"),
               *analysis.glob("arch/fixtures/*/app"),
               *analysis.glob("conc/fixtures/*/app")]
    assert sorted(str(p.relative_to(REPO_ROOT)) for p in on_disk) == TREES


def test_every_catalogue_code_is_demonstrated_by_a_fixture():
    demonstrated = {row[2] for tree in TREES for row in SNAPSHOT[tree]}
    assert {rule.code for rule in ALL_RULES} <= demonstrated


@pytest.mark.parametrize("tree", TREES)
def test_cli_exit_status_per_tree(tree, capsys):
    # a silently-neutered rule would pass the tree-wide gate forever: every
    # seeded tree must keep exiting 1 under its own family, every clean one 0
    prefix = family(tree)
    status = main([str(REPO_ROOT / tree), "--select", prefix])
    capsys.readouterr()
    assert status == (1 if expected(tree, prefix) else 0)
    assert ("clean" in tree) == (status == 0)


# -- each whole-program fixture trips exactly its one seeded defect ----------

#: seeded tree -> substring its one own-family finding's message must contain
SEEDED = {
    "arch/fixtures/upward_import": "app.high.api",
    "arch/fixtures/layer_cycle": "app.core.alpha <-> app.core.beta",
    "arch/fixtures/kernel_internal": "app.kern.heap",
    "arch/fixtures/scheduler_bypass": "sim.schedule",
    "arch/fixtures/purity_leak": "time.time",
    "conc/fixtures/conc001": "time.sleep",
    "conc/fixtures/conc002": "app.mod:work",
    "conc/fixtures/conc003": "self.value",
    "conc/fixtures/conc004": "self.lock_a",
    "conc/fixtures/conc005": "except asyncio.CancelledError",
    "conc/fixtures/conc006": "Pump._task",
}


def seeded_tree(name: str) -> str:
    return f"tests/analysis/{name}/app"


def seeded_findings(name: str):
    """The tree's own-family findings, in line order: a single rule code
    (how many lines trip it is pinned by the snapshot above)."""
    tree = seeded_tree(name)
    findings = audit(tree, select={family(tree)}).findings
    assert len({f.code for f in findings}) == 1
    return findings


def seeded_finding(name: str):
    return seeded_findings(name)[0]


def test_seeded_table_names_every_whole_program_fixture():
    assert sorted(seeded_tree(name) for name in SEEDED) == [
        tree for tree in TREES
        if family(tree) != "SAT" and "clean" not in tree]


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_seeded_fixture_message_names_the_defect(name):
    assert SEEDED[name] in seeded_finding(name).message


def test_handle_free_kernel_entry_is_a_scheduler_bypass_too():
    _, finding = seeded_findings("arch/fixtures/scheduler_bypass")
    assert "sim.call_at" in finding.message


@pytest.mark.parametrize("name", sorted(SEEDED))
def test_noqa_suppresses_each_seeded_finding(name, tmp_path):
    tree = REPO_ROOT / seeded_tree(name)
    copy = tmp_path / "app"
    shutil.copytree(tree, copy)
    for finding in seeded_findings(name):
        target = copy / Path(finding.file).relative_to(tree)
        lines = target.read_text(encoding="utf-8").splitlines()
        lines[finding.line - 1] += f"  # noqa: {finding.code}"
        target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    contract = tree.parent / "arch_contract.toml"
    report = analyze([copy], select={family(seeded_tree(name))},
                     contract=contract if contract.is_file() else None)
    assert report.ok, report.format_human()


# -- witnesses ---------------------------------------------------------------

def test_purity_witness_reports_the_full_call_chain():
    witness = "\n".join(seeded_finding("arch/fixtures/purity_leak").witness)
    # entry point (the target of a _HANDLERS row), both intermediate hops,
    # and the offending call site — in that order
    entry = witness.index("app.server:Server._on_update")
    hop2 = witness.index("app.store:apply_update")
    hop3 = witness.index("app.clockutil:stamp")
    leak = witness.index("calls time.time")
    assert entry < hop2 < hop3 < leak


def test_blocking_witness_reports_the_full_call_chain():
    witness = "\n".join(seeded_finding("conc/fixtures/conc001").witness)
    entry = witness.index("app.mod:handle")
    hop = witness.index("app.mod:prepare")
    leak = witness.index("calls time.sleep")
    assert entry < hop < leak


def test_atomicity_witness_orders_read_await_write():
    read, suspend, write = seeded_finding("conc/fixtures/conc003").witness
    assert "reads self.value" in read
    assert "suspends" in suspend
    assert "writes self.value" in write


def test_lock_order_witness_names_both_sites():
    first, second = seeded_finding("conc/fixtures/conc004").witness
    assert "while holding self.lock_a" in first
    assert "while holding self.lock_b" in second
