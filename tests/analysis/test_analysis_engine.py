"""The analysis engine itself: one parse, rule selection, the SAT000
escape hatch, the tree-wide zero-findings gate (tier-1), and the CLI."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, RULES_BY_CODE, analyze
from repro.analysis import engine
from repro.analysis.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).parent
PURITY_LEAK = FIXTURES / "arch" / "fixtures" / "purity_leak"
UNKNOWN_FIELD = FIXTURES / "arch" / "fixtures" / "unknown_field"

CODES = [rule.code for rule in ALL_RULES]


def codes_in(report):
    return [finding.code for finding in report.findings]


# ---------------------------------------------------------------------------
# the one catalogue
# ---------------------------------------------------------------------------

def test_rule_catalogue_is_complete():
    assert CODES == [
        "SAT001", "SAT002", "SAT003", "SAT004", "SAT005", "SAT006",
        "SAT007", "SAT009",
        "ARCH001", "ARCH002", "ARCH003", "ARCH004", "ARCH101",
        "ARCH202", "ARCH204",
        "CONC001", "CONC002", "CONC003", "CONC004", "CONC005", "CONC006"]
    for rule in ALL_RULES:
        assert rule.title and rule.rationale
    assert list(RULES_BY_CODE) == CODES


# ---------------------------------------------------------------------------
# the tree itself must be clean — this is the tier-1 regression gate
# ---------------------------------------------------------------------------

def test_tree_wide_analysis_is_clean():
    report = analyze([SRC_ROOT, REPO_ROOT / "benchmarks"])
    assert report.ok, report.format_human()
    assert report.files_checked > 100
    # every family ran: src/repro is governed by the repo contract
    assert report.rules_run == tuple(CODES)


def test_obs_package_is_lint_clean():
    # the observability layer must obey the same determinism discipline it
    # exists to verify (no wall clocks, no unsorted iteration in exports)
    report = analyze([SRC_ROOT / "obs"], select={"SAT"})
    assert report.files_checked >= 6
    assert report.ok, report.format_human()


def test_the_tree_has_a_population_of_coroutines_to_audit():
    # a CONC gate over zero coroutines would be vacuous; the net stack
    # alone guarantees async defs
    count = sum(isinstance(node, ast.AsyncFunctionDef)
                for path in (SRC_ROOT / "net").glob("*.py")
                for node in ast.walk(ast.parse(path.read_text())))
    assert count >= 10


# ---------------------------------------------------------------------------
# one parse, at most one call graph
# ---------------------------------------------------------------------------

@pytest.fixture
def parsed(monkeypatch):
    """Counter of ``ast.parse`` calls per file name (module parses only:
    string annotations are parsed in ``eval`` mode by the rules)."""
    counts = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        if kwargs.get("mode", "exec") == "exec":
            counts[filename] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    return counts


def test_each_file_is_parsed_once_and_the_callgraph_built_once(
        parsed, monkeypatch):
    builds = []
    real_build = engine.build_callgraph
    monkeypatch.setattr(
        engine, "build_callgraph",
        lambda graph: builds.append(graph) or real_build(graph))

    report = analyze([SRC_ROOT])
    files = [str(p) for p in SRC_ROOT.rglob("*.py")]
    assert report.files_checked == len(files)
    assert {name: parsed[name] for name in files} == dict.fromkeys(files, 1)
    assert len(builds) == 1

    # rules that need no call graph never build one
    builds.clear()
    analyze([SRC_ROOT], select={"SAT", "ARCH0", "ARCH2"})
    assert builds == []


def test_overlapping_arguments_share_one_parse(parsed):
    fixture = FIXTURES / "conc" / "fixtures" / "conc001" / "app"
    report = analyze([fixture, fixture / "mod.py"], select={"SAT", "CONC"})
    assert parsed[str(fixture / "mod.py")] == 1
    assert codes_in(report) == ["CONC001"]


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------

def test_select_accepts_codes_and_prefixes():
    app = PURITY_LEAK / "app"
    assert set(codes_in(analyze([app]))) == {"SAT001", "ARCH101"}
    assert codes_in(analyze([app], select={"ARCH"})) == ["ARCH101"]
    assert codes_in(analyze([app], select={"ARCH101"})) == ["ARCH101"]
    assert analyze([app], select={"ARCH0", "ARCH2", "CONC"}).ok
    assert analyze([app], ignore={"SAT", "ARCH1"}).ok
    only = analyze([app], select={"ARCH2"})
    assert only.rules_run == ("ARCH202", "ARCH204")


def test_unknown_code_or_prefix_is_rejected():
    for bad in ({"SAT999"}, {"NOPE"}, {"CONC042"}):
        with pytest.raises(ValueError):
            analyze([FIXTURES / "fixtures"], select=bad)
        with pytest.raises(ValueError):
            analyze([FIXTURES / "fixtures"], ignore=bad)


def test_arch_rules_only_run_under_a_contract_that_names_the_root():
    conc_fixture = FIXTURES / "conc" / "fixtures" / "clean" / "app"
    # the nearest contract above it is the repo's (root_package "repro")
    assert engine.find_contract(conc_fixture) == \
        REPO_ROOT / "arch_contract.toml"
    report = analyze([conc_fixture])
    assert not any(code.startswith("ARCH") for code in report.rules_run)
    assert any(code.startswith("CONC") for code in report.rules_run)
    # a lone file is no package root: per-file rules only
    lone = analyze([conc_fixture / "mod.py"])
    assert all(code.startswith("SAT") for code in lone.rules_run)


def test_explicit_contract_must_name_a_given_directory():
    with pytest.raises(ValueError, match="names none"):
        analyze([FIXTURES / "conc" / "fixtures" / "clean"],
                contract=UNKNOWN_FIELD / "arch_contract.toml")


def test_find_contract_walks_up():
    assert engine.find_contract(SRC_ROOT) == REPO_ROOT / "arch_contract.toml"


# ---------------------------------------------------------------------------
# unparseable files surface once, as SAT000, whatever is selected
# ---------------------------------------------------------------------------

def test_unparseable_file_is_reported_once_and_bypasses_selection(tmp_path):
    pkg = tmp_path / "app"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    (pkg / "broken.py").write_text("def f(:  # noqa\n", encoding="utf-8")
    report = analyze([pkg])
    assert codes_in(report) == ["SAT000"]
    assert "could not be parsed" in report.findings[0].message
    # coverage loss always surfaces: not --select, not --ignore, not noqa
    assert codes_in(analyze([pkg], select={"CONC003"})) == ["SAT000"]
    assert codes_in(analyze([pkg], ignore={"SAT"})) == ["SAT000"]
    assert codes_in(analyze([pkg / "broken.py"])) == ["SAT000"]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_on_the_tree_exits_zero_with_json():
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_ROOT / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repro", "benchmarks",
         "--json"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["findings"] == []
    assert payload["files_checked"] > 100
    assert payload["rules"] == CODES


def test_cli_json_findings_carry_the_one_schema(capsys):
    assert main([str(UNKNOWN_FIELD / "app"), "--select", "ARCH,CONC001",
                 "--contract", str(UNKNOWN_FIELD / "arch_contract.toml"),
                 "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    (finding,) = payload["findings"]
    assert set(finding) == {"file", "line", "col", "code", "message",
                            "witness"}
    assert finding["code"] == "ARCH202"


def test_cli_human_output_names_the_finding(capsys):
    assert main([str(FIXTURES / "fixtures" / "bad_sat001.py")]) == 1
    assert "SAT001" in capsys.readouterr().out


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in CODES:
        assert code in out


@pytest.mark.parametrize("argv", [
    ["/no/such/path"],
    ["--select", "CONC042"],
    ["--contract", "/no/such/arch_contract.toml"],
    [str(FIXTURES / "fixtures"), "--contract",
     str(UNKNOWN_FIELD / "arch_contract.toml")],
])
def test_cli_usage_and_contract_errors_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "error" in capsys.readouterr().err
