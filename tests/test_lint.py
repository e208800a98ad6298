"""Tests for the repro-lint analyzer.

Three layers: per-rule fixture projects under ``tests/lint_fixtures/``
(one *positive* project where the rule must fire, one *negative* where
it must stay quiet - the fixture dirs are excluded from real lint runs),
the repo-wide gate (the checkout itself lints clean with no
suppression), and the CLI's exit-code/format contract.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.lint.framework import (EXIT_CLEAN, EXIT_ERROR,
                                           EXIT_FINDINGS, LintUsageError,
                                           Project, rule_catalog, run_lint)

TESTS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TESTS_DIR.parent
FIXTURES = TESTS_DIR / "lint_fixtures"

ALL_RULE_IDS = ["R0", "R1", "R3", "R4", "R5", "R7"]


def lint_fixture(rule, case, rule_ids):
    project = Project.load(FIXTURES / rule / case)
    return run_lint(project, rule_ids=rule_ids)


# ------------------------------------------------------------ rule fixtures
#: rule id -> (expected positive finding count, message fragments that
#: must each appear in at least one positive finding).
POSITIVE_EXPECTATIONS = {
    "R1": (3, ["MSG_ORPHAN is not reachable",
               "payload-carrying encoder",
               "not exercised by test_wire.py"]),
    "R3": (2, ["touches it outside", "unknown lock '_missing'"]),
    "R4": (2, ["import of 'pickle'", "call into serializer"]),
    "R5": (4, ["time.time()", "datetime.now()", "random.random()",
               "without a seed"]),
    "R7": (2, ["ScanSpec.links is never consumed by ColdArchive.scan",
               "spec.lnks"]),
}


@pytest.mark.parametrize("rule", sorted(POSITIVE_EXPECTATIONS))
def test_rule_fires_on_positive_fixture(rule):
    count, fragments = POSITIVE_EXPECTATIONS[rule]
    report = lint_fixture(rule, "positive", [rule])
    assert report.exit_code() == EXIT_FINDINGS
    assert [f.rule for f in report.findings] == [rule] * count, \
        [f.render() for f in report.findings]
    rendered = "\n".join(f.message for f in report.findings)
    for fragment in fragments:
        assert fragment in rendered, fragment


@pytest.mark.parametrize("rule", sorted(POSITIVE_EXPECTATIONS))
def test_rule_quiet_on_negative_fixture(rule):
    report = lint_fixture(rule, "negative", [rule])
    assert report.findings == [], [f.render() for f in report.findings]
    assert report.exit_code() == EXIT_CLEAN


def test_suppression_hygiene_fires_on_positive_fixture():
    # R0 runs only on full runs (rule_ids=None), so it sees every
    # dishonest suppression shape at once.
    report = lint_fixture("R0", "positive", None)
    assert [f.rule for f in report.findings] == ["R0"] * 4, \
        [f.render() for f in report.findings]
    rendered = "\n".join(f.message for f in report.findings)
    assert "unknown rule 'R42'" in rendered
    assert "matches no finding" in rendered
    assert "no '-- justification'" in rendered
    assert "cannot be suppressed" in rendered
    # The unjustified R3 suppression still suppresses - hygiene com-
    # plains, it does not resurrect the finding.
    assert [f.rule for f in report.suppressed] == ["R3"]


def test_suppression_hygiene_quiet_on_negative_fixture():
    report = lint_fixture("R0", "negative", None)
    assert report.findings == [], [f.render() for f in report.findings]
    assert [f.rule for f in report.suppressed] == ["R3"]


# ------------------------------------------------------------- repo gate
def test_repo_lints_clean():
    """The checkout itself must stay clean: new wire frames, guarded
    attributes etc. satisfy the rules, and nothing is suppressed (the
    last suppressions went with the pool's per-group slots; a racy read
    is a documented contract of the class that owns the state)."""
    report = run_lint(Project.load(REPO_ROOT))
    assert report.findings == [], [f.render() for f in report.findings]
    assert report.suppressed == [], [f.render() for f in report.suppressed]
    assert report.exit_code() == EXIT_CLEAN
    assert sorted(report.rules_run) == ALL_RULE_IDS
    assert report.files_scanned > 100


def test_fixtures_are_excluded_from_repo_runs():
    project = Project.load(REPO_ROOT)
    assert not any("lint_fixtures" in file.rel for file in project)


def test_rule_catalog_is_complete():
    ids = [rule_id for rule_id, _, _ in rule_catalog()]
    assert ids == ALL_RULE_IDS
    assert all(doc for _, _, doc in rule_catalog())


def test_unknown_rule_id_raises_usage_error():
    project = Project.load(FIXTURES / "R5" / "negative")
    with pytest.raises(LintUsageError):
        run_lint(project, rule_ids=["R99"])


def test_docstring_pragmas_are_not_suppressions():
    # The framework's own docstrings show '# lint: disable' examples;
    # only real COMMENT tokens may count, or the examples themselves
    # would be flagged as stale suppressions.
    project = Project.load(REPO_ROOT)
    framework = project.file_named("framework.py", prefer_segment="lint")
    assert framework is not None
    assert '# lint: disable' in framework.text
    for entries in framework.suppressions.values():
        assert not entries


# ------------------------------------------------------------------- CLI
def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", *argv],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT)


def test_cli_json_report_is_clean_and_well_formed(tmp_path):
    output = tmp_path / "lint.json"
    result = run_cli("--format=json", "--output", str(output))
    assert result.returncode == EXIT_CLEAN, result.stdout + result.stderr
    payload = json.loads(result.stdout)
    assert payload["version"] == 1
    assert payload["findings"] == []
    assert payload["files_scanned"] > 100
    assert sorted(payload["rules"]) == ALL_RULE_IDS
    assert json.loads(output.read_text()) == payload


def test_cli_exit_code_on_findings():
    result = run_cli("--root", str(FIXTURES / "R5" / "positive"))
    assert result.returncode == EXIT_FINDINGS
    assert "R5" in result.stdout


def test_cli_exit_code_on_usage_error():
    result = run_cli("--rules", "R99")
    assert result.returncode == EXIT_ERROR
    assert "unknown rule" in result.stderr


def test_cli_list_rules():
    result = run_cli("--list-rules")
    assert result.returncode == EXIT_CLEAN
    for rule_id in ALL_RULE_IDS:
        assert rule_id in result.stdout
