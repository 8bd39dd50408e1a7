"""Tests for the repro-lint contract checker (:mod:`repro.analysis`).

The fixture corpus under ``tests/analysis_fixtures/`` holds one
must-flag and one must-pass module per rule; the suite asserts each rule
fires exactly where it should, that pragma suppression works at both
statement and definition scope (and that bad pragmas are themselves
violations), and that the CLI's JSON output and exit codes are stable.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import LintEngine, all_rules
from repro.analysis.cli import main as cli_main

FIXTURES = Path(__file__).parent / "analysis_fixtures"
RULE_IDS = ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006")


def rules_hit(path: Path) -> set[str]:
    report = LintEngine().check_file(path)
    return {v.rule for v in report.violations}


# ----------------------------------------------------------------------
# every rule fires on its must-flag fixture and stays quiet on must-pass
# ----------------------------------------------------------------------
@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_fires_on_flag_fixture(rule_id: str) -> None:
    hit = rules_hit(FIXTURES / f"{rule_id.lower()}_flag.py")
    assert rule_id in hit


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_rule_quiet_on_pass_fixture(rule_id: str) -> None:
    hit = rules_hit(FIXTURES / f"{rule_id.lower()}_pass.py")
    assert rule_id not in hit


def test_pass_fixtures_fully_clean() -> None:
    for rule_id in RULE_IDS:
        report = LintEngine().check_file(FIXTURES / f"{rule_id.lower()}_pass.py")
        assert report.violations == [], report.violations


# ----------------------------------------------------------------------
# rule specifics
# ----------------------------------------------------------------------
def test_rep001_counts_both_loop_shapes() -> None:
    report = LintEngine(rules=["REP001"]).check_file(FIXTURES / "rep001_flag.py")
    assert len(report.violations) == 2  # range(.shape) and zip(...)


def test_rep002_flags_method_param_and_producer_stores() -> None:
    report = LintEngine(rules=["REP002"]).check_file(FIXTURES / "rep002_flag.py")
    lines = sorted(v.line for v in report.violations)
    assert len(lines) == 3  # self.-store, annotated param, producer-bound local


def test_rep004_names_every_recursive_function() -> None:
    report = LintEngine(rules=["REP004"]).check_file(FIXTURES / "rep004_flag.py")
    messages = " ".join(v.message for v in report.violations)
    for name in ("descend", "ping", "pong", "Walker.walk"):
        assert name in messages


def test_rep005_flags_both_halves() -> None:
    report = LintEngine(rules=["REP005"]).check_file(FIXTURES / "rep005_flag.py")
    messages = [v.message for v in report.violations]
    assert len(messages) == 2
    assert any("frontier loop" in m for m in messages)
    assert any("NaN/inf" in m for m in messages)


def test_rep006_flags_bare_and_swallowed_broad() -> None:
    report = LintEngine(rules=["REP006"]).check_file(FIXTURES / "rep006_flag.py")
    assert len(report.violations) == 2


def test_scope_markers_only_apply_in_their_scope() -> None:
    # The hot-path fixture is not storage-scoped: REP006 never looks at it.
    source = (FIXTURES / "rep001_flag.py").read_text()
    report = LintEngine(rules=["REP006"]).check_source(source, "rep001_flag.py")
    assert report.violations == []


def test_unscoped_module_is_exempt_from_scoped_rules() -> None:
    source = "def f(rows):\n    for i in range(rows.shape[0]):\n        pass\n"
    report = LintEngine(rules=["REP001"]).check_source(source, "free_module.py")
    assert report.violations == []


# ----------------------------------------------------------------------
# pragma layer
# ----------------------------------------------------------------------
def test_pragmas_suppress_at_statement_and_def_scope() -> None:
    report = LintEngine().check_file(FIXTURES / "pragma_suppress.py")
    assert report.violations == [], report.violations


def test_bad_pragmas_are_rep000_and_do_not_suppress() -> None:
    report = LintEngine().check_file(FIXTURES / "pragma_bad.py")
    by_rule: dict[str, int] = {}
    for v in report.violations:
        by_rule[v.rule] = by_rule.get(v.rule, 0) + 1
    assert by_rule.get("REP000") == 2  # missing reason + unknown rule
    assert by_rule.get("REP001") == 2  # neither pragma suppressed anything


def test_pragma_above_the_flagged_line_suppresses() -> None:
    source = (
        "# repro: module-contract(hot-path)\n"
        "def f(rows):\n"
        "    # repro: allow(REP001): next-line suppression form\n"
        "    for i in range(rows.shape[0]):\n"
        "        pass\n"
    )
    report = LintEngine(rules=["REP001"]).check_source(source, "inline.py")
    assert report.violations == []


def test_syntax_error_reports_rep000() -> None:
    report = LintEngine().check_source("def broken(:\n", "broken.py")
    assert report.parse_error is not None
    assert [v.rule for v in report.violations] == ["REP000"]


# ----------------------------------------------------------------------
# engine API
# ----------------------------------------------------------------------
def test_unknown_rule_selection_raises() -> None:
    with pytest.raises(ValueError, match="REP42"):
        LintEngine(rules=["REP42"])


def test_registry_exposes_all_rules() -> None:
    assert [r.rule_id for r in all_rules()] == list(RULE_IDS)


def test_linter_does_not_check_itself() -> None:
    report = LintEngine().run(["src/repro/analysis"])
    assert report.files == []


def test_src_and_benchmarks_are_clean() -> None:
    """The repo's own contract: the tree the CI gate checks stays clean."""
    report = LintEngine().run(["src", "benchmarks"])
    assert report.ok, [v.render() for v in report.violations]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_exit_codes(capsys: pytest.CaptureFixture) -> None:
    assert cli_main([str(FIXTURES / "rep001_pass.py")]) == 0
    assert cli_main([str(FIXTURES / "rep001_flag.py")]) == 1
    assert cli_main(["--rules", "NOPE", str(FIXTURES)]) == 2
    assert cli_main([str(FIXTURES / "no_such_file.py")]) == 2
    assert cli_main([]) == 2
    capsys.readouterr()


def test_cli_human_output_format(capsys: pytest.CaptureFixture) -> None:
    cli_main([str(FIXTURES / "rep001_flag.py")])
    out = capsys.readouterr().out
    assert "REP001" in out
    assert "repro-lint:" in out and "violation" in out


def test_cli_json_output(capsys: pytest.CaptureFixture) -> None:
    code = cli_main(["--format", "json", str(FIXTURES / "rep001_flag.py")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    assert payload["violation_count"] == len(payload["violations"]) == 2
    first = payload["violations"][0]
    assert set(first) == {"rule", "path", "line", "col", "message"}
    assert set(payload["rules"]) == set(RULE_IDS)


def test_cli_rule_subset_runs_only_selected(capsys: pytest.CaptureFixture) -> None:
    code = cli_main(
        ["--rules", "REP006", "--format", "json", str(FIXTURES / "rep001_flag.py")]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["violations"] == []


def test_cli_list_rules(capsys: pytest.CaptureFixture) -> None:
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out
