"""Tests for the hot-path regression gate (:mod:`benchmarks.check_hotpath_regression`).

The gate compares speedup *ratios* against the committed baseline, so it
must handle families whose committed value is deliberately below 1.0
(``persist_save`` trades throughput for fsync durability) exactly like
the >1.0 ones, and it must fail loudly — not silently pass everything —
when a baseline entry is zero, negative or non-finite.
"""

from __future__ import annotations

import json

import pytest

from benchmarks.check_hotpath_regression import collect_speedups, compare, main


def report(**families: float) -> dict:
    return {name: {"speedup": value} for name, value in families.items()}


# ----------------------------------------------------------------------
# collect_speedups
# ----------------------------------------------------------------------
def test_collect_walks_nested_trees_and_keys_by_path() -> None:
    tree = {
        "knn_batch": {"speedup": 8.3},
        "subseq": {"knn": {"speedup": 2.0}, "note": "text"},
        "meta": {"speedup": "not-a-number"},
    }
    assert collect_speedups(tree) == {
        "knn_batch.speedup": 8.3,
        "subseq.knn.speedup": 2.0,
    }


# ----------------------------------------------------------------------
# ratio-space comparison, including sub-1.0 families
# ----------------------------------------------------------------------
def test_matching_report_passes() -> None:
    base = report(knn_batch=8.3, persist_save=0.41)
    assert compare(base, base, tolerance=1.25) == []


def test_sub_unity_family_passes_within_tolerance() -> None:
    # 0.41 -> 0.40 is well inside a 1.25x ratio window; the gate must not
    # fail it just because the absolute value sits below 1.0.
    base = report(persist_save=0.41)
    assert compare(base, report(persist_save=0.40), tolerance=1.25) == []


def test_sub_unity_family_fails_past_tolerance() -> None:
    base = report(persist_save=0.41)
    failures = compare(base, report(persist_save=0.30), tolerance=1.25)
    assert len(failures) == 1
    assert "persist_save" in failures[0]


def test_improvement_always_passes() -> None:
    base = report(persist_save=0.41, knn_batch=8.3)
    cur = report(persist_save=1.2, knn_batch=12.0)
    assert compare(base, cur, tolerance=1.25) == []


def test_fast_family_regression_fails() -> None:
    base = report(knn_batch=8.3)
    failures = compare(base, report(knn_batch=5.0), tolerance=1.25)
    assert len(failures) == 1
    assert "knn_batch" in failures[0]


def test_missing_family_fails() -> None:
    failures = compare(report(knn_batch=8.3), report(range=2.0), tolerance=1.25)
    assert len(failures) == 1
    assert "missing from current report" in failures[0]


# ----------------------------------------------------------------------
# degenerate baselines must fail loudly, not mask regressions
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [0.0, -3.0, float("nan"), float("inf")])
def test_degenerate_baseline_fails_instead_of_masking(bad: float) -> None:
    failures = compare(report(knn_batch=bad), report(knn_batch=0.0001), tolerance=1.25)
    assert len(failures) == 1
    assert "gates nothing" in failures[0]


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
def test_degenerate_current_value_fails(bad: float) -> None:
    failures = compare(report(knn_batch=8.3), report(knn_batch=bad), tolerance=1.25)
    assert len(failures) == 1
    assert "not a positive finite ratio" in failures[0]


# ----------------------------------------------------------------------
# CLI: --require and exit codes
# ----------------------------------------------------------------------
def write(tmp_path, name: str, payload: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_gate(tmp_path, baseline: dict, current: dict, *extra: str) -> int:
    argv = [
        "check",
        "--baseline", write(tmp_path, "base.json", baseline),
        "--current", write(tmp_path, "cur.json", current),
        *extra,
    ]
    import sys
    import unittest.mock
    with unittest.mock.patch.object(sys, "argv", argv):
        return main()


def test_cli_passes_matching_reports(tmp_path, capsys) -> None:
    base = report(knn_batch=8.3, persist_save=0.41)
    assert run_gate(tmp_path, base, base) == 0
    assert "passed" in capsys.readouterr().out


def test_cli_fails_on_regression(tmp_path, capsys) -> None:
    assert run_gate(tmp_path, report(knn_batch=8.3), report(knn_batch=2.0)) == 1
    assert "FAILED" in capsys.readouterr().out


def test_cli_require_missing_family_fails(tmp_path, capsys) -> None:
    base = report(knn_batch=8.3)
    code = run_gate(tmp_path, base, base, "--require", "subseq_knn")
    assert code == 1
    assert "subseq_knn" in capsys.readouterr().out


def test_cli_require_present_family_passes(tmp_path, capsys) -> None:
    base = report(knn_batch=8.3, subseq_knn=1.0)
    code = run_gate(tmp_path, base, base, "--require", "subseq_knn")
    assert code == 0
    capsys.readouterr()
