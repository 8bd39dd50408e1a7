"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import load_relation, main, save_relation
from repro.data import SequenceRelation


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "rel.csv"
    rel = SequenceRelation.from_matrix(
        np.cumsum(np.random.default_rng(0).uniform(-1, 1, (30, 32)), axis=1) + 50
    )
    save_relation(rel, str(path))
    return str(path)


class TestIO:
    def test_roundtrip(self, csv_path):
        rel = load_relation(csv_path)
        assert len(rel) == 30
        assert rel.length == 32

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("# header\n1,2,3\n\n4,5,6  # named\n")
        rel = load_relation(str(path))
        assert len(rel) == 2

    def test_bad_row_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2,x\n")
        with pytest.raises(SystemExit):
            load_relation(str(path))

    def test_inconsistent_lengths_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("1,2,3\n1,2\n")
        with pytest.raises(SystemExit):
            load_relation(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("# nothing\n")
        with pytest.raises(SystemExit):
            load_relation(str(path))


class TestCommands:
    def test_generate_walks(self, tmp_path, capsys):
        out = str(tmp_path / "gen.csv")
        assert main(["generate", out, "--count", "10", "--length", "16"]) == 0
        rel = load_relation(out)
        assert len(rel) == 10 and rel.length == 16

    def test_generate_stocks(self, tmp_path):
        out = str(tmp_path / "gen.csv")
        assert main(
            ["generate", out, "--kind", "stocks", "--count", "12", "--length", "32"]
        ) == 0
        assert len(load_relation(out)) == 12

    def test_generate_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["generate", a, "--count", "5", "--length", "8", "--seed", "3"])
        main(["generate", b, "--count", "5", "--length", "8", "--seed", "3"])
        assert open(a).read() == open(b).read()

    def test_info(self, csv_path, capsys):
        assert main(["info", csv_path]) == 0
        out = capsys.readouterr().out
        assert "30 series of length 32" in out
        assert "RStarTree" in out

    def test_query_range(self, csv_path, capsys):
        assert main(["query", csv_path, "RANGE s0 IN r EPS 2.0 USING mavg(4)"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert any(line.startswith("0,") for line in out)  # self-match

    def test_query_knn(self, csv_path, capsys):
        assert main(["query", csv_path, "KNN s1 IN r K 3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3

    def test_query_join_limit(self, csv_path, capsys):
        assert main(["query", csv_path, "JOIN r EPS 50.0", "--limit", "5"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) <= 5

    def test_query_dist(self, csv_path, capsys):
        assert main(["query", csv_path, "DIST s0, s1"]) == 0
        float(capsys.readouterr().out.strip())  # parses as a number

    def test_query_error_is_graceful(self, csv_path, capsys):
        assert main(["query", csv_path, "RANGE nope IN r EPS 1"]) == 1
        assert "query error" in capsys.readouterr().err


class TestGovernanceAndHealth:
    def test_health_verb_prints_json_report(self, csv_path, capsys):
        import json

        assert main(["query", csv_path, "HEALTH r"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ok"
        assert set(report["components"]) == {
            "relation", "index", "kernel", "persistence",
        }
        assert report["components"]["relation"]["status"] == "ok"

    def test_explain_json_carries_degraded_and_budget_fields(
        self, csv_path, capsys
    ):
        import json

        assert main(
            ["query", csv_path, "EXPLAIN RANGE s0 IN r EPS 2 BUDGET 250"]
        ) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["degraded_from"] is None
        assert info["budget"]["deadline_ms"] == 250
        assert info["budget"]["truncated"] is False

    def test_explain_without_budget_reports_null(self, csv_path, capsys):
        import json

        assert main(["query", csv_path, "EXPLAIN KNN s0 IN r K 3"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["budget"] is None
        assert info["degraded_from"] is None

    def test_budgeted_query_runs(self, csv_path, capsys):
        # a generous deadline: the query completes normally
        assert main(
            ["query", csv_path, "RANGE s0 IN r EPS 2.0 BUDGET 60000"]
        ) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert any(line.startswith("0,") for line in out)

    def test_blown_budget_is_a_graceful_query_error(self, csv_path, capsys):
        assert main(
            ["query", csv_path, "JOIN r EPS 50.0 BUDGET 0.0001"]
        ) == 1
        assert "budget exceeded" in capsys.readouterr().err

    def test_bad_budget_rejected(self, csv_path, capsys):
        assert main(["query", csv_path, "RANGE s0 IN r EPS 2 BUDGET -1"]) == 1
        assert "query error" in capsys.readouterr().err

    def test_health_unknown_relation_is_graceful(self, csv_path, capsys):
        assert main(["query", csv_path, "HEALTH nope"]) == 1
        assert "query error" in capsys.readouterr().err
