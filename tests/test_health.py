"""Engine health reports and planner-level graceful degradation."""


import pytest

from repro.core.engine import SimilarityEngine
from repro.core.health import ComponentHealth, HealthReport
from repro.core.language import QueryError, QuerySession, parse
from repro.core.plan import QuerySpec
from repro.data.relation import SequenceRelation
from repro.data.synthetic import random_walks
from repro.rtree.kernel import cached_kernel, frozen_kernel
from repro.storage.manifest import CorruptIndexError

N, LENGTH = 50, 32


@pytest.fixture
def engine():
    rel = SequenceRelation.from_matrix(random_walks(N, LENGTH, seed=5))
    return SimilarityEngine(rel)


class TestHealthReportUnit:
    def test_worst_of_overall(self):
        r = HealthReport(
            [
                ComponentHealth("a", "ok"),
                ComponentHealth("b", "degraded", "why"),
                ComponentHealth("c", "ok"),
            ]
        )
        assert r.status == "degraded"
        assert not r.ok
        assert r.component("b").detail == "why"

    def test_failed_beats_degraded(self):
        r = HealthReport(
            [ComponentHealth("a", "degraded"), ComponentHealth("b", "failed")]
        )
        assert r.status == "failed"

    def test_empty_report_is_ok(self):
        assert HealthReport([]).ok

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError):
            HealthReport([ComponentHealth("a", "meh")])

    def test_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            HealthReport([]).component("kernel")

    def test_as_dict_shape(self):
        d = HealthReport([ComponentHealth("a", "ok", "fine")]).as_dict()
        assert d == {
            "status": "ok",
            "components": {"a": {"status": "ok", "detail": "fine"}},
        }


class TestEngineHealth:
    def test_fresh_engine_is_all_ok(self, engine):
        report = engine.health()
        assert report.ok
        assert {c.name for c in report.components} == {
            "relation", "index", "kernel", "persistence",
        }
        assert report.component("persistence").detail.startswith("built in memory")

    def test_kernel_disabled_reports_degraded(self, engine):
        engine.tree._kernel_disabled = True
        report = engine.health()
        assert report.status == "degraded"
        assert report.component("kernel").status == "degraded"
        assert report.component("index").status == "ok"

    def test_index_failed_reports_failed(self, engine):
        engine._index_failed = "checksum mismatch"
        report = engine.health()
        assert report.status == "failed"
        assert report.component("index").status == "failed"
        assert report.component("kernel").status == "failed"


class TestKernelDegradation:
    def test_disabled_kernel_blocks_frozen_and_cached(self, engine):
        engine.tree._kernel_disabled = True
        assert cached_kernel(engine.tree) is None
        with pytest.raises(CorruptIndexError):
            frozen_kernel(engine.tree)

    def test_queries_fall_back_to_reference_path(self, engine):
        q = engine.relation.get(0)
        expected = engine.range_query(q, eps=6.0)
        knn_spec = QuerySpec(kind="knn", series=q, k=5, method="index")
        knn_expected = engine.plan(knn_spec).execute()
        engine.tree._kernel_disabled = True
        assert engine.range_query(q, eps=6.0) == expected
        # the best-first reference returns the seeded-radius k-NN's ids
        knn_got = engine.plan(knn_spec).execute()
        assert [r for r, _ in knn_got] == [r for r, _ in knn_expected]
        assert [d for _, d in knn_got] == pytest.approx(
            [d for _, d in knn_expected], abs=1e-9
        )

    def test_explain_records_kernel_degradation(self, engine):
        engine.tree._kernel_disabled = True
        info = engine.explain(
            QuerySpec(
                kind="range", series=engine.relation.get(0), eps=2.0,
                method="index",
            )
        )
        assert info["access_path"] == "index"
        assert info["degraded_from"] == "frozen-kernel"


class TestIndexDegradation:
    def test_range_reroutes_to_scan(self, engine):
        q = engine.relation.get(0)
        expected = engine.range_query(q, eps=6.0)
        engine._index_failed = "index.pages failed its checksum"
        info = engine.explain(
            QuerySpec(kind="range", series=q, eps=6.0, method="index")
        )
        assert info["access_path"] == "scan"
        assert info["degraded_from"] == "index"
        assert engine.range_query(q, eps=6.0) == expected

    def test_knn_reroutes_to_scan(self, engine):
        q = engine.relation.get(2)
        expected = engine.knn_query(q, k=4)
        engine._index_failed = "bad pages"
        got = engine.plan(
            QuerySpec(kind="knn", series=q, k=4, method="index")
        ).execute()
        assert [r for r, _ in got] == [r for r, _ in expected]

    def test_join_abandons_index_methods(self, engine):
        expected = engine.plan(
            QuerySpec(kind="join", eps=3.0, method="index")
        ).execute()
        engine._index_failed = "bad pages"
        info = engine.explain(QuerySpec(kind="join", eps=3.0, method="index"))
        assert info["degraded_from"] == "index"
        got = engine.plan(QuerySpec(kind="join", eps=3.0, method="index")).execute()
        # pair sets agree; distances may differ in the last ulp between
        # the index join's and the scan-abandon join's verification order
        assert sorted((i, j) for i, j, _ in got) == sorted(
            (i, j) for i, j, _ in expected
        )

    def test_aux_bounds_cannot_degrade(self, engine):
        engine._index_failed = "bad pages"
        with pytest.raises(CorruptIndexError):
            engine.plan(
                QuerySpec(
                    kind="range", series=engine.relation.get(0), eps=2.0,
                    aux_bounds=[(0.0, 1.0)],
                    method="index",
                )
            )


class TestHealthLanguage:
    @pytest.fixture
    def session(self, engine):
        s = QuerySession()
        s.bind_relation("walks", engine.relation)
        s.bind_sequence("q", engine.relation.get(0))
        return s

    def test_health_statement(self, session):
        report = session.execute("HEALTH walks")
        assert report["status"] == "ok"

    def test_explain_health_rejected(self):
        with pytest.raises(QueryError, match="EXPLAIN"):
            parse("EXPLAIN HEALTH walks")

    def test_health_requires_relation_name(self):
        with pytest.raises(QueryError):
            parse("HEALTH")

    def test_budget_clause_parses(self):
        node = parse("RANGE q IN r EPS 2 BUDGET 100")
        assert node.budget_ms == 100
        node = parse("KNN SUBSEQ q IN r K 3 WINDOW 8 BUDGET 5")
        assert node.budget_ms == 5

    def test_budget_must_be_positive(self):
        with pytest.raises(QueryError, match="BUDGET"):
            parse("RANGE q IN r EPS 2 BUDGET 0")
