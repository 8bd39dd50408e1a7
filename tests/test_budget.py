"""Query governance: ResourceBudget semantics across every query path.

The two properties that matter:

* an all-``None`` budget never fires — results are identical to the
  unbudgeted run on range, k-NN, join and subsequence paths;
* a binding budget terminates the query promptly — range-style paths
  raise :class:`QueryBudgetExceeded` (surfaced as ``QueryError`` by the
  language), k-NN paths truncate to exact partial results.
"""

import time

import numpy as np
import pytest

from repro.core.engine import SimilarityEngine
from repro.core.plan import QuerySpec
from repro.data.relation import SequenceRelation
from repro.data.synthetic import random_walks
from repro.storage.budget import QueryBudgetExceeded, ResourceBudget
from repro.subseq.stindex import STIndex

N, LENGTH = 60, 32


@pytest.fixture(scope="module")
def engine():
    rel = SequenceRelation.from_matrix(random_walks(N, LENGTH, seed=7))
    return SimilarityEngine(rel)


class TestResourceBudgetUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceBudget(deadline_ms=0)
        with pytest.raises(ValueError):
            ResourceBudget(deadline_ms=-5)

    def test_unlimited_budget_never_fires(self):
        b = ResourceBudget()
        assert b.unlimited
        b.start()
        assert b.exceeded(10**9) is None
        b.check(10**9)  # no raise
        b.charge_candidates(10**9)

    def test_deadline_fires(self):
        b = ResourceBudget(deadline_ms=0.001).start()
        time.sleep(0.002)
        assert b.exceeded() == "deadline"
        with pytest.raises(QueryBudgetExceeded) as exc:
            b.check()
        assert exc.value.kind == "deadline"

    def test_frontier_cap(self):
        b = ResourceBudget(max_frontier=100).start()
        assert b.exceeded(100) is None
        assert b.exceeded(101) == "frontier"

    def test_candidate_cap(self):
        b = ResourceBudget(max_candidates=10).start()
        b.charge_candidates(10)
        with pytest.raises(QueryBudgetExceeded) as exc:
            b.charge_candidates(1)
        assert exc.value.kind == "candidates"

    def test_start_rearms(self):
        b = ResourceBudget(deadline_ms=10_000, max_candidates=5).start()
        b.truncated = True
        b.consume(5)
        b.start()
        assert not b.truncated
        assert b.candidates == 0
        assert b.exceeded() is None  # fresh, far-away deadline

    def test_as_dict(self):
        d = ResourceBudget(deadline_ms=50, max_candidates=9).as_dict()
        assert d == {
            "deadline_ms": 50,
            "max_candidates": 9,
            "max_frontier": None,
            "truncated": False,
        }


class TestRangeBudget:
    def q(self, engine, budget, method="index"):
        return engine.plan(
            QuerySpec(
                kind="range", series=engine.relation.get(0), eps=8.0,
                method=method, budget=budget,
            )
        ).execute()

    def test_unlimited_parity(self, engine):
        free = self.q(engine, None)
        budgeted = self.q(engine, ResourceBudget())
        assert budgeted == free

    def test_candidate_cap_raises(self, engine):
        free = self.q(engine, None)
        assert free  # the query has candidates to cap
        with pytest.raises(QueryBudgetExceeded):
            self.q(engine, ResourceBudget(max_candidates=0))

    def test_deadline_raises_on_scan_too(self, engine):
        budget = ResourceBudget(deadline_ms=0.0001)
        budget.start()
        time.sleep(0.001)
        with pytest.raises(QueryBudgetExceeded):
            self.q(engine, budget, method="scan")

    def test_frontier_cap_raises(self, engine):
        with pytest.raises(QueryBudgetExceeded):
            self.q(engine, ResourceBudget(max_frontier=1))


class TestKnnBudget:
    def knn(self, engine, budget, k=5):
        return engine.plan(
            QuerySpec(
                kind="knn", series=engine.relation.get(3), k=k,
                method="index", budget=budget,
            )
        ).execute()

    def test_unlimited_parity(self, engine):
        free = self.knn(engine, None)
        budgeted = self.knn(engine, ResourceBudget())
        assert [r for r, _ in budgeted] == [r for r, _ in free]

    def test_truncation_returns_exact_partials(self, engine):
        budget = ResourceBudget(max_frontier=1)
        got = self.knn(engine, budget)
        assert budget.truncated
        # the verified rows found before the limit fired come back
        assert 0 < len(got) <= 5
        # whatever was returned is exactly verified: distances match a
        # direct computation in the engine's (normal-form) metric
        def normal(x):
            return (x - x.mean()) / x.std()

        q = normal(engine.relation.get(3))
        for rid, d in got:
            true = float(np.linalg.norm(normal(engine.relation.get(rid)) - q))
            assert d == pytest.approx(true, abs=1e-6)

    def test_batch_knn_parity(self, engine):
        qs = np.stack([engine.relation.get(i) for i in range(4)])
        free = engine.knn_query_batch(qs, k=3)
        spec = QuerySpec(
            kind="knn", series=qs, k=3, method="index",
            budget=ResourceBudget(),
        )
        budgeted = engine.plan(spec).execute()
        assert [[r for r, _ in row] for row in budgeted] == [
            [r for r, _ in row] for row in free
        ]


class TestJoinBudget:
    def test_unlimited_parity(self, engine):
        free = engine.plan(
            QuerySpec(kind="join", eps=3.0, method="index")
        ).execute()
        budgeted = engine.plan(
            QuerySpec(kind="join", eps=3.0, method="index", budget=ResourceBudget())
        ).execute()
        assert budgeted == free

    def test_deadline_raises(self, engine):
        budget = ResourceBudget(deadline_ms=0.0001)
        budget.start()
        time.sleep(0.001)
        with pytest.raises(QueryBudgetExceeded):
            engine.plan(
                QuerySpec(kind="join", eps=3.0, method="index", budget=budget)
            ).execute()


class TestSubseqBudget:
    """The acceptance workload: 200 series x 1024 points."""

    @pytest.fixture(scope="class")
    def stindex(self):
        idx = STIndex(window=64)
        idx.add_series_many(random_walks(200, 1024, seed=11))
        idx.kernel  # freeze once so timing below is pure query time
        return idx

    def test_budgeted_range_terminates_within_deadline(self, stindex):
        q = stindex.series(0)[:256] + 0.25
        budget = ResourceBudget(deadline_ms=0.01)
        t0 = time.perf_counter()
        with pytest.raises(QueryBudgetExceeded):
            stindex.plan(
                QuerySpec(
                    kind="subseq_range", series=q, eps=40.0, window=64,
                    budget=budget,
                )
            ).execute()
        # prompt termination: orders of magnitude under a second even
        # though the unbudgeted query visits thousands of windows
        assert time.perf_counter() - t0 < 2.0

    def test_unlimited_budget_matches_brute_force(self, stindex):
        q = stindex.series(3)[:128]
        eps = 10.0
        got = stindex.plan(
            QuerySpec(
                kind="subseq_range", series=q, eps=eps, window=64,
                budget=ResourceBudget(),
            )
        ).execute()
        expected = stindex.brute_force(q, eps)
        assert [(m.series_id, m.offset) for m in got] == [
            (m.series_id, m.offset) for m in expected
        ]

    def test_subseq_knn_unlimited_parity(self, stindex):
        q = stindex.series(5)[:96]
        free = stindex.plan(
            QuerySpec(kind="subseq_knn", series=q, k=4, window=64)
        ).execute()
        budgeted = stindex.plan(
            QuerySpec(
                kind="subseq_knn", series=q, k=4, window=64,
                budget=ResourceBudget(),
            )
        ).execute()
        assert [(m.series_id, m.offset) for m in budgeted] == [
            (m.series_id, m.offset) for m in free
        ]

    def test_subseq_knn_truncates(self, stindex):
        q = stindex.series(5)[:96]
        budget = ResourceBudget(max_frontier=1)
        got = stindex.plan(
            QuerySpec(
                kind="subseq_knn", series=q, k=4, window=64, budget=budget,
            )
        ).execute()
        assert budget.truncated
        assert len(got) <= 4

    def test_candidate_cap_raises(self, stindex):
        q = stindex.series(0)[:256] + 0.25
        with pytest.raises(QueryBudgetExceeded):
            stindex.plan(
                QuerySpec(
                    kind="subseq_range", series=q, eps=40.0, window=64,
                    budget=ResourceBudget(max_candidates=1),
                )
            ).execute()


class TestExplainBudget:
    def test_explain_reports_budget(self, engine):
        info = engine.explain(
            QuerySpec(
                kind="range", series=engine.relation.get(0), eps=2.0,
                budget=ResourceBudget(deadline_ms=25, max_candidates=500),
            )
        )
        assert info["budget"] == {
            "deadline_ms": 25,
            "max_candidates": 500,
            "max_frontier": None,
            "truncated": False,
        }
        assert info["degraded_from"] is None

    def test_explain_without_budget(self, engine):
        info = engine.explain(
            QuerySpec(kind="range", series=engine.relation.get(0), eps=2.0)
        )
        assert info["budget"] is None
