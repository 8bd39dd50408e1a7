"""Plan-API parity: ``plan(spec).execute()`` ≡ the oracle and the library paths.

Compiling a :class:`QuerySpec` and executing the resulting operator tree
must return the exact answers — checked against the numpy oracle of
``tests/test_batch_oracle.py`` and against the functions in
:mod:`repro.core.queries` and :mod:`repro.scan` — for range, k-NN and
all four join methods, with and without transformations, on every access
path, for a single series (a batch of one) and for batches.  Plus:
EXPLAIN output shape, planner routing, and error behaviour.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import queries as q
from repro.core.engine import SimilarityEngine
from repro.core.features import NormalFormSpace
from repro.core.plan import QuerySpec, dist_plan
from repro.core.transforms import identity, moving_average, reverse, scale
from repro.data import SequenceRelation
from repro.data.synthetic import random_walks
from repro.scan import scan_knn, scan_range
from test_batch_oracle import gap_eps, oracle_distances

N = 64


@pytest.fixture(scope="module")
def relation():
    return SequenceRelation.from_matrix(random_walks(160, N, seed=11))


@pytest.fixture(scope="module")
def engine(relation):
    return SimilarityEngine(relation)


def matches_equal(a, b):
    return [(r, round(d, 9)) for r, d in a] == [(r, round(d, 9)) for r, d in b]


def triples_equal(a, b):
    return [(i, j, round(d, 9)) for i, j, d in a] == [
        (i, j, round(d, 9)) for i, j, d in b
    ]


def oracle_row(relation, series, t=None, transform_query=False):
    """``D(T(record), q)`` (or ``T(q)``) for every record, numpy only."""
    return oracle_distances(
        "normal", relation.matrix, np.asarray(series)[None, :], t, transform_query
    )[0]


def assert_range_oracle(got, want, eps, tol=1e-9):
    """``got`` is the oracle's answer set; rows within ``tol`` of eps may go
    either way (the oracle and the engine round differently)."""
    ids = {r for r, _ in got}
    assert set(np.flatnonzero(want < eps - tol)) <= ids
    assert ids <= set(np.flatnonzero(want <= eps + tol))
    for r, d in got:
        assert d == pytest.approx(want[r], abs=1e-8)
    assert [d for _, d in got] == sorted(d for _, d in got)


TRANSFORMS = {
    "none": lambda n: None,
    "identity": lambda n: identity(n),
    "mavg10": lambda n: moving_average(n, 10),
    "reverse": lambda n: reverse(n),
    "scale2": lambda n: scale(n, 2.0),
}


# ----------------------------------------------------------------------
# range parity
# ----------------------------------------------------------------------
class TestRangeParity:
    @pytest.mark.parametrize("tname", list(TRANSFORMS))
    @pytest.mark.parametrize("transform_query", [False, True])
    def test_index_plan_matches_oracle(
        self, relation, engine, tname, transform_query
    ):
        t = TRANSFORMS[tname](N)
        series = relation.get(5)
        spec = QuerySpec(
            kind="range", series=series, eps=4.0, transformation=t,
            transform_query=transform_query, method="index",
        )
        got = engine.plan(spec).execute()
        want = oracle_row(relation, series, t, transform_query)
        assert_range_oracle(got, want, 4.0)

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        rid=st.integers(0, 159),
        eps=st.floats(0.1, 40.0),
        tname=st.sampled_from(list(TRANSFORMS)),
        method=st.sampled_from(["index", "scan", "auto"]),
    )
    def test_every_access_path_is_exact(self, relation, engine, rid, eps, tname, method):
        """Property: any spec routing returns the oracle's answer set."""
        t = TRANSFORMS[tname](N)
        series = relation.get(rid)
        spec = QuerySpec(
            kind="range", series=series, eps=eps, transformation=t,
            transform_query=True, method=method,
        )
        got = engine.plan(spec).execute()
        assert_range_oracle(got, oracle_row(relation, series, t, True), eps)

    def test_scan_plan_matches_seqscan(self, relation, engine):
        series = relation.get(9)
        t = moving_average(N, 10)
        spec = QuerySpec(
            kind="range", series=series, eps=6.0, transformation=t, method="scan"
        )
        got = engine.plan(spec).execute()
        want = scan_range(
            engine.ground_spectra, engine.query_spectrum(series), 6.0,
            transformation=t,
        )
        assert matches_equal(got, want)

    def test_aux_bounds_flow_through_plan(self, relation, engine):
        series = relation.get(0)
        mean = float(np.mean(series))
        bounds = [(mean - 1.0, mean + 1.0), (-1e18, 1e18)]
        spec = QuerySpec(
            kind="range", series=series, eps=6.0, aux_bounds=bounds, method="auto"
        )
        plan = engine.plan(spec)
        # aux bounds force the index path (only it can apply them).
        assert plan.logical.access_path == "index"
        assert matches_equal(
            plan.execute(), engine.range_query(series, 6.0, aux_bounds=bounds)
        )

    def test_aux_bounds_with_forced_scan_rejected(self, relation, engine):
        """A scan cannot apply aux bounds; dropping them silently would
        change the answer set, so the compile must refuse."""
        bounds = [(0.0, 1.0), (-1e18, 1e18)]
        with pytest.raises(ValueError):
            engine.plan(
                QuerySpec(kind="range", series=relation.get(0), eps=6.0,
                          aux_bounds=bounds, method="scan")
            )

    def test_empty_batch_auto_routes_cleanly(self, engine):
        """An empty (0, n) batch must not average an empty fraction list."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = engine.plan(
                QuerySpec(kind="range", series=np.empty((0, N)), eps=1.0,
                          method="auto")
            )
        assert plan.logical.access_path == "index"
        assert plan.logical.estimated_fraction is None
        assert plan.execute() == []


# ----------------------------------------------------------------------
# batch parity (the fused IndexProbe over many query rows)
# ----------------------------------------------------------------------
class TestBatchParity:
    @pytest.mark.parametrize("tname", ["none", "mavg10", "reverse"])
    @pytest.mark.parametrize("transform_query", [False, True])
    def test_fused_batch_range_matches_scalar_loop(
        self, relation, engine, tname, transform_query
    ):
        t = TRANSFORMS[tname](N)
        batch = relation.matrix[:25]
        got = engine.range_query_batch(
            batch, 5.0, transformation=t, transform_query=transform_query
        )
        assert len(got) == 25
        for i, row in enumerate(batch):
            want = engine.range_query(
                row, 5.0, transformation=t, transform_query=transform_query
            )
            assert matches_equal(got[i], want), f"query {i}"

    def test_fused_batch_candidates_match_per_query_search(self, relation, engine):
        """The shared descent yields exactly the per-query candidate sets."""
        batch = relation.matrix[:15]
        eps = 6.0
        view = q._make_view(engine.tree, engine.space, None)
        qlows = np.empty((15, engine.space.dim))
        qhighs = np.empty((15, engine.space.dim))
        for i, row in enumerate(batch):
            rect = engine.space.search_rect(engine.query_point(row), eps)
            qlows[i], qhighs[i] = rect.lows, rect.highs
        fused = view.search_many(qlows, qhighs)
        for i in range(15):
            from repro.rtree.geometry import Rect

            single = view.search(Rect(qlows[i], qhighs[i]))
            assert sorted(fused[i]) == sorted(e.child for e in single), f"query {i}"

    def test_batch_knn_matches_scalar(self, relation, engine):
        t = moving_average(N, 10)
        batch = relation.matrix[40:55]
        got = engine.knn_query_batch(batch, 7, transformation=t)
        for i, row in enumerate(batch):
            assert matches_equal(got[i], engine.knn_query(row, 7, transformation=t))

    def test_batch_scan_matches_scalar_scan(self, relation, engine):
        batch = relation.matrix[:10]
        t = moving_average(N, 10)
        spec = QuerySpec(
            kind="range", series=batch, eps=8.0, transformation=t,
            transform_query=True, method="scan",
        )
        got = engine.plan(spec).execute()
        for i, row in enumerate(batch):
            want = engine.range_query(
                row, 8.0, transformation=t, transform_query=True
            )
            assert matches_equal(got[i], want), f"query {i}"

    def test_batch_shape_validation(self, engine):
        with pytest.raises(ValueError):
            engine.range_query_batch(np.zeros((3, N + 1)), 1.0)


# ----------------------------------------------------------------------
# a single series is a batch of one, on every access path
# ----------------------------------------------------------------------
class TestSingleSeriesPlans:
    """One 1-D series through index / scan / auto in both coordinate
    systems, with no transformation, a transformation on the data side,
    and the symmetric ``transform_query`` form — answers from the oracle,
    EXPLAIN reporting a non-batch plan over the one query row."""

    @pytest.fixture(scope="class")
    def engines(self, relation):
        return {
            "polar": SimilarityEngine(relation),
            "rect": SimilarityEngine(
                relation, space=NormalFormSpace(N, 2, coord="rect")
            ),
        }

    @pytest.mark.parametrize("method", ["index", "scan", "auto"])
    @pytest.mark.parametrize("coord", ["rect", "polar"])
    @pytest.mark.parametrize("case", ["none", "transform", "transform_query"])
    def test_range_and_knn_match_oracle(self, relation, engines, method, coord, case):
        eng = engines[coord]
        # Theorem 2 limits rectangular coordinates to real stretches; the
        # moving average (a complex stretch) is safe in polar ones only.
        t = None
        if case != "none":
            t = moving_average(N, 10) if coord == "polar" else scale(N, 2.0)
        tq = case == "transform_query"
        series = random_walks(1, N, seed=808)[0]
        want = oracle_row(relation, series, t, tq)
        eps = gap_eps(want, 0.05)

        plan = eng.plan(
            QuerySpec(kind="range", series=series, eps=eps, transformation=t,
                      transform_query=tq, method=method)
        )
        assert_range_oracle(plan.execute(), want, eps)
        info = plan.explain()
        assert info["batch"] is False
        root = info["plan"]
        if info["access_path"] == "index":
            assert root["op"] == "Verify"
            assert root["children"][0]["op"] == "IndexProbe"
            assert root["children"][0]["queries"] == 1
        else:
            assert root["op"] == "SeqScan" and root["queries"] == 1
        if method != "auto":
            assert info["access_path"] == method

        knn = eng.plan(
            QuerySpec(kind="knn", series=series, k=7, transformation=t,
                      transform_query=tq, method=method)
        )
        got = knn.execute()
        order = np.argsort(want, kind="stable")[:7]
        assert [r for r, _ in got] == list(order)
        assert [d for _, d in got] == pytest.approx(list(want[order]), abs=1e-8)
        info = knn.explain()
        assert info["batch"] is False
        assert info["plan"]["op"] == ("SeqScan" if method == "scan" else "KnnSearch")
        assert info["plan"]["queries"] == 1


# ----------------------------------------------------------------------
# k-NN parity
# ----------------------------------------------------------------------
class TestKnnParity:
    @pytest.mark.parametrize("tname", list(TRANSFORMS))
    def test_index_plan_matches_oracle_knn(self, relation, engine, tname):
        t = TRANSFORMS[tname](N)
        series = relation.get(33)
        spec = QuerySpec(kind="knn", series=series, k=9, transformation=t)
        got = engine.plan(spec).execute()
        want = oracle_row(relation, series, t)
        order = np.argsort(want, kind="stable")[:9]
        assert [r for r, _ in got] == list(order)
        assert [d for _, d in got] == pytest.approx(list(want[order]), abs=1e-8)

    def test_scan_knn_agrees_with_index_knn(self, relation, engine):
        series = relation.get(2)
        idx = engine.plan(
            QuerySpec(kind="knn", series=series, k=5, method="index")
        ).execute()
        scn = engine.plan(
            QuerySpec(kind="knn", series=series, k=5, method="scan")
        ).execute()
        assert matches_equal(idx, scn)
        want = scan_knn(engine.ground_spectra, engine.query_spectrum(series), 5)
        assert matches_equal(scn, want)

    def test_invalid_k_rejected_at_compile(self, relation, engine):
        with pytest.raises(ValueError):
            engine.plan(QuerySpec(kind="knn", series=relation.get(0), k=-1))

    def test_k_zero_compiles_to_empty_answer(self, relation, engine):
        plan = engine.plan(QuerySpec(kind="knn", series=relation.get(0), k=0))
        assert plan.execute() == []


# ----------------------------------------------------------------------
# join parity (all four Table-1 methods)
# ----------------------------------------------------------------------
class TestJoinParity:
    @pytest.fixture(scope="class")
    def small_engine(self):
        rel = SequenceRelation.from_matrix(random_walks(50, N, seed=4))
        return SimilarityEngine(rel)

    @pytest.mark.parametrize("method", ["scan", "scan-abandon", "index", "tree-join"])
    @pytest.mark.parametrize("use_t", [False, True])
    def test_join_plan_matches_legacy(self, small_engine, method, use_t):
        eng = small_engine
        t = moving_average(N, 10) if use_t else None
        eps = 2.0
        got = eng.plan(
            QuerySpec(kind="join", eps=eps, transformation=t, method=method)
        ).execute()
        if method in ("scan", "scan-abandon"):
            want = q.all_pairs_scan(
                eng.ground_spectra, eps, t, early_abandon=(method == "scan-abandon")
            )
        elif method == "index":
            want = q.all_pairs_index(
                eng.tree, eng.space, eng.ground_spectra, eng.points, eps, t
            )
        else:
            want = q.all_pairs_tree_join(
                eng.tree, eng.space, eng.ground_spectra, eps, t
            )
        assert triples_equal(got, want)

    def test_auto_join_resolves_to_index(self, small_engine):
        plan = small_engine.plan(QuerySpec(kind="join", eps=1.0, method="auto"))
        assert plan.logical.access_path == "index"

    def test_unknown_join_method_rejected(self, small_engine):
        with pytest.raises(ValueError):
            small_engine.plan(QuerySpec(kind="join", eps=1.0, method="quantum"))


# ----------------------------------------------------------------------
# dist
# ----------------------------------------------------------------------
class TestDist:
    def test_dist_spec_matches_direct_norm(self, relation, engine):
        a, b = relation.get(0), relation.get(1)
        t = moving_average(N, 5)
        got = engine.plan(
            QuerySpec(kind="dist", series=a, other=b, transformation=t,
                      transform_query=True)
        ).execute()
        ta = np.asarray(t.apply_series(a))
        tb = np.asarray(t.apply_series(b))
        assert got == pytest.approx(float(np.linalg.norm(ta - tb)))

    def test_standalone_dist_plan(self, relation):
        a, b = relation.get(2), relation.get(3)
        assert dist_plan(a, b).execute() == pytest.approx(
            float(np.linalg.norm(a - b))
        )

    def test_length_mismatch_rejected(self, engine):
        with pytest.raises(ValueError):
            dist_plan(np.zeros(8), np.zeros(9))


# ----------------------------------------------------------------------
# planner routing + EXPLAIN shape
# ----------------------------------------------------------------------
EXPLAIN_KEYS = {
    "kind", "access_path", "method_hint", "batch",
    "estimated_candidate_fraction", "crossover_fraction", "reason",
    "eps", "k", "transformation", "transform_query", "plan",
    "degraded_from", "budget",
}


class TestExplain:
    def test_auto_routes_broad_queries_to_scan(self, relation, engine):
        series = relation.get(0)
        narrow = engine.plan(
            QuerySpec(kind="range", series=series, eps=0.5, method="auto")
        )
        broad = engine.plan(
            QuerySpec(kind="range", series=series, eps=50.0, method="auto")
        )
        assert narrow.logical.access_path == "index"
        assert broad.logical.access_path == "scan"
        assert broad.logical.estimated_fraction > narrow.logical.estimated_fraction
        # routing never changes the answer set
        assert matches_equal(broad.execute(), engine.range_query(series, 50.0))

    def test_explain_shape(self, relation, engine):
        info = engine.explain(
            QuerySpec(kind="range", series=relation.get(0), eps=2.0,
                      transformation=moving_average(N, 10), method="auto")
        )
        assert set(info) == EXPLAIN_KEYS
        assert info["kind"] == "range"
        assert info["access_path"] in ("index", "scan")
        assert 0.0 <= info["estimated_candidate_fraction"] <= 1.0
        assert info["crossover_fraction"] == pytest.approx(0.15)
        assert info["transformation"] == "mavg10"
        tree = info["plan"]
        assert "op" in tree
        if tree["op"] == "Verify":
            assert tree["children"][0]["op"] == "IndexProbe"
        else:
            assert tree["op"] == "SeqScan"

    def test_explain_reports_per_operator_io_after_execute(self, relation, engine):
        plan = engine.plan(
            QuerySpec(kind="range", series=relation.get(7), eps=4.0, method="index")
        )
        assert "io" not in plan.explain()["plan"]  # not executed yet
        plan.execute()
        tree = plan.explain()["plan"]
        assert tree["op"] == "Verify" and "io" in tree
        probe = tree["children"][0]
        assert probe["op"] == "IndexProbe"
        assert probe["io"].get("candidate_count", 0) == tree["io"].get(
            "candidate_count", 0
        )

    def test_batch_explain_uses_batch_probe(self, relation, engine):
        info = engine.explain(
            QuerySpec(kind="range", series=relation.matrix[:4], eps=2.0,
                      method="index")
        )
        assert info["batch"] is True
        assert info["plan"]["children"][0]["op"] == "IndexProbe"
        assert info["plan"]["children"][0]["queries"] == 4

    def test_unknown_kind_and_method_rejected(self, relation, engine):
        with pytest.raises(ValueError):
            engine.plan(QuerySpec(kind="fuzzy", series=relation.get(0)))
        with pytest.raises(ValueError):
            engine.plan(
                QuerySpec(kind="range", series=relation.get(0), eps=1.0,
                          method="quantum")
            )


# ----------------------------------------------------------------------
# language-level EXPLAIN / PLAN
# ----------------------------------------------------------------------
class TestLanguagePlans:
    @pytest.fixture(scope="class")
    def session(self, relation):
        from repro.core.language import QuerySession

        s = QuerySession()
        s.bind_relation("walks", relation)
        s.bind_sequence("q", relation.get(0))
        s.bind_sequence("p", relation.get(1))
        return s

    def test_plan_hints_do_not_change_answers(self, session):
        a = session.execute("RANGE q IN walks EPS 3.0 USING mavg(10) PLAN index")
        b = session.execute("RANGE q IN walks EPS 3.0 USING mavg(10) PLAN scan")
        c = session.execute("RANGE q IN walks EPS 3.0 USING mavg(10) PLAN auto")
        assert matches_equal(a, b) and matches_equal(b, c)

    def test_explain_statement_returns_plan_dict(self, session):
        info = session.execute("EXPLAIN RANGE q IN walks EPS 50 USING mavg(10)")
        assert isinstance(info, dict)
        assert set(info) == EXPLAIN_KEYS
        assert info["access_path"] == "scan"  # eps 50 is a broad query
        info2 = session.execute("EXPLAIN KNN q IN walks K 3")
        assert info2["kind"] == "knn" and info2["plan"]["op"] == "KnnSearch"
        info3 = session.execute("EXPLAIN JOIN walks EPS 1 METHOD index")
        assert info3["plan"]["op"] == "PairJoin"
        info4 = session.execute("EXPLAIN DIST q, p")
        assert info4["plan"]["op"] == "DistCompute"

    def test_bad_plan_hint_rejected(self, session):
        from repro.core.language import QueryError

        with pytest.raises(QueryError):
            session.execute("RANGE q IN walks EPS 1 PLAN quantum")


# ----------------------------------------------------------------------
# serial execution
# ----------------------------------------------------------------------
def test_queries_start_no_threads(relation, engine):
    """Every query kind runs on the calling thread.

    ``IOStats`` and ``ResourceBudget`` carry no locks; this pins the
    premise that lets them.
    """
    import threading

    before = threading.active_count()
    batch = relation.matrix[:8]
    engine.plan(QuerySpec(kind="range", series=batch, eps=5.0)).execute()
    engine.plan(QuerySpec(kind="knn", series=batch, k=5)).execute()
    engine.plan(QuerySpec(kind="join", eps=1.0, method="index")).execute()
    st_index = engine.subseq_index(window=16)
    st_index.plan(
        QuerySpec(kind="subseq_range", series=relation.get(3)[:24], eps=2.0)
    ).execute()
    assert threading.active_count() == before
