"""Columnar-kernel parity: the frontier engine vs the node-object reference.

The frozen struct-of-arrays kernel (:mod:`repro.rtree.kernel`) must return
*identical* result sets to the recursive node-object traversals for every
workload it subsumes — range, fused multi-query range, incremental
nearest, multi-step k-NN and the index nested-loop join — across both
coordinate systems, all three build algorithms (Guttman insertion, R*
insertion, STR bulk load) and ``exploit_symmetry`` on/off.  The reference
paths stay in-tree precisely so these tests can hold the kernel to them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import queries as q
from repro.core.engine import SimilarityEngine
from repro.core.features import NormalFormSpace
from repro.core.transforms import moving_average, scale
from repro.data import SequenceRelation
from repro.data.synthetic import random_walks
from repro.rtree.guttman import GuttmanRTree
from repro.rtree.kernel import FrontierStats, FrozenRTree, frozen_kernel
from repro.rtree.rstar import RStarTree
from repro.rtree.search import incremental_nearest
from repro.rtree.transformed import TransformedIndexView

N = 64
COUNT = 120

#: (coord, exploit_symmetry, builder-name) grid of the acceptance criteria.
SPACES = [
    ("polar", False),
    ("polar", True),
    ("rect", False),
    ("rect", True),
]
BUILDS = [
    ("str-pack", dict(bulk_load=True, index_cls=RStarTree)),
    ("rstar-insert", dict(bulk_load=False, index_cls=RStarTree)),
    ("guttman-insert", dict(bulk_load=False, index_cls=GuttmanRTree)),
]


@pytest.fixture(scope="module")
def matrix() -> np.ndarray:
    return random_walks(COUNT, N, seed=97)


def build_engine(matrix, coord, symmetry, build_kwargs) -> SimilarityEngine:
    rel = SequenceRelation.from_matrix(matrix)
    space = NormalFormSpace(N, k=2, coord=coord, exploit_symmetry=symmetry)
    return SimilarityEngine(rel, space=space, max_entries=8, **build_kwargs)


def reference_view(engine, transformation=None) -> TransformedIndexView:
    """A view *without* the kernel — forces the recursive reference paths."""
    view = q._make_view(engine.tree, engine.space, transformation)
    view.kernel = None
    return view


def kernel_view(engine, transformation=None) -> TransformedIndexView:
    view = q._make_view(engine.tree, engine.space, transformation)
    assert view.kernel is not None
    return view


def probe_one(view, rect, **kwargs) -> np.ndarray:
    """The ids one query rectangle reaches: a batch-of-one probe."""
    return view.search_many(rect.lows[None, :], rect.highs[None, :], **kwargs)[0]


def transform_for(coord):
    # Theorem 2 limits S_rect to real stretch vectors; S_pol (Theorem 3)
    # takes the paper's moving average (complex stretch, zero shift).
    return moving_average(N, 8) if coord == "polar" else scale(N, 1.5)


@pytest.mark.parametrize("coord,symmetry", SPACES)
@pytest.mark.parametrize("build_name,build_kwargs", BUILDS)
class TestKernelParity:
    def test_range_ids_match_reference(
        self, matrix, coord, symmetry, build_name, build_kwargs
    ):
        eng = build_engine(matrix, coord, symmetry, build_kwargs)
        t = transform_for(coord)
        for transformation in (None, t):
            kv = kernel_view(eng, transformation)
            rv = reference_view(eng, transformation)
            for i in (0, 7, 33):
                for eps in (1.0, 4.0, 12.0):
                    qrect = eng.space.search_rect(eng.query_point(matrix[i]), eps)
                    got = sorted(probe_one(kv, qrect).tolist())
                    want = sorted(e.child for e in rv.search(qrect))
                    assert got == want, (build_name, coord, symmetry, i, eps)

    def test_fused_multi_query_range_matches_per_query(
        self, matrix, coord, symmetry, build_name, build_kwargs
    ):
        eng = build_engine(matrix, coord, symmetry, build_kwargs)
        t = transform_for(coord)
        kv = kernel_view(eng, t)
        rv = reference_view(eng, t)
        points = np.stack([eng.query_point(matrix[i]) for i in range(20)])
        qlows, qhighs = eng.space.search_rect_many(points, 5.0)
        fused = kv.search_many(qlows, qhighs)
        for i in range(20):
            from repro.rtree.geometry import Rect

            want = sorted(e.child for e in rv.search(Rect(qlows[i], qhighs[i])))
            assert sorted(fused[i].tolist()) == want, (build_name, coord, i)

    def test_knn_matches_reference(
        self, matrix, coord, symmetry, build_name, build_kwargs
    ):
        eng = build_engine(matrix, coord, symmetry, build_kwargs)
        t = transform_for(coord)
        for transformation in (None, t):
            rv = reference_view(eng, transformation)
            for i in (3, 41):
                for k in (1, 5, COUNT + 10):
                    args = (
                        eng.tree, eng.space, eng.ground_spectra,
                        eng.query_spectrum(matrix[i]), eng.query_point(matrix[i]), k,
                    )
                    got = q.knn_query(*args, transformation=transformation)
                    want = q.knn_query(*args, transformation=transformation, view=rv)
                    # identical ids and identical distance multisets
                    assert [r for r, _ in got] == [r for r, _ in want]
                    assert np.allclose(
                        [d for _, d in got], [d for _, d in want], atol=1e-9
                    ), (build_name, coord, symmetry, i, k)

    def test_incremental_nearest_stream_matches_reference(
        self, matrix, coord, symmetry, build_name, build_kwargs
    ):
        eng = build_engine(matrix, coord, symmetry, build_kwargs)
        t = transform_for(coord)
        kv = kernel_view(eng, t)
        rv = reference_view(eng, t)
        qp = eng.query_point(matrix[9])
        kwargs = dict(
            rect_dist_many=eng.space.rect_mindist_many,
            point_dist_many=eng.space.point_dist_many,
        )
        stream_k = incremental_nearest(kv, qp, **kwargs)
        stream_r = incremental_nearest(rv, qp, **kwargs)
        got = [(d, e.child) for d, e in (next(stream_k) for _ in range(40))]
        want = [(d, e.child) for d, e in (next(stream_r) for _ in range(40))]
        # distances stream out in the same non-decreasing order
        assert np.allclose([d for d, _ in got], [d for d, _ in want], atol=1e-9)
        assert all(a <= b + 1e-12 for (a, _), (b, _) in zip(got, got[1:]))
        # the prefix sets agree wherever distances are distinct
        assert sorted(r for _, r in got) == sorted(r for _, r in want)

    def test_join_pairs_match_reference(
        self, matrix, coord, symmetry, build_name, build_kwargs
    ):
        eng = build_engine(matrix, coord, symmetry, build_kwargs)
        t = transform_for(coord)
        eps = 3.0
        got = q.all_pairs_index(
            eng.tree, eng.space, eng.ground_spectra, eng.points, eps, t,
        )
        eng.tree._kernel_disabled = True  # the recursive reference join
        want = q.all_pairs_index(
            eng.tree, eng.space, eng.ground_spectra, eng.points, eps, t,
        )
        eng.tree._kernel_disabled = False
        assert [(i, j, round(d, 9)) for i, j, d in got] == [
            (i, j, round(d, 9)) for i, j, d in want
        ]


class TestFrozenImage:
    def test_arrays_round_trip(self, matrix):
        eng = build_engine(matrix, "polar", False, BUILDS[0][1])
        kernel = frozen_kernel(eng.tree)
        clone = FrozenRTree.from_arrays(kernel.to_arrays())
        for key, arr in kernel.to_arrays().items():
            assert np.array_equal(clone.to_arrays()[key], arr), key
        assert clone.size == len(eng.relation)
        assert clone.height == eng.tree.height

    def test_arrays_are_read_only(self, matrix):
        """A write through leaf_entries()' views would corrupt the kernel."""
        eng = build_engine(matrix, "polar", False, BUILDS[0][1])
        kernel = frozen_kernel(eng.tree)
        lows, highs, ids = kernel.leaf_entries()
        with pytest.raises(ValueError):
            lows[0] = 0.0
        with pytest.raises(ValueError):
            ids[0] = -1
        copies = {k: np.array(v) for k, v in kernel.to_arrays().items()}
        loaded = FrozenRTree.from_arrays(copies)
        for key, arr in loaded.to_arrays().items():
            assert key == "meta" or not arr.flags.writeable, key

    def test_mutation_invalidates_cache(self, matrix):
        eng = build_engine(matrix, "polar", False, BUILDS[1][1])
        before = frozen_kernel(eng.tree)
        assert frozen_kernel(eng.tree) is before  # cached
        eng.tree.insert_point(eng.points[0], 9999)
        after = frozen_kernel(eng.tree)
        assert after is not before
        assert after.size == before.size + 1
        qrect = eng.space.search_rect(eng.points[0], 1e-9)
        hits = after.range_ids_many(qrect.lows[None, :], qrect.highs[None, :])
        assert 9999 in hits[0].tolist()

    def test_long_lived_view_sees_mutations(self, matrix):
        """A view built before a mutation must not serve a stale kernel."""
        eng = build_engine(matrix, "polar", False, BUILDS[1][1])
        view = kernel_view(eng)
        qrect = eng.space.search_rect(eng.points[0], 1e-9)
        before = probe_one(view, qrect).tolist()
        assert 9999 not in before
        eng.tree.insert_point(eng.points[0], 9999)
        after = probe_one(view, qrect).tolist()
        assert 9999 in after
        assert sorted(after) == sorted(e.child for e in view.search(qrect))

    def test_refreeze_is_deferred_not_per_query(self, matrix):
        """Interleaved mutate/query must not pay an O(tree) refreeze per query.

        A stale cache serves ``None`` (reference path) for the first few
        accesses of a tree version and only refreezes once the same
        version keeps being queried; answers are correct throughout.
        """
        from repro.rtree.kernel import (
            REFREEZE_AFTER_STALE_READS,
            cached_kernel,
        )

        eng = build_engine(matrix, "polar", False, BUILDS[1][1])
        eng.tree.insert_point(eng.points[0], 9999)
        frozen_before = eng.tree._frozen_cache[1]
        for _ in range(REFREEZE_AFTER_STALE_READS - 1):
            assert cached_kernel(eng.tree) is None  # deferred, reference path
            assert eng.tree._frozen_cache[1] is frozen_before  # no rebuild yet
        rebuilt = cached_kernel(eng.tree)
        assert rebuilt is not None and rebuilt is not frozen_before
        assert cached_kernel(eng.tree) is rebuilt  # now cached and fresh
        # probes during the deferred window are still correct (they run the
        # recursive reference path against the live tree)
        eng.tree.insert_point(eng.points[1], 8888)
        view = eng.view()
        qrect = eng.space.search_rect(eng.points[1], 1e-9)
        assert 8888 in probe_one(view, qrect).tolist()

    def test_empty_tree_freezes_and_answers(self):
        tree = RStarTree(3)
        kernel = frozen_kernel(tree)
        assert kernel.size == 0
        hits = kernel.range_ids_many(np.zeros((1, 3)), np.ones((1, 3)))
        assert len(hits) == 1 and hits[0].size == 0
        assert list(kernel.nearest_stream(np.zeros(3))) == []
        assert kernel.knn_batch(np.zeros((2, 3)), 4, lambda qi, r: r) == [[], []]

    def test_frontier_stats_populated(self, matrix):
        eng = build_engine(matrix, "polar", False, BUILDS[0][1])
        fstats = FrontierStats()
        kv = kernel_view(eng)
        qrect = eng.space.search_rect(eng.query_point(matrix[0]), 5.0)
        probe_one(kv, qrect, fstats=fstats)
        assert fstats.nodes_expanded > 0
        assert fstats.entries_scanned >= fstats.nodes_expanded
        assert fstats.frontier_peak > 0
        assert set(fstats.as_dict()) == {
            "nodes_expanded", "entries_scanned", "frontier_peak"
        }

    def test_explain_reports_frontier_after_run(self, matrix):
        from repro.core.plan import QuerySpec

        eng = build_engine(matrix, "polar", False, BUILDS[0][1])
        plan = eng.plan(
            QuerySpec(kind="range", series=matrix[0], eps=4.0, method="index")
        )
        plan.execute()
        probe = plan.explain()["plan"]["children"][0]
        assert probe["op"] == "IndexProbe"
        assert probe["frontier"]["nodes_expanded"] > 0

        knn_plan = eng.plan(QuerySpec(kind="knn", series=matrix[:6], k=3))
        knn_plan.execute()
        assert knn_plan.explain()["plan"]["frontier"]["entries_scanned"] > 0

        join_plan = eng.plan(QuerySpec(kind="join", eps=2.0, method="index"))
        join_plan.execute()
        assert join_plan.explain()["plan"]["frontier"]["nodes_expanded"] > 0

    def test_explain_analyze_statement_carries_frontier(self, matrix):
        from repro.core.language import QuerySession

        session = QuerySession()
        session.bind_relation("r", SequenceRelation.from_matrix(matrix))
        session.bind_sequence("s0", matrix[0])
        out = session.execute("EXPLAIN ANALYZE RANGE s0 IN r EPS 4 PLAN index")
        probe = out["plan"]["children"][0]
        assert probe["frontier"]["entries_scanned"] > 0
        # plain EXPLAIN still compiles without running
        cold = session.execute("EXPLAIN RANGE s0 IN r EPS 4 PLAN index")
        assert "frontier" not in cold["plan"]["children"][0]


class TestSearchRectMany:
    @pytest.mark.parametrize("coord,symmetry", SPACES)
    def test_rows_match_scalar_construction(self, matrix, coord, symmetry):
        space = NormalFormSpace(N, k=2, coord=coord, exploit_symmetry=symmetry)
        points, _ = space.extract_many_with_spectra(matrix[:40])
        for eps in (0.0, 0.5, 6.0):
            lows, highs = space.search_rect_many(points, eps)
            for i in range(points.shape[0]):
                rect = space.search_rect(points[i], eps)
                assert np.allclose(lows[i], rect.lows, atol=1e-12), (coord, eps, i)
                assert np.allclose(highs[i], rect.highs, atol=1e-12), (coord, eps, i)

    def test_rows_metrics_match_many(self, matrix):
        space = NormalFormSpace(N, k=2, coord="polar")
        points, _ = space.extract_many_with_spectra(matrix[:30])
        qs = points[::-1].copy()
        rows = space.point_dist_rows(points, qs)
        for i in range(points.shape[0]):
            assert abs(rows[i] - space.point_dist(points[i], qs[i])) < 1e-9
        lows, highs = space.search_rect_many(points, 1.5)
        rrows = space.rect_mindist_rows(lows, highs, qs)
        for i in range(points.shape[0]):
            from repro.rtree.geometry import Rect

            want = space.rect_mindist(Rect(lows[i], highs[i]), qs[i])
            assert abs(rrows[i] - want) < 1e-9
