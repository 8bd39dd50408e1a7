"""k-NN edge cases, defined once in the kernel (regression tests).

The contract — uniform across the scalar and batch paths and both access
paths: ``k == 0`` returns an empty answer (it used to raise on some paths
and not others), ``k > len(relation)`` returns every record, an empty
relation returns empty answers, and negative ``k`` raises everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import queries
from repro.core.engine import SimilarityEngine
from repro.core.features import NormalFormSpace
from repro.core.plan import QuerySpec
from repro.core.transforms import moving_average
from repro.data import SequenceRelation
from repro.data.synthetic import random_walks
from repro.scan import scan_knn

N = 48
COUNT = 30


@pytest.fixture(scope="module")
def matrix() -> np.ndarray:
    return random_walks(COUNT, N, seed=11)


@pytest.fixture(scope="module")
def engine(matrix) -> SimilarityEngine:
    return SimilarityEngine(SequenceRelation.from_matrix(matrix))


@pytest.fixture(scope="module")
def empty_engine() -> SimilarityEngine:
    return SimilarityEngine(SequenceRelation(N))


class TestKZero:
    @pytest.mark.parametrize("method", ["index", "scan", "auto"])
    def test_scalar_returns_empty(self, engine, matrix, method):
        assert engine.knn_query(matrix[0], 0, method=method) == []

    @pytest.mark.parametrize("method", ["index", "scan", "auto"])
    def test_batch_returns_empty_per_query(self, engine, matrix, method):
        got = engine.knn_query_batch(matrix[:4], 0, method=method)
        assert got == [[], [], [], []]

    def test_scan_knn_returns_empty(self, engine):
        assert scan_knn(engine.ground_spectra, engine.ground_spectra[0], 0) == []


class TestKExceedsRelation:
    @pytest.mark.parametrize("method", ["index", "scan"])
    def test_scalar_returns_all(self, engine, matrix, method):
        got = engine.knn_query(matrix[0], COUNT + 25, method=method)
        assert sorted(r for r, _ in got) == list(range(COUNT))

    def test_batch_returns_all(self, engine, matrix):
        got = engine.knn_query_batch(matrix[:3], COUNT + 25)
        for per_query in got:
            assert sorted(r for r, _ in per_query) == list(range(COUNT))

    def test_batch_matches_scalar_order(self, engine, matrix):
        got = engine.knn_query_batch(matrix[:3], COUNT)
        for i in range(3):
            want = engine.knn_query(matrix[i], COUNT)
            assert [(r, round(d, 9)) for r, d in got[i]] == [
                (r, round(d, 9)) for r, d in want
            ]


def knn(engine, series, k, method, t):
    return engine.plan(
        QuerySpec(kind="knn", series=series, k=k, method=method, transformation=t)
    ).execute()


def assert_same(got, want):
    assert [r for r, _ in got] == [r for r, _ in want]
    assert [d for _, d in got] == pytest.approx([d for _, d in want], abs=1e-9)


class TestTies:
    """Equal distances resolve to the lowest record id on both paths.

    Every row of the relation appears at least twice, so ties straddle
    the k-th position and the index path's seed pool; the index answer
    must equal the scan's list for list.
    """

    @pytest.fixture(scope="class")
    def dup_engine(self, matrix) -> SimilarityEngine:
        rows = np.concatenate([matrix, matrix[::-1], matrix[[3, 3, 3]]])
        return SimilarityEngine(SequenceRelation.from_matrix(rows))

    @pytest.mark.parametrize("block", [None, 3])
    @pytest.mark.parametrize("mavg", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_index_equals_scan(self, dup_engine, matrix, mavg, k, block, monkeypatch):
        if block is not None:
            # verify candidates a few rows at a time: ties must survive the
            # radius tightening between blocks
            monkeypatch.setattr(queries, "_VERIFY_BLOCK", block)
        t = moving_average(N, 8) if mavg else None
        batch = np.stack([matrix[3], matrix[0], random_walks(1, N, seed=99)[0]])
        for series in batch:
            assert_same(
                knn(dup_engine, series, k, "index", t),
                knn(dup_engine, series, k, "scan", t),
            )
        got = knn(dup_engine, batch, k, "index", t)
        want = knn(dup_engine, batch, k, "scan", t)
        for g, w in zip(got, want):
            assert_same(g, w)

    @pytest.mark.parametrize("mavg", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 5, 9])
    def test_kernel_less_reference_equals_scan(self, dup_engine, mavg, k, monkeypatch):
        """The degraded tier's best-first walk breaks ties by id too."""
        monkeypatch.setattr(dup_engine.tree, "_kernel_disabled", True, raising=False)
        t = moving_average(N, 8) if mavg else None
        spec = QuerySpec(kind="knn", series=np.zeros(N), k=k, transformation=t)
        assert dup_engine.explain(spec)["degraded_from"] == "frozen-kernel"
        for series in random_walks(20, N, seed=2024):
            assert_same(
                knn(dup_engine, series, k, "index", t),
                knn(dup_engine, series, k, "scan", t),
            )

    def test_copies_of_the_query_come_back_in_id_order(self, dup_engine, matrix):
        # matrix[3] sits at ids 3, 2*COUNT-4 and the three appended rows
        got = knn(dup_engine, matrix[3], 5, "index", None)
        appended = [2 * COUNT, 2 * COUNT + 1, 2 * COUNT + 2]
        assert [r for r, _ in got] == [3, 2 * COUNT - 4, *appended]
        assert [d for _, d in got] == pytest.approx([0.0] * 5, abs=1e-9)


class TestVerifyBlocks:
    """Candidates verified a few rows at a time give the scan's answer.

    Blocks run in bound order and each tightens the radius, so stopping
    at the first block beyond it is exact only if that order holds.
    """

    @pytest.fixture(scope="class")
    def big_engine(self) -> SimilarityEngine:
        # one coefficient: a loose bound, so many rows lie within the radius
        return SimilarityEngine(
            SequenceRelation.from_matrix(random_walks(400, N, seed=5)),
            space=NormalFormSpace(N, 1, coord="polar"),
        )

    @pytest.mark.parametrize("block", [1, 8])
    @pytest.mark.parametrize("mavg", [False, True])
    @pytest.mark.parametrize("k", [1, 10])
    def test_small_blocks_match_scan(self, big_engine, mavg, k, block, monkeypatch):
        monkeypatch.setattr(queries, "_VERIFY_BLOCK", block)
        t = moving_average(N, 8) if mavg else None
        batch = random_walks(12, N, seed=6)
        got = knn(big_engine, batch, k, "index", t)
        want = knn(big_engine, batch, k, "scan", t)
        for g, w in zip(got, want):
            assert_same(g, w)


class TestEmptyRelation:
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_scalar(self, empty_engine, matrix, k):
        assert empty_engine.knn_query(matrix[0], k) == []

    def test_batch(self, empty_engine, matrix):
        assert empty_engine.knn_query_batch(matrix[:2], 3) == [[], []]

    def test_range_still_empty(self, empty_engine, matrix):
        assert empty_engine.range_query(matrix[0], 10.0) == []


class TestNegativeK:
    def test_scalar_raises(self, engine, matrix):
        with pytest.raises(ValueError):
            engine.knn_query(matrix[0], -1)

    def test_batch_raises(self, engine, matrix):
        with pytest.raises(ValueError):
            engine.knn_query_batch(matrix[:2], -3)

    def test_compile_raises(self, engine, matrix):
        with pytest.raises(ValueError):
            engine.plan(QuerySpec(kind="knn", series=matrix[0], k=-1))

    def test_scan_raises(self, engine):
        with pytest.raises(ValueError):
            scan_knn(engine.ground_spectra, engine.ground_spectra[0], -1)


class TestKZeroThroughPlanAndLanguage:
    def test_plan_executes_empty(self, engine, matrix):
        plan = engine.plan(QuerySpec(kind="knn", series=matrix[0], k=0))
        assert plan.execute() == []
        batch = engine.plan(QuerySpec(kind="knn", series=matrix[:3], k=0))
        assert batch.execute() == [[], [], []]

    def test_language_statement(self, matrix):
        from repro.core.language import QuerySession

        session = QuerySession()
        session.bind_relation("r", SequenceRelation.from_matrix(matrix))
        session.bind_sequence("s0", matrix[0])
        assert session.execute("KNN s0 IN r K 0") == []
