"""Tests for the tuned sequential-scan baselines."""

import numpy as np
import pytest

from repro.core.engine import SimilarityEngine
from repro.core.plan import QuerySpec
from repro.core.transforms import moving_average, reverse
from repro.data import SequenceRelation
from repro.data.synthetic import random_walks
from repro.scan import scan_knn, scan_range
from repro.storage.stats import IOStats


@pytest.fixture(scope="module")
def engine():
    rel = SequenceRelation.from_matrix(random_walks(120, 64, seed=77))
    return SimilarityEngine(rel)


class TestScanRange:
    @pytest.mark.parametrize("use_t", [False, True])
    def test_matches_index_answers(self, engine, use_t):
        """Index and scan must return exactly the same answer set."""
        t = moving_average(64, 10) if use_t else None
        q = engine.relation.get(5)
        via_index = engine.range_query(q, 4.0, transformation=t)
        via_scan = scan_range(
            engine.ground_spectra,
            engine.query_spectrum(q),
            4.0,
            transformation=t,
        )
        assert [(r, round(d, 8)) for r, d in via_index] == [
            (r, round(d, 8)) for r, d in via_scan
        ]

    def test_counts_all_records_as_computations(self, engine):
        stats = IOStats()
        scan_range(
            engine.ground_spectra,
            engine.query_spectrum(engine.relation.get(0)),
            1.0,
            stats=stats,
        )
        assert stats.distance_computations == len(engine.relation)

    def test_empty_answer(self, engine):
        got = scan_range(
            engine.ground_spectra,
            engine.query_spectrum(engine.relation.get(0)) + 1e6,
            0.5,
        )
        assert got == []


class TestScanKnn:
    @pytest.mark.parametrize("k", [1, 4, 20])
    def test_matches_engine_knn(self, engine, k):
        q = engine.relation.get(33)
        a = engine.knn_query(q, k)
        b = scan_knn(engine.ground_spectra, engine.query_spectrum(q), k)
        assert np.allclose([d for _, d in a], [d for _, d in b], atol=1e-9)

    def test_with_transformation(self, engine):
        t = reverse(64)
        q = engine.relation.get(10)
        a = engine.knn_query(q, 5, transformation=t)
        b = scan_knn(engine.ground_spectra, engine.query_spectrum(q), 5, transformation=t)
        assert np.allclose([d for _, d in a], [d for _, d in b], atol=1e-9)

    def test_invalid_k(self, engine):
        with pytest.raises(ValueError):
            scan_knn(engine.ground_spectra, engine.ground_spectra[0], -1)

    def test_k_zero_returns_empty(self, engine):
        assert scan_knn(engine.ground_spectra, engine.ground_spectra[0], 0) == []

    def test_k_larger_than_relation(self, engine):
        got = scan_knn(engine.ground_spectra, engine.query_spectrum(engine.relation.get(0)), 10_000)
        assert len(got) == len(engine.relation)


# ----------------------------------------------------------------------
# the matrix scan against a numpy-only oracle
# ----------------------------------------------------------------------
# Reference distances come from ``np.fft`` with the unitary norm and plain
# Euclidean norms; no code from :mod:`repro` computes them.  Range
# thresholds sit half-way between two consecutive oracle distances, so no
# answer lies on the ``eps`` boundary.
ROWS, LENGTH = 80, 32

TRANSFORMS = {
    "none": lambda: None,
    "mavg": lambda: moving_average(LENGTH, 4),
    "reverse": lambda: reverse(LENGTH),
}


def spectra(rows):
    return np.fft.fft(np.asarray(rows, dtype=np.float64), axis=-1, norm="ortho")


def oracle_distances(data_spectra, q_spec, t=None):
    x = data_spectra if t is None else t.a * data_spectra + t.b
    return np.linalg.norm(x - q_spec, axis=1)


def oracle_order(dists):
    """Record ids by ascending ``(distance, id)``."""
    return list(np.argsort(dists, kind="stable"))


def gap_eps(dists, fraction):
    flat = np.sort(dists)
    i = max(int(fraction * flat.size), 1)
    return float((flat[i - 1] + flat[i]) / 2.0)


def assert_matches(got, dists, ids):
    assert [r for r, _ in got] == ids
    assert [d for _, d in got] == pytest.approx([dists[i] for i in ids], abs=1e-9)


@pytest.fixture(scope="module")
def walk_spectra():
    return spectra(random_walks(ROWS, LENGTH, seed=123))


@pytest.fixture(scope="module")
def query_spectra(walk_spectra):
    """A member row's spectrum and a fresh walk's."""
    return [walk_spectra[17], spectra(random_walks(1, LENGTH, seed=124)[0])]


class TestScanOracle:
    @pytest.mark.parametrize("tname", TRANSFORMS)
    @pytest.mark.parametrize("fraction", [0.05, 0.3, 0.9])
    @pytest.mark.parametrize("qi", [0, 1])
    def test_range_matches_oracle(self, walk_spectra, query_spectra, tname, fraction, qi):
        t = TRANSFORMS[tname]()
        q = query_spectra[qi]
        dists = oracle_distances(walk_spectra, q, t)
        eps = gap_eps(dists, fraction)
        got = scan_range(walk_spectra, q, eps, transformation=t)
        assert_matches(got, dists, [i for i in oracle_order(dists) if dists[i] <= eps])

    @pytest.mark.parametrize("tname", TRANSFORMS)
    @pytest.mark.parametrize("k", [1, 7, ROWS])
    @pytest.mark.parametrize("qi", [0, 1])
    def test_knn_matches_oracle(self, walk_spectra, query_spectra, tname, k, qi):
        t = TRANSFORMS[tname]()
        q = query_spectra[qi]
        dists = oracle_distances(walk_spectra, q, t)
        got = scan_knn(walk_spectra, q, k, transformation=t)
        assert_matches(got, dists, oracle_order(dists)[:k])

    @pytest.mark.parametrize("tname", TRANSFORMS)
    def test_knn_beyond_relation_returns_every_row(self, walk_spectra, query_spectra, tname):
        t = TRANSFORMS[tname]()
        q = query_spectra[1]
        dists = oracle_distances(walk_spectra, q, t)
        got = scan_knn(walk_spectra, q, ROWS + 25, transformation=t)
        assert_matches(got, dists, oracle_order(dists))

    @pytest.mark.parametrize("tname", TRANSFORMS)
    def test_duplicate_rows_come_back_in_id_order(self, walk_spectra, query_spectra, tname):
        t = TRANSFORMS[tname]()
        data = walk_spectra[[3, 0, 3, 5, 0, 3, 9]]
        for q in (walk_spectra[3], query_spectra[1]):
            dists = oracle_distances(data, q, t)
            want = oracle_order(dists)
            assert_matches(scan_knn(data, q, len(data), transformation=t), dists, want)
            eps = float(dists.max()) + 1.0
            assert_matches(scan_range(data, q, eps, transformation=t), dists, want)
        # the exact copies of the query sit at distance 0, lowest id first
        if t is None:
            assert scan_knn(data, walk_spectra[3], 3) == [(0, 0.0), (2, 0.0), (5, 0.0)]

    @pytest.mark.parametrize("tname", TRANSFORMS)
    def test_empty_relation(self, query_spectra, tname):
        t = TRANSFORMS[tname]()
        empty = np.empty((0, LENGTH), dtype=np.complex128)
        stats = IOStats()
        q = query_spectra[0]
        assert scan_range(empty, q, 5.0, transformation=t, stats=stats) == []
        assert scan_knn(empty, q, 3, transformation=t, stats=stats) == []
        assert stats.distance_computations == 0

    def test_knn_counts_every_record(self, walk_spectra, query_spectra):
        stats = IOStats()
        scan_knn(walk_spectra, query_spectra[0], 4, stats=stats)
        assert stats.distance_computations == ROWS


# ----------------------------------------------------------------------
# the degraded scan answers exactly what the index answers
# ----------------------------------------------------------------------
class TestDegradedScanEqualsIndex:
    @pytest.fixture(scope="class")
    def small_engine(self):
        return SimilarityEngine(
            SequenceRelation.from_matrix(random_walks(60, LENGTH, seed=5))
        )

    @pytest.mark.parametrize("tname", TRANSFORMS)
    @pytest.mark.parametrize("eps", [3.0, 5.0, 7.0])
    def test_range_list_equal(self, small_engine, monkeypatch, tname, eps):
        t = TRANSFORMS[tname]()
        spec = QuerySpec(
            kind="range", series=small_engine.relation.get(0), eps=eps,
            transformation=t, method="index",
        )
        expected = small_engine.plan(spec).execute()
        assert expected
        monkeypatch.setattr(small_engine, "_index_failed", "pages failed", raising=False)
        info = small_engine.explain(spec)
        assert (info["access_path"], info["degraded_from"]) == ("scan", "index")
        assert small_engine.plan(spec).execute() == expected


class TestSeqScanExplain:
    @pytest.mark.parametrize(
        "kind,arg,want", [("range", {"eps": 3.0}, "matrix-blocked"), ("knn", {"k": 3}, False)]
    )
    def test_reports_abandon_mode(self, engine, kind, arg, want):
        info = engine.explain(
            QuerySpec(kind=kind, series=engine.relation.get(0), method="scan", **arg)
        )
        assert info["plan"]["op"] == "SeqScan"
        assert info["plan"]["early_abandon"] == want
