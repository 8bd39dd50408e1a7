"""The batch execution layer agrees exactly with the scalar reference paths.

Every vectorised hot path introduced by the batch layer — extraction,
coefficient encoding, candidate verification, join verification, and the
R-tree lower-bound metrics — is checked against its scalar counterpart
across both coordinate systems, both feature-space layouts, and with and
without ``exploit_symmetry``.  Query-level answers (range, k-NN, all-pairs)
must be identical ``(id, distance)`` sets within float tolerance.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import queries as q
from repro.core.engine import SimilarityEngine
from repro.core.features import NormalFormSpace, PlainDFTSpace
from repro.core.normal_form import (
    mean_std,
    mean_std_many,
    normal_form,
    normal_form_many,
)
from repro.core.similarity import batch_euclidean_within, euclidean_early_abandon
from repro.core.transforms import identity, moving_average, reverse, scale, shift
from repro.data import SequenceRelation
from repro.data.synthetic import random_walks
from repro.dft import dft, dft_many
from repro.rtree.geometry import Rect
from repro.storage.stats import IOStats
from test_batch_oracle import ground_rows, oracle_distances, spectra

N = 32


def spaces(n=N):
    """Every (space, coord, symmetry) combination the batch layer covers."""
    out = []
    for coord in ("rect", "polar"):
        for sym in (False, True):
            out.append(PlainDFTSpace(n, 3, coord=coord, exploit_symmetry=sym))
            out.append(NormalFormSpace(n, 2, coord=coord, exploit_symmetry=sym))
    return out


def matches_equal(a, b):
    return [(r, round(d, 9)) for r, d in a] == [(r, round(d, 9)) for r, d in b]


def triples_equal(a, b):
    return [(i, j, round(d, 9)) for i, j, d in a] == [
        (i, j, round(d, 9)) for i, j, d in b
    ]


# ----------------------------------------------------------------------
# extraction / encoding
# ----------------------------------------------------------------------
class TestBatchedExtraction:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 20))
    def test_dft_many_rowwise(self, seed, m):
        rows = random_walks(m, N, seed=seed)
        assert np.allclose(dft_many(rows), np.stack([dft(r) for r in rows]))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 20))
    def test_normal_form_many_rowwise(self, seed, m):
        rows = random_walks(m, N, seed=seed)
        rows[0] = 3.5  # include a constant series (std floor path)
        want = np.stack([normal_form(r) for r in rows])
        assert np.allclose(normal_form_many(rows), want)
        want_ms = np.array([mean_std(r) for r in rows])
        assert np.allclose(mean_std_many(rows), want_ms)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 12))
    def test_extract_many_matches_scalar_extract(self, seed, m):
        rows = random_walks(m, N, seed=seed)
        for space in spaces():
            batched = space.extract_many(rows)
            scalar = np.stack([space.extract(r) for r in rows])
            assert np.allclose(batched, scalar, atol=1e-10), type(space).__name__

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 12))
    def test_spectra_and_encoding_match_scalar(self, seed, m):
        rows = random_walks(m, N, seed=seed)
        for space in spaces():
            spec_b = space.series_spectrum_many(rows)
            spec_s = np.stack([space.series_spectrum(r) for r in rows])
            assert np.allclose(spec_b, spec_s)
            coeffs = spec_s[:, space.freqs]
            enc_b = space.encode_coefficients_many(coeffs)
            enc_s = np.stack([space.encode_coefficients(c) for c in coeffs])
            assert np.allclose(enc_b, enc_s)

    def test_extract_many_with_spectra_consistent(self):
        rows = random_walks(15, N, seed=3)
        for space in spaces():
            points, spectra = space.extract_many_with_spectra(rows)
            assert np.allclose(points, space.extract_many(rows), atol=1e-10)
            assert np.allclose(spectra, space.series_spectrum_many(rows))

    def test_extract_many_accepts_empty_matrix(self):
        for space in spaces():
            out = space.extract_many(np.empty((0, N)))
            assert out.shape == (0, space.dim)
            spec = space.series_spectrum_many(np.empty((0, N)))
            assert spec.shape == (0, N) and spec.dtype == np.complex128
            points, spectra = space.extract_many_with_spectra(np.empty((0, N)))
            assert points.shape == (0, space.dim)
            assert spectra.shape == (0, N)

    def test_engine_builds_from_empty_relation_without_special_casing(self):
        eng = SimilarityEngine(SequenceRelation(16))
        assert eng.points.shape == (0, eng.space.dim)
        assert eng.ground_spectra.shape == (0, 16)
        assert eng.range_query(np.zeros(16), 1.0) == []

    def test_circular_mask_is_cached_and_correct(self):
        for space in spaces():
            first = space.circular_mask
            assert space.circular_mask is first  # cached, not rebuilt
            if space.coord == "rect":
                assert first is None
            else:
                want = np.zeros(space.dim, dtype=bool)
                for i in range(space.k):
                    want[space.aux_dims + 2 * i + 1] = True
                assert np.array_equal(first, want)


# ----------------------------------------------------------------------
# verification
# ----------------------------------------------------------------------
class TestBatchedVerification:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(0, 25),
        eps=st.floats(0.0, 20.0),
        block=st.integers(1, 11),
    )
    def test_batch_euclidean_within_matches_scalar(self, seed, m, eps, block):
        rows = dft_many(random_walks(max(m, 1), N, seed=seed))[:m]
        qv = dft(random_walks(1, N, seed=seed + 1)[0])
        kept, dists, abandoned = batch_euclidean_within(rows, qv, eps, block=block)
        want = [
            (i, d)
            for i, row in enumerate(rows)
            if (d := euclidean_early_abandon(row, qv, eps, block=block)) is not None
        ]
        assert list(kept) == [i for i, _ in want]
        assert np.allclose(dists, [d for _, d in want])
        assert abandoned == m - len(want)

    def test_batch_euclidean_within_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            batch_euclidean_within(np.zeros((3, 4)), np.zeros(5), 1.0)
        with pytest.raises(ValueError):
            batch_euclidean_within(np.zeros((3, 4)), np.zeros(4), -1.0)


# ----------------------------------------------------------------------
# queries and joins
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def walk_engines():
    rel = SequenceRelation.from_matrix(random_walks(60, N, seed=11))
    return rel, [
        SimilarityEngine(rel, space=space)
        for space in (
            NormalFormSpace(N, 2, coord="polar"),
            NormalFormSpace(N, 2, coord="rect"),
            PlainDFTSpace(N, 3, coord="polar"),
            PlainDFTSpace(N, 3, coord="rect", exploit_symmetry=True),
        )
    ]


def transform_pool(space):
    pool = [None, identity(N), scale(N, 0.5), reverse(N)]
    if space.coord == "polar":
        pool.append(moving_average(N, 4))
    else:
        pool.append(shift(N, 2.0))
    return pool


def oracle_dists(eng, matrix, series, t=None):
    """``D(T(record), series)`` for every record, from numpy alone."""
    kind = "plain" if isinstance(eng.space, PlainDFTSpace) else "normal"
    return oracle_distances(kind, matrix, np.asarray(series)[None, :], t)[0]


def pair_oracle(tspec, eps):
    """Every ``(i, j, d)`` with ``i < j`` and ``d <= eps``, in id order."""
    d = np.linalg.norm(tspec[:, None, :] - tspec[None, :, :], axis=2)
    return [
        (int(i), int(j), float(d[i, j]))
        for i, j in zip(*np.nonzero(np.triu(d <= eps, k=1)))
    ]


class TestBatchedQueries:
    @pytest.mark.parametrize("eps", [0.5, 2.0, 8.0])
    def test_range_query_matches_oracle(self, walk_engines, eps):
        rel, engines = walk_engines
        for eng in engines:
            for t in transform_pool(eng.space):
                want = oracle_dists(eng, rel.matrix, rel.get(7), t)
                got = eng.range_query(rel.get(7), eps, transformation=t)
                assert sorted(r for r, _ in got) == list(np.flatnonzero(want <= eps))
                for r, d in got:
                    assert d == pytest.approx(want[r], abs=1e-8)

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_knn_query_matches_kernel_less_reference(self, walk_engines, k):
        rel, engines = walk_engines
        for eng in engines:
            for t in transform_pool(eng.space):
                series = rel.get(3)
                spec = eng.query_spectrum(series)
                pt = eng.query_point(series)
                args = (eng.tree, eng.space, eng.ground_spectra, spec, pt, k)
                ref_view = q._make_view(eng.tree, eng.space, t)
                ref_view.kernel = None
                a = q.knn_query(*args, transformation=t)
                b = q.knn_query(*args, transformation=t, view=ref_view)
                assert matches_equal(a, b)
                want = oracle_dists(eng, rel.matrix, series, t)
                assert [r for r, _ in a] == list(np.argsort(want, kind="stable")[:k])

    def test_engine_batch_apis_equal_single_query_loop(self, walk_engines):
        rel, engines = walk_engines
        eng = engines[0]
        queries = rel.matrix[:8]
        t = moving_average(N, 4)
        batched = eng.range_query_batch(queries, 2.0, transformation=t)
        for i, series in enumerate(queries):
            assert matches_equal(
                batched[i], eng.range_query(series, 2.0, transformation=t)
            )
        batched_k = eng.knn_query_batch(queries, 4, transformation=t)
        for i, series in enumerate(queries):
            assert matches_equal(
                batched_k[i], eng.knn_query(series, 4, transformation=t)
            )
        # transform_query shares the affine map across the whole batch
        sym = eng.range_query_batch(
            queries, 2.0, transformation=t, transform_query=True
        )
        for i, series in enumerate(queries):
            assert matches_equal(
                sym[i],
                eng.range_query(series, 2.0, transformation=t, transform_query=True),
            )


class TestBatchedJoins:
    def test_all_pairs_scan_matches_oracle(self, walk_engines):
        rel, engines = walk_engines
        eng = engines[0]
        for t in (None, moving_average(N, 4)):
            want = pair_oracle(spectra(ground_rows("normal", rel.matrix), t), 1.5)
            for abandon in (False, True):
                got = q.all_pairs_scan(eng.ground_spectra, 1.5, t, early_abandon=abandon)
                assert triples_equal(got, want)

    def test_all_pairs_scan_transform_hoist_regression(self, walk_engines):
        """The O(m) transform hoist must not change any reported pair.

        Reference: re-apply the transformation inside the inner loop (the
        seed's O(m²) behaviour) and compare both method variants.
        """
        rel, engines = walk_engines
        eng = engines[0]
        t = moving_average(N, 4)
        spectra = eng.ground_spectra
        eps = 1.5
        want = []
        for i in range(spectra.shape[0]):
            ti = t.apply_spectrum(spectra[i])
            for j in range(i + 1, spectra.shape[0]):
                tj = t.apply_spectrum(spectra[j])
                d = float(np.linalg.norm(ti - tj))
                if d <= eps:
                    want.append((i, j, d))
        for abandon in (False, True):
            got = q.all_pairs_scan(spectra, eps, t, early_abandon=abandon)
            assert triples_equal(got, want)

    def test_all_pairs_index_and_tree_join_match_kernel_less_reference(
        self, walk_engines
    ):
        rel, engines = walk_engines
        eng = engines[0]
        for t in (None, moving_average(N, 4)):
            ai = q.all_pairs_index(
                eng.tree, eng.space, eng.ground_spectra, eng.points, 1.5, t
            )
            at = q.all_pairs_tree_join(eng.tree, eng.space, eng.ground_spectra, 1.5, t)
            eng.tree._kernel_disabled = True  # the recursive reference joins
            try:
                bi = q.all_pairs_index(
                    eng.tree, eng.space, eng.ground_spectra, eng.points, 1.5, t
                )
                bt = q.all_pairs_tree_join(
                    eng.tree, eng.space, eng.ground_spectra, 1.5, t
                )
            finally:
                eng.tree._kernel_disabled = False
            assert triples_equal(ai, bi)
            assert triples_equal(at, bt)
            want = pair_oracle(spectra(ground_rows("normal", rel.matrix), t), 1.5)
            assert triples_equal(ai, want)

    def test_all_methods_agree_under_transformation(self, walk_engines):
        rel, engines = walk_engines
        eng = engines[0]
        t = moving_average(N, 4)
        eps = 1.0
        scan = eng.all_pairs(eps, t, method="scan")
        assert triples_equal(eng.all_pairs(eps, t, method="scan-abandon"), scan)
        assert triples_equal(eng.all_pairs(eps, t, method="index"), scan)
        assert triples_equal(eng.all_pairs(eps, t, method="tree-join"), scan)


# ----------------------------------------------------------------------
# traversal metrics
# ----------------------------------------------------------------------
class TestBatchedTraversalMetrics:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 15))
    def test_rect_mindist_many_matches_scalar(self, seed, m):
        rng = np.random.default_rng(seed)
        for space in spaces():
            dim = space.dim
            lo = rng.normal(size=(m, dim))
            hi = lo + rng.uniform(0.0, 2.0, size=(m, dim))
            lo[:, space.aux_dims :: 2] = np.abs(lo[:, space.aux_dims :: 2])
            hi[:, space.aux_dims :: 2] = (
                lo[:, space.aux_dims :: 2] + rng.uniform(0.0, 2.0, size=(m, space.k))
            )
            point = space.extract(random_walks(1, N, seed=seed + 1)[0])
            batched = space.rect_mindist_many(lo, hi, point)
            scalar = [space.rect_mindist(Rect(lo[i], hi[i]), point) for i in range(m)]
            assert np.allclose(batched, scalar, atol=1e-9), type(space).__name__

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 15))
    def test_point_dist_many_matches_scalar(self, seed, m):
        for space in spaces():
            pts = space.extract_many(random_walks(m, N, seed=seed))
            query = space.extract(random_walks(1, N, seed=seed + 1)[0])
            batched = space.point_dist_many(pts, query)
            scalar = [space.point_dist(p, query) for p in pts]
            assert np.allclose(batched, scalar, atol=1e-9), type(space).__name__

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 20))
    def test_rect_mindist_many_and_intersects_many_euclid(self, seed, m):
        rng = np.random.default_rng(seed)
        d = 4
        lo = rng.normal(size=(m, d))
        hi = lo + rng.uniform(0.0, 3.0, size=(m, d))
        p = rng.normal(size=d)
        assert np.allclose(
            Rect.mindist_many(lo, hi, p),
            [Rect(lo[i], hi[i]).mindist(p) for i in range(m)],
        )
        qlo = rng.normal(size=d)
        qhi = qlo + rng.uniform(0.0, 3.0, size=d)
        query = Rect(qlo, qhi)
        got = Rect.intersects_many(lo, hi, qlo, qhi)
        want = [Rect(lo[i], hi[i]).intersects(query) for i in range(m)]
        assert list(got) == want


# ----------------------------------------------------------------------
# stats accounting
# ----------------------------------------------------------------------
class TestVerificationStats:
    def test_range_query_splits_abandoned_and_completed(self, walk_engines):
        rel, engines = walk_engines
        for kernel_disabled in (False, True):
            eng = SimilarityEngine(rel)
            eng.tree._kernel_disabled = kernel_disabled
            eng.stats.reset()
            got = eng.range_query(rel.get(0), 1.0)
            s = eng.stats
            assert s.verifications_completed == len(got)
            assert (
                s.verifications_completed + s.verifications_abandoned
                == s.candidate_count
            )
            assert s.distance_computations == s.candidate_count

    def test_stats_reset_and_snapshot_cover_new_counters(self):
        s = IOStats()
        s.verifications_completed = 3
        s.verifications_abandoned = 2
        snap = s.snapshot()
        assert snap["verifications_completed"] == 3
        assert snap["verifications_abandoned"] == 2
        s.reset()
        assert s.verifications_completed == 0
        assert s.verifications_abandoned == 0
