"""Batched query answers match a brute-force oracle written with numpy alone.

The fused batch paths (``range_query_batch``, ``knn_query_batch``,
``all_pairs`` and the ST-index batch probes) are checked here against
distances computed directly from the raw series: ``np.fft`` with the
unitary norm for transformations, plain Euclidean norms otherwise.  No
code from :mod:`repro` takes part in the reference answers, so a fault
shared by the scalar and batched engine paths still shows up.

Thresholds are placed half-way between two consecutive oracle
distances, so no answer sits on the ``eps`` boundary and set equality
is exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import SimilarityEngine
from repro.core.features import NormalFormSpace, PlainDFTSpace
from repro.core.plan import QuerySpec
from repro.core.transforms import moving_average, reverse, scale, shift
from repro.data import SequenceRelation
from repro.data.synthetic import random_walks
from repro.storage.budget import QueryBudgetExceeded, ResourceBudget
from repro.subseq.stindex import STIndex

ROWS, LENGTH = 90, 32

SPACES = {
    "normal-polar": lambda: NormalFormSpace(LENGTH, 2, coord="polar"),
    "normal-rect": lambda: NormalFormSpace(LENGTH, 2, coord="rect"),
    "plain-polar": lambda: PlainDFTSpace(LENGTH, 3, coord="polar"),
    "plain-rect-sym": lambda: PlainDFTSpace(
        LENGTH, 3, coord="rect", exploit_symmetry=True
    ),
}

# Transformations each coordinate system supports exactly: polar needs
# b = 0 (Theorem 3), rect needs a real stretch vector (Theorem 2).
TRANSFORMS = {
    "scale": lambda: scale(LENGTH, 0.5),
    "reverse": lambda: reverse(LENGTH),
    "mavg": lambda: moving_average(LENGTH, 4),
    "shift": lambda: shift(LENGTH, 2.0),
}
TRANSFORM_CASES = [
    (space, name)
    for space in SPACES
    for name in ("scale", "reverse", "mavg" if "polar" in space else "shift")
]


@pytest.fixture(scope="module")
def relation():
    return SequenceRelation.from_matrix(random_walks(ROWS, LENGTH, seed=41))


@pytest.fixture(scope="module")
def engines(relation):
    return {name: SimilarityEngine(relation, space=make()) for name, make in SPACES.items()}


@pytest.fixture(scope="module")
def queries(relation):
    """Eight member rows followed by eight fresh walks."""
    fresh = random_walks(8, LENGTH, seed=42)
    return np.vstack([relation.matrix[::11][:8], fresh])


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def ground_rows(space_name, rows):
    """What the space compares: normal forms, or the raw series."""
    rows = np.asarray(rows, dtype=np.float64)
    if space_name.startswith("plain"):
        return rows
    centred = rows - rows.mean(axis=1, keepdims=True)
    return centred / rows.std(axis=1, keepdims=True)


def spectra(rows, t=None):
    out = np.fft.fft(rows, axis=-1, norm="ortho")
    return out if t is None else t.a * out + t.b


def oracle_distances(space_name, data, queries, t=None, transform_query=False):
    """``(m, N)`` matrix of ``D(T(record), query)`` (or ``T(query)``)."""
    x = spectra(ground_rows(space_name, data), t)
    q = spectra(ground_rows(space_name, queries), t if transform_query else None)
    return np.linalg.norm(x[None, :, :] - q[:, None, :], axis=2)


def gap_eps(dists, fraction):
    """A threshold admitting about ``fraction`` of ``dists``, off any tie."""
    flat = np.sort(np.ravel(dists))
    i = max(int(fraction * flat.size), 1)
    return float((flat[i - 1] + flat[i]) / 2.0)


def assert_range_rows(got, dists, eps):
    assert len(got) == dists.shape[0]
    for row, want in zip(got, dists):
        ids = sorted(r for r, _ in row)
        assert ids == list(np.flatnonzero(want <= eps))
        for r, d in row:
            assert d == pytest.approx(want[r], abs=1e-8)


def assert_knn_rows(got, dists, k):
    assert len(got) == dists.shape[0]
    for row, want in zip(got, dists):
        order = np.argsort(want, kind="stable")[:k]
        assert [r for r, _ in row] == list(order)
        assert [d for _, d in row] == pytest.approx(list(want[order]), abs=1e-8)


# ----------------------------------------------------------------------
# whole-sequence range / k-NN batches
# ----------------------------------------------------------------------
class TestRangeBatch:
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("fraction", [0.02, 0.1, 0.3])
    def test_matches_oracle(self, relation, engines, queries, space, fraction):
        dists = oracle_distances(space, relation.matrix, queries)
        eps = gap_eps(dists, fraction)
        got = engines[space].range_query_batch(queries, eps)
        assert_range_rows(got, dists, eps)

    @pytest.mark.parametrize("space,tname", TRANSFORM_CASES)
    @pytest.mark.parametrize("transform_query", [False, True])
    def test_transformed_matches_oracle(
        self, relation, engines, queries, space, tname, transform_query
    ):
        t = TRANSFORMS[tname]()
        dists = oracle_distances(
            space, relation.matrix, queries, t, transform_query=transform_query
        )
        eps = gap_eps(dists, 0.1)
        got = engines[space].range_query_batch(
            queries, eps, transformation=t, transform_query=transform_query
        )
        assert_range_rows(got, dists, eps)

    @pytest.mark.parametrize("space", SPACES)
    def test_scan_and_index_batches_agree(self, relation, engines, queries, space):
        dists = oracle_distances(space, relation.matrix, queries)
        eps = gap_eps(dists, 0.1)
        engine = engines[space]
        index = engine.range_query_batch(queries, eps, method="index")
        scan = engine.range_query_batch(queries, eps, method="scan")
        assert [sorted(r) for r in index] == [sorted(r) for r in scan]

    def test_single_row_batch_equals_single_query(self, engines, queries):
        engine = engines["normal-polar"]
        one = queries[9:10]
        assert engine.range_query_batch(one, 4.0) == [engine.range_query(one[0], 4.0)]


class TestKnnBatch:
    @pytest.mark.parametrize("space", SPACES)
    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_matches_oracle(self, relation, engines, queries, space, k):
        dists = oracle_distances(space, relation.matrix, queries)
        got = engines[space].knn_query_batch(queries, k)
        assert_knn_rows(got, dists, k)

    @pytest.mark.parametrize(
        "space,tname", [c for c in TRANSFORM_CASES if c[1] != "reverse"]
    )
    def test_transformed_matches_oracle(self, relation, engines, queries, space, tname):
        t = TRANSFORMS[tname]()
        dists = oracle_distances(space, relation.matrix, queries, t)
        got = engines[space].knn_query_batch(queries, 6, transformation=t)
        assert_knn_rows(got, dists, 6)

    def test_k_beyond_relation_returns_every_row(self, relation, engines, queries):
        dists = oracle_distances("normal-polar", relation.matrix, queries[:3])
        got = engines["normal-polar"].knn_query_batch(queries[:3], ROWS + 5)
        assert_knn_rows(got, dists, ROWS)

    def test_single_row_batch_equals_single_query(self, engines, queries):
        engine = engines["plain-polar"]
        one = queries[12:13]
        assert engine.knn_query_batch(one, 4) == [engine.knn_query(one[0], 4)]


# ----------------------------------------------------------------------
# self-joins
# ----------------------------------------------------------------------
def oracle_pairs(space_name, data, eps, t=None):
    x = spectra(ground_rows(space_name, data), t)
    d = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    i, j = np.nonzero(np.triu(d <= eps, k=1))
    return {(int(a), int(b)): float(d[a, b]) for a, b in zip(i, j)}


def join_eps(space_name, data, t=None):
    x = spectra(ground_rows(space_name, data), t)
    d = np.linalg.norm(x[:, None, :] - x[None, :, :], axis=2)
    return gap_eps(d[np.triu_indices(d.shape[0], k=1)], 0.03)


class TestJoin:
    @pytest.mark.parametrize("method", ["scan", "scan-abandon", "index", "tree-join"])
    @pytest.mark.parametrize("with_transform", [False, True])
    def test_matches_oracle(self, relation, engines, method, with_transform):
        t = moving_average(LENGTH, 4) if with_transform else None
        eps = join_eps("normal-polar", relation.matrix, t)
        want = oracle_pairs("normal-polar", relation.matrix, eps, t)
        got = engines["normal-polar"].all_pairs(eps, t, method=method)
        assert {(i, j) for i, j, _ in got} == set(want)
        for i, j, d in got:
            assert d == pytest.approx(want[(i, j)], abs=1e-8)

    @pytest.mark.parametrize("space", ["normal-rect", "plain-polar", "plain-rect-sym"])
    def test_other_spaces_match_oracle(self, relation, engines, space):
        eps = join_eps(space, relation.matrix)
        want = oracle_pairs(space, relation.matrix, eps)
        got = engines[space].all_pairs(eps, method="index")
        assert {(i, j) for i, j, _ in got} == set(want)


# ----------------------------------------------------------------------
# repeat runs and counters
# ----------------------------------------------------------------------
class TestRepeatability:
    def test_repeat_batch_gives_same_answers_and_counters(self, engines, queries):
        engine = engines["normal-polar"]
        runs = []
        for _ in range(2):
            engine.stats.reset()
            answer = engine.range_query_batch(queries, 4.0)
            runs.append((answer, engine.stats.snapshot()))
        assert runs[0] == runs[1]

    def test_batch_verification_counters_add_up(self, engines, queries):
        engine = engines["normal-polar"]
        engine.stats.reset()
        answer = engine.range_query_batch(queries, 4.0)
        s = engine.stats
        assert s.verifications_completed == sum(len(row) for row in answer)
        assert (
            s.verifications_completed + s.verifications_abandoned
            == s.candidate_count
        )

    def test_compiled_plan_runs_twice_identically(self, engines, queries):
        plan = engines["plain-polar"].plan(QuerySpec(kind="knn", series=queries, k=4))
        assert plan.execute() == plan.execute()


# ----------------------------------------------------------------------
# budgets on batches
# ----------------------------------------------------------------------
class TestBatchBudget:
    def test_candidate_cap_raises_on_a_batch(self, engines, queries):
        spec = QuerySpec(
            kind="range", series=queries, eps=6.0, method="index",
            budget=ResourceBudget(max_candidates=0),
        )
        with pytest.raises(QueryBudgetExceeded) as exc:
            engines["normal-polar"].plan(spec).execute()
        assert exc.value.kind == "candidates"

    def test_expired_deadline_raises_on_a_batch(self, engines, queries):
        spec = QuerySpec(
            kind="range", series=queries, eps=6.0, method="index",
            budget=ResourceBudget(deadline_ms=1e-4),
        )
        with pytest.raises(QueryBudgetExceeded) as exc:
            engines["normal-polar"].plan(spec).execute()
        assert exc.value.kind == "deadline"

    def test_truncated_knn_batch_returns_exact_distances(
        self, relation, engines, queries
    ):
        budget = ResourceBudget(deadline_ms=1e-4)
        got = engines["normal-polar"].plan(
            QuerySpec(kind="knn", series=queries, k=5, budget=budget)
        ).execute()
        assert budget.truncated
        dists = oracle_distances("normal-polar", relation.matrix, queries)
        assert len(got) == len(queries)
        for row, want in zip(got, dists):
            assert len(row) <= 5
            assert [d for _, d in row] == sorted(d for _, d in row)
            for r, d in row:
                assert d == pytest.approx(want[r], abs=1e-8)


# ----------------------------------------------------------------------
# subsequence batches (ST-index)
# ----------------------------------------------------------------------
WINDOW = 16


@pytest.fixture(scope="module")
def walks():
    return random_walks(12, 120, seed=9)


@pytest.fixture(scope="module")
def stindex(walks):
    idx = STIndex(window=WINDOW, k=3, chunk=8)
    idx.add_series_many(walks)
    return idx


def subseq_oracle(walks, q):
    """Every ``(distance, series, offset)`` triple, sorted."""
    out = []
    for sid, x in enumerate(walks):
        windows = np.lib.stride_tricks.sliding_window_view(x, q.shape[0])
        for off, d in enumerate(np.linalg.norm(windows - q, axis=1)):
            out.append((float(d), sid, off))
    out.sort()
    return out


def subseq_query(walks, sid, start, length, noise_seed):
    rng = np.random.default_rng(noise_seed)
    return walks[sid][start : start + length] + rng.normal(0.0, 0.3, length)


class TestSubseqBatch:
    @pytest.mark.parametrize("qlen", [16, 24, 40])
    @pytest.mark.parametrize("fraction", [0.001, 0.01])
    def test_range_matches_oracle(self, walks, stindex, qlen, fraction):
        q = subseq_query(walks, 4, 10, qlen, noise_seed=qlen)
        full = subseq_oracle(walks, q)
        eps = gap_eps([d for d, _, _ in full], fraction)
        got = stindex.range_query(q, eps)
        want = [(sid, off) for d, sid, off in full if d <= eps]
        assert [(m.series_id, m.offset) for m in got] == want
        for m, (d, _, _) in zip(got, full):
            assert m.distance == pytest.approx(d, abs=1e-8)

    def test_range_batch_of_mixed_lengths(self, walks, stindex):
        qs = [subseq_query(walks, i, 5 + i, 16 + 4 * i, noise_seed=i) for i in range(6)]
        got = stindex.range_query_batch(qs, 6.0)
        for q, row in zip(qs, got):
            want = [(sid, off) for d, sid, off in subseq_oracle(walks, q) if d <= 6.0]
            assert [(m.series_id, m.offset) for m in row] == want

    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_knn_batch_matches_oracle(self, walks, stindex, k):
        qs = [subseq_query(walks, i, 3 * i, 20, noise_seed=100 + i) for i in range(5)]
        got = stindex.knn_query_batch(qs, k)
        for q, row in zip(qs, got):
            want = subseq_oracle(walks, q)[:k]
            assert [(m.series_id, m.offset) for m in row] == [
                (sid, off) for _, sid, off in want
            ]
            assert [m.distance for m in row] == pytest.approx(
                [d for d, _, _ in want], abs=1e-8
            )
