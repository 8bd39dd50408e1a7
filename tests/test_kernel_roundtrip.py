"""FrozenRTree ``savez`` round-trips: identical answers after reload.

Freezes trees produced by every build algorithm (Guttman insertion, R*
insertion, STR bulk load over points, and ``str_pack_rects`` over true
boxes — the ST-index's sub-trail payload), writes the columnar image
through ``to_arrays`` → ``np.savez`` → ``np.load`` → ``from_arrays``,
and asserts the reloaded kernel is bit-identical and answers every
traversal kind exactly like the original.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.rtree.bulk import str_pack, str_pack_rects
from repro.rtree.guttman import GuttmanRTree
from repro.rtree.kernel import FrozenRTree, frozen_kernel
from repro.rtree.rstar import RStarTree
from repro.subseq import STIndex

DIM = 4
COUNT = 160


def _points(seed=17):
    rng = np.random.default_rng(seed)
    return rng.normal(0, 5, size=(COUNT, DIM))


def build_tree(name: str):
    pts = _points()
    if name == "str-pack":
        return str_pack(pts, max_entries=8)
    if name == "str-pack-rects":
        rng = np.random.default_rng(23)
        half = np.abs(rng.normal(0, 0.5, size=pts.shape))
        return str_pack_rects(pts - half, pts + half, max_entries=8)
    cls = {"guttman-insert": GuttmanRTree, "rstar-insert": RStarTree}[name]
    tree = cls(DIM, max_entries=8)
    for rid, p in enumerate(pts):
        tree.insert_point(p, rid)
    return tree


BUILDS = ["guttman-insert", "rstar-insert", "str-pack", "str-pack-rects"]


def roundtrip(kernel: FrozenRTree, tmp_path) -> FrozenRTree:
    path = tmp_path / "kernel.npz"
    np.savez(path, **kernel.to_arrays())
    with np.load(path) as arrays:
        return FrozenRTree.from_arrays(arrays)


@pytest.mark.parametrize("build", BUILDS)
class TestSavezRoundTrip:
    def test_arrays_bit_identical(self, build, tmp_path):
        kernel = frozen_kernel(build_tree(build))
        loaded = roundtrip(kernel, tmp_path)
        assert loaded.dim == kernel.dim and loaded.size == kernel.size
        for key, value in kernel.to_arrays().items():
            np.testing.assert_array_equal(value, loaded.to_arrays()[key])

    def test_range_answers_identical(self, build, tmp_path):
        kernel = frozen_kernel(build_tree(build))
        loaded = roundtrip(kernel, tmp_path)
        rng = np.random.default_rng(5)
        centers = rng.normal(0, 5, size=(6, DIM))
        for r in (0.5, 3.0, 20.0):
            lows, highs = centers - r, centers + r
            got = kernel.range_ids_many(lows, highs)
            want = loaded.range_ids_many(lows, highs)
            for i, (a, b) in enumerate(zip(got, want)):
                np.testing.assert_array_equal(np.sort(a), np.sort(b))
                # a batch of one (bounds broadcast) agrees with its row
                one = loaded.range_ids_many(lows[i : i + 1], highs[i : i + 1])
                np.testing.assert_array_equal(np.sort(one[0]), np.sort(a))

    def test_leaf_entries_identical(self, build, tmp_path):
        kernel = frozen_kernel(build_tree(build))
        loaded = roundtrip(kernel, tmp_path)
        for a, b in zip(kernel.leaf_entries(), loaded.leaf_entries()):
            np.testing.assert_array_equal(a, b)

    def test_knn_answers_identical(self, build, tmp_path):
        kernel = frozen_kernel(build_tree(build))
        loaded = roundtrip(kernel, tmp_path)
        pts = _points()
        rng = np.random.default_rng(7)
        queries = rng.normal(0, 5, size=(4, DIM))

        def verify(qidx, rids):
            # Exact ground distance = feature distance for the point
            # trees; for the rect tree score against the box centers.
            if build == "str-pack-rects":
                lows, highs, ids = kernel.leaf_entries()
                order = np.argsort(ids)
                centers = ((lows + highs) / 2)[order]
                return np.linalg.norm(centers[rids] - queries[qidx], axis=1)
            return np.linalg.norm(pts[rids] - queries[qidx], axis=1)

        kwargs = dict(box_leaves=build == "str-pack-rects")
        got = kernel.knn_batch(queries, 5, verify, **kwargs)
        want = loaded.knn_batch(queries, 5, verify, **kwargs)
        assert got == want

    def test_nearest_stream_identical(self, build, tmp_path):
        if build == "str-pack-rects":
            pytest.skip("nearest_stream assumes point leaves")
        kernel = frozen_kernel(build_tree(build))
        loaded = roundtrip(kernel, tmp_path)
        q = np.zeros(DIM)
        got = [(rid, round(d, 12)) for d, rid, _ in kernel.nearest_stream(q)]
        want = [(rid, round(d, 12)) for d, rid, _ in loaded.nearest_stream(q)]
        assert got[:20] == want[:20]


class TestSTIndexKernelRoundTrip:
    def test_subseq_answers_survive_reload(self, tmp_path):
        rng = np.random.default_rng(31)
        idx = STIndex(window=8, k=3, chunk=8)
        for _ in range(8):
            idx.add_series(np.cumsum(rng.uniform(-1, 1, size=90)))
        loaded = roundtrip(idx.kernel, tmp_path)
        # Swap the reloaded image in for the frozen one: every fused
        # probe must return the same candidates.
        q = idx.series(2)[5:25]
        before = [(m.series_id, m.offset) for m in idx.range_query(q, 2.0)]
        idx._kernel = loaded
        after = [(m.series_id, m.offset) for m in idx.range_query(q, 2.0)]
        assert before == after
        knn_before = [(m.series_id, m.offset) for m in idx.knn_query(q, 5)]
        idx._kernel = loaded
        knn_after = [(m.series_id, m.offset) for m in idx.knn_query(q, 5)]
        assert knn_before == knn_after
