"""Tests for GK95-constrained queries and engine persistence."""

import numpy as np
import pytest

from repro.core.engine import SimilarityEngine
from repro.core.features import PlainDFTSpace
from repro.core.gk import gk_bounds, gk_similar
from repro.core.transforms import moving_average
from repro.data import SequenceRelation, make_stock_universe
from repro.data.synthetic import random_walks
from repro.persist import load_engine, save_engine


@pytest.fixture(scope="module")
def stock_engine():
    rel = make_stock_universe(count=120, length=64, seed=13)
    return SimilarityEngine(rel)


class TestGKBounds:
    def test_default_unbounded(self):
        b = gk_bounds(np.arange(10.0))
        assert b[0][0] < -1e17 and b[0][1] > 1e17
        assert b[1][0] < -1e17 and b[1][1] > 1e17

    def test_shift_window_centred_on_mean(self):
        x = np.array([1.0, 3.0])  # mean 2
        b = gk_bounds(x, shift_tolerance=0.5)
        assert b[0] == pytest.approx((1.5, 2.5))

    def test_scale_window_relative_to_std(self):
        x = np.array([0.0, 2.0])  # std 1
        b = gk_bounds(x, scale_range=(0.5, 2.0))
        assert b[1] == pytest.approx((0.5, 2.0))

    def test_validation(self):
        with pytest.raises(ValueError):
            gk_bounds(np.arange(4.0), shift_tolerance=-1.0)
        with pytest.raises(ValueError):
            gk_bounds(np.arange(4.0), scale_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            gk_bounds(np.arange(4.0), scale_range=(-1.0, 1.0))


class TestGKSimilar:
    def test_unconstrained_equals_plain_range_query(self, stock_engine):
        q = stock_engine.relation.get(0)
        a = gk_similar(stock_engine, q, eps=5.0)
        b = stock_engine.range_query(q, 5.0)
        assert [(r, round(d, 9)) for r, d in a] == [(r, round(d, 9)) for r, d in b]

    def test_shift_window_filters_by_mean(self, stock_engine):
        rel = stock_engine.relation
        q = rel.get(0)
        got = gk_similar(stock_engine, q, eps=8.0, shift_tolerance=2.0)
        q_mean = float(np.mean(q))
        for rid, _ in got:
            assert abs(float(np.mean(rel.get(rid))) - q_mean) <= 2.0 + 1e-9
        # And it is exactly the mean-filtered subset of the free query.
        free = stock_engine.range_query(q, 8.0)
        want = sorted(
            r
            for r, _ in free
            if abs(float(np.mean(rel.get(r))) - q_mean) <= 2.0
        )
        assert sorted(r for r, _ in got) == want

    def test_scale_window_filters_by_std(self, stock_engine):
        rel = stock_engine.relation
        q = rel.get(3)
        got = gk_similar(stock_engine, q, eps=8.0, scale_range=(0.5, 2.0))
        q_std = float(np.std(q))
        for rid, _ in got:
            ratio = float(np.std(rel.get(rid))) / q_std
            assert 0.5 - 1e-9 <= ratio <= 2.0 + 1e-9

    def test_combined_windows_and_transformation(self, stock_engine):
        q = stock_engine.relation.get(5)
        t = moving_average(64, 10)
        got = gk_similar(
            stock_engine, q, eps=6.0, shift_tolerance=5.0,
            scale_range=(0.25, 4.0), transformation=t, transform_query=True,
        )
        free = stock_engine.range_query(q, 6.0, transformation=t, transform_query=True)
        assert {r for r, _ in got} <= {r for r, _ in free}

    def test_requires_normal_form_space(self):
        rel = SequenceRelation.from_matrix(random_walks(10, 16, seed=1))
        engine = SimilarityEngine(rel, space=PlainDFTSpace(16, 2))
        with pytest.raises(TypeError):
            gk_similar(engine, rel.get(0), eps=1.0)


class TestPersistence:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        rel = make_stock_universe(count=80, length=64, seed=17)
        engine = SimilarityEngine(rel)
        path = str(tmp_path_factory.mktemp("engine"))
        save_engine(engine, path)
        return engine, path

    def test_files_written(self, saved):
        import os

        _, path = saved
        for name in ("relation.npy", "relation.json", "meta.json", "index.pages"):
            assert os.path.exists(os.path.join(path, name))

    def test_loaded_engine_answers_identically(self, saved):
        engine, path = saved
        loaded = load_engine(path)
        q = engine.relation.get(7)
        t = moving_average(64, 10)
        for kwargs in [
            dict(eps=5.0),
            dict(eps=3.0, transformation=t, transform_query=True),
        ]:
            a = engine.range_query(q, **kwargs)
            b = loaded.range_query(q, **kwargs)
            assert [(r, round(d, 8)) for r, d in a] == [
                (r, round(d, 8)) for r, d in b
            ]

    def test_loaded_knn_matches(self, saved):
        engine, path = saved
        loaded = load_engine(path)
        q = engine.relation.get(11)
        a = engine.knn_query(q, 5)
        b = loaded.knn_query(q, 5)
        assert [r for r, _ in a] == [r for r, _ in b]

    def test_loaded_tree_is_structurally_valid(self, saved):
        _, path = saved
        loaded = load_engine(path)
        loaded.tree.validate()
        assert len(loaded.tree) == 80

    def test_loaded_index_does_paged_io(self, saved):
        """The node tree is backed by the saved page file, not rebuilt.

        Batch queries run on the deserialised columnar kernel, so the
        paged-I/O property is asserted on the reference traversal, which
        still reads node pages through the buffer pool.
        """
        _, path = saved
        loaded = load_engine(path, buffer_capacity=0)
        loaded.stats.reset()
        view = loaded.view()
        mbr = view.root_mbr()
        assert len(view.search(mbr)) == 80
        assert loaded.stats.page_reads > 0

    def test_loaded_kernel_matches_refrozen_tree(self, saved):
        """The saved columnar arrays equal a fresh freeze of the paged tree."""
        from repro.rtree.kernel import FrozenRTree

        _, path = saved
        loaded = load_engine(path)
        saved_kernel = loaded.kernel
        refrozen = FrozenRTree.freeze(loaded.tree)
        for key, arr in refrozen.to_arrays().items():
            assert np.array_equal(saved_kernel.to_arrays()[key], arr), key

    @pytest.mark.parametrize(
        "space",
        [None, PlainDFTSpace(32, 3, coord="rect"), PlainDFTSpace(32, 3, coord="polar")],
        ids=["normal-form", "plain-rect", "plain-polar"],
    )
    def test_loaded_points_and_spectra_bit_identical(self, tmp_path, space):
        """Load rebuilds both arrays through the build's own batched pipeline."""
        rel = SequenceRelation.from_matrix(random_walks(60, 32, seed=29))
        engine = SimilarityEngine(rel, space=space)
        save_engine(engine, str(tmp_path / "e"))
        loaded = load_engine(str(tmp_path / "e"))
        assert np.array_equal(loaded.points, engine.points)
        assert np.array_equal(loaded.ground_spectra, engine.ground_spectra)

    def test_empty_relation_round_trips(self, tmp_path):
        engine = SimilarityEngine(SequenceRelation(32))
        save_engine(engine, str(tmp_path / "e"))
        loaded = load_engine(str(tmp_path / "e"))
        assert len(loaded.relation) == 0 and loaded.relation.length == 32
        assert loaded.points.shape == (0, loaded.space.dim)
        assert loaded.points.dtype == np.float64
        assert loaded.ground_spectra.shape == (0, 32)
        assert loaded.ground_spectra.dtype == np.complex128

    def test_relation_metadata_survives(self, saved):
        engine, path = saved
        loaded = load_engine(path)
        assert loaded.relation.name(3) == engine.relation.name(3)
        assert loaded.relation.attrs(3) == engine.relation.attrs(3)

    def test_save_from_paged_engine(self, tmp_path):
        rel = make_stock_universe(count=40, length=64, seed=19)
        engine = SimilarityEngine(rel, paged=True)
        save_engine(engine, str(tmp_path / "e2"))
        loaded = load_engine(str(tmp_path / "e2"))
        a = engine.range_query(rel.get(1), 4.0)
        b = loaded.range_query(rel.get(1), 4.0)
        assert [r for r, _ in a] == [r for r, _ in b]

    def test_save_insert_built_guttman(self, tmp_path):
        from repro.rtree.guttman import GuttmanRTree

        rel = SequenceRelation.from_matrix(random_walks(50, 32, seed=23))
        engine = SimilarityEngine(rel, index_cls=GuttmanRTree, bulk_load=False)
        save_engine(engine, str(tmp_path / "e3"))
        loaded = load_engine(str(tmp_path / "e3"))
        assert isinstance(loaded.tree, GuttmanRTree)
        a = engine.range_query(rel.get(2), 3.0)
        b = loaded.range_query(rel.get(2), 3.0)
        assert [r for r, _ in a] == [r for r, _ in b]
