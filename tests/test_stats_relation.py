"""Tests for the stats counters and the sequence relation container."""

import numpy as np
import pytest

from repro.data.relation import SequenceRelation
from repro.data.synthetic import random_walk_relation, random_walks
from repro.dft import dft
from repro.storage.stats import IOStats


class TestIOStats:
    def test_reset_zeroes_everything(self):
        s = IOStats()
        s.page_reads = 5
        s.bump("custom", 3)
        s.reset()
        assert s.page_reads == 0
        assert s.extra == {}

    def test_disk_accesses_sum(self):
        s = IOStats(page_reads=3, page_writes=4)
        assert s.disk_accesses == 7

    def test_logical_reads(self):
        s = IOStats(page_reads=2, buffer_hits=10)
        assert s.logical_reads == 12

    def test_bump_accumulates(self):
        s = IOStats()
        s.bump("splits")
        s.bump("splits", 2)
        assert s.extra["splits"] == 3

    def test_snapshot_contains_extras(self):
        s = IOStats()
        s.bump("joins", 7)
        snap = s.snapshot()
        assert snap["joins"] == 7
        assert "disk_accesses" in snap

    def test_subtraction_of_snapshots(self):
        s = IOStats()
        before = IOStats(**{k: v for k, v in s.snapshot().items() if k in (
            "page_reads", "page_writes", "buffer_hits", "node_reads",
            "node_writes", "distance_computations", "candidate_count")})
        s.page_reads = 9
        diff = s - before
        assert diff["page_reads"] == 9


class TestSequenceRelation:
    def test_add_and_get(self):
        rel = SequenceRelation(4)
        rid = rel.add([1.0, 2.0, 3.0, 4.0], name="a")
        assert rid == 0
        assert np.array_equal(rel.get(0), [1, 2, 3, 4])
        assert rel.name(0) == "a"

    def test_default_names(self):
        rel = SequenceRelation(3)
        rel.add([1.0, 2.0, 3.0])
        assert rel.name(0) == "seq0"

    def test_attrs_stored(self):
        rel = SequenceRelation(3)
        rel.add([1.0, 2.0, 3.0], sector="TECH", beta=1.2)
        assert rel.attrs(0) == {"sector": "TECH", "beta": 1.2}

    def test_id_of(self):
        rel = SequenceRelation(2)
        rel.add([1.0, 2.0], name="x")
        rel.add([3.0, 4.0], name="y")
        assert rel.id_of("y") == 1
        with pytest.raises(KeyError):
            rel.id_of("z")

    def test_wrong_length_rejected(self):
        rel = SequenceRelation(4)
        with pytest.raises(ValueError):
            rel.add([1.0, 2.0])

    def test_bad_id_rejected(self):
        rel = SequenceRelation(4)
        with pytest.raises(KeyError):
            rel.get(0)

    def test_matrix_and_spectra_consistent(self):
        rel = SequenceRelation.from_matrix(random_walks(5, 16, seed=2))
        assert rel.matrix.shape == (5, 16)
        for rid in range(5):
            assert np.allclose(rel.spectrum(rid), dft(rel.get(rid)))

    def test_caches_invalidate_on_add(self):
        rel = SequenceRelation.from_matrix(random_walks(3, 8, seed=2))
        _ = rel.spectra
        rel.add(np.arange(8, dtype=float))
        assert rel.spectra.shape == (4, 8)
        assert rel.matrix.shape == (4, 8)

    def test_subset_renumbers(self):
        rel = SequenceRelation.from_matrix(random_walks(6, 8, seed=3))
        sub = rel.subset([4, 1])
        assert len(sub) == 2
        assert np.array_equal(sub.get(0), rel.get(4))
        assert np.array_equal(sub.get(1), rel.get(1))

    def test_iteration(self):
        rel = SequenceRelation.from_matrix(random_walks(4, 8, seed=1))
        ids = [rid for rid, _ in rel]
        assert ids == [0, 1, 2, 3]

    def test_add_copies_input(self):
        rel = SequenceRelation(3)
        arr = np.array([1.0, 2.0, 3.0])
        rel.add(arr)
        arr[0] = 99.0
        assert rel.get(0)[0] == 1.0

    def test_empty_relation_properties(self):
        rel = SequenceRelation(8)
        assert len(rel) == 0
        assert rel.matrix.shape == (0, 8)
        assert rel.spectra.shape == (0, 8)

    def test_from_matrix_validation(self):
        with pytest.raises(ValueError):
            SequenceRelation.from_matrix(np.zeros(5))
        with pytest.raises(ValueError):
            SequenceRelation(1)


class TestFromMatrix:
    def test_input_mutation_does_not_leak(self):
        data = random_walks(4, 8, seed=4)
        rel = SequenceRelation.from_matrix(data)
        before = data.copy()
        data[:] = -1.0
        assert np.array_equal(rel.matrix, before)
        assert np.array_equal(rel.get(2), before[2])

    def test_matrix_is_cached_and_rows_agree(self):
        data = random_walks(5, 8, seed=5)
        rel = SequenceRelation.from_matrix(data)
        assert rel.matrix is rel.matrix
        assert rel.matrix.flags.c_contiguous
        for rid, row in rel:
            assert np.array_equal(row, data[rid])

    def test_add_after_from_matrix_grows_matrix(self):
        rel = SequenceRelation.from_matrix(random_walks(3, 8, seed=6))
        first = rel.matrix
        rid = rel.add(np.arange(8, dtype=float), name="extra")
        assert rid == 3
        assert rel.matrix.shape == (4, 8)
        assert np.array_equal(rel.matrix[:3], first)
        assert np.array_equal(rel.matrix[3], np.arange(8.0))
        assert rel.name(3) == "extra"

    def test_default_names(self):
        rel = SequenceRelation.from_matrix(random_walks(3, 8, seed=7))
        assert [rel.name(i) for i in range(3)] == ["seq0", "seq1", "seq2"]
        assert all(rel.attrs(i) == {} for i in range(3))

    def test_names_and_attrs_round_trip(self):
        attrs = [{"sector": "TECH"}, {}, {"beta": 1.5}]
        rel = SequenceRelation.from_matrix(
            random_walks(3, 8, seed=8), names=["a", "b", "c"], attrs=attrs
        )
        assert [rel.name(i) for i in range(3)] == ["a", "b", "c"]
        assert [rel.attrs(i) for i in range(3)] == attrs
        attrs[0]["sector"] = "ENERGY"
        assert rel.attrs(0) == {"sector": "TECH"}

    @pytest.mark.parametrize("field", ["names", "attrs"])
    @pytest.mark.parametrize("count", [2, 4])
    def test_length_mismatch_rejected(self, field, count):
        values = [f"s{i}" for i in range(count)] if field == "names" else [{}] * count
        with pytest.raises(ValueError, match=field):
            SequenceRelation.from_matrix(random_walks(3, 8, seed=9), **{field: values})

    def test_empty_matrix(self):
        rel = SequenceRelation.from_matrix(np.empty((0, 8)))
        assert len(rel) == 0
        assert rel.matrix.shape == (0, 8)
        assert rel.spectra.shape == (0, 8)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            SequenceRelation.from_matrix(np.arange(8.0))


class TestSyntheticWalks:
    def test_shape_and_determinism(self):
        a = random_walks(10, 32, seed=5)
        b = random_walks(10, 32, seed=5)
        assert a.shape == (10, 32)
        assert np.array_equal(a, b)

    def test_start_range_respected(self):
        walks = random_walks(200, 8, seed=6)
        assert np.all(walks[:, 0] >= 20.0)
        assert np.all(walks[:, 0] <= 99.0)

    def test_step_bound_respected(self):
        walks = random_walks(100, 64, seed=7)
        steps = np.diff(walks, axis=1)
        assert np.all(np.abs(steps) <= 4.0)

    def test_relation_builder(self):
        rel = random_walk_relation(5, 16, seed=1)
        assert len(rel) == 5
        assert rel.name(0) == "walk0"

    def test_validation(self):
        with pytest.raises(ValueError):
            random_walks(-1, 8)
        with pytest.raises(ValueError):
            random_walks(5, 1)
