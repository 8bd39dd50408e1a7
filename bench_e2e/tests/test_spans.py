"""Span arithmetic, layer booking and installation, on synthetic inputs."""

import types

import pytest

from bench_e2e import spans as sp


def span(sid, parent, name, start, end, op=0):
    return [sid, parent, name, float(start), float(end), op]


def test_self_time_subtracts_children_once():
    tree = [
        span(0, None, "QuerySession.execute", 0, 10),
        span(1, 0, "language.parse", 1, 2),
        span(2, 0, "PhysicalPlan.execute", 3, 9),
        span(3, 2, "FrozenRTree.range_ids", 4, 6),
    ]
    own = sp.self_times(tree)
    assert own == {0: 10 - 1 - 6, 1: 1, 2: 6 - 2, 3: 2}
    assert sum(own.values()) == pytest.approx(10)  # self times partition the root


def test_parallel_children_are_merged_before_subtracting():
    # two kernel workers overlap inside one executor call: the covered part
    # is the union [2, 7], not the sum of the two durations.
    tree = [
        span(0, None, "KernelExecutor.range_ids_many", 0, 8),
        span(1, 0, "FrozenRTree.range_ids_many", 2, 6),
        span(2, 0, "FrozenRTree.range_ids_many", 3, 7),
    ]
    own = sp.self_times(tree)
    assert own[0] == pytest.approx(8 - 5)
    assert own[1] == pytest.approx(4) and own[2] == pytest.approx(4)


def test_child_outliving_its_parent_is_clipped():
    tree = [span(0, None, "a", 0, 4), span(1, 0, "b", 3, 9)]
    assert sp.self_times(tree)[0] == pytest.approx(3)


def test_layer_booking_follows_the_nearest_listed_ancestor():
    tree = [
        span(0, None, "STIndex.range_query_batch", 0, 10),
        span(1, 0, "FrozenRTree.range_ids_many", 1, 3),
        span(2, 0, "batch_euclidean_within", 4, 6),
        span(3, None, "FeatureSpace.ground_distances_within_many", 10, 14),
        span(4, 3, "batch_euclidean_within", 11, 13),
        span(5, None, "FrozenRTree.range_ids_many", 14, 15),
    ]
    totals, unbooked = sp.layer_totals(tree)
    assert totals == pytest.approx({
        "stindex.range_ms": 6, "stindex.probe_ms": 2, "stindex.refine_ms": 2,
        "ops.verify_ms": 4, "kernel.range_many_ms": 1,
    })
    assert unbooked == 0


def test_setup_spans_book_to_build_metrics_only():
    tree = [
        span(0, None, "FeatureSpace.extract_many_with_spectra", 0, 2, sp.SETUP_OP),
        span(1, None, "str_pack", 2, 5, sp.SETUP_OP),
        span(2, None, "FeatureSpace.extract", 5, 6, sp.SETUP_OP),
    ]
    totals, unbooked = sp.layer_totals(tree)
    assert totals == pytest.approx({"features.build_extract_s": 2, "bulk.str_pack_s": 3})
    assert unbooked == pytest.approx(1)


def test_unresolved_target_is_listed_not_fatal_and_uninstall_restores():
    mod = types.ModuleType("bench_e2e_fake_layer")

    class Thing:
        def work(self, x):
            return x + 1

        @staticmethod
        def helper(x):
            return x * 2

    mod.Thing = Thing
    mod.func = lambda x: x - 1
    import sys
    sys.modules[mod.__name__] = mod
    try:
        rec = sp.Recorder()
        original = Thing.__dict__["work"]
        inst = sp.install(rec, (
            ("Thing.work", mod.__name__, "Thing.work"),
            ("Thing.helper", mod.__name__, "Thing.helper"),
            ("func", mod.__name__, "func"),
            ("gone", mod.__name__, "Thing.renamed_away"),
            ("absent", "bench_e2e_no_such_module", "f"),
        ))
        assert inst.unresolved == [
            f"{mod.__name__}:Thing.renamed_away", "bench_e2e_no_such_module:f",
        ]
        rec.op = 7
        assert Thing().work(1) == 2 and Thing.helper(2) == 4 and mod.func(1) == 0
        assert [(s[2], s[5]) for s in rec.spans] == [
            ("Thing.work", 7), ("Thing.helper", 7), ("func", 7),
        ]
        inst.uninstall()
        assert Thing.__dict__["work"] is original
        Thing().work(1)
        assert len(rec.spans) == 3
    finally:
        del sys.modules[mod.__name__]


def test_nested_calls_record_parents_and_generators_span_each_resumption():
    mod = types.ModuleType("bench_e2e_fake_nest")

    def inner():
        return 1

    def outer():
        return mod.inner() + 1

    def stream():
        yield mod.inner()
        yield mod.inner()

    mod.inner, mod.outer, mod.stream = inner, outer, stream
    import sys
    sys.modules[mod.__name__] = mod
    try:
        rec = sp.Recorder()
        inst = sp.install(rec, tuple((n, mod.__name__, n) for n in ("inner", "outer", "stream")))
        assert mod.outer() == 2
        assert list(mod.stream()) == [1, 1]
        inst.uninstall()
    finally:
        del sys.modules[mod.__name__]
    names = [(s[2], s[1]) for s in rec.spans]
    assert names[:2] == [("outer", None), ("inner", 0)]
    # three resumptions of the generator (two values + exhaustion), the
    # first two each causing one inner() call
    assert [n for n, _ in names[2:]] == ["stream", "inner", "stream", "inner", "stream"]
    assert all(s[4] >= s[3] for s in rec.spans)
