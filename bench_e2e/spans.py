"""Spans taken from outside: timing wrappers around layer boundaries.

The traced pass installs wrappers around the public callables at each
layer boundary of the program (:data:`TARGETS`) — nothing in ``src/`` is
edited.  Each span records name, start, end, the span that caused it and
the op it belongs to; spans stay in memory and are written as JSON lines
when the workload ends.  A target that no longer resolves is reported as
unresolved instead of failing the benchmark.

Self time follows the usual definition: a span's duration minus the part
of that interval its child spans cover (children running in parallel on
kernel worker threads are merged before subtracting).
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

# ----------------------------------------------------------------------
# what gets wrapped: (span name, module, attribute path)
# ----------------------------------------------------------------------
#: Module-level functions are patched where the name is looked up, so one
#: function may appear under several modules with the same span name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("language.parse", "repro.core.language", "parse"),
    ("QuerySession.execute", "repro.core.language", "QuerySession.execute"),
    ("SimilarityEngine.plan", "repro.core.engine", "SimilarityEngine.plan"),
    ("STIndex.plan", "repro.subseq.stindex", "STIndex.plan"),
    ("PhysicalPlan.execute", "repro.core.plan", "PhysicalPlan.execute"),
    ("SelectivityEstimator.fraction", "repro.core.planner", "SelectivityEstimator.fraction"),
    ("FeatureSpace.series_spectrum", "repro.core.features", "NormalFormSpace.series_spectrum"),
    ("FeatureSpace.extract", "repro.core.features", "FeatureSpace.extract"),
    ("FeatureSpace.extract_many_with_spectra", "repro.core.features",
     "FeatureSpace.extract_many_with_spectra"),
    ("FeatureSpace.search_rect", "repro.core.features", "FeatureSpace.search_rect"),
    ("FeatureSpace.search_rect_many", "repro.core.features", "FeatureSpace.search_rect_many"),
    ("FeatureSpace.affine_map", "repro.core.features", "FeatureSpace.affine_map"),
    ("FeatureSpace.ground_distances_within_many", "repro.core.features",
     "FeatureSpace.ground_distances_within_many"),
    ("batch_euclidean_within", "repro.core.similarity", "batch_euclidean_within"),
    ("TransformedIndexView.search_ids", "repro.rtree.transformed",
     "TransformedIndexView.search_ids"),
    ("TransformedIndexView.search_many", "repro.rtree.transformed",
     "TransformedIndexView.search_many"),
    ("FrozenRTree.range_ids", "repro.rtree.kernel", "FrozenRTree.range_ids"),
    ("FrozenRTree.range_ids_many", "repro.rtree.kernel", "FrozenRTree.range_ids_many"),
    ("FrozenRTree.nearest_stream", "repro.rtree.kernel", "FrozenRTree.nearest_stream"),
    ("FrozenRTree.knn_batch", "repro.rtree.kernel", "FrozenRTree.knn_batch"),
    ("FrozenRTree.join_pairs", "repro.rtree.kernel", "FrozenRTree.join_pairs"),
    ("KernelExecutor.range_ids_many", "repro.rtree.parallel", "KernelExecutor.range_ids_many"),
    ("KernelExecutor.knn_batch", "repro.rtree.parallel", "KernelExecutor.knn_batch"),
    ("KernelExecutor.join_pairs", "repro.rtree.parallel", "KernelExecutor.join_pairs"),
    ("scan_range", "repro.core.ops", "scan_range"),
    ("scan_range_many", "repro.core.ops", "scan_range_many"),
    ("scan_knn", "repro.core.ops", "scan_knn"),
    ("STIndex.range_query_batch", "repro.subseq.stindex", "STIndex.range_query_batch"),
    ("STIndex.knn_query_batch", "repro.subseq.stindex", "STIndex.knn_query_batch"),
    ("STIndex.add_series_many", "repro.subseq.stindex", "STIndex.add_series_many"),
    ("save_engine", "repro.persist", "save_engine"),
    ("load_engine", "repro.persist", "load_engine"),
    ("str_pack", "repro.core.engine", "str_pack"),
    ("str_pack", "repro.subseq.stindex", "str_pack_rects"),
    ("frozen_kernel", "repro.core.engine", "frozen_kernel"),
    ("frozen_kernel", "repro.subseq.stindex", "frozen_kernel"),
    ("frozen_kernel", "repro.persist", "frozen_kernel"),
)

#: span name -> layer metric its self time is booked under.
LAYER_OF = {
    "language.parse": "language.parse_us",
    "QuerySession.execute": "language.execute_self_us",
    "SimilarityEngine.plan": "plan.compile_us",
    "STIndex.plan": "plan.compile_us",
    "PhysicalPlan.execute": "plan.execute_self_us",
    "SelectivityEstimator.fraction": "planner.estimate_us",
    "FeatureSpace.series_spectrum": "features.query_extract_us",
    "FeatureSpace.extract": "features.query_extract_us",
    "FeatureSpace.extract_many_with_spectra": "features.query_extract_us",
    "FeatureSpace.search_rect": "features.query_extract_us",
    "FeatureSpace.search_rect_many": "features.query_extract_us",
    "FeatureSpace.affine_map": "transformed.view_us",
    "TransformedIndexView.search_ids": "transformed.view_us",
    "TransformedIndexView.search_many": "transformed.view_us",
    "FrozenRTree.range_ids": "kernel.range_probe_us",
    "FrozenRTree.range_ids_many": "kernel.range_many_ms",
    "FrozenRTree.nearest_stream": "kernel.knn_ms",
    "FrozenRTree.knn_batch": "kernel.knn_ms",
    "FrozenRTree.join_pairs": "kernel.join_ms",
    "KernelExecutor.range_ids_many": "parallel.dispatch_ms",
    "KernelExecutor.knn_batch": "parallel.dispatch_ms",
    "KernelExecutor.join_pairs": "parallel.dispatch_ms",
    "FeatureSpace.ground_distances_within_many": "ops.verify_ms",
    "scan_range": "seqscan.scan_ms",
    "scan_range_many": "seqscan.scan_ms",
    "scan_knn": "seqscan.scan_ms",
    "STIndex.range_query_batch": "stindex.range_ms",
    "STIndex.knn_query_batch": "stindex.knn_ms",
    "save_engine": "persist.save_s",
    "load_engine": "persist.load_s",
}

#: spans booked by where they were called from: name -> ((ancestor, metric), ...);
#: the nearest listed ancestor wins.
LAYER_BY_ANCESTOR = {
    "batch_euclidean_within": (
        ("FeatureSpace.ground_distances_within_many", "ops.verify_ms"),
        ("scan_range_many", "seqscan.scan_ms"),
        ("STIndex.range_query_batch", "stindex.refine_ms"),
        ("STIndex.knn_query_batch", "stindex.knn_ms"),
    ),
    "FrozenRTree.range_ids_many": (
        ("STIndex.range_query_batch", "stindex.probe_ms"),
    ),
    # load_engine re-derives every record's feature point and spectrum
    "FeatureSpace.series_spectrum": (
        ("load_engine", "persist.load_extract_s"),
    ),
    "FeatureSpace.extract_many_with_spectra": (
        ("load_engine", "persist.load_extract_s"),
    ),
}

#: spans of the traced set-up, booked in seconds over the whole set-up.
SETUP_LAYER_OF = {
    "FeatureSpace.extract_many_with_spectra": "features.build_extract_s",
    "str_pack": "bulk.str_pack_s",
    "frozen_kernel": "kernel.freeze_s",
    "STIndex.add_series_many": "stindex.build_s",
    "save_engine": "persist.save_s",
}

SETUP_OP = "setup"


class Recorder:
    """In-memory span store with one call stack per thread."""

    def __init__(self) -> None:
        #: [id, parent id or None, name, start, end, op] per span; the id
        #: is the index into this list.
        self.spans: list[list] = []
        self.op: object = None
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent: Optional[int] = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            # first span on a kernel worker thread: caused by whatever the
            # main thread is blocked in (the executor call that sharded it).
            parent = self._main_stack[-1]
        else:
            parent = None
        sid = len(self.spans)
        self.spans.append([sid, parent, name, 0.0, 0.0, self.op])
        stack.append(sid)
        self.spans[sid][3] = time.perf_counter()
        return sid

    def end(self, sid: int) -> None:
        now = time.perf_counter()
        self.spans[sid][4] = now
        self._stack().pop()

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_jsonl(path: str) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    if inspect.isgeneratorfunction(fn):
        # A generator does its work while it is iterated, interleaved with
        # its consumer: one span per resumption keeps the nesting honest.
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = rec.begin(name)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    rec.end(sid)
                yield value

        gen_wrapper.__wrapped__ = fn
        return gen_wrapper

    def wrapper(*args, **kwargs):
        sid = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(sid)

    wrapper.__wrapped__ = fn
    return wrapper


def _resolve(module: str, path: str):
    """``(owner object, attribute name, current value)`` of a target."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, inspect.getattr_static(owner, attr)


class Installation:
    """The wrappers currently in place; ``uninstall()`` restores originals."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.unresolved: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def install(
    recorder: Recorder, targets: Iterable[tuple[str, str, str]] = TARGETS
) -> Installation:
    """Wrap every target that resolves; list the rest as unresolved."""
    inst = Installation(recorder)
    for name, module, path in targets:
        try:
            owner, attr, original = _resolve(module, path)
        except (ImportError, AttributeError):
            inst.unresolved.append(f"{module}:{path}")
            continue
        fn = original.__func__ if isinstance(original, (staticmethod, classmethod)) else original
        wrapped: object = _wrap(recorder, name, fn)
        if isinstance(original, staticmethod):
            wrapped = staticmethod(wrapped)
        elif isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        setattr(owner, attr, wrapped)
        inst._undo.append((owner, attr, original))
    return inst


# ----------------------------------------------------------------------
# arithmetic on recorded spans (pure; used by the parent and the tests)
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    by_id = {s[0]: s for s in spans}
    for sid, parent, _name, start, end, _op in spans:
        if parent is not None and parent in by_id:
            p = by_id[parent]
            children[parent].append((max(start, p[3]), min(end, p[4])))
    return {
        s[0]: (s[4] - s[3]) - _covered(children.get(s[0], []))
        for s in spans
    }


def layer_of(span: list, by_id: dict[int, list]) -> Optional[str]:
    """The layer metric a span's self time is booked under (or ``None``)."""
    name = span[2]
    if span[5] == SETUP_OP:
        return SETUP_LAYER_OF.get(name)
    rules = LAYER_BY_ANCESTOR.get(name)
    if rules:
        wanted = dict(rules)
        parent = span[1]
        while parent is not None and parent in by_id:
            anc = by_id[parent]
            if anc[2] in wanted:
                return wanted[anc[2]]
            parent = anc[1]
    return LAYER_OF.get(name)


def layer_totals(spans: list[list]) -> tuple[dict[str, float], float]:
    """``(seconds of self time per layer metric, seconds booked nowhere)``."""
    by_id = {s[0]: s for s in spans}
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    unbooked = 0.0
    for span in spans:
        layer = layer_of(span, by_id)
        if layer is None:
            unbooked += own[span[0]]
        else:
            totals[layer] += own[span[0]]
    return dict(totals), unbooked
