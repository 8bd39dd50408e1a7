"""Micro-benchmarks of the batch execution layer's hot paths.

Times every reference-vs-production pair the batch layer replaces — index
build (extraction + ground spectra), range-query verification, end-to-end
k-NN latency, and the all-pairs index join — and emits a machine-readable
``BENCH_hotpaths.json`` at the repository root so future PRs can track the
performance trajectory.

Default configuration is the acceptance workload: 10,000 random walks of
length 128 with the paper's six-dimensional polar normal-form space.

Run:  ``PYTHONPATH=src python -m benchmarks.bench_micro_hotpaths``
Quick: add ``--count 2000 --pairs 400`` for a fast smoke pass.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from benchmarks.common import print_series
from repro.core import queries as q
from repro.core.engine import SimilarityEngine
from repro.core.features import NormalFormSpace
from repro.data import SequenceRelation
from repro.data.synthetic import random_walks

LENGTH = 128
#: ~8% of the relation becomes a range candidate at this eps (1.5% answers).
RANGE_EPS = 6.0
JOIN_EPS = 3.0
KNN_K = 10


def _timed(fn, repeats: int = 1) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_build(matrix: np.ndarray, space: NormalFormSpace) -> dict:
    """Index-build inputs: extract_many + ground-spectra, scalar vs batched."""
    space.extract_many_with_spectra(matrix[:64])  # warm the FFT plan cache

    def scalar() -> None:
        np.stack([space.extract(row) for row in matrix])
        np.stack([space.series_spectrum(row) for row in matrix])

    batched_s = _timed(lambda: space.extract_many_with_spectra(matrix), repeats=3)
    scalar_s = _timed(scalar, repeats=2)
    return {"scalar_s": scalar_s, "batched_s": batched_s,
            "speedup": scalar_s / batched_s}


def bench_range_verification(
    engine: SimilarityEngine, queries: np.ndarray, eps: float
) -> dict:
    """Post-processing (Algorithm 2 step 3) only: candidate verification."""
    space, spectra = engine.space, engine.ground_spectra
    view = q._make_view(engine.tree, space, None)
    prepared = []
    for series in queries:
        spec = engine.query_spectrum(series)
        qrect = space.search_rect(engine.query_point(series), eps)
        cands = np.fromiter(
            (e.child for e in view.search(qrect)), dtype=np.intp
        )
        prepared.append((spec, cands))
    candidates = int(sum(len(c) for _, c in prepared))

    def scalar() -> None:
        for spec, cands in prepared:
            for c in cands:
                space.ground_distance_within(spectra[c], spec, eps)

    def batched() -> None:
        for spec, cands in prepared:
            space.ground_distances_within_many(spectra[cands], spec, eps)

    batched_s = _timed(batched, repeats=3)
    scalar_s = _timed(scalar, repeats=2)
    return {
        "candidates": candidates,
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s,
    }


def bench_query_latency(engine: SimilarityEngine, queries: np.ndarray) -> dict:
    """End-to-end single-query k-NN latency: kernel vs kernel-less view.

    The reference side is the best-first walk that runs on a view without
    the frozen kernel (the degraded tier); the batched side is the
    production path, each query a batch of one.
    """
    space, spectra = engine.space, engine.ground_spectra
    ref_view = q._make_view(engine.tree, space, None)
    ref_view.kernel = None

    def run_knn(view) -> None:
        for series in queries:
            q.knn_query(
                engine.tree, space, spectra,
                engine.query_spectrum(series), engine.query_point(series),
                KNN_K, view=view,
            )

    # Best-of-N on both sides: the speedup ratio feeds the CI regression
    # gate, so single-shot timing noise matters.
    batched_s = _timed(lambda: run_knn(None), repeats=2)
    scalar_s = _timed(lambda: run_knn(ref_view), repeats=2)
    return {
        "knn": {
            "queries": len(queries),
            "scalar_ms_per_query": 1000 * scalar_s / len(queries),
            "batched_ms_per_query": 1000 * batched_s / len(queries),
            "speedup": scalar_s / batched_s,
        }
    }


def bench_knn_batch(engine: SimilarityEngine, queries: np.ndarray, k: int) -> dict:
    """Batched seeded-radius k-NN vs the per-query best-first loop.

    The fused side is :func:`repro.core.queries.knn_query_fused`: per
    query, one vectorised bound pass over every indexed point, then
    verification of the seed pool and of the rows within its certified
    radius.  The baseline is what ``knn_query_batch`` did before the
    columnar kernel: one best-first :func:`repro.core.queries.knn_query`
    traversal per query over a shared (kernel-less) view — per-node
    vectorised bounds, one heap item and one ground distance per
    examined entry.
    """
    space, spectra = engine.space, engine.ground_spectra
    q_specs, q_points = engine._query_reps_batch(queries, None, False)

    loop_view = q._make_view(engine.tree, space, None)
    loop_view.kernel = None

    def per_query_loop() -> None:
        for i in range(queries.shape[0]):
            q.knn_query(
                engine.tree, space, spectra, q_specs[i], q_points[i], k,
                view=loop_view,
            )

    def fused() -> None:
        q.knn_query_fused(
            engine.tree, space, spectra, q_specs, q_points, k
        )

    fused_s = _timed(fused, repeats=3)
    loop_s = _timed(per_query_loop, repeats=2)
    return {
        "queries": int(queries.shape[0]),
        "k": k,
        "per_query_loop_s": loop_s,
        "fused_kernel_s": fused_s,
        "speedup": loop_s / fused_s,
    }


def bench_all_pairs(matrix: np.ndarray, eps: float) -> dict:
    """All-pairs wall time: scan-abandon, and recursive-vs-kernel index join."""
    rel = SequenceRelation.from_matrix(matrix)
    engine = SimilarityEngine(rel)
    spectra = engine.ground_spectra
    out = {"count": matrix.shape[0]}
    out["scan_abandon_s"] = _timed(
        lambda: q.all_pairs_scan(spectra, eps, early_abandon=True)
    )

    # Index nested-loop join: the pre-kernel path posed one recursive range
    # query per outer record; the kernel path runs one frontier-pair
    # traversal for the whole outer relation.
    from repro.rtree.geometry import Rect
    from repro.rtree.join import index_nested_loop_join

    def recursive_join() -> None:
        view = q._make_view(engine.tree, engine.space, None)
        view.kernel = None
        pair_iter = index_nested_loop_join(
            ((i, Rect.from_point(engine.points[i]))
             for i in range(engine.points.shape[0])),
            view,
            make_search_rect=lambda pr: engine.space.search_rect(pr.lows, eps),
            self_join=True,
        )
        q._verify_pairs(spectra, pair_iter, eps)

    kernel_s = _timed(
        lambda: q.all_pairs_index(
            engine.tree, engine.space, spectra, engine.points, eps
        ),
        repeats=2,
    )
    recursive_s = _timed(recursive_join, repeats=2)
    out["index_join"] = {
        "recursive_s": recursive_s,
        "kernel_s": kernel_s,
        "speedup": recursive_s / kernel_s,
    }
    out["index_join_s"] = kernel_s
    return out


def bench_persist(engine: SimilarityEngine) -> tuple[dict, dict]:
    """Validated (manifest + crc32) persistence vs the plain image write.

    Here ``speedup`` is the ratio plain / validated: ~1.0 means the
    checksums and atomic-replace protocol are nearly free, and the CI
    gate fails if validation overhead ever grows past the tolerance.
    """
    import shutil
    import tempfile

    from repro import persist

    root = Path(tempfile.mkdtemp(prefix="bench_persist_"))
    try:
        plain_dir = str(root / "plain")
        valid_dir = str(root / "validated")
        save_plain = _timed(
            lambda: persist.save_engine(engine, plain_dir, manifest=False),
            repeats=2,
        )
        save_valid = _timed(
            lambda: persist.save_engine(engine, valid_dir, manifest=True),
            repeats=2,
        )
        load_plain = _timed(lambda: persist.load_engine(plain_dir), repeats=2)
        load_valid = _timed(lambda: persist.load_engine(valid_dir), repeats=2)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    save = {
        "plain_s": save_plain,
        "validated_s": save_valid,
        "speedup": save_plain / save_valid,
    }
    load = {
        "plain_s": load_plain,
        "validated_s": load_valid,
        "speedup": load_plain / load_valid,
    }
    return save, load


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10_000,
                        help="relation cardinality (default 10000)")
    parser.add_argument("--pairs", type=int, default=1_000,
                        help="cardinality for the all-pairs timing")
    parser.add_argument("--queries", type=int, default=50,
                        help="number of query series (default 50)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: repo-root BENCH_hotpaths.json)")
    args = parser.parse_args()

    matrix = random_walks(args.count, LENGTH, seed=1997)
    space = NormalFormSpace(LENGTH, k=2, coord="polar")
    report: dict = {
        "workload": {
            "count": args.count,
            "length": LENGTH,
            "space": "NormalFormSpace(k=2, polar)",
            "range_eps": RANGE_EPS,
            "knn_k": KNN_K,
            "python": platform.python_version(),
            "numpy": np.__version__,
        }
    }

    report["build"] = bench_build(matrix, space)
    print_series(
        f"Index build inputs ({args.count} x {LENGTH})",
        ["path", "seconds", "speedup"],
        [
            ("scalar", report["build"]["scalar_s"], 1.0),
            ("batched", report["build"]["batched_s"], report["build"]["speedup"]),
        ],
    )

    rel = SequenceRelation.from_matrix(matrix)
    engine = SimilarityEngine(rel)
    rng = np.random.default_rng(5)
    queries = matrix[rng.choice(args.count, size=args.queries, replace=False)]

    report["range_verification"] = bench_range_verification(
        engine, queries, RANGE_EPS
    )
    rv = report["range_verification"]
    print_series(
        f"Range verification (eps={RANGE_EPS}, {rv['candidates']} candidates)",
        ["path", "seconds", "speedup"],
        [
            ("scalar", rv["scalar_s"], 1.0),
            ("batched", rv["batched_s"], rv["speedup"]),
        ],
    )

    report["latency"] = bench_query_latency(engine, queries)
    print_series(
        "End-to-end latency (ms/query), kernel-less reference vs kernel",
        ["query", "reference", "kernel", "speedup"],
        [
            (name, row["scalar_ms_per_query"], row["batched_ms_per_query"],
             row["speedup"])
            for name, row in report["latency"].items()
        ],
    )

    report["knn_batch"] = bench_knn_batch(engine, queries, KNN_K)
    kb = report["knn_batch"]
    print_series(
        f"Batched k-NN ({kb['queries']} queries, k={KNN_K})",
        ["path", "seconds", "speedup"],
        [
            ("per-query loop", kb["per_query_loop_s"], 1.0),
            ("batched seeded radius", kb["fused_kernel_s"], kb["speedup"]),
        ],
    )

    report["all_pairs"] = bench_all_pairs(matrix[: args.pairs], JOIN_EPS)
    ap = report["all_pairs"]
    print_series(
        f"All-pairs ({ap['count']} series, eps={JOIN_EPS})",
        ["method", "seconds", "vs scan-abandon"],
        [
            ("scan-abandon", ap["scan_abandon_s"], 1.0),
            ("index join recursive", ap["index_join"]["recursive_s"],
             ap["scan_abandon_s"] / ap["index_join"]["recursive_s"]),
            ("index join kernel", ap["index_join"]["kernel_s"],
             ap["scan_abandon_s"] / ap["index_join"]["kernel_s"]),
        ],
    )

    report["persist_save"], report["persist_load"] = bench_persist(engine)
    print_series(
        f"Validated persistence ({args.count} x {LENGTH})",
        ["operation", "plain", "validated", "plain/validated"],
        [
            ("save", report["persist_save"]["plain_s"],
             report["persist_save"]["validated_s"],
             report["persist_save"]["speedup"]),
            ("load", report["persist_load"]["plain_s"],
             report["persist_load"]["validated_s"],
             report["persist_load"]["speedup"]),
        ],
    )

    out_path = (
        Path(args.out)
        if args.out
        else Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json"
    )
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {out_path}")


if __name__ == "__main__":
    main()
