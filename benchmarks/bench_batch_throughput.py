"""Throughput of the engine-level batch APIs.

Three headline numbers for the batch execution layer:

* **build speedup** — index construction (batched extraction + ground
  spectra) against the seed's per-row scalar pipeline,
* **queries/sec** — ``range_query_batch`` / ``knn_query_batch``, and
* **fused-probe speedup** — the plan layer's ``IndexProbe`` (one
  multi-query tree descent for the whole batch) against a per-query
  loop of recursive searches over a shared transformed view.

Run:  ``PYTHONPATH=src python -m benchmarks.bench_batch_throughput``
Quick: add ``--count 2000 --queries 50``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from benchmarks.common import print_series
from repro.core import queries as q
from repro.core.engine import SimilarityEngine
from repro.core.features import NormalFormSpace
from repro.core.transforms import moving_average
from repro.data import SequenceRelation
from repro.data.synthetic import random_walks

LENGTH = 128
RANGE_EPS = 6.0
KNN_K = 10


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10_000)
    parser.add_argument("--queries", type=int, default=200)
    args = parser.parse_args()

    matrix = random_walks(args.count, LENGTH, seed=1997)
    space = NormalFormSpace(LENGTH, k=2, coord="polar")
    space.extract_many_with_spectra(matrix[:64])  # warm the FFT plan cache

    # ------------------------------------------------------------------
    t0 = time.perf_counter()
    space.extract_many_with_spectra(matrix)
    batched_build = time.perf_counter() - t0
    t0 = time.perf_counter()
    np.stack([space.extract(row) for row in matrix])
    np.stack([space.series_spectrum(row) for row in matrix])
    scalar_build = time.perf_counter() - t0
    print_series(
        f"Index build inputs ({args.count} x {LENGTH})",
        ["path", "seconds", "speedup"],
        [
            ("scalar", scalar_build, 1.0),
            ("batched", batched_build, scalar_build / batched_build),
        ],
    )

    # ------------------------------------------------------------------
    rel = SequenceRelation.from_matrix(matrix)
    engine = SimilarityEngine(rel)
    rng = np.random.default_rng(5)
    queries = matrix[rng.choice(args.count, size=args.queries, replace=False)]
    t = moving_average(LENGTH, 20)

    rows = []
    probe_rows = []
    for label, transformation in (("identity", None), ("mavg20", t)):
        t0 = time.perf_counter()
        engine.range_query_batch(queries, RANGE_EPS, transformation=transformation)
        batch_s = time.perf_counter() - t0
        rows.append((f"range/{label}", len(queries) / batch_s))

        # Fused multi-query descent vs a shared-view per-query loop of the
        # recursive reference search (probe phase only: identical
        # candidate sets, different traversal).
        _, q_points = engine._query_reps_batch(queries, transformation, False)
        view = q._make_view(engine.tree, engine.space, transformation)
        rects = [
            engine.space.search_rect(q_points[i], RANGE_EPS)
            for i in range(q_points.shape[0])
        ]
        t0 = time.perf_counter()
        for rect in rects:
            view.search(rect)
        loop_s = time.perf_counter() - t0
        qlows = np.stack([r.lows for r in rects])
        qhighs = np.stack([r.highs for r in rects])
        t0 = time.perf_counter()
        view.search_many(qlows, qhighs)
        fused_s = time.perf_counter() - t0
        probe_rows.append((f"probe/{label}", loop_s, fused_s, loop_s / fused_s))

        t0 = time.perf_counter()
        engine.knn_query_batch(queries, KNN_K, transformation=transformation)
        batch_s = time.perf_counter() - t0
        rows.append((f"knn/{label}", len(queries) / batch_s))

    print_series(
        f"Batch query throughput ({args.count} series, {args.queries} queries)",
        ["workload", "q/s"],
        rows,
    )
    print_series(
        f"Index probe: per-query loop vs fused descent ({args.queries} queries)",
        ["workload", "loop s", "fused s", "speedup"],
        probe_rows,
    )


if __name__ == "__main__":
    main()
