"""Figure 11: index versus sequential scan as the relation grows.

Setup (Section 5): length 128, relation size 500..12,000, range queries
with a moving-average transformation.  The paper finds the index's
advantage grows with the number of sequences.

pytest: representative sizes 1000 and 8000.
sweep:  ``python -m benchmarks.bench_fig11_vs_scan_cardinality``
"""

from __future__ import annotations

import pytest

from benchmarks.common import (
    default_space,
    get_engine,
    get_walk_relation,
    pick_queries,
    print_series,
    time_per_query,
)
from repro.core.transforms import moving_average
from repro.scan import scan_range

COUNTS = [500, 1000, 2000, 4000, 8000, 12000]
LENGTH = 128
EPS = 2.0


def setup(count: int):
    rel = get_walk_relation(count, LENGTH)
    engine = get_engine(rel, "fig11", space_factory=default_space)
    queries = pick_queries(rel, 5)
    t = moving_average(LENGTH, 20)
    return engine, queries, t


def run_index(engine, queries, t):
    return sum(
        len(engine.range_query(q, EPS, transformation=t, transform_query=True))
        for q in queries
    )


def run_scan(engine, queries, t):
    total = 0
    for q in queries:
        total += len(
            scan_range(
                engine.ground_spectra,
                t.apply_spectrum(engine.query_spectrum(q)),
                EPS,
                transformation=t,
            )
        )
    return total


@pytest.mark.parametrize("count", [1000, 8000])
def test_fig11_index(benchmark, count):
    engine, queries, t = setup(count)
    benchmark(run_index, engine, queries, t)


@pytest.mark.parametrize("count", [1000, 8000])
def test_fig11_scan(benchmark, count):
    engine, queries, t = setup(count)
    benchmark(run_scan, engine, queries, t)


def main() -> None:
    rows = []
    for count in COUNTS:
        engine, queries, t = setup(count)
        t_idx = time_per_query(lambda: run_index(engine, queries, t))
        t_scan = time_per_query(lambda: run_scan(engine, queries, t))
        rows.append(
            (
                count,
                1000 * t_idx / len(queries),
                1000 * t_scan / len(queries),
                t_scan / t_idx,
            )
        )
    print_series(
        "Figure 11 — index vs sequential scan, varying relation size "
        f"(length {LENGTH}, mavg20, eps={EPS})",
        ["sequences", "index ms/q", "scan ms/q", "speedup"],
        rows,
    )
    print("\npaper shape: speedup grows with the number of sequences.")


if __name__ == "__main__":
    main()
