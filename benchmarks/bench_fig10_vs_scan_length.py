"""Figure 10: index versus sequential scan as sequence length varies.

Setup (Section 5): 1000 random walks, range queries *with* a (moving
average) transformation, racing Algorithm 2 over the transformed index
against the paper's tuned sequential scan — frequency-domain relation,
early-abandoning distance.  The paper finds the index wins at every
length, with the gap widening as sequences grow.

pytest: representative lengths 128 and 512.
sweep:  ``python -m benchmarks.bench_fig10_vs_scan_length``
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

LENGTHS = [64, 128, 256, 512, 1024]
NUM_SEQUENCES = 1000


def eps_for(length: int) -> float:
    """Threshold scaled with sqrt(length) to hold selectivity constant
    across the sweep (normal-form distances grow like sqrt(n))."""
    return 2.0 * (length / 128.0) ** 0.5


def setup(length: int):
    rel = get_walk_relation(NUM_SEQUENCES, length)
    engine = get_engine(rel, "fig10", space_factory=default_space)
    queries = pick_queries(rel, 5)
    t = moving_average(length, 20)
    return engine, queries, t


def run_index(engine, queries, t):
    eps = eps_for(engine.space.n)
    return sum(
        len(engine.range_query(q, eps, transformation=t, transform_query=True))
        for q in queries
    )


def run_scan(engine, queries, t):
    eps = eps_for(engine.space.n)
    total = 0
    for q in queries:
        total += len(
            scan_range(
                engine.ground_spectra,
                t.apply_spectrum(engine.query_spectrum(q)),
                eps,
                transformation=t,
            )
        )
    return total


@pytest.mark.parametrize("length", [128, 512])
def test_fig10_index(benchmark, length):
    engine, queries, t = setup(length)
    benchmark(run_index, engine, queries, t)


@pytest.mark.parametrize("length", [128, 512])
def test_fig10_scan(benchmark, length):
    engine, queries, t = setup(length)
    benchmark(run_scan, engine, queries, t)


def test_fig10_identical_answers():
    engine, queries, t = setup(128)
    for q in queries:
        a = engine.range_query(q, eps_for(128), transformation=t, transform_query=True)
        b = scan_range(
            engine.ground_spectra,
            t.apply_spectrum(engine.query_spectrum(q)),
            eps_for(128),
            transformation=t,
        )
        assert [(r, round(d, 8)) for r, d in a] == [(r, round(d, 8)) for r, d in b]


def main() -> None:
    rows = []
    for length in LENGTHS:
        engine, queries, t = setup(length)
        t_idx = time_per_query(lambda: run_index(engine, queries, t))
        t_scan = time_per_query(lambda: run_scan(engine, queries, t))
        rows.append(
            (
                length,
                1000 * t_idx / len(queries),
                1000 * t_scan / len(queries),
                t_scan / t_idx,
            )
        )
    print_series(
        "Figure 10 — index vs sequential scan, varying sequence length "
        f"({NUM_SEQUENCES} sequences, mavg20, eps ~ sqrt(n))",
        ["length", "index ms/q", "scan ms/q", "speedup"],
        rows,
    )
    print("\npaper shape: index wins at every length; gap grows with length.")


if __name__ == "__main__":
    main()
