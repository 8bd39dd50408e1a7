"""Metric definitions and the arithmetic that turns samples into them.

:data:`END_TO_END` and :data:`PER_LAYER` are the single list of names;
``BENCHMARK.json`` repeats name/unit/direction(/bound) and a self-test
keeps the two in step.  Each per-layer entry also names its layer and
the end-to-end metric + workload it is expected to move (on every other
workload the prediction is *no change*).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Optional, Sequence

from bench_e2e import spans as sp

@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    layer: str
    moves: str


END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "generated inputs in memory -> ready to answer the first op"),
    EndToEnd("latency_p50_ms", "ms", "lower", 0.20,
             "median over ops of each op's best latency over the passes"),
    EndToEnd("latency_tail_ms", "ms", "lower", 0.24,
             "the same at the workload's declared tail percentile"),
    EndToEnd("throughput_ops", "ops/s", "higher", 0.20,
             "ops per pass / sum of each op's best latency over the passes"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "peak resident set of the workload subprocess after the measured passes"),
)

_P50_PR = "latency_p50_ms on point_range"
_SWEEP = "latency_p50_ms, throughput_ops on selectivity_sweep"

PER_LAYER = (
    PerLayer("language.parse_us", "us", "lower", "core.language", _P50_PR),
    PerLayer("language.execute_self_us", "us", "lower", "core.language", _P50_PR),
    PerLayer("plan.compile_us", "us", "lower", "core.plan", _P50_PR),
    PerLayer("plan.execute_self_us", "us", "lower", "core.plan + core.ops", _P50_PR),
    PerLayer("planner.estimate_us", "us", "lower", "core.planner", _P50_PR),
    PerLayer("plan.scan_share", "ratio", "lower", "core.plan", _SWEEP),
    PerLayer("planner.fraction_abs_err", "ratio", "lower", "core.planner", _SWEEP),
    PerLayer("plan.auto_regret", "ratio", "lower", "core.planner", _SWEEP),
    PerLayer("features.query_extract_us", "us", "lower", "core.features + dft",
             "latency_p50_ms on point_range, knn"),
    PerLayer("features.build_extract_s", "s", "lower", "core.features + dft",
             "setup_s on every engine workload"),
    PerLayer("bulk.str_pack_s", "s", "lower", "rtree.bulk",
             "setup_s on point_range, knn, reopen"),
    PerLayer("kernel.freeze_s", "s", "lower", "rtree.kernel",
             "setup_s on point_range, knn, reopen"),
    PerLayer("transformed.view_us", "us", "lower", "rtree.transformed", _P50_PR),
    PerLayer("kernel.range_probe_us", "us", "lower", "rtree.kernel", _P50_PR),
    PerLayer("kernel.knn_ms", "ms", "lower", "rtree.kernel",
             "latency_p50_ms on knn, latency_tail_ms on subseq"),
    PerLayer("kernel.range_many_ms", "ms", "lower", "rtree.kernel",
             "throughput_ops on batch_join"),
    PerLayer("kernel.join_ms", "ms", "lower", "rtree.kernel",
             "throughput_ops on batch_join"),
    PerLayer("kernel.nodes_expanded_per_op", "count", "lower", "rtree.kernel",
             "latency_p50_ms on point_range, knn"),
    PerLayer("kernel.entries_scanned_per_op", "count", "lower", "rtree.kernel",
             "latency_p50_ms on point_range, knn"),
    PerLayer("kernel.frontier_peak_max", "count", "lower", "rtree.kernel",
             "peak_rss_mb on batch_join"),
    PerLayer("kernel.candidates_per_answer", "ratio", "lower", "rtree.kernel",
             "latency_p50_ms on point_range, selectivity_sweep"),
    PerLayer("ops.verify_ms", "ms", "lower", "core.ops",
             "latency_p50_ms, latency_tail_ms on selectivity_sweep"),
    PerLayer("ops.distance_computations_per_op", "count", "lower", "core.ops",
             "latency_p50_ms, latency_tail_ms on selectivity_sweep"),
    PerLayer("ops.verify_abandoned_share", "ratio", "higher", "core.ops",
             "latency_p50_ms, latency_tail_ms on selectivity_sweep"),
    PerLayer("seqscan.scan_ms", "ms", "lower", "scan.seqscan",
             "latency_tail_ms on selectivity_sweep"),
    PerLayer("parallel.workers", "count", "higher", "rtree.parallel",
             "throughput_ops on batch_join"),
    PerLayer("parallel.retries", "count", "lower", "rtree.parallel",
             "throughput_ops on batch_join"),
    PerLayer("parallel.degraded_to_serial", "count", "lower", "rtree.parallel",
             "throughput_ops on batch_join"),
    PerLayer("parallel.dispatch_ms", "ms", "lower", "rtree.parallel",
             "throughput_ops on batch_join"),
    PerLayer("parallel.speedup", "ratio", "higher", "rtree.parallel",
             "throughput_ops on batch_join"),
    PerLayer("stindex.build_s", "s", "lower", "subseq.stindex", "setup_s on subseq"),
    PerLayer("stindex.range_ms", "ms", "lower", "subseq.stindex",
             "latency_p50_ms on subseq"),
    PerLayer("stindex.probe_ms", "ms", "lower", "subseq.stindex",
             "latency_p50_ms on subseq"),
    PerLayer("stindex.refine_ms", "ms", "lower", "subseq.stindex",
             "latency_p50_ms on subseq"),
    PerLayer("stindex.multipiece_share", "ratio", "lower", "subseq.stindex",
             "latency_p50_ms on subseq"),
    PerLayer("stindex.candidates_per_answer", "ratio", "lower", "subseq.stindex",
             "latency_p50_ms on subseq"),
    PerLayer("stindex.knn_ms", "ms", "lower", "subseq.stindex",
             "latency_tail_ms, throughput_ops on subseq"),
    PerLayer("persist.save_s", "s", "lower", "persist + storage.manifest",
             "setup_s on reopen"),
    PerLayer("persist.fsync_count", "count", "lower", "persist + storage.manifest",
             "setup_s on reopen"),
    PerLayer("persist.load_s", "s", "lower", "persist + storage.manifest",
             "latency_p50_ms on reopen"),
    PerLayer("persist.load_extract_s", "s", "lower", "persist + core.features",
             "latency_p50_ms on reopen"),
    PerLayer("persist.first_query_ms", "ms", "lower", "persist + storage.manifest",
             "latency_p50_ms on reopen"),
    PerLayer("persist.bytes_per_user_byte", "ratio", "lower",
             "persist + storage.manifest", "setup_s on reopen"),
    PerLayer("trace.overhead_share", "ratio", "lower", "bench_e2e.spans",
             "nothing: reported, never folded into an end-to-end metric"),
    PerLayer("trace.accounted_share", "ratio", "higher", "bench_e2e.spans",
             "nothing: share of traced op wall booked to a named layer"),
    PerLayer("trace.unresolved_spans", "count", "lower", "bench_e2e.spans",
             "nothing: span targets that no longer resolve"),
)

#: layer metrics that are self time per op, with the factor from seconds.
PER_OP_SCALE = {"us": 1e6, "ms": 1e3}


# ----------------------------------------------------------------------
# sample arithmetic
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default), dependency-free."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: int) -> int:
    """The highest of p95/p90/p75/p50 with at least ten samples beyond it."""
    for pct in (95, 90, 75):
        if samples * (100 - pct) / 100.0 >= 10:
            return pct
    return 50


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def summary(value: float, samples: Sequence[float], unit: str, **extra) -> dict:
    """One record entry: the reported value, with the per-pass (per-repeat)
    values it was drawn from, their quartiles and their count beside it."""
    q1, _, q3 = quartiles(samples)
    return {"value": value, "unit": unit, "q1": q1, "q3": q3, "n": len(samples),
            "samples": list(samples), **extra}


def end_to_end(result: dict, tail: int) -> dict:
    """The end-to-end record entries from a child's measured passes.

    Every pass runs the same ops in the same order, so each op has one
    latency per pass.  The host this runs on slows down in bursts (a
    neighbour on the core, tenths of a second to a minute) and never speeds
    up, so an op's latency is taken as its **best over the passes** — the
    execution least disturbed — and the percentiles and the throughput are
    those of that best-of-K pass.  The per-pass values stay beside it.
    """
    passes = result["passes"]
    best = [min(column) for column in zip(*(p["latencies"] for p in passes))]
    p50 = [percentile(p["latencies"], 50) * 1e3 for p in passes]
    tails = [percentile(p["latencies"], tail) * 1e3 for p in passes]
    thr = [len(p["latencies"]) / p["wall"] for p in passes]
    setups = result["setup_s"]
    rss = result["peak_rss_kb"] / 1024.0
    return {
        "setup_s": summary(statistics.median(setups), setups, "s"),
        "latency_p50_ms": summary(percentile(best, 50) * 1e3, p50, "ms"),
        "latency_tail_ms": summary(
            percentile(best, tail) * 1e3, tails, "ms", percentile=tail
        ),
        "throughput_ops": summary(len(best) / sum(best), thr, "ops/s"),
        "peak_rss_mb": summary(rss, [rss], "MB"),
    }


def per_layer(
    result: dict,
    spans: list[list],
    answers: Optional[Sequence[int]] = None,
) -> dict:
    """Every per-layer record entry; layers this workload never enters read 0.

    ``result["trace"]`` carries what the child measured around the traced
    passes (walls, EXPLAIN counts, extras); ``spans`` are its span lines.
    """
    trace = result["trace"]
    out = {m.name: 0.0 for m in PER_LAYER}
    units = {m.name: m.unit for m in PER_LAYER}

    setup_spans = [s for s in spans if s[5] == sp.SETUP_OP]
    op_spans = [s for s in spans if s[5] != sp.SETUP_OP]
    setup_totals, _ = sp.layer_totals(setup_spans)
    for name, seconds in setup_totals.items():
        out[name] = seconds

    n_ops = trace["ops_traced"]
    op_totals, _ = sp.layer_totals(op_spans)
    for name, seconds in op_totals.items():
        scale = PER_OP_SCALE.get(units[name])
        out[name] = seconds * scale / n_ops if scale else seconds / n_ops
    booked = sum(op_totals.values())
    traced_wall = sum(trace["op_wall"])
    out["trace.accounted_share"] = booked / traced_wall if traced_wall else 0.0
    # best pass against best pass: interference only ever adds time
    untraced = min(p["wall"] for p in result["passes"])
    out["trace.overhead_share"] = (min(trace["pass_wall"]) - untraced) / untraced
    out["trace.unresolved_spans"] = float(len(trace["unresolved"]))

    out.update(_count_metrics(trace["counts"], answers or []))
    out.update({k: float(v) for k, v in trace.get("extras", {}).items()})
    return {name: {"value": out[name], "unit": units[name]} for name in out}


def _count_metrics(counts: list[dict], answers: Sequence[int]) -> dict:
    """Exact-count metrics from the per-op ``EXPLAIN ANALYZE`` digests."""
    if not counts:
        return {}
    n = len(counts)

    def total(key: str) -> int:
        return sum(c.get(key, 0) for c in counts)

    ranges = [c for c in counts if c.get("kind") == "range"]
    estimated = [c for c in ranges if c.get("estimated_fraction") is not None]
    indexed = [
        (c, a) for c, a in zip(counts, answers) if c.get("index_candidates") is not None
    ]
    cand = sum(c["index_candidates"] for c, _ in indexed)
    answered = sum(a for _, a in indexed)
    verified = total("verifications_completed") + total("verifications_abandoned")
    long_probes = [c for c in counts if c.get("pieces", 0) > 1]
    subseq = [
        (c, a) for c, a in zip(counts, answers) if c.get("subseq_candidates") is not None
    ]
    sub_answers = sum(a for _, a in subseq)
    out = {
        "kernel.nodes_expanded_per_op": total("nodes_expanded") / n,
        "kernel.entries_scanned_per_op": total("entries_scanned") / n,
        "kernel.frontier_peak_max": float(max(c.get("frontier_peak", 0) for c in counts)),
        "kernel.candidates_per_answer": cand / answered if answered else 0.0,
        "ops.distance_computations_per_op": total("distance_computations") / n,
        "ops.verify_abandoned_share": (
            total("verifications_abandoned") / verified if verified else 0.0
        ),
        "plan.scan_share": (
            sum(c["access_path"] == "scan" for c in ranges) / len(ranges)
            if ranges else 0.0
        ),
        "planner.fraction_abs_err": (
            statistics.fmean(
                abs(c["estimated_fraction"] - c["observed_fraction"]) for c in estimated
            ) if estimated else 0.0
        ),
        "stindex.multipiece_share": (
            sum(c["strategy"] == "multipiece" for c in long_probes) / len(long_probes)
            if long_probes else 0.0
        ),
        "stindex.candidates_per_answer": (
            sum(c["subseq_candidates"] for c, _ in subseq) / sub_answers
            if sub_answers else 0.0
        ),
    }
    executors = [c["executor"] for c in counts if c.get("executor")]
    if executors:
        out["parallel.workers"] = float(max(e.get("workers", 1) for e in executors))
        out["parallel.retries"] = float(max(e.get("retries", 0) for e in executors))
        out["parallel.degraded_to_serial"] = float(
            any(e.get("degraded_to_serial") for e in executors)
        )
    else:
        out["parallel.workers"] = 1.0
    return out
