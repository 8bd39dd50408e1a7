"""The tail rule, the sample arithmetic and BENCHMARK.json's agreement."""

import json
import os
import re

import numpy as np
import pytest

from bench_e2e import ROOT, metrics, workloads


def test_tail_percentile_rule():
    # the highest of p95/p90/p75/p50 with at least ten samples beyond it
    assert metrics.tail_percentile(200) == 95
    assert metrics.tail_percentile(199) == 90
    assert metrics.tail_percentile(100) == 90
    assert metrics.tail_percentile(99) == 75
    assert metrics.tail_percentile(40) == 75
    assert metrics.tail_percentile(39) == 50
    assert metrics.tail_percentile(3) == 50


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_declared_tail_is_what_the_rule_gives(name):
    w = workloads.WORKLOADS[name]
    ops = len(workloads.generate(name, seed=5)["ops"])
    assert w.passes(0.0) == workloads.MIN_PASSES
    assert w.tail == metrics.tail_percentile(ops)


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    values = rng.random(37).tolist()
    for pct in (50, 75, 90, 95):
        assert metrics.percentile(values, pct) == pytest.approx(np.percentile(values, pct))


def test_end_to_end_takes_each_ops_best_latency_over_the_passes():
    result = {
        "setup_s": [0.5, 0.3, 0.4],
        "peak_rss_kb": 2048,
        "passes": [
            {"latencies": [0.001, 0.002, 0.003], "wall": 0.006},
            {"latencies": [0.002, 0.004, 0.006], "wall": 0.012},
            {"latencies": [0.001, 0.001, 0.010], "wall": 0.012},
        ],
    }
    e2e = metrics.end_to_end(result, tail=75)
    assert e2e["setup_s"]["value"] == 0.4  # set-up keeps the median of its repeats
    # best over the passes, op by op: [1, 1, 3] ms
    assert e2e["latency_p50_ms"]["value"] == pytest.approx(1.0)
    assert e2e["latency_tail_ms"]["value"] == pytest.approx(2.0)
    assert e2e["latency_tail_ms"]["percentile"] == 75
    assert e2e["throughput_ops"]["value"] == pytest.approx(3 / 0.005)
    # the per-pass values stay beside the reported one
    assert e2e["latency_p50_ms"]["samples"] == pytest.approx([2.0, 4.0, 1.0])
    assert e2e["throughput_ops"]["samples"] == pytest.approx([500.0, 250.0, 250.0])
    assert e2e["peak_rss_mb"]["value"] == 2.0


def test_benchmark_json_repeats_the_metric_tables_and_meets_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["bench_e2e"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [
        w.why for w in workloads.WORKLOADS.values()
    ]
    assert bench["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert bench["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]] + [
        w["name"] for w in bench["workloads"]
    ]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [m["unit"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert 2 <= len(bench["workloads"]) <= 8 and len(bench["per_layer"]) <= 128
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
