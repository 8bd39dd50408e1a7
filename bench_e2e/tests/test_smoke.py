"""Two smoke runs at one seed: identical op lists, identical exact counts."""

import numpy as np
import pytest

from bench_e2e import metrics, workloads
from bench_e2e.__main__ import run_workload

EXACT = (
    "kernel.nodes_expanded_per_op", "kernel.entries_scanned_per_op",
    "kernel.frontier_peak_max", "kernel.candidates_per_answer",
    "ops.distance_computations_per_op", "ops.verify_abandoned_share",
    "plan.scan_share", "planner.fraction_abs_err",
    "stindex.multipiece_share", "stindex.candidates_per_answer",
    "parallel.workers", "persist.fsync_count", "persist.bytes_per_user_byte",
)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_generation_is_a_function_of_the_seed(name):
    a = workloads.generate(name, seed=21, smoke=True)
    b = workloads.generate(name, seed=21, smoke=True)
    c = workloads.generate(name, seed=22, smoke=True)
    assert a["ops"] == b["ops"] and a["check"] == b["check"]
    assert all(np.array_equal(a["arrays"][k], b["arrays"][k]) for k in a["arrays"])
    assert any(not np.array_equal(a["arrays"][k], c["arrays"][k]) for k in a["arrays"])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_runs_are_clean_and_counts_repeat_exactly(name):
    first = run_workload(name, seed=21, seconds=0.2, trace=True, smoke=True)
    second = run_workload(name, seed=21, seconds=0.2, trace=True, smoke=True)
    for entry in (first, second):
        assert entry["failed"] == 0, entry["failures"]
        assert entry["unresolved_spans"] == []
        assert set(entry["end_to_end"]) == {m.name for m in metrics.END_TO_END}
        assert set(entry["per_layer"]) == {m.name for m in metrics.PER_LAYER}
        assert all(m["value"] > 0 for m in entry["end_to_end"].values())
        assert entry["per_layer"]["trace.accounted_share"]["value"] > 0.9
    for key in EXACT:
        assert first["per_layer"][key]["value"] == second["per_layer"][key]["value"], key
