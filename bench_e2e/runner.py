"""The child process: the program under test plus the timing loop.

``python3 -m bench_e2e.runner <workdir>`` reads ``inputs.npz`` and
``plan.json`` (arrays, statements, sizes — never the seed), runs

    set-up (timed, repeated from fresh objects) -> warm-up (untimed)
    -> a fixed number of measured passes over the fixed op list, tracing off
    -> [traced set-up, traced passes, EXPLAIN ANALYZE pass, extras]

and writes ``result.json`` (+ ``spans.jsonl``).  It drives the system
only through ``QuerySession.execute``, ``engine.plan(QuerySpec).execute()``
and ``save_engine``/``load_engine``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import sys
import time

import numpy as np

from repro import persist
from repro.core.engine import SimilarityEngine
from repro.core.language import QuerySession
from repro.core.plan import QuerySpec
from repro.core.transforms import moving_average
from repro.data.relation import SequenceRelation

from bench_e2e import spans as sp
from bench_e2e.oracle import MAVG_WINDOW


# ----------------------------------------------------------------------
# EXPLAIN digests: the exact counts one op produced
# ----------------------------------------------------------------------
def _walk(node: dict):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def digest(explain: dict) -> dict:
    """The counters of one ``EXPLAIN ANALYZE`` dict, flattened."""
    root = explain["plan"]
    io = root.get("io", {})
    frontiers = [n["frontier"] for n in _walk(root) if "frontier" in n]
    out = {
        "kind": explain["kind"],
        "access_path": explain["access_path"],
        "estimated_fraction": explain.get("estimated_candidate_fraction"),
        "distance_computations": io.get("distance_computations", 0),
        "verifications_completed": io.get("verifications_completed", 0),
        "verifications_abandoned": io.get("verifications_abandoned", 0),
        "nodes_expanded": sum(f["nodes_expanded"] for f in frontiers),
        "entries_scanned": sum(f["entries_scanned"] for f in frontiers),
        "frontier_peak": max((f["frontier_peak"] for f in frontiers), default=0),
        "index_candidates": (
            io.get("candidate_count", 0) if explain["access_path"] == "index" else None
        ),
        "executor": explain.get("executor"),
    }
    probe = explain.get("probe")
    if isinstance(probe, dict):
        out["strategy"] = probe["strategy"]
        out["pieces"] = probe["pieces"]
    return out


def merge_digests(kind: str, parts: list[dict]) -> dict:
    """One digest for an op made of several plans (a round, a reopen)."""
    out = {"kind": kind, "access_path": "mixed", "estimated_fraction": None}
    for key in ("distance_computations", "verifications_completed",
                "verifications_abandoned", "nodes_expanded", "entries_scanned"):
        out[key] = sum(p[key] for p in parts)
    out["frontier_peak"] = max(p["frontier_peak"] for p in parts)
    out["index_candidates"] = sum(p["index_candidates"] or 0 for p in parts)
    out["executor"] = next((p["executor"] for p in parts if p["executor"]), None)
    return out


def _rows(result) -> list:
    """A result list as plain JSON rows (tuples or SubseqMatch records)."""
    return [
        [m.series_id, m.offset, m.distance] if hasattr(m, "series_id") else list(m)
        for m in result
    ]


# ----------------------------------------------------------------------
# drivers: how each kind of workload sets up and runs one op
# ----------------------------------------------------------------------
class SessionDriver:
    """Statements through ``QuerySession.execute`` (four of the workloads)."""

    def __init__(self, arrays: dict, plan: dict, workdir: str) -> None:
        self.arrays, self.plan = arrays, plan
        self.session: QuerySession = None  # type: ignore[assignment]

    def setup(self) -> None:
        session = QuerySession()
        session.bind_relation("r", SequenceRelation.from_matrix(self.arrays["r"]))
        for array, prefix in self.plan["bind"].items():
            for i, row in enumerate(self.arrays[array]):
                session.bind_sequence(f"{prefix}{i}", row)
        window = self.plan["sizes"].get("window")
        if window:
            session.subseq_index("r", window).kernel  # seal + STR pack + freeze
        else:
            session.engine("r")
        self.session = session

    def run(self, op: dict):
        return self.session.execute(op["text"])

    def answer(self, op: dict, result) -> list:
        return _rows(result)

    def count(self, result) -> int:
        return len(result)

    def verify(self, index: int, result) -> None:
        return None

    def extras(self, fsyncs: int) -> dict:
        """Layer metrics only this kind of workload can measure."""
        return {}

    def digest(self, op: dict) -> dict:
        explain = self.session.execute("EXPLAIN ANALYZE " + op["text"])
        out = digest(explain)
        rows = self.arrays["r"].shape[0]
        if out["estimated_fraction"] is not None:
            # what the index filter really passes, whichever path ran
            if out["index_candidates"] is None:
                forced = digest(
                    self.session.execute(f"EXPLAIN ANALYZE {op['text']} PLAN index")
                )
                out["observed_fraction"] = forced["index_candidates"] / rows
            else:
                out["observed_fraction"] = out["index_candidates"] / rows
        if op["verb"] == "subseq_range":
            index = self.session.subseq_index("r", self.plan["sizes"]["window"])
            series, _ = index.candidate_offsets(
                self.arrays[op["qset"]][op["q"]], op["eps"], probe=out["strategy"]
            )
            out["subseq_candidates"] = int(series.shape[0])
        return out

    def regret(self, sample: int) -> float:
        """Time under default PLAN / time under the faster forced path."""
        ranges = [op for op in self.plan["ops"] if op["verb"] == "range"]
        picks = [ranges[int(i)] for i in np.linspace(0, len(ranges) - 1, num=sample)]

        def best_of_two(text: str) -> float:
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                self.session.execute(text)
                best = min(best, time.perf_counter() - t0)
            return best

        chosen = sum(best_of_two(op["text"]) for op in picks)
        ideal = sum(
            min(best_of_two(op["text"] + " PLAN index"),
                best_of_two(op["text"] + " PLAN scan"))
            for op in picks
        )
        return chosen / ideal


def _spec(kind: str, series, part: dict, length: int) -> QuerySpec:
    t = moving_average(length, MAVG_WINDOW) if part["using"] else None
    return QuerySpec(
        kind=kind, series=series, eps=part.get("eps"), k=part.get("k"),
        transformation=t, transform_query=True,
    )


class RoundsDriver(SessionDriver):
    """``batch_join``: two fused batches via ``engine.plan`` plus one JOIN."""

    def setup(self) -> None:
        session = QuerySession()
        session.bind_relation("r", SequenceRelation.from_matrix(self.arrays["r"]))
        session.bind_relation("j", SequenceRelation.from_matrix(self.arrays["j"]))
        session.engine("r")
        session.engine("j")
        self.session = session

    def _plans(self, op: dict) -> tuple:
        engine = self.session.engine("r")
        length = self.arrays["r"].shape[1]
        lo, hi = op["range"]["rows"]
        range_plan = engine.plan(
            _spec("range", self.arrays["range_q"][lo:hi], op["range"], length)
        )
        lo, hi = op["knn"]["rows"]
        knn_plan = engine.plan(
            _spec("knn", self.arrays["knn_q"][lo:hi], op["knn"], length)
        )
        return range_plan, knn_plan

    def run(self, op: dict):
        range_plan, knn_plan = self._plans(op)
        return (
            range_plan.execute(),
            knn_plan.execute(),
            self.session.execute(op["join"]["text"]),
        )

    def answer(self, op: dict, result) -> dict:
        ranges, knns, join = result
        return {
            "range": [_rows(r) for r in ranges],
            "knn": [_rows(r) for r in knns],
            "join": _rows(join),
        }

    def count(self, result) -> int:
        ranges, knns, join = result
        return sum(map(len, ranges)) + sum(map(len, knns)) + len(join)

    def digest(self, op: dict) -> dict:
        range_plan, knn_plan = self._plans(op)
        range_plan.execute()
        knn_plan.execute()
        join = self.session.execute("EXPLAIN ANALYZE " + op["join"]["text"])
        return merge_digests(
            "round", [digest(range_plan.explain()), digest(knn_plan.explain()), digest(join)]
        )


class ReopenDriver(SessionDriver):
    """``reopen``: ``load_engine`` then a cold range and k-NN plan."""

    def __init__(self, arrays: dict, plan: dict, workdir: str) -> None:
        super().__init__(arrays, plan, workdir)
        self.image = os.path.join(workdir, "image")
        self.expected: dict[int, tuple] = {}
        self.first_query_s: list[float] = []

    def setup(self) -> None:
        shutil.rmtree(self.image, ignore_errors=True)
        self.engine = SimilarityEngine(SequenceRelation.from_matrix(self.arrays["r"]))
        persist.save_engine(self.engine, self.image)
        self.expected.clear()
        self.first_query_s.clear()

    def _query(self, engine, op: dict) -> tuple:
        length = self.arrays["r"].shape[1]
        series = self.arrays["q"][op["q"]]
        ranges = engine.plan(_spec("range", series, op["range"], length))
        knn = engine.plan(_spec("knn", series, op["knn"], length))
        return ranges, knn

    def run(self, op: dict):
        engine = persist.load_engine(self.image)
        range_plan, knn_plan = self._query(engine, op)
        t0 = time.perf_counter()
        ranges = range_plan.execute()
        self.first_query_s.append(time.perf_counter() - t0)
        return ranges, knn_plan.execute(), engine.health().as_dict()["status"]

    def answer(self, op: dict, result) -> dict:
        return {"range": _rows(result[0]), "knn": _rows(result[1])}

    def count(self, result) -> int:
        return len(result[0]) + len(result[1])

    def verify(self, index: int, result):
        """The loaded engine must be healthy and agree with the built one."""
        op = self.plan["ops"][index]
        if index not in self.expected:
            self.expected[index] = tuple(p.execute() for p in self._query(self.engine, op))
        if result[2] != "ok":
            return f"health is {result[2]!r} after load"
        for got, want, what in zip(result[:2], self.expected[index], ("range", "knn")):
            if [m[0] for m in got] != [m[0] for m in want] or not np.allclose(
                [m[1] for m in got], [m[1] for m in want], rtol=0, atol=1e-9
            ):
                return f"loaded engine's {what} answer differs from the built engine's"
        return None

    def digest(self, op: dict) -> dict:
        engine = persist.load_engine(self.image)
        plans = self._query(engine, op)
        for p in plans:
            p.execute()
        return merge_digests("reopen", [digest(p.explain()) for p in plans])

    def extras(self, fsyncs: int) -> dict:
        image_bytes = sum(
            os.path.getsize(os.path.join(self.image, name))
            for name in os.listdir(self.image)
        )
        return {
            "persist.fsync_count": fsyncs,
            "persist.bytes_per_user_byte": image_bytes / self.arrays["r"].nbytes,
            "persist.first_query_ms": 1e3 * float(np.mean(self.first_query_s)),
        }


DRIVERS = {"session": SessionDriver, "rounds": RoundsDriver, "reopen": ReopenDriver}


# ----------------------------------------------------------------------
# the timing loop
# ----------------------------------------------------------------------
def run_pass(driver, ops: list[dict], recorder: sp.Recorder | None = None) -> dict:
    """One closed-loop pass over the op list; one client, no think time."""
    latencies, results, errors = [], [], []
    gc.collect()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op = i
        t0 = time.perf_counter()
        try:
            res = driver.run(op)
        except Exception as exc:  # refused or failed: counted, never fatal
            res = None
            errors.append([i, f"{type(exc).__name__}: {exc}"])
        latencies.append(time.perf_counter() - t0)
        results.append(res)
    wall = time.perf_counter() - start
    return {"latencies": latencies, "wall": wall, "errors": errors, "results": results}


def _peak_rss_kb() -> int:
    """Peak resident set of this process alone.

    ``ru_maxrss`` also carries the parent's size across ``exec`` on Linux,
    which would make a small workload report the benchmark's own memory;
    ``VmHWM`` belongs to this address space only.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def measure(driver, plan: dict) -> dict:
    ops = plan["ops"]
    # set-up from fresh objects: at least ``setup_reps`` times, and on (to 15)
    # while they are cheap enough to fit a few seconds, so the median of a
    # quarter-second set-up does not hang on two or three disturbed repeats
    setup_s: list[float] = []
    began = time.perf_counter()
    while len(setup_s) < plan["setup_reps"] or (
        len(setup_s) < 15 and time.perf_counter() - began < plan["setup_budget_s"]
    ):
        gc.collect()
        t0 = time.perf_counter()
        driver.setup()
        setup_s.append(time.perf_counter() - t0)
    for op in ops[: plan["warmup"]]:
        driver.run(op)

    passes: list[dict] = []
    for _ in range(plan["passes"]):
        if passes:
            del passes[-1]["results"]  # only the last pass's answers are checked
        passes.append(run_pass(driver, ops))
    peak_rss_kb = _peak_rss_kb()

    last = passes[-1].pop("results")
    problems = []
    for i, res in enumerate(last):
        if res is not None:
            problem = driver.verify(i, res)
            if problem:
                problems.append([i, problem])
    out = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_kb": peak_rss_kb,
        "answers": {
            str(i): driver.answer(ops[i], last[i])
            for i in plan["check"] if last[i] is not None
        },
        "answer_counts": [0 if r is None else driver.count(r) for r in last],
        "problems": problems,
    }
    return out


def trace(driver, plan: dict, workdir: str) -> dict:
    """Traced set-up and passes, then the exact counts and the extras."""
    ops = plan["ops"]
    recorder = sp.Recorder()
    fsyncs = 0
    real_fsync = os.fsync

    def counting_fsync(fd):
        nonlocal fsyncs
        fsyncs += 1
        return real_fsync(fd)

    inst = sp.install(recorder)
    os.fsync = counting_fsync
    try:
        recorder.op = sp.SETUP_OP
        driver.setup()
        os.fsync = real_fsync
        pass_wall, op_wall = [], []
        for _ in range(plan["traced_passes"]):
            traced = run_pass(driver, ops, recorder)
            pass_wall.append(traced["wall"])
            op_wall.extend(traced["latencies"])
    finally:
        os.fsync = real_fsync
        inst.uninstall()
    recorder.write_jsonl(os.path.join(workdir, "spans.jsonl"))

    extras = driver.extras(fsyncs)
    if plan.get("regret_sample"):
        extras["plan.auto_regret"] = driver.regret(plan["regret_sample"])
    return {
        "ops_traced": len(ops) * plan["traced_passes"],
        "pass_wall": pass_wall,
        "op_wall": op_wall,
        "unresolved": inst.unresolved,
        "counts": [driver.digest(op) for op in ops],
        "extras": extras,
    }


def main(workdir: str) -> int:
    with open(os.path.join(workdir, "plan.json")) as fh:
        plan = json.load(fh)
    with np.load(os.path.join(workdir, "inputs.npz")) as data:
        arrays = {name: data[name] for name in data.files}
    driver = DRIVERS[plan["driver"]](arrays, plan, workdir)
    result = measure(driver, plan)
    if plan["trace"]:
        result["trace"] = trace(driver, plan, workdir)
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
