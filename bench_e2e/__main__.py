"""Command line of the ledger.

Two ways in, one code path:

* ``python3 -m bench_e2e --seed 1997`` — the whole suite: six workloads,
  every metric printed by name with its unit, ``--out`` writes the record
  (``--smoke``, ``--workload NAME`` and ``--no-trace`` select less);
* ``python3 -m bench_e2e --workload W --seed N --seconds S --trace 0|1``
  — one run as the benchmark driver makes it; the last line of standard
  output is one JSON object with ``correct``/``attempted``/``failed`` and
  the end-to-end (``--trace 0``) or per-layer (``--trace 1``) metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import numpy as np

from bench_e2e import PROGRAM_SRC, ROOT, metrics, oracle, spans, workloads

#: ``run_seconds`` of BENCHMARK.json; the suite measures each workload this long.
RUN_SECONDS = 10.0
SETUP_REPS = 5
SETUP_BUDGET_S = 2.5
TRACED_PASSES = 3
REGRET_SAMPLE = 24
SPEEDUP_ROUNDS = 8
WORK_ROOT = os.path.join(ROOT, ".bench_e2e_work")


# ----------------------------------------------------------------------
# one workload = generate -> child -> oracle check -> metrics
# ----------------------------------------------------------------------
def _child_env(extra: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([PROGRAM_SRC, ROOT])
    env["PYTHONHASHSEED"] = "0"
    env.update(extra)
    return env


def _run_child(workdir: str, arrays: dict, plan: dict, env: dict) -> dict:
    os.makedirs(workdir, exist_ok=True)
    np.savez(os.path.join(workdir, "inputs.npz"), **arrays)
    with open(os.path.join(workdir, "plan.json"), "w") as fh:
        json.dump(plan, fh)
    proc = subprocess.run(
        [sys.executable, "-m", "bench_e2e.runner", workdir],
        cwd=ROOT, env=_child_env(env), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_e2e: workload subprocess failed ({proc.returncode})")
    with open(os.path.join(workdir, "result.json")) as fh:
        return json.load(fh)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict:
    """Run one workload end to end; returns its record entry."""
    w = workloads.WORKLOADS[name]
    inputs = workloads.generate(name, seed, smoke)
    ops = inputs["ops"]
    plan = {
        "driver": w.driver, "ops": ops, "check": inputs["check"],
        "bind": inputs["bind"], "sizes": inputs["sizes"],
        "passes": 2 if smoke else w.passes(seconds),
        "setup_reps": 2 if smoke else SETUP_REPS,
        "setup_budget_s": 0.0 if smoke else SETUP_BUDGET_S,
        "warmup": max(1, len(ops) // 5), "trace": trace,
        "traced_passes": 2 if smoke else TRACED_PASSES,
        "regret_sample": (
            min(REGRET_SAMPLE, len(ops)) if name == "selectivity_sweep" and trace else 0
        ),
    }
    workdir = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    try:
        result = _run_child(workdir, inputs["arrays"], plan, {})
        mismatches = check_answers(inputs, result["answers"])
        entry = {
            "why": w.why,
            "ops_per_pass": len(ops),
            "passes": len(result["passes"]),
            "checked_ops": len(result["answers"]),
            "sizes": inputs["sizes"],
            "end_to_end": metrics.end_to_end(result, w.tail),
        }
        raised = [e for p in result["passes"] for e in p["errors"]]
        wrong = result["problems"] + mismatches
        failures = [f"op {i} raised {msg}" for i, msg in raised] + [
            f"op {i}: {msg}" for i, msg in wrong
        ]
        # every attempt that raised, plus every checked op with a wrong answer
        entry["attempted"] = sum(len(p["latencies"]) for p in result["passes"])
        entry["failed"] = len(raised) + len({i for i, _ in wrong})
        entry["failed_share"] = entry["failed"] / entry["attempted"]
        entry["failures"] = failures[:20]
        if trace:
            span_lines = spans.read_jsonl(os.path.join(workdir, "spans.jsonl"))
            entry["per_layer"] = metrics.per_layer(
                result, span_lines, result["answer_counts"]
            )
            if name == "batch_join":
                entry["per_layer"].update(_sharded(workdir, inputs, plan))
            entry["unresolved_spans"] = result["trace"]["unresolved"]
            entry["spans_recorded"] = len(span_lines)
        return entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)


def _sharded(workdir: str, inputs: dict, plan: dict) -> dict:
    """The ``parallel.*`` entries: the first rounds again, serial and sharded.

    End-to-end numbers are taken in the default configuration (one kernel
    thread).  Here two more children run the first rounds with
    ``REPRO_KERNEL_THREADS`` 1 and ``auto``; the sharded one is traced, so
    its executor block and its ``KernelExecutor`` spans are the layer's.
    """
    short = dict(plan, ops=plan["ops"][:SPEEDUP_ROUNDS], check=[], passes=workloads.MIN_PASSES,
                 setup_reps=1, setup_budget_s=0.0, warmup=1, traced_passes=1,
                 regret_sample=0)
    walls, sharded = {}, {}
    for label, threads in (("serial", "1"), ("sharded", "auto")):
        child_dir = os.path.join(workdir, label)
        res = _run_child(child_dir, inputs["arrays"], dict(short, trace=label == "sharded"),
                         {"REPRO_KERNEL_THREADS": threads})
        walls[label] = min(p["wall"] for p in res["passes"])  # least disturbed pass
        if label == "sharded":
            sharded = metrics.per_layer(
                res, spans.read_jsonl(os.path.join(child_dir, "spans.jsonl"))
            )
    out = {name: m for name, m in sharded.items() if name.startswith("parallel.")}
    out["parallel.speedup"] = {"value": walls["serial"] / walls["sharded"], "unit": "ratio"}
    return out


# ----------------------------------------------------------------------
# the oracle check of the sampled ops
# ----------------------------------------------------------------------
def check_answers(inputs: dict, answers: dict) -> list[list]:
    """``[op index, message]`` per disagreement between program and brute force."""
    arrays, ops = inputs["arrays"], inputs["ops"]
    whole: dict[str, oracle.WholeOracle] = {}

    def truth(rel: str) -> oracle.WholeOracle:
        if rel not in whole:
            whole[rel] = oracle.WholeOracle(arrays[rel])
        return whole[rel]

    def whole_check(rows, query, part) -> list[str]:
        dists = truth("r").distances(query, part["using"])
        got = {int(i): float(d) for i, d in rows}
        if part.get("k") is not None:
            limit = oracle.kth_smallest(dists, part["k"])
            return oracle.check_nearest(got, oracle.matrix_dists(dists, limit), part["k"])
        return oracle.check_threshold(
            got, oracle.matrix_dists(dists, part["eps"]), part["eps"]
        )

    joins: dict[bool, np.ndarray] = {}
    failures = []
    for key, answer in answers.items():
        op = ops[int(key)]
        verb = op["verb"]
        problems: list[str] = []
        if verb in ("range", "knn"):
            problems = whole_check(answer, arrays[op["qset"]][op["q"]], op)
        elif verb in ("subseq_range", "subseq_knn"):
            dists = oracle.window_distances(arrays["r"], arrays[op["qset"]][op["q"]])
            got = {(int(s), int(o)): float(d) for s, o, d in answer}
            if verb == "subseq_knn":
                limit = oracle.kth_smallest(dists, op["k"])
                problems = oracle.check_nearest(
                    got, oracle.matrix_dists(dists, limit), op["k"]
                )
            else:
                problems = oracle.check_threshold(
                    got, oracle.matrix_dists(dists, op["eps"]), op["eps"]
                )
        elif verb == "reopen":
            query = arrays["q"][op["q"]]
            problems = whole_check(answer["range"], query, op["range"]) + whole_check(
                answer["knn"], query, op["knn"]
            )
        elif verb == "round":
            for part, qset in (("range", "range_q"), ("knn", "knn_q")):
                lo, hi = op[part]["rows"]
                for row, rows in zip(range(lo, hi), answer[part]):
                    problems += whole_check(rows, arrays[qset][row], op[part])
            using = op["join"]["using"]
            if using not in joins:
                pairs = truth("j").pair_distances(using)
                pairs[np.tril_indices(pairs.shape[0])] = np.inf  # keep i < j once
                joins[using] = pairs
            eps = op["join"]["eps"]
            got = {(int(i), int(j)): float(d) for i, j, d in answer["join"]}
            problems += oracle.check_threshold(
                got, oracle.matrix_dists(joins[using], eps), eps
            )
        text = op.get("text") or op.get("join", {}).get("text") or verb
        failures += [[int(key), f"[{text}] {p}"] for p in problems]
    return failures


# ----------------------------------------------------------------------
# record header
# ----------------------------------------------------------------------
def calibration_s() -> float:
    """Wall time of a fixed numpy loop, so machine drift between records shows."""
    rng = np.random.default_rng(0)
    block = rng.standard_normal((2000, 128))
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(20):
            spec = np.fft.fft(block, axis=1)
            np.sqrt(np.sum(spec.real**2 + spec.imag**2, axis=1)).sum()
            np.sort(block, axis=1)
        best = min(best, time.perf_counter() - t0)
    return best


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def header(seed: int, seconds: float, smoke: bool) -> dict:
    return {
        "seed": seed, "seconds": seconds, "smoke": smoke,
        "commit": _commit(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "calibration_s": calibration_s(),
        "min_passes": workloads.MIN_PASSES, "setup_reps": SETUP_REPS,
        "setup_budget_s": SETUP_BUDGET_S,
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def driver_line(entry: dict, trace: bool) -> str:
    """The one JSON object the benchmark driver reads from the last line."""
    source = entry["per_layer"] if trace else entry["end_to_end"]
    return json.dumps({
        "correct": entry["failed"] == 0,
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in source.items()
        },
    })


def print_entry(name: str, entry: dict) -> None:
    print(f"\n== {name}: {entry['ops_per_pass']} ops x {entry['passes']} passes, "
          f"{entry['checked_ops']} ops checked, failed {entry['failed']}/{entry['attempted']}")
    for metric, m in entry["end_to_end"].items():
        note = f" (p{m['percentile']})" if "percentile" in m else ""
        print(f"  {metric:<34}{m['value']:>14.4f} {m['unit']:<6}"
              f" q1 {m['q1']:.4f} q3 {m['q3']:.4f} n {m['n']}{note}")
    print(f"  {'failed_share':<34}{entry['failed_share']:>14.4f} ratio")
    for metric, m in entry.get("per_layer", {}).items():
        print(f"  {metric:<34}{m['value']:>14.4f} {m['unit']}")
    for line in entry["failures"]:
        print(f"  FAILED {line}")
    if entry.get("unresolved_spans"):
        print(f"  unresolved spans: {', '.join(entry['unresolved_spans'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench_e2e", description=__doc__)
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1997)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: print one JSON result line")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 20, whole suite under 20 s, same code paths")
    parser.add_argument("--out", help="write the full record (JSON) here")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        print(f"bench_e2e: no program to measure under {PROGRAM_SRC}", file=sys.stderr)
        return 2

    seconds = args.seconds
    if seconds is None:
        seconds = 0.3 if args.smoke else RUN_SECONDS
    names = args.workload or list(workloads.WORKLOADS)

    if args.trace is not None:  # one run, as the benchmark driver makes it
        if len(names) != 1:
            parser.error("--trace takes exactly one --workload")
        entry = run_workload(names[0], args.seed, seconds, bool(args.trace), args.smoke)
        print_entry(names[0], entry)
        print(driver_line(entry, bool(args.trace)))
        return 0

    record = {"header": header(args.seed, seconds, args.smoke), "workloads": {}}
    print("header: " + json.dumps(record["header"]))
    for name in names:
        entry = run_workload(name, args.seed, seconds, not args.no_trace, args.smoke)
        record["workloads"][name] = entry
        print_entry(name, entry)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0 if all(e["failed"] == 0 for e in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
