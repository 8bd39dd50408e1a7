"""Run-to-run spread of the end-to-end metrics, the way the driver takes it.

``python3 -m bench_e2e.spread [--workload W] [--runs 10] [--first-seed 1]``
runs the benchmark command once per seed on each workload and prints, per
end-to-end metric, the median and the distance between the first and the
third quartile as a share of it, next to the metric's bound.  A benchmark
is steady when every spread stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from bench_e2e import ROOT, metrics, workloads


def one_run(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {workload} seed {seed}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if not line["correct"]:
        raise SystemExit(f"incorrect answers: {workload} seed {seed}")
    return {name: m["value"] for name, m in line["metrics"].items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench_e2e.spread", description=__doc__)
    parser.add_argument("--workload", action="append", choices=list(workloads.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write every run's values (JSON) here")
    args = parser.parse_args(argv)

    with open(f"{ROOT}/BENCHMARK.json") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table: dict[str, dict[str, list[float]]] = {}
    worst = 0.0
    for workload in args.workload or list(workloads.WORKLOADS):
        runs = [
            one_run(bench["command"], workload, args.first_seed + i, bench["run_seconds"])
            for i in range(args.runs)
        ]
        table[workload] = {name: [r[name] for r in runs] for name in bounds}
        print(f"\n{workload}  ({args.runs} runs, seeds {args.first_seed}..)")
        for name, values in table[workload].items():
            _, median, _ = metrics.quartiles(values)
            share = metrics.spread(values)
            ratio = share / bounds[name]
            if name != "setup_s":
                worst = max(worst, ratio)
            print(f"  {name:<18} median {median:>12.4f}  spread {share:>7.4f}"
                  f"  bound {bounds[name]:.2f}  spread/bound {ratio:>5.2f}")
    print(f"\nworst spread/bound (setup_s aside): {worst:.2f}"
          f"  ({'steady' if worst < 1 / 3 else 'not below a third'})")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(table, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
