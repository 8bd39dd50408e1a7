"""Compare two ledger records, one row per workload x end-to-end metric.

``python3 -m bench_e2e.compare A.json B.json`` — A is the base.  Each row
shows both values with the quartiles of their per-pass samples, the ratio
B/A, and a verdict:

* ``unresolved`` — either run's own quartile spread exceeds the metric's
  bound, so the pair cannot resolve a change that small;
* ``regressed`` — B is worse than A by more than the bound;
* ``ok`` — otherwise (including improvements).

``failed_share`` has the absolute bound 0: any failed op in B is a
regression.  Exit status is non-zero when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys

from bench_e2e import metrics


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """``(ratio B/A, verdict)`` for one metric entry pair."""
    ratio = b["value"] / a["value"] if a["value"] else float("inf")
    for side in (a, b):
        if side["value"] and (side["q3"] - side["q1"]) / side["value"] > bound:
            return ratio, "unresolved"
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    return ratio, "regressed" if worse > bound else "ok"


def _flat(value: float) -> dict:
    return {"value": value, "q1": value, "q3": value}


def _cell(entry: dict) -> str:
    return f"{entry['value']:.4f} [{entry['q1']:.4f},{entry['q3']:.4f}]"


def rows(base: dict, other: dict) -> list[dict]:
    out = []
    for name, wa in base["workloads"].items():
        wb = other["workloads"].get(name)
        if wb is None:
            continue
        for m in metrics.END_TO_END:
            a, b = wa["end_to_end"][m.name], wb["end_to_end"][m.name]
            ratio, word = verdict(a, b, m.better, m.bound)
            out.append({"workload": name, "metric": m.name, "unit": m.unit,
                        "a": a, "b": b, "ratio": ratio, "verdict": word})
        share_a, share_b = wa["failed_share"], wb["failed_share"]
        out.append({"workload": name, "metric": "failed_share", "unit": "ratio",
                    "a": _flat(share_a), "b": _flat(share_b),
                    "ratio": float("nan"),
                    "verdict": "regressed" if share_b > 0 else "ok"})
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="bench_e2e.compare", description=__doc__)
    parser.add_argument("base")
    parser.add_argument("other")
    args = parser.parse_args(argv)
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.other) as fh:
        other = json.load(fh)
    ha, hb = base["header"], other["header"]
    print(f"A: {args.base}  commit {ha['commit'][:12]} seed {ha['seed']} "
          f"calibration {ha['calibration_s']:.4f} s")
    print(f"B: {args.other}  commit {hb['commit'][:12]} seed {hb['seed']} "
          f"calibration {hb['calibration_s']:.4f} s")
    print(f"{'workload':<18}{'metric':<17}{'A value [pass q1,q3]':<34}"
          f"{'B value [pass q1,q3]':<34}{'B/A':>7}  verdict")
    table = rows(base, other)
    for r in table:
        print(f"{r['workload']:<18}{r['metric']:<17}{_cell(r['a']):<34}"
              f"{_cell(r['b']):<34}{r['ratio']:>7.3f}  {r['verdict']}"
              f"  (base = A, {r['unit']})")
    regressed = [r for r in table if r["verdict"] == "regressed"]
    unresolved = [r for r in table if r["verdict"] == "unresolved"]
    print(f"{len(table)} rows: {len(regressed)} regressed, {len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
