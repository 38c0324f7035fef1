"""Summarize one result set, or compare two, by BENCHMARK.json's bounds.

Usage:
    python3 perfbench/compare.py BASE.jsonl              # spread of each metric
    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl # verdict per metric

Record files come from ``run.py --out`` or collect.py.  Per workload and
end-to-end metric it prints each side's median and quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median.  With two
sets it adds the ratio change / base with its base, the pairs the change won
(paired by seed when both sides ran the same seeds, else in order), and a
verdict:

    unresolved   a side's spread exceeds the bound, and not every change
                 run beats every base run
    better       the change wins at least 9 in 10 of at least 10 pairs, and
                 the medians differ by more than the base's quartile distance
    worse        the change's median is worse by more than the bound
    no change    otherwise: within the bound

Per-layer metrics of traced runs (--trace 1) are listed with medians and
ratios but no verdict: they have no bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(path: str) -> dict:
    """{(workload, trace): [record, ...]} in file order."""
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def _values(records: list, metric: str) -> list:
    return [(r["seed"], r["result"]["metrics"][metric]["value"])
            for r in records if metric in r["result"]["metrics"]]


def _stats(values: list) -> tuple:
    """(median, q1, q3, spread); quartiles need two values, else they equal the median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def _pairs(base: list, change: list) -> list:
    base_seeds = [s for s, _ in base]
    if sorted(base_seeds) == sorted(s for s, _ in change) and len(set(base_seeds)) == len(base_seeds):
        lookup = dict(change)
        return [(v, lookup[s]) for s, v in base]
    return [(b, c) for (_, b), (_, c) in zip(base, change)]


def _verdict(spec: dict, base: list, change: list) -> str:
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    b_med, b_q1, b_q3, b_spread = _stats([v for _, v in base])
    c_med, _, _, c_spread = _stats([v for _, v in change])
    pairs = _pairs(base, change)
    wins = sum((c < b) if lower else (c > b) for b, c in pairs)
    if lower:
        all_better = max(v for _, v in change) < min(v for _, v in base)
        worse_by = (c_med - b_med) / b_med
    else:
        all_better = min(v for _, v in change) > max(v for _, v in base)
        worse_by = (b_med - c_med) / b_med
    won = f"won {wins}/{len(pairs)} pairs"
    if max(b_spread, c_spread) > bound and not all_better:
        return f"unresolved (spread {max(b_spread, c_spread):.1%} > bound {bound:.0%}; {won})"
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(c_med - b_med) > b_q3 - b_q1:
        return f"better ({won})"
    if worse_by > bound:
        return f"worse by {worse_by:.1%} > bound {bound:.0%} ({won})"
    return f"no change within bound {bound:.0%} ({won})"


def _fmt(values: list, unit: str) -> str:
    median, q1, q3, spread = _stats(values)
    return f"{median:.6g} {unit} [q1 {q1:.6g}, q3 {q3:.6g}] spread {spread:.1%} n={len(values)}"


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [_load(path) for path in argv]
    unsteady = 0
    listed = [w["name"] for w in spec["workloads"]]
    seen = {workload for side in sides for workload, _ in side}
    for workload in listed + sorted(seen - set(listed)):
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            name, unit, bound = metric["name"], metric["unit"], metric["bound"]
            data = [_values(side.get((workload, 0), []), name) for side in sides]
            if not all(data):
                print(f"  {name}: no runs")
                continue
            print(f"  {name}")
            for label, values in zip(("base", "change"), data):
                print(f"    {label:6s} {_fmt([v for _, v in values], unit)}")
            if len(data) == 1:
                spread = _stats([v for _, v in data[0]])[3]
                steady = "steady" if spread <= bound / 3 else "within bound" if spread <= bound else "UNSTEADY"
                unsteady += steady == "UNSTEADY" and name != "setup_s" and workload in listed
                print(f"    spread vs bound {bound:.0%}: {steady}")
            else:
                base_median = _stats([v for _, v in data[0]])[0]
                ratio = _stats([v for _, v in data[1]])[0] / base_median
                print(f"    ratio change/base {ratio:.4f} (base median {base_median:.6g} {unit})")
                print(f"    verdict: {_verdict(metric, data[0], data[1])}")
        for metric in spec["per_layer"]:
            data = [_values(side.get((workload, 1), []), metric["name"]) for side in sides]
            if not all(data):
                continue
            medians = [_stats([v for _, v in values])[0] for values in data]
            line = f"  [layer] {metric['name']}: " + " -> ".join(f"{m:.6g}" for m in medians)
            if len(medians) == 2 and medians[0]:
                line += f" {metric['unit']} (ratio {medians[1] / medians[0]:.4f})"
            print(line)
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
