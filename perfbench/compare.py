"""Spreads of one result set, or an A/B comparison of two.

A result set is a JSON-lines file written by ``run.py --sweep``: one
``{"workload", "seed", "trace", "result"}`` record per run.  Quartiles are
``statistics.quantiles(values, n=4)``; spread is (q3 - q1) / median.

One set: a row per workload and metric with its median, quartiles and
spread, flagged when the spread exceeds the metric's bound, or a third of
it (the benchmark's own steadiness target).

Two sets A and B (say parent and change): a row per workload and metric
with each side's median and quartiles, B's change of median, the share of
seeds on which B beats A (ties count for neither), and flags for any
result outside the bounds: a side's spread above the bound (the metric is
unresolved), B worse than A by more than the bound, or a failed run.
"""

from __future__ import annotations

import json
import statistics


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def _series(records, workload, metric) -> dict[int, float]:
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and metric in r["result"]["metrics"]}


def _fail_frac(records, workload) -> float:
    runs = [r["result"] for r in records if r["workload"] == workload]
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def report(paths: list[str], spec: dict) -> int:
    sets = [load(p) for p in paths]
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = list(dict.fromkeys(r["workload"] for s in sets for r in s))
    metrics = list(dict.fromkeys(m for s in sets for r in s
                                 for m in r["result"]["metrics"]))
    flagged = 0
    for workload in workloads:
        fails = [_fail_frac(s, workload) for s in sets]
        bad = [s for s in sets if any(not r["result"]["correct"] for r in s
                                      if r["workload"] == workload)]
        print(f"{workload}: fail_frac " + " vs ".join(f"{f:.4f}" for f in fails)
              + ("  FLAG incorrect run" if bad else ""))
        flagged += bool(bad) or any(fails)
        for metric in metrics:
            series = [_series(s, workload, metric) for s in sets]
            if not all(series):
                continue
            m = info.get(metric, {"unit": "?", "better": "lower"})
            row = _ab_row(series, m) if len(sets) == 2 else _spread_row(series[0], m)
            flagged += "FLAG" in row
            print(f"  {metric:<40} {m['unit']:<6} {row}")
    return 1 if flagged else 0


def _fmt(values) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def _spread_row(series, m) -> str:
    values = list(series.values())
    s = spread(values)
    row = f"n={len(values)} median {_fmt(values)} spread {s:.2%}"
    bound = m.get("bound")
    if bound is not None:
        row += f" (bound {bound:.0%})"
        if s > bound:
            row += "  FLAG spread above bound"
        elif s > bound / 3 and m["name"] != "setup_s":
            row += "  FLAG spread above a third of the bound"
    return row


def _ab_row(series, m) -> str:
    a, b = series
    va, vb = list(a.values()), list(b.values())
    ma, mb = statistics.median(va), statistics.median(vb)
    sign = 1 if m["better"] == "lower" else -1
    seeds = sorted(set(a) & set(b))
    wins = sum(1 for s in seeds if sign * (a[s] - b[s]) > 0)
    change = (mb - ma) / abs(ma) if ma else (0.0 if mb == ma else float("inf"))
    row = (f"A {_fmt(va)}  B {_fmt(vb)}  change {change:+.2%}  "
           f"B wins {wins}/{len(seeds)}")
    bound = m.get("bound")
    flags = []
    if bound is not None:
        for side, values in (("A", va), ("B", vb)):
            if spread(values) > bound:
                flags.append(f"{side} spread above bound: unresolved")
        if sign * (mb - ma) > bound * abs(ma):
            flags.append("B worse than A by more than the bound")
    q1, _, q3 = quartiles(va)
    if len(seeds) >= 10 and wins >= 0.9 * len(seeds) and abs(mb - ma) > q3 - q1:
        flags.append("gain: B wins >= 90% of >= 10 pairs by more than A's spread")
    return row + "".join(f"  FLAG {f}" if not f.startswith("gain") else f"  {f}"
                         for f in flags)
