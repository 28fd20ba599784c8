#!/usr/bin/env python3
"""Compare two perfbench result sets.  Reports only; gates nothing.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are files written by `perfbench/run.py --out FILE` (one JSON
record per run) or directories of such *.jsonl files.  For every workload
x metric x trace mode present in both, it prints each side's median and
quartiles (statistics.quantiles, n=4) and a verdict against the bound
BENCHMARK.json fixes for the metric:

  improved     better by more than the base's quartile spread, and NEW
               wins at least 9 of 10 run pairs (paired by seed)
  worse        worse by more than the bound
  unchanged    neither
  unresolved   a side's quartile spread exceeds the bound, and not every
               NEW run is better (or worse) than every base run
  -            the metric has no bound (per-layer metrics, and the
               per-class figures of the PERFBENCH line): medians only

Failed or wrong-result operations are listed per workload before the
table.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    """{(workload, trace): [record, ...]} from a file or a directory."""
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        for line in f.read_text().splitlines():
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def bounds():
    """{metric: (better, bound)} from BENCHMARK.json's end_to_end list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def paired(base_runs, new_runs, metric):
    """(base, new) metric values paired by seed, else in run order."""
    def by_seed(runs):
        return {r["seed"]: r["metrics"][metric]["value"]
                for r in runs if metric in r["metrics"]}
    b, n = by_seed(base_runs), by_seed(new_runs)
    common = sorted(set(b) & set(n))
    if common:
        return [(b[s], n[s]) for s in common]
    return list(zip(b.values(), n.values()))


def verdict(base, new, better, bound, pairs):
    sign = 1 if better == "lower" else -1
    b_med, n_med = statistics.median(base), statistics.median(new)
    worse_share = sign * (n_med - b_med) / b_med if b_med else 0.0
    new_better_all = all(sign * (n - b) < 0 for n in new for b in base)
    new_worse_all = all(sign * (n - b) > 0 for n in new for b in base)
    if max(spread(base), spread(new)) > bound:
        if new_better_all:
            return "improved"
        if new_worse_all:
            return "worse"
        return "unresolved"
    if worse_share > bound:
        return "worse"
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if -worse_share > spread(base) and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def fmt(x):
    return f"{x:.4g}"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, new = load(argv[1]), load(argv[2])
    limits = bounds()
    rows = [("workload", "trace", "metric", "unit", "base median [q1, q3]",
             "new median [q1, q3]", "change", "verdict")]
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for side, runs in (("base", base[key]), ("new", new[key])):
            failed = sum(r["result"]["failed"] for r in runs)
            attempted = sum(r["result"]["attempted"] for r in runs)
            if failed:
                print(f"{workload} trace={trace} {side}: {failed} of "
                      f"{attempted} operations failed or were wrong")
        metrics = sorted(set().union(*(r["metrics"] for r in base[key])) &
                         set().union(*(r["metrics"] for r in new[key])))
        for metric in metrics:
            b = [r["metrics"][metric]["value"] for r in base[key]
                 if metric in r["metrics"]]
            n = [r["metrics"][metric]["value"] for r in new[key]
                 if metric in r["metrics"]]
            unit = base[key][0]["metrics"].get(metric, {}).get("unit", "")
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            if metric in limits:
                better, bound = limits[metric]
                v = verdict(b, n, better, bound, paired(base[key], new[key], metric))
            else:
                v = "-"
            rows.append((workload, str(trace), metric, unit,
                         f"{fmt(bq[1])} [{fmt(bq[0])}, {fmt(bq[2])}]",
                         f"{fmt(nq[1])} [{fmt(nq[0])}, {fmt(nq[2])}]",
                         f"{change:+.1%}", v))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


if __name__ == "__main__":
    main(sys.argv)
