#!/usr/bin/env python3
"""Compare two sets of tacbench runs against the bounds in BENCHMARK.json.

    python3 tacbench/compare.py A.jsonl B.jsonl
    python3 tacbench/compare.py --repeatability A.jsonl B.jsonl

Each file holds the JSON lines `run.py --out` appends, one per workload
run; make a set with one run per seed, for example

    for s in $(seq 1 10); do
      python3 tacbench/run.py --seed $s --out A.jsonl
    done

For every (workload, end-to-end metric) the table shows each side's
median and quartiles, the change of the median, each side's spread
(quartile distance over the median) and the metric's bound. Verdicts:

  worse       B's median is worse than A's by more than the bound
  better      B wins at least 9 of 10 same-seed pairs and the medians
              differ by more than A's spread
  unchanged   neither, with both spreads within the bound
  unresolved  a spread exceeds the bound, unless every B run reads better
              (or worse) than every A run

Exit status 1 when any metric reads worse. --repeatability checks that
two sets of runs of the same code agree instead: both spreads and the
change of the median within the bound, no failed operations, and the
deterministic metrics identical seed by seed. Per-layer metrics from
--trace 1 runs are listed with their medians and quartiles, unjudged.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Functions of the seed's input and the code alone: equal run to run.
DETERMINISTIC = {"compression_ratio", "rms_error_eb"}


def load_runs(path):
    runs = defaultdict(list)  # (workload, trace) -> records
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                runs[(rec["workload"], rec["trace"])].append(rec)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def by_seed(records, metric):
    return {r["seed"]: r["metrics"][metric]["value"] for r in records
            if metric in r["metrics"]}


def verdict(metric, a_runs, b_runs, repeatability):
    """Returns (row fields, failed?)."""
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    a, b = by_seed(a_runs, name), by_seed(b_runs, name)
    if not a or not b:
        return ["-"] * 4 + ["missing"], True
    am, aq1, aq3, asp = summary(list(a.values()))
    bm, bq1, bq3, bsp = summary(list(b.values()))
    change = (bm - am) / abs(am) if am else 0.0
    worse = sign * change
    cells = [f"{am:.4g} [{aq1:.4g}, {aq3:.4g}]",
             f"{bm:.4g} [{bq1:.4g}, {bq3:.4g}]",
             f"{100 * change:+.2f}%",
             f"{100 * asp:.1f}/{100 * bsp:.1f}% <= {100 * bound:g}%"]
    if repeatability:
        same = [s for s in a if s in b]
        if name in DETERMINISTIC and any(a[s] != b[s] for s in same):
            return cells + ["differs"], True
        ok = asp <= bound and bsp <= bound and abs(change) <= bound
        return cells + ["ok" if ok else "disagree"], not ok
    if max(asp, bsp) > bound:
        # On a lower-is-better scale: every B run beats (or loses to)
        # every A run.
        ka = [sign * v for v in a.values()]
        kb = [sign * v for v in b.values()]
        if max(kb) < min(ka):
            return cells + ["better"], False
        if min(kb) > max(ka):
            return cells + ["worse"], True
        return cells + ["unresolved"], False
    if worse > bound:
        return cells + ["worse"], True
    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    if pairs and wins >= 0.9 * len(pairs) and -worse * abs(am) > aq3 - aq1:
        return cells + ["better"], False
    return cells + ["unchanged"], False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path)
    ap.add_argument("b", type=Path)
    ap.add_argument("--repeatability", action="store_true")
    args = ap.parse_args()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)

    failed = False
    header = ["workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
              "change", "spread A/B", "verdict"]
    rows = [header]
    for w in (w["name"] for w in spec["workloads"]):
        a, b = a_runs.get((w, 0), []), b_runs.get((w, 0), [])
        if not a and not b:
            continue
        bad = [r for r in a + b if not r["correct"]]
        if bad:
            failed = True
            rows.append([w, "correct", "", "", "", "",
                         f"{len(bad)} run(s) with failed checks"])
        for m in spec["end_to_end"]:
            cells, bad_metric = verdict(m, a, b, args.repeatability)
            failed |= bad_metric
            rows.append([w, f"{m['name']} ({m['unit']})"] + cells)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows if len(rows) > 1 else []:
        print("  ".join(c.ljust(wd) for c, wd in zip(r, widths)).rstrip())

    layer_rows = []
    for w in (w["name"] for w in spec["workloads"]):
        a, b = a_runs.get((w, 1), []), b_runs.get((w, 1), [])
        if not a or not b:
            continue
        for m in spec["per_layer"]:
            va = list(by_seed(a, m["name"]).values())
            vb = list(by_seed(b, m["name"]).values())
            if va and vb:
                sa, sb = summary(va), summary(vb)
                layer_rows.append(
                    f"{w:26s} {m['name']:32s} {sa[0]:10.4g} [{sa[1]:.4g}, "
                    f"{sa[2]:.4g}]  {sb[0]:10.4g} [{sb[1]:.4g}, {sb[2]:.4g}]"
                    f" {m['unit']}")
    if layer_rows:
        print("\nper-layer (traced runs): A median [q1, q3]  B median [q1, q3]")
        print("\n".join(layer_rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
