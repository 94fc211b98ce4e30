#!/usr/bin/env python3
"""Paired comparison of two sets of benchmark runs.

    W=oltp_steady,orders_growth,alerts_mixed
    python3 bench_e2e/run.py --workload $W --seeds 1-10 --save runs/A   # parent
    python3 bench_e2e/run.py --workload $W --seeds 1-10 --save runs/B   # change
    python3 bench_e2e/compare.py runs/A runs/B

Each set is a directory of <workload>-trace0.jsonl files written by
`run.py --save`, one result line per run. Runs pair up by seed. For every
workload and end-to-end metric of BENCHMARK.json the report gives each side's
median and quartiles (statistics.quantiles, n=4), the spread (interquartile
distance over the median), the fraction of pairs B wins (ties count for
neither), and a verdict:

  improved     B wins at least 9 of 10 pairs and the medians differ, in B's
               favour, by more than A's interquartile distance
  no worse     B's median is not worse than A's by more than the metric's
               bound, and both spreads are within the bound
  worse        B's median is worse by more than the bound, spreads within it;
               or some B run failed its checks where A's run of that seed
               passed
  unresolved   a spread exceeds the bound (unless every B run beats every A
               run), too few pairs, or some seed has no partner or failed
               its checks on the A side

The figures come from the pairs whose runs both passed their checks; every
other run is listed by seed. With one directory it reports each metric's
spread against its bound (the stability criterion a run set must meet) and
lists the runs that failed their checks. Exit code 1 when any verdict is
"worse" or "unresolved", or (one directory) any spread exceeds its bound or
any run failed its checks.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(directory):
    """{workload: {seed: result line}}, runs that failed their checks
    included."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith("-trace0.jsonl"):
            continue
        workload = name[: -len("-trace0.jsonl")]
        with open(os.path.join(directory, name)) as f:
            lines = [json.loads(line) for line in f if line.strip()]
        runs[workload] = {line["seed"]: line for line in lines}
    return runs


def failed_seeds(runs):
    return sorted(s for s, line in runs.items() if not line["correct"] or line["failed"])


def summary(values):
    """(first quartile, median, third quartile)."""
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / med if med else float("inf")


def better(metric, a, b):
    """+1 when b is better than a, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    lower = metric["better"] == "lower"
    return 1 if (b < a) == lower else -1


def verdict(metric, a, b):
    if len(a) < 2 or len(b) < 2:
        return "unresolved", 0.0
    wins = sum(1 for x, y in zip(a, b) if better(metric, x, y) > 0)
    win_frac = wins / len(a)
    qa1, ma, qa3 = summary(a)
    _, mb, _ = summary(b)
    bound = metric["bound"]
    worse_by = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
    if win_frac >= 0.9 and better(metric, ma, mb) > 0 and abs(mb - ma) > qa3 - qa1:
        return "improved", win_frac
    if spread(a) > bound or spread(b) > bound:
        if all(better(metric, x, y) > 0 for x in a for y in b):
            return "improved", win_frac
        return "unresolved", win_frac
    return ("worse" if worse_by > bound else "no worse"), win_frac


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    a = load_set(argv[1])
    b = load_set(argv[2]) if len(argv) == 3 else None
    bad = False
    for workload in sorted(set(a) | set(b or {})):
        ra, rb = a.get(workload, {}), (b or {}).get(workload, {})
        fa = failed_seeds(ra)
        # The verdict every metric of this workload gets at best.
        cap = None
        if b is None:
            seeds = [s for s in sorted(ra) if s not in fa]
            print("%s (%d runs)" % (workload, len(seeds)))
            if fa:
                print("  runs that failed their checks: seeds %s" % fa)
                bad = True
        else:
            fb = failed_seeds(rb)
            unpaired = sorted(set(ra) ^ set(rb))
            seeds = [s for s in sorted(ra) if s in rb and s not in fa and s not in fb]
            print("%s (%d pairs)" % (workload, len(seeds)))
            if unpaired:
                print("  seeds without a partner: %s" % unpaired)
                cap = "unresolved"
            if fa:
                print("  A runs that failed their checks: seeds %s" % fa)
                cap = "unresolved"
            worse = [s for s in fb if s in ra and s not in fa]
            if fb:
                print("  B runs that failed their checks: seeds %s" % fb)
                cap = "worse" if worse else "unresolved"
        for m in metrics:
            name = m["name"]
            va = [ra[s]["metrics"][name]["value"] for s in seeds]
            if len(va) < 2:
                print("  %-18s too few runs" % name)
                bad = True
                continue
            q1, med, q3 = summary(va)
            row = "  %-18s A %12.4f [%.4f, %.4f] spread %.3f" % (name, med, q1, q3, spread(va))
            if b is None:
                ok = spread(va) <= m["bound"]
                row += " bound %.2f %s" % (m["bound"], "ok" if ok else "TOO WIDE")
                bad = bad or not ok
            else:
                vb = [rb[s]["metrics"][name]["value"] for s in seeds]
                bq1, bmed, bq3 = summary(vb)
                v, wins = verdict(m, va, vb)
                if cap is not None and v != "worse":
                    v = cap
                row += " | B %12.4f [%.4f, %.4f] spread %.3f | B wins %.2f | %s" % (
                    bmed, bq1, bq3, spread(vb), wins, v)
                bad = bad or v in ("worse", "unresolved")
            print(row + " " + m["unit"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
