#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

Each file holds the records `perfbench/run.py --out FILE` appends, one run
per line.  For every (workload, end-to-end metric) pair it prints both
sides' median and quartiles (Python's statistics.quantiles, n=4) and a
verdict, using the bounds in BENCHMARK.json:

  unresolved  either side's spread (quartile distance / median) is wider
              than the bound, and the runs do not separate completely
  worse       NEW's median is worse than OLD's by more than the bound
  better      NEW's median is better than OLD's by more than OLD's own
              spread (and the bound holds)
  unchanged   none of the above

A metric whose spread is wider than its bound still resolves when every
NEW run reads better (or worse) than every OLD run.  Ratios are shown with
their base, the OLD median.  The exit code is 1 when any pair is worse or
unresolved, else 0.  Runs are grouped by the workload in their environment
block; traced runs are skipped.
"""

import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            env = rec.get("env", {})
            if env.get("trace"):
                continue
            runs.setdefault(env.get("workload", "?"), []).append(rec)
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(metric, old, new):
    bound = metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1
    o_med, _, _, o_spread = summary(old)
    n_med, _, _, n_spread = summary(new)
    worse_by = sign * (n_med - o_med) / o_med
    if sign * max(new) < sign * min(old):
        separated = "better"
    elif sign * min(new) > sign * max(old):
        separated = "worse"
    else:
        separated = None
    if max(o_spread, n_spread) > bound:
        return separated or "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > o_spread:
        return "better", worse_by
    return "unchanged", worse_by


def env_line(runs):
    envs = {json.dumps({k: v for k, v in r["env"].items()
                        if k not in ("seed",)}, sort_keys=True)
            for r in runs}
    return "; ".join(sorted(envs))


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    with open("BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    old, new = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    for wl in sorted(set(old) | set(new)):
        if wl not in old or wl not in new:
            print("%s: runs on one side only" % wl)
            bad = True
            continue
        print("%s: %d old runs, %d new runs" % (wl, len(old[wl]), len(new[wl])))
        print("  old env: " + env_line(old[wl]))
        print("  new env: " + env_line(new[wl]))
        for m in metrics:
            name = m["name"]
            o = [r["result"]["metrics"][name]["value"] for r in old[wl]]
            n = [r["result"]["metrics"][name]["value"] for r in new[wl]]
            v, worse_by = verdict(m, o, n)
            bad = bad or v in ("worse", "unresolved")
            om, oq1, oq3, osp = summary(o)
            nm, nq1, nq3, nsp = summary(n)
            print("  %-16s %-10s old %.6g [%.6g, %.6g] spread %.3f | "
                  "new %.6g [%.6g, %.6g] spread %.3f | %+.1f%% of %.6g %s "
                  "(bound %.0f%%)" % (
                      name, v, om, oq1, oq3, osp, nm, nq1, nq3, nsp,
                      100 * (nm - om) / om, om, m["unit"], 100 * m["bound"]))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
