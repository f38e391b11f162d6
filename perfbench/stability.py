#!/usr/bin/env python3
"""Stability check of the engine benchmark: do two sets of runs agree?

Usage (from the root of a checkout):

    python3 perfbench/stability.py [--runs 10] [--seconds S]
        [--workloads write-heavy,read-mostly,aged-gc] [--pause SECONDS]

Takes two sets of runs of perfbench/run.py --trace 0. Within a set, run i
uses seed i+1 for every workload, and the workload order alternates from
one run to the next; every run is its own process. The second set starts
--pause seconds after the first ends. For each workload and end-to-end
metric it prints each set's median and quartiles, the spread (interquartile
range over median) and the move of the second median against the first,
and says whether the sets agree within the metric's bound from
BENCHMARK.json:
  * each set's spread is within the bound (setup_s exempt);
  * the second median is not worse than the first by more than the bound;
  * the share of failed operations is the same in both sets.
Exit status 0 when every workload agrees, 1 otherwise.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit("stability: run failed: " + " ".join(cmd))
    return json.loads(p.stdout.strip().splitlines()[-1])


def take_set(label, workloads, runs, seconds):
    results = {w: [] for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            t0 = time.monotonic()
            results[w].append(one_run(w, i + 1, seconds))
            print("set %s run %d/%d %-12s %.1f s" % (label, i + 1, runs, w,
                                                      time.monotonic() - t0),
                  flush=True)
    return results


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None,
                    help="seconds per run (default: run_seconds)")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated (default: all in BENCHMARK.json)")
    ap.add_argument("--pause", type=float, default=0.0,
                    help="seconds to wait between the two sets")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"]

    first = take_set("A", workloads, args.runs, seconds)
    time.sleep(args.pause)
    second = take_set("B", workloads[::-1], args.runs, seconds)

    all_agree = True
    for w in workloads:
        print("\n%s (%d runs per set, %d s each)" % (w, args.runs, seconds))
        print("  %-16s %-34s %-34s %8s %6s  %s" % (
            "metric", "set A median [q1, q3] spread", "set B median [q1, q3] spread",
            "B vs A", "bound", "verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            a = [r["metrics"][name]["value"] for r in first[w]]
            b = [r["metrics"][name]["value"] for r in second[w]]
            ma, qa1, qa3, sa = summary(a)
            mb, qb1, qb3, sb = summary(b)
            move = (mb - ma) / ma if ma else 0.0
            worse = move if m["better"] == "lower" else -move
            ok = worse <= bound
            if name != "setup_s":
                ok = ok and sa <= bound and sb <= bound
            all_agree = all_agree and ok
            print("  %-16s %-34s %-34s %+7.2f%% %6.2f  %s" % (
                name,
                "%.6g [%.6g, %.6g] %.3f" % (ma, qa1, qa3, sa),
                "%.6g [%.6g, %.6g] %.3f" % (mb, qb1, qb3, sb),
                100 * move, bound, "agree" if ok else "DISAGREE"))
        share = [sum(r["failed"] for r in s[w]) / sum(r["attempted"] for r in s[w])
                 for s in (first, second)]
        ok = share[0] == share[1]
        all_agree = all_agree and ok
        print("  failed share: set A %.6g, set B %.6g  %s"
              % (share[0], share[1], "agree" if ok else "DISAGREE"))
    print("\n%s" % ("all sets agree" if all_agree else "sets DISAGREE"))
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
