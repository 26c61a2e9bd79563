#!/usr/bin/env python3
"""Steadiness mode for the served-query benchmark.

Runs each workload once per seed and reports, for every end-to-end metric,
the median, the quartiles and the quartile spread as a share of the median,
against the metric's bound in BENCHMARK.json. With --compare it checks a
second set of runs against a first: every median within its bound of the
first's, whichever way it moved, and the same share of failed operations.

    python3 perfbench/steady.py --seeds 1-10 --out set-a.json
    python3 perfbench/steady.py --seeds 11-20 --out set-b.json
    python3 perfbench/steady.py --compare set-a.json set-b.json

Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            a, b = part.split("-")
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(part))
    return out


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    t = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["wall_s"] = time.time() - t
    return res


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def report(bench, runs):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for w, rs in runs.items():
        shares = {r["failed"] / r["attempted"] for r in rs}
        print(f"\n{w}: {len(rs)} runs, correct={all(r['correct'] for r in rs)}, "
              f"failed shares={sorted(shares)}, wall {max(r['wall_s'] for r in rs):.0f}s max")
        print(f"  {'metric':20s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in rs])
            ok = spread <= bound
            steady &= ok
            print(f"  {name:20s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {bound:6.2f}"
                  f"{'' if ok else '  OVER'}{'  (over a third)' if ok and spread > bound / 3 else ''}")
    return steady


def compare(bench, a, b):
    """Checks that the medians of two sets of runs of the same code differ
    by at most each metric's bound, in either direction: the sets could
    have been taken in the other order."""
    ok = True
    for m in bench["end_to_end"]:
        for w in a:
            ma = statistics.median(r["metrics"][m["name"]]["value"] for r in a[w])
            mb = statistics.median(r["metrics"][m["name"]]["value"] for r in b[w])
            moved = (mb - ma) / ma
            flag = abs(moved) > m["bound"]
            ok &= not flag
            print(f"  {w:8s} {m['name']:20s} {ma:12.4f} -> {mb:12.4f} moved {moved:+.3f}"
                  f" (bound {m['bound']}){'  OVER' if flag else ''}")
    for w in a:
        sa = {r["failed"] / r["attempted"] for r in a[w]}
        sb = {r["failed"] / r["attempted"] for r in b[w]}
        if sa != sb or len(sa) != 1:
            ok = False
            print(f"  {w}: failed shares differ: {sa} vs {sb}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma list; default all")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    ap.add_argument("--out", default=None, help="write the runs as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        sets = []
        for path in args.compare:
            with open(path) as f:
                sets.append(json.load(f))
        steady = report(bench, sets[0]) & report(bench, sets[1])
        print("\nsecond set against the first:")
        ok = compare(bench, *sets)
        sys.exit(0 if ok and steady else 1)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    runs = {w: [] for w in workloads}
    for w in workloads:
        for s in seeds_of(args.seeds):
            r = run_once(bench, w, s, seconds)
            print(f"{w} seed {s}: {r['wall_s']:.1f}s attempted={r['attempted']} failed={r['failed']} "
                  f"correct={r['correct']}", flush=True)
            runs[w].append(r)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    sys.exit(0 if report(bench, runs) else 1)


if __name__ == "__main__":
    main()
