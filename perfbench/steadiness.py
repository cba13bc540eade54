#!/usr/bin/env python3
"""Steadiness check for the benchmark declared in BENCHMARK.json.

Makes two sets of untraced runs of every workload at the benchmark's own
``run_seconds``: set A on seeds ``first_seed .. first_seed + runs - 1`` and
set B on the next ``runs`` seeds. The runs of the two sets and of all
workloads are interleaved in time (seed k of A, then seed k of B, workload
by workload), so a change of host speed during the check reaches both sets
alike and the set-to-set comparison shows the benchmark's own spread.

For every end-to-end metric and each set it reports the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound. A set is
steady when every spread except that of ``setup_s`` is below a third of its
bound. The sets agree when, for every metric, set B's median is not worse
than set A's by more than the bound. Runs whose correctness checks fail are
listed; their timings still count.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--out FILE]

``--out`` writes the per-run values and the summaries as JSON. The exit
code is 0 only if both sets are steady and agree.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, no result\n{proc.stderr}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result["correct"]:
        # A failed correctness check is reported, not hidden: the run's
        # timings still count, and the summary lists the failures.
        failures = [l for l in lines if l.startswith("CHECK FAILED")]
        print(f"{workload} seed {seed}: INCORRECT (exit {proc.returncode}): "
              + "; ".join(failures[:3]), file=sys.stderr)
    return {"seed": seed, "wall_s": round(wall, 2), "correct": result["correct"],
            "failed": result["failed"], "attempted": result["attempted"],
            "metrics": {m: v["value"] for m, v in result["metrics"].items()}}


def summarize(bench, runs):
    summary = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": metric["bound"],
                         "steady": name == "setup_s" or spread < metric["bound"] / 3}
    return summary


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / abs(first) if first else float("inf")
    return change if metric["better"] == "lower" else -change


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    sets = {"A": args.first_seed, "B": args.first_seed + args.runs}
    runs = {w: {s: [] for s in sets} for w in workloads}
    for k in range(args.runs):
        for workload in workloads:
            for name, first in sets.items():
                r = run_once(bench["command"], workload, first + k, seconds)
                runs[workload][name].append(r)
                print(f"{workload} set {name} seed {r['seed']}: {r['wall_s']:.1f} s",
                      file=sys.stderr)

    record = {"run_seconds": seconds, "workloads": {}}
    ok = True
    for workload in workloads:
        summaries = {s: summarize(bench, runs[workload][s]) for s in sets}
        print(f"\n{workload}: {args.runs} runs of {seconds} s per set")
        print(f"{'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>5}  B worse than A by")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a, b = summaries["A"][name], summaries["B"][name]
            worse = worse_by(metric, a["median"], b["median"])
            agree = worse <= metric["bound"]
            ok &= agree and a["steady"] and b["steady"]
            for s, row in (("A", a), ("B", b)):
                flag = "" if row["steady"] else "  <-- spread above bound/3"
                tail = f"{worse:+.4f}{'' if agree else ' <-- above bound'}" if s == "B" else ""
                print(f"{name:<16} {s:>3} {row['median']:>12.6g} {row['q1']:>12.6g} "
                      f"{row['q3']:>12.6g} {row['spread']:>7.4f} {metric['bound']:>5}  "
                      f"{tail}{flag}")
        incorrect = {s: [r["seed"] for r in runs[workload][s] if not r["correct"]] for s in sets}
        if any(incorrect.values()):
            print(f"INCORRECT runs (seeds): {incorrect}")
        record["workloads"][workload] = {
            "sets": {s: {"runs": runs[workload][s], "summary": summaries[s],
                         "incorrect_seeds": incorrect[s]} for s in sets}}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    print("\nsteady, and the sets agree" if ok else "\nNOT steady, or the sets disagree")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
