#!/usr/bin/env python3
"""Steadiness report for the end-to-end benchmark.

    python3 mcsbench/steadiness.py [--runs 10] [--workloads serve_churn,...]

Runs every workload --runs times through run.py for run_seconds from
BENCHMARK.json, alternating the workload order from one run to the next;
run i uses seed i + 1. For every end-to-end metric it prints the median,
the quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json. It then
repeats seed 1 untraced and traced, and asserts that every run of one
seed reproduces the input and output hashes and the exact counts
(admission scans, GA evaluations, simulated jobs, drifted tasks) bit for
bit. Exits 1 when a run failed, a determinism check failed or any spread,
setup_s included, exceeds its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d failed (exit %d)"
                         % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    record = next(l for l in lines if l.startswith("record "))
    counts = next(l for l in lines if l.startswith("counts"))
    hashes = " ".join(f for f in record.split() if "_hash=" in f)
    return result, hashes + " | " + counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seeds = list(range(1, args.runs + 1))
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    values = {w: {m: [] for m in bounds} for w in workloads}
    fingerprints = {}
    problems = []
    for i, seed in enumerate(seeds):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            result, fingerprint = run(w, seed, seconds, 0)
            print("run %d %s seed %d: %s" % (i, w, seed, " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
            if not result["correct"] or result["failed"]:
                problems.append("%s seed %d: %d of %d ops failed"
                                % (w, seed, result["failed"],
                                   result["attempted"]))
            for name in bounds:
                values[w][name].append(result["metrics"][name]["value"])
            fingerprints.setdefault((w, seed), []).append(fingerprint)

    # Determinism: the first seed once more, untraced and traced.
    for w in workloads:
        for trace in (0, 1):
            _, fingerprint = run(w, seeds[0], seconds, trace)
            fingerprints[(w, seeds[0])].append(fingerprint)
    for (w, seed), prints in sorted(fingerprints.items()):
        if len(set(prints)) != 1:
            problems.append("%s seed %d: hashes or exact counts differ "
                            "between runs: %s" % (w, seed, sorted(set(prints))))
    print("\ndeterminism: %d workload/seed groups, %s"
          % (len(fingerprints), "all repeat bit for bit"
             if not any("differ" in p for p in problems) else "MISMATCH"))

    print("\n| workload | metric | median | q1 | q3 | spread | bound | "
          "spread/bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        for name, m in bounds.items():
            v = values[w][name]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            ratio = spread / m["bound"]
            print("| %s | %s (%s) | %.6g | %.6g | %.6g | %.3f | %.2f | %.2f |"
                  % (w, name, m["unit"], med, q1, q3, spread, m["bound"],
                     ratio))
            if ratio > 1.0:
                problems.append("%s %s: spread %.3f exceeds bound %.2f"
                                % (w, name, spread, m["bound"]))
    for p in problems:
        print("PROBLEM: " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
