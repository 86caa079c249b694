#!/usr/bin/env python3
"""Steadiness report for the session benchmark.

Runs the benchmark command from BENCHMARK.json on each workload, once per
seed, and prints for every end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and their distance as a share of the
median, next to the metric's bound. Run it from the repository root:

    python3 sessionbench/steady.py [--runs 10] [--first-seed 1]
        [--workload NAME ...] [--seconds N] [--out report.json]

It exits 1 if a run fails a check or a spread (setup_s aside) exceeds its
bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    ok = True
    report = {}
    for name in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(bench["command"], name, seed, seconds)
            if not res["correct"] or res["failed"]:
                print(f"{name} seed {seed}: {res['failed']} of {res['attempted']} sessions failed")
                ok = False
            for metric, v in res["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in sorted(res["metrics"].items())), flush=True)
        rows = {}
        for m in bench["end_to_end"]:
            xs = values[m["name"]]
            q1, median, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            rows[m["name"]] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                               "bound": m["bound"], "values": xs}
            if m["name"] != "setup_s" and spread > m["bound"]:
                ok = False
        report[name] = rows

    for name, rows in report.items():
        print(f"\n{name}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"  {'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
        for metric, r in rows.items():
            verdict = ("steady" if r["spread"] < r["bound"] / 3 else
                       "within bound" if r["spread"] <= r["bound"] else "UNSTEADY")
            print(f"  {metric:26} {r['median']:12.4f} {r['q1']:12.4f} {r['q3']:12.4f} "
                  f"{r['spread']:8.4f} {r['bound']:6.2f}  {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
