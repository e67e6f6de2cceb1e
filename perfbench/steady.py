#!/usr/bin/env python3
"""Steadiness pass: run the benchmark several times per workload, each
with another seed, and report each end-to-end metric's median and
quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--out set1.json]
    python3 perfbench/steady.py --out set2.json --against set1.json

The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4). A spread above a third of the bound is
flagged; above the bound fails (setup_s is exempt from the spread check).
With --against, each median is also compared with an earlier set's and
fails when it is worse by more than the bound. Run from the repository
root; exits 1 when any check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    argv = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    proc = subprocess.run(argv, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diag = json.loads(lines[-2]).get("perfbench", {}) if len(lines) > 1 else {}
    return result, diag, time.time() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=100)
    ap.add_argument("--out", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    earlier = json.load(open(args.against)) if args.against else {}

    ok = True
    saved = {}
    for w in workloads:
        values = {name: [] for name in metrics}
        noise = []
        for i in range(args.runs):
            seed = args.seed_base + i
            result, diag, wall = run_once(bench["command"], w, seed, bench["run_seconds"])
            if not result["correct"] or result["failed"]:
                print(f"  {w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']} {diag.get('invariant_violations')} "
                      f"{diag.get('first_error')}")
                ok = False
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            noise.append((sum(diag.get("round_steal_ticks", [])), diag.get("other_cpu_ms")))
            print(f"  {w} seed {seed}: {wall:.1f}s "
                  + " ".join(f"{n}={result['metrics'][n]['value']:.4g}" for n in metrics)
                  + f" steal={noise[-1][0]} other_ms={noise[-1][1]}", flush=True)
        saved[w] = values
        print(f"{w}:")
        for name, m in metrics.items():
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s":
                if spread > m["bound"]:
                    flag, ok = "FAIL spread", False
                elif spread > m["bound"] / 3:
                    flag = "wide"
            line = (f"  {name:22s} median {med:<12.6g} spread {spread:6.3f} "
                    f"bound {m['bound']:.3f} {flag}")
            if w in earlier:
                prev = statistics.median(earlier[w][name])
                change = (med - prev) / prev if prev else 0.0
                worse = change if m["better"] == "lower" else -change
                line += f" vs earlier {change:+.3f}"
                if worse > m["bound"]:
                    line += " FAIL drift"
                    ok = False
            print(line, flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(saved, f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
