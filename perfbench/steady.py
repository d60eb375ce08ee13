#!/usr/bin/env python3
"""Steadiness report: run one workload several times and show each
metric's spread.

Run from the root of a checkout:

    python3 perfbench/steady.py --workload embedded_analytic --runs 10
    python3 perfbench/steady.py --workload embedded_feed_rw --runs 3 --same-seed --trace 1

Each run is the command in BENCHMARK.json with --workload, --seed,
--seconds (run_seconds from BENCHMARK.json) and --trace appended, so the
numbers are the ones the benchmark reports. Run i uses seed i (from 1);
with --same-seed every run uses seed 1, which shows whether counts repeat
exactly.

For every metric it prints the median, the first and third quartiles
(statistics.quantiles with n=4), the spread (Q3-Q1)/median in percent,
and, for end-to-end metrics, the bound from BENCHMARK.json and whether
the spread is below a third of it. It exits non-zero if a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    for i in range(args.runs):
        seed = 1 if args.same_seed else i + 1
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.time()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stdout.write(proc.stdout)
            print(f"run {i} (seed {seed}) failed with exit code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        print(f"run {i + 1}/{args.runs} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} ({time.time() - t0:.0f}s)", flush=True)
        if not res["correct"]:
            return 1
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"\n{args.workload}, {args.runs} runs, trace {args.trace}:")
    print(f"{'metric':42} {'median':>12} {'q1':>12} {'q3':>12} {'spread%':>8} {'bound%':>7}  ok")
    for name in sorted(values):
        vals = values[name]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], None, vals[0])
        spread = 100 * (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        ok = ""
        if bound is not None:
            ok = "yes" if spread < 100 * bound / 3 else "NO"
        bstr = f"{100 * bound:.0f}" if bound is not None else ""
        print(f"{name:42} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2f} {bstr:>7}  {ok}  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
