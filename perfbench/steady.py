#!/usr/bin/env python3
"""Run the benchmark several times per workload and report its spread.

    python3 perfbench/steady.py [--runs 10] [--seed0 1] [--trace 0|1] [workload ...]

Run from the repository root. Each run uses the command and run length
in BENCHMARK.json and another seed (seed0, seed0+1, ...). For every
metric it prints the median, the quartiles (Python's
statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median and,
for end-to-end metrics, that spread against the metric's bound; then
the share of failed operations. With no workload named it runs every
workload of BENCHMARK.json. Raw results go to .perfbench-out/steady.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", default="0")
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    os.makedirs(".perfbench-out", exist_ok=True)
    log = open(".perfbench-out/steady.jsonl", "a")
    for w in names:
        vals, failed, attempted = {}, [], []
        for i in range(a.runs):
            seed = a.seed0 + i
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]),
                                      "--trace", a.trace]
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}")
            notes = [l for l in p.stdout.splitlines() if l.startswith("#")]
            r = json.loads(p.stdout.strip().splitlines()[-1])
            log.write(json.dumps({"workload": w, "seed": seed, "trace": a.trace,
                                  "notes": notes, "result": r}) + "\n")
            log.flush()
            if not r["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect\n" + "\n".join(notes))
            failed.append(r["failed"])
            attempted.append(r["attempted"])
            for k, m in r["metrics"].items():
                vals.setdefault(k, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(notes), flush=True)
        print(f"\n{w}: {a.runs} runs")
        for k, v in vals.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            line = f"  {k:32s} median {med:14.6g}  Q1 {q1:14.6g}  Q3 {q3:14.6g}  spread {spread:7.2%}"
            if k in bounds:
                line += f"  (bound {bounds[k]:.0%}, spread/bound {spread / bounds[k]:.2f})"
            print(line)
        shares = sorted({f / t for f, t in zip(failed, attempted)})
        print(f"  failed share per run: {shares}\n", flush=True)


if __name__ == "__main__":
    main()
