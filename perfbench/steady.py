#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload repeatedly, one seed per run, and prints for every
end-to-end metric its median, quartiles and spread (interquartile range
over median) next to its bound from BENCHMARK.json. A spread above the
bound marks the metric UNSTEADY; above a third of the bound, "wide".
Each run's figures are printed as it ends, with the CPU time the host
stole from this machine meanwhile where /proc/stat shows it.

Run from the repository root:

    python3 perfbench/steady.py                      # all workloads, 10 runs each
    python3 perfbench/steady.py --workloads read-hot --runs 5

It exits non-zero if any run fails, reports a wrong answer or leaves a
spread above its bound.
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
RUN = ["bash", os.path.join(HERE, "run.sh")]


def describe():
    out = subprocess.run(RUN + ["--describe"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def run_once(workload, seed, seconds, trace):
    p = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {p.returncode}")
    return json.loads(lines[-1])


def steal_seconds():
    """CPU time the hypervisor gave to other guests, from /proc/stat;
    None where that is not available."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=0, help="default: run_seconds")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    spec = describe()
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bad = False
    for name in names:
        runs, took = [], []
        for i in range(args.runs):
            t0, s0 = time.monotonic(), steal_seconds()
            res = run_once(name, args.first_seed + i, seconds, args.trace)
            took.append(time.monotonic() - t0)
            s1 = steal_seconds()
            stolen = f" steal={s1 - s0:.1f}s" if s0 is not None and s1 is not None else ""
            print(f"{name} seed {args.first_seed + i}: {took[-1]:.1f}s{stolen} " +
                  " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}" for m in metrics))
            sys.stdout.flush()
            if not res["correct"] or res["failed"]:
                bad = True
                print(f"{name} seed {args.first_seed + i}: correct={res['correct']} "
                      f"failed={res['failed']} of {res['attempted']}")
            runs.append(res)
        print(f"\n{name}: {len(runs)} runs x {seconds}s, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"wall time per run {min(took):.1f}-{max(took):.1f}s")
        print(f"  {'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(vals) < 2:
                continue
            med, q1, q3, sp = spread(vals)
            bound = m.get("bound")
            flag = ""
            if bound is not None:
                if sp > bound:
                    flag, bad = "UNSTEADY", True
                elif sp > bound / 3:
                    flag = "wide"
            print(f"  {m['name']:<36} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {sp:>8.3f} "
                  f"{bound if bound is not None else '':>6} {m['unit']} {flag}")
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
