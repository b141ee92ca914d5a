"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload invert_coupled --seeds 1 2 3 4 5

For every metric of the result line it prints the median over the runs and
the distance between the first and third quartile as a share of that median
(`statistics.quantiles(values, n=4)`), the figure that each end-to-end
metric's `bound` in BENCHMARK.json must exceed.  Runs are sequential, one
process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("nan")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    values = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, args.seconds, args.trace)
        line = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) >= 2:
        for name, vals in values.items():
            med, rel = spread(vals)
            print(f"{name} median {med!r} spread {rel:.4f}")


if __name__ == "__main__":
    main()
