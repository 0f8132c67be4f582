#!/usr/bin/env python3
"""Steadiness check: run one workload N times with different seeds and
report, per metric, the median, the quartiles, the inter-quartile spread
as a share of the median, and the largest deviation from the median.

Every metric whose spread exceeds its bound in BENCHMARK.json is flagged
(`OVER`); a spread above a third of the bound is marked `tight`.

    python3 mixpbench/steady.py --workload table5-small --runs 10
    python3 mixpbench/steady.py --workload paper-slice --runs 5 --first-seed 100

Run from the repository root. Needs only the Python standard library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def run_once(command, workload, seed, seconds, trace, env, log_dir):
    args = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(args, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    if log_dir:
        path = os.path.join(log_dir, f"{workload}-{seed}-trace{trace}.out")
        with open(path, "w") as f:
            f.write(proc.stdout)
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if not result["correct"]:
        raise SystemExit(f"run with seed {seed} reported incorrect results: {last}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    worst = max(abs(v - med) for v in values) / med if med else float("inf")
    return med, q1, q3, spread, worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--benchmark-json", default="BENCHMARK.json")
    parser.add_argument("--json-out", default=None,
                        help="also write the raw values and summary here")
    parser.add_argument("--log-dir", default=None,
                        help="also keep each run's standard output in this directory")
    opts = parser.parse_args()

    bench = load_benchmark(opts.benchmark_json)
    seconds = opts.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")

    if opts.log_dir:
        os.makedirs(opts.log_dir, exist_ok=True)
    samples = {}
    for i in range(opts.runs):
        seed = opts.first_seed + i
        for name, value in run_once(bench["command"], opts.workload, seed,
                                    seconds, opts.trace, env, opts.log_dir).items():
            samples.setdefault(name, []).append(value)
        print(f"# run {i + 1}/{opts.runs} (seed {seed}) done", file=sys.stderr)

    print(f"# {opts.workload}: {opts.runs} runs, seeds {opts.first_seed}.."
          f"{opts.first_seed + opts.runs - 1}, {seconds} s each, trace {opts.trace}")
    print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'maxdev':>8} {'bound':>6}  flag")
    summary = {}
    flagged = 0
    for name, values in samples.items():
        med, q1, q3, spread, worst = summarize(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            if spread > bound:
                flag = "OVER"
                flagged += 1
            elif spread > bound / 3:
                flag = "tight"
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "maxdev": worst, "bound": bound, "values": values}
        print(f"{name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {worst:>8.4f} {bound if bound is not None else '-':>6}  {flag}")
    if opts.json_out:
        with open(opts.json_out, "w") as f:
            json.dump({"workload": opts.workload, "runs": opts.runs,
                       "first_seed": opts.first_seed, "seconds": seconds,
                       "metrics": summary}, f, indent=1)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
