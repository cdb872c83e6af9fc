#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

The spread of a metric is the distance between the first and third
quartile of its values (statistics.quantiles(values, n=4)) as a share of
their median. A benchmark is steady when every end-to-end spread stays
well below its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload dispatch-mix --runs 10 [--trace 0]

Run it from the repository root after building the benchmark once with
`cargo build --release --manifest-path perfbench/Cargo.toml`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    failed_checks = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit(f"seed {seed}: exit code {out.returncode}, no result")
        result = json.loads(lines[-1])
        if not result["correct"]:
            failed_checks.append(seed)
            for line in lines:
                if line.startswith("CHECK FAILED"):
                    print(f"seed {seed}: {line}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
    print(f"{'metric':<40} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  above a third of its bound"
        print(f"{name:<40} {med:>14.6g} {spread:>8.4f} {bound if bound else '':>6}{flag}")
    if failed_checks:
        print(f"output checks failed on seeds {failed_checks}")


if __name__ == "__main__":
    main()
