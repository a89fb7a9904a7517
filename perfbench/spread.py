"""Run-to-run spread of the benchmark: runs one workload once per seed and
reports, for every metric, the median and the interquartile range as a share
of the median (statistics.quantiles(values, n=4)), next to the metric's bound.

    python3 perfbench/spread.py --workload interval_queries --seeds 1 2 3 4 5

Extra figures from the result files (wall_s_parallel, queries_per_s, ...)
are reported the same way, without a bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import EXTRA_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        record = json.loads((HERE / "results" / f"{args.workload}_seed{seed}_trace{args.trace}.json").read_text())
        row = {name: m["value"] for name, m in result["metrics"].items()}
        row.update({k: record["extras"][k] for k in EXTRA_UNITS if k in record["extras"]})
        for name, value in row.items():
            values.setdefault(name, []).append(value)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(f"{k}={v:.5g}" for k, v in row.items()),
              flush=True)

    bounds = {m["name"]: m.get("bound") for m in metrics_spec}
    print(f"{'metric':40s} {'median':>12s} {'iqr/median':>11s} {'bound':>6s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        print(f"{name:40s} {median:12.6g} {spread:11.4f} {bound if bound is not None else '':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
