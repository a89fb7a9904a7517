"""bb84sim benchmark: one workload per run, correctness-gated.

    python3 perfbench/run.py --workload sweep_flagship --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
`--trace 0` measures the end-to-end metrics untraced for `--seconds`;
`--trace 1` runs a fixed amount of work traced and reports the per-layer
metrics and the tracing overhead. Metric names and units come from
BENCHMARK.json. Human-readable lines go first; the last line of stdout is
the JSON result. A full record (environment, every metric, raw samples,
spans) goes to perfbench/results/<workload>_seed<seed>_trace<trace>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

import probes
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Extra end-to-end figures that only some workloads have. They are printed
# and recorded in the result file; the gated metrics are in BENCHMARK.json.
EXTRA_UNITS = {
    "wall_raw_s": "s",
    "setup_raw_s": "s",
    "yardstick_s": "s",
    "wall_s_parallel": "s",
    "qubits_per_s": "1/s",
    "queries_per_s": "1/s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "failed_fraction": "ratio",
    "known_defect_fraction": "ratio",
}

LABELS = {
    "protocol.ledger_bytes_per_qubit": "computed from array nbytes, not measured",
    "protocol.peak_alloc_bytes_per_qubit": "tracemalloc peak of one 10^6-qubit session at seed 42",
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # sweep_short_keys is runnable by hand; BENCHMARK.json gates the other two.
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload for a smoke test (not for measurement)")
    return parser.parse_args()


def import_package():
    """Import bb84sim from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "bb84sim" / "__init__.py").is_file():
        sys.exit(f"run.py: no bb84sim sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import bb84sim
    import bb84sim.cli

    if Path(bb84sim.__file__).resolve().parent != (src / "bb84sim").resolve():
        sys.exit(f"run.py: imported bb84sim from {bb84sim.__file__}, not from {src}")
    return bb84sim, bb84sim.cli


def environment(seed: int) -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if shutil.which("git") and (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


def main() -> int:
    spec = load_spec()
    args = parse_args(spec)
    package, cli = import_package()

    env = environment(args.seed)
    ctx = workloads.Context(args.seed, args.seconds, args.tiny,
                            workloads.make_workdir(ROOT), env["nproc"])
    outcome = workloads.Outcome()
    is_sweep = args.workload.startswith("sweep_")
    try:
        if args.trace:
            metrics_spec = spec["per_layer"]
            if is_sweep:
                values, extras = workloads.trace_sweep(args.workload, ctx, package, cli, outcome)
            else:
                values, extras = workloads.trace_queries(ctx, package, outcome)
            values.update(probes.importtime(ROOT, 1 if args.tiny else 3))
            values.update(probes.allocation(ROOT))
            setup = probes.setup(ROOT, 1 if args.tiny else 9)
            values["decision.threshold_root.first_s"] = setup["threshold_root_first_s"]
            # A layer the workload never calls reads 0.
            values = {m["name"]: values.get(m["name"], 0) for m in metrics_spec}
        else:
            metrics_spec = spec["end_to_end"]
            if is_sweep:
                extras = workloads.measure_sweep(args.workload, ctx, cli, outcome)
            else:
                extras = workloads.measure_queries(ctx, package, outcome)
            setup = probes.setup(ROOT, 1 if args.tiny else 9)
            values = {
                "setup_s": setup["setup_s"],
                "wall_s": extras.pop("wall_s"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            for key in ("setup_raw_s", "setup_samples", "setup_yardstick_samples"):
                extras[key] = setup[key]
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    extras["failed_fraction"] = outcome.failed / outcome.attempted
    extras["known_defect_fraction"] = outcome.known_defects / outcome.attempted
    result = {"correct": outcome.correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}

    info = workloads.WORKLOADS[args.workload]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "environment": env,
        "why": info["why"],
        "predictions": info["predictions"],
        "labels": LABELS,
        "result": result,
        "extras": extras,
        "failure_notes": outcome.notes,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    spans = extras.pop("spans", None)
    if spans is not None:
        # (id, parent id, name, start ns, end ns, session or query id)
        (results / f"{stem}_spans.json").write_text(json.dumps(spans))
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, metric in metrics.items():
        label = f"  ({LABELS[name]})" if name in LABELS else ""
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{label}")
    for name, unit in EXTRA_UNITS.items():
        if name in extras:
            print(f"{name} = {extras[name]:.6g} {unit}")
    for key in ("query_samples", "sweeps_timed", "batches_timed"):
        if key in extras:
            print(f"{key} = {extras[key]}")
    for note in outcome.notes:
        print(f"failure: {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
