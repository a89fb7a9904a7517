"""The three benchmark workloads, their inputs and their correctness gate.

Each workload is a single process running a closed loop with one client:
the next operation starts when the previous one has returned. Inputs come
only from the `--seed` argument. `measure_*` is the untraced, time-bounded
run that gives the end-to-end metrics; `trace_*` runs a fixed amount of work
untraced and traced, alternating, so that per-layer counts repeat exactly and
the tracing overhead is the difference between the two.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Callable

import numpy as np

import oracle
from spans import VALIDATE_PREFIX, Tracer
from yardstick import Yardstick, pinned

# Why each workload exists, and which layer metric should move which
# end-to-end metric on it. Copied into every result file.
WORKLOADS = {
    "sweep_flagship": {
        "why": (
            "The paper's canonical figure: 21 fractions x 50 trials x 50,000 "
            "qubits, ideal channel, CSV, run with 1 and with nproc workers, "
            "and timed as 20-trial sweeps of the same grid with 1 worker. "
            "About 99% of its time is protocol.run_session on ~50 kB columns "
            "that stay in cache, so kernel and RNG changes show here; stats, "
            "decision and cli are nearly idle."
        ),
        "predictions": {
            "protocol.run_session.busy_s, protocol.ns_per_qubit": "wall_s, qubits_per_s",
            "harness.worker_utilization, harness.self_s": "wall_s_parallel",
            "protocol.peak_alloc_bytes_per_qubit, protocol.ledger_bytes_per_qubit": "peak_rss_mb",
            "import.*_s, decision.threshold_root.first_s": "setup_s",
        },
    },
    "sweep_short_keys": {
        "why": (
            "Same 21-point grid with depolarizing p = 0.05, 1,000 qubits and "
            "480 trials per point, JSON output. Most of each session is fixed "
            "per-call cost (RNG construction, validation, seed derivation, "
            "rng.choice, row building) and ~10k rows become ~2 MB of JSON, so "
            "harness, core and cli weigh more; per-qubit kernel changes should "
            "read as no change."
        ),
        "predictions": {
            "core.validations, core.validation_s": "wall_s",
            "harness.self_s, harness.derive_trial_seed.busy_s": "wall_s, wall_s_parallel",
            "cli.format_s, cli.bytes_written": "wall_s",
            "protocol.ledger_bytes_per_qubit": "wall_s, peak_rss_mb",
            "protocol.ns_per_qubit": "little effect on wall_s",
            "import.*_s": "setup_s",
        },
    },
    "interval_queries": {
        "why": (
            "A seeded stream of (k, n, confidence) queries, each doing what "
            "`trial` does after its session: four intervals, decide under both "
            "policies, key_rate on the point estimate. The only workload where "
            "stats and decision do the work (Clopper-Pearson dominates); "
            "protocol is idle, so kernel changes must read as no change."
        ),
        "predictions": {
            "stats.ci.clopper_pearson.busy_s, stats.clopper_pearson.tail_evals":
                "queries_per_s, query_p99_us, wall_s",
            "stats.ci.<other>.p50_us, decision.decide.p50_us, decision.key_rate.p50_us":
                "queries_per_s, query_p50_us",
            "core.validations": "queries_per_s",
            "import.scipy_s": "setup_s",
        },
    },
}

# sha256 of `bb84sim sweep --seed 42` with every default (the flagship
# configuration), as written by the package at the commit that defined this
# benchmark. Any change to these bytes is a behaviour change.
FLAGSHIP_GOLDEN_SEED = 42
FLAGSHIP_GOLDEN_SHA256 = {
    "trials": "44811125c14e44ce463cddf323ff2946c430deb9e9e881507bfb263e6c2cf11d",
    "aggregate": "29e06ac5aef1fe3a88a48debb737db163d5e71c7693724a693de0d57fc2c5f2b",
}
F_LAW_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)
F_LAW_TOL = 0.005


@dataclass
class Context:
    seed: int
    seconds: float
    tiny: bool
    workdir: Path
    nproc: int


@dataclass
class Outcome:
    """Operations attempted and failed. `correct` turns false on any output
    that fails a check or any exception other than a known defect."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    known_defects: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, problems: list[str], known_defect: bool = False,
               counted: bool = True) -> None:
        """Count one operation. An uncounted one, run beyond the fixed set
        that `attempted` covers, counts only if its output is wrong, and
        then as a failure."""
        if counted or problems:
            self.attempted += 1
        if problems or (known_defect and counted):
            self.failed += 1
        if known_defect and counted:
            self.known_defects += 1
        if problems:
            self.correct = False
            if len(self.notes) < 20:
                self.notes.extend(problems[: 20 - len(self.notes)])


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _closed_loop(seconds: float, min_iters: int, step: Callable[[int], None]) -> None:
    """Run step(0), step(1), ... until the next one would end past the
    deadline, but at least `min_iters` times."""
    start = perf_counter()
    i, last = 0, 0.0
    while i < min_iters or perf_counter() + last <= start + seconds:
        t0 = perf_counter()
        step(i)
        last = perf_counter() - t0
        i += 1


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepSpec:
    fmt: str
    f_step: float
    trials: int
    qubits: int
    depolarizing_p: float
    min_iters: int
    # Trials per point in the timed loop. The flagship times 20-trial sweeps
    # (about 1.2 s) instead of its 50: the yardstick runs before each sweep,
    # and it follows the host's speed only across operations this short.
    # Each session is the same, so kernel changes read the same.
    timed_trials: int

    @property
    def f_values(self) -> list[float]:
        count = int(round(1.0 / self.f_step)) + 1
        return [round(i * self.f_step, 10) for i in range(count)]

    def argv(self, out: Path, master_seed: int, workers: int) -> list[str]:
        return [
            "sweep", "--f-start", "0", "--f-end", "1", "--f-step", str(self.f_step),
            "--trials", str(self.trials), "--qubits", str(self.qubits),
            "--sample-fraction", "0.5", "--depolarizing-p", str(self.depolarizing_p),
            "--seed", str(master_seed), "--workers", str(workers),
            "--format", self.fmt, "--out", str(out),
        ]


def _sweep_spec(name: str, tiny: bool) -> SweepSpec:
    if name == "sweep_flagship":
        if tiny:
            return SweepSpec("csv", 0.25, 4, 50_000, 0.0, 1, 4)
        return SweepSpec("csv", 0.05, 50, 50_000, 0.0, 5, 20)
    if tiny:
        return SweepSpec("json", 0.25, 20, 1_000, 0.05, 1, 20)
    return SweepSpec("json", 0.05, 480, 1_000, 0.05, 5, 480)


@dataclass
class SweepRun:
    wall_s: float
    exit_code: int
    trials: bytes
    aggregate: bytes
    error: str = ""


def run_cli_sweep(cli, argv: list[str], out: Path, fmt: str) -> SweepRun:
    """One `bb84sim sweep` through cli.main; the clock stops when main has
    returned, i.e. both files are written and closed."""
    sink = io.StringIO()
    error = ""
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            code, error = -1, f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - start
    paths = [Path(f"{out}_{kind}.{fmt}") for kind in ("trials", "aggregate")]
    data = [p.read_bytes() if p.exists() else b"" for p in paths]
    for p in paths:
        p.unlink(missing_ok=True)
    if code != 0 and not error:
        error = sink.getvalue().strip()[-300:]
    return SweepRun(wall, code, data[0], data[1], error)


def _aggregate_rows(spec: SweepSpec, run: SweepRun) -> list[dict[str, float]]:
    if spec.fmt == "csv":
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(io.StringIO(run.aggregate.decode()))]
    return json.loads(run.aggregate)["rows"]


def _trial_count(spec: SweepSpec, run: SweepRun) -> int:
    if spec.fmt == "csv":
        return run.trials.decode().count("\n") - 1
    return len(json.loads(run.trials)["rows"])


def check_sweep(spec: SweepSpec, run: SweepRun) -> list[str]:
    """Problems with one sweep's output: exit status, shape, and the error
    model. On the ideal channel the per-point mean must be within 0.005 of
    f/4 at the five law points; with noise, every point must be within six
    standard errors of f/4 + p/2 - f*p/4."""
    if run.exit_code != 0:
        return [f"sweep exited {run.exit_code}: {run.error}"]
    problems = []
    try:
        rows = _aggregate_rows(spec, run)
        n_trials = _trial_count(spec, run)
    except (ValueError, KeyError) as exc:
        return [f"unreadable sweep output: {exc}"]
    if [r["f"] for r in rows] != spec.f_values:
        problems.append("aggregate f grid differs from the requested grid")
    if n_trials != len(spec.f_values) * spec.trials:
        problems.append(f"{n_trials} trial rows, expected {len(spec.f_values) * spec.trials}")
    for r in rows:
        if spec.depolarizing_p == 0.0:
            if r["f"] in F_LAW_POINTS and abs(r["mean_qber"] - r["f"] / 4.0) > F_LAW_TOL:
                problems.append(f"f={r['f']}: mean {r['mean_qber']} not within {F_LAW_TOL} of f/4")
        else:
            expected = oracle.qber_model(r["f"], spec.depolarizing_p)
            band = oracle.sigma_band(r["std_dev"], spec.trials) + 1e-6
            if abs(r["mean_qber"] - expected) > band:
                problems.append(f"f={r['f']}: mean {r['mean_qber']} not within {band:.6f} of {expected:.6f}")
    return problems


def check_golden(cli, ctx: Context, outcome: Outcome) -> None:
    out = ctx.workdir / "golden"
    spec = _sweep_spec("sweep_flagship", tiny=False)
    run = run_cli_sweep(cli, spec.argv(out, FLAGSHIP_GOLDEN_SEED, 1), out, "csv")
    problems = check_sweep(spec, run)
    for kind, data in (("trials", run.trials), ("aggregate", run.aggregate)):
        digest = hashlib.sha256(data).hexdigest()
        if digest != FLAGSHIP_GOLDEN_SHA256[kind]:
            problems.append(f"seed-{FLAGSHIP_GOLDEN_SEED} flagship {kind} sha256 {digest} "
                            f"!= golden {FLAGSHIP_GOLDEN_SHA256[kind]}")
    outcome.record(problems)


def _sweep_pair(cli, spec: SweepSpec, ctx: Context, master_seed: int, tag: str,
                outcome: Outcome) -> tuple[SweepRun, SweepRun]:
    """The same sweep with 1 worker and with nproc workers. Both must pass
    the checks and write identical bytes."""
    out = ctx.workdir / tag
    serial = run_cli_sweep(cli, spec.argv(out, master_seed, 1), out, spec.fmt)
    parallel = run_cli_sweep(cli, spec.argv(out, master_seed, ctx.nproc), out, spec.fmt)
    outcome.record(check_sweep(spec, serial))
    problems = check_sweep(spec, parallel)
    if (serial.trials, serial.aggregate) != (parallel.trials, parallel.aggregate):
        problems.append(f"{ctx.nproc}-worker output differs from 1-worker output")
    outcome.record(problems)
    return serial, parallel


# Yardstick passes before each timed operation: about a tenth of its time.
YARDSTICKS_PER_SWEEP = 16
YARDSTICKS_PER_BATCH = 2


def _master_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(63)


def measure_sweep(name: str, ctx: Context, cli, outcome: Outcome) -> dict:
    spec = _sweep_spec(name, ctx.tiny)
    if name == "sweep_flagship":
        check_golden(cli, ctx, outcome)
    seeds = _master_seeds(ctx.seed)
    # One 1-worker/nproc-worker pair checks worker identity and gives
    # wall_s_parallel; the timed loop then runs 1-worker sweeps only, so that
    # wall_s has as many samples as the run allows.
    _, parallel = _sweep_pair(cli, spec, ctx, next(seeds), "pair", outcome)
    timed = replace(spec, trials=spec.timed_trials)
    serial_s = []
    yard = Yardstick(YARDSTICKS_PER_SWEEP)

    def step(i: int) -> None:
        out = ctx.workdir / f"it{i}"
        reference = yard.run()
        serial = run_cli_sweep(cli, timed.argv(out, next(seeds), 1), out, timed.fmt)
        yard.pair(serial.wall_s, reference)
        outcome.record(check_sweep(timed, serial))
        serial_s.append(serial.wall_s)

    with pinned():
        _closed_loop(ctx.seconds, timed.min_iters, step)
    wall = statistics.median(serial_s)
    qubits = len(timed.f_values) * timed.trials * timed.qubits
    return {
        "wall_s": yard.scaled(),
        "wall_raw_s": wall,
        "wall_s_parallel": parallel.wall_s,
        "qubits_per_s": qubits / wall,
        "yardstick_s": statistics.median(yard.samples),
        "sweeps_timed": len(serial_s),
        "qubits_per_sweep": qubits,
        "workers_parallel": ctx.nproc,
        "samples": {"wall_s": serial_s, "yardstick_s": yard.samples},
    }


def trace_sweep(name: str, ctx: Context, package, cli, outcome: Outcome) -> tuple[dict, dict]:
    spec = _sweep_spec(name, ctx.tiny)
    if name == "sweep_flagship":
        check_golden(cli, ctx, outcome)
    master_seed = next(_master_seeds(ctx.seed))
    worker_counts = (1, ctx.nproc)
    # Untraced and traced sweeps alternate, so that drift in machine speed
    # falls on both sides of the overhead; the last traced pair is reported.
    untraced_s: list[list[float]] = [[], []]
    traced_s: list[list[float]] = [[], []]
    for rep in range(1 if ctx.tiny else 2):
        base = _sweep_pair(cli, spec, ctx, master_seed, f"base{rep}", outcome)
        traced = []
        for j, workers in enumerate(worker_counts):
            untraced_s[j].append(base[j].wall_s)
            out = ctx.workdir / f"traced{rep}_{j}"
            with Tracer() as tracer:
                tracer.install(package)
                run = run_cli_sweep(cli, spec.argv(out, master_seed, workers), out, spec.fmt)
            problems = check_sweep(spec, run)
            if (run.trials, run.aggregate) != (base[0].trials, base[0].aggregate):
                problems.append(f"traced {workers}-worker output differs from untraced output")
            outcome.record(problems)
            traced_s[j].append(run.wall_s)
            traced.append((tracer, run))

    (serial_tracer, serial_run), (parallel_tracer, _) = traced
    sessions = serial_tracer.durations_ns("protocol.run_session")
    session_ns = sum(sessions)
    sweep_spans = parallel_tracer.durations_ns("harness.run_sweep")
    validations = serial_tracer.prefixed_durations_ns(VALIDATE_PREFIX)
    layers = {
        "protocol.run_session.busy_s": session_ns / 1e9,
        "protocol.run_session.calls": len(sessions),
        "protocol.run_session.p50_us": percentile(sessions, 50) / 1e3,
        "protocol.run_session.p99_us": percentile(sessions, 99) / 1e3,
        "protocol.ns_per_qubit": session_ns / (len(sessions) * spec.qubits),
        "harness.self_s": serial_tracer.self_s("harness.run_sweep"),
        "harness.derive_trial_seed.busy_s": serial_tracer.busy_s("harness.derive_trial_seed"),
        "harness.worker_utilization": (
            parallel_tracer.busy_s("protocol.run_session") * 1e9 / (sum(sweep_spans) * ctx.nproc)),
        "stats.aggregate_trials.busy_s": serial_tracer.busy_s("stats.aggregate_trials"),
        "core.validations": len(validations),
        "core.validation_s": sum(validations) / 1e9,
        "cli.format_s": sum(serial_tracer.prefixed_durations_ns("cli.format_")) / 1e9,
        "cli.bytes_written": len(serial_run.trials) + len(serial_run.aggregate),
        "trace.overhead_s": sum(statistics.median(t) - statistics.median(u)
                                for t, u in zip(traced_s, untraced_s)),
    }
    extras = {
        "traced_workload": {"workers": worker_counts, "master_seed": master_seed,
                            "qubits_per_sweep": len(spec.f_values) * spec.trials * spec.qubits},
        "untraced_wall_s": untraced_s,
        "traced_wall_s": traced_s,
        "spans": {"serial": serial_tracer.dump(), "parallel": parallel_tracer.dump()},
    }
    return layers, extras


# ---------------------------------------------------------------------------
# interval queries

CONFIDENCES = (0.9, 0.95, 0.99, 0.999)
EDGE_PERIOD = 50  # one query in 50 is forced to k = 0, and one to k = n


def query_batch(seed: int, index: int, size: int) -> tuple[list[int], list[int], list[float]]:
    """Batch `index` of the query stream for `seed`: n log-uniform over
    [10, 10^6], k ~ Binomial(n, q) with q uniform on [0, 0.3], confidence
    uniform over CONFIDENCES, with k = 0 and k = n edges forced in."""
    rng = np.random.default_rng([seed, index])
    n = np.rint(10.0 ** rng.uniform(1.0, 6.0, size)).astype(np.int64)
    k = rng.binomial(n, rng.uniform(0.0, 0.3, size))
    conf = rng.choice(np.array(CONFIDENCES), size)
    pos = np.arange(size)
    k[pos % EDGE_PERIOD == 0] = 0
    edge_n = pos % EDGE_PERIOD == EDGE_PERIOD // 2
    k[edge_n] = n[edge_n]
    return k.tolist(), n.tolist(), conf.tolist()


class QueryRunner:
    """Runs queries the way `bb84sim trial` treats its estimate, and checks
    their answers against the oracle afterwards."""

    def __init__(self, package) -> None:
        self.core = package.core
        self.stats = package.stats
        self.decision = package.decision
        self.methods = list(package.CIMethod)
        self.cp_index = self.methods.index(package.CIMethod.CLOPPER_PEARSON)
        self.policies = list(package.DecisionPolicy)
        self.threshold = oracle.entropy_threshold()

    def query(self, k: int, n: int, conf: float, query_id: int):
        """One query; returns (intervals, verdicts, key-rate report or the
        ValueError key_rate raised), or the exception anything else raised."""
        try:
            est = self.core.QberEstimate(k, n)
            intervals = [self.stats.confidence_interval(est, conf, m) for m in self.methods]
            verdicts = [self.decision.decide(est, intervals[self.cp_index], p)
                        for p in self.policies]
            try:
                return intervals, verdicts, self.decision.key_rate(est.point_estimate)
            except ValueError as exc:
                return intervals, verdicts, exc
        except Exception as exc:  # any other failure is recorded, not fatal
            return exc

    def run_batch(self, k: list[int], n: list[int], conf: list[float], first_id: int = 0,
                  tracer: Tracer | None = None):
        """Time each query; returns (batch wall s, per-query ns, answers).
        With a tracer, each query is a `bench.query` span tagged by its id."""
        query = self.query
        if tracer is not None:
            query = tracer.wrap("bench.query", query, lambda args, kwargs: args[3])
        latencies, answers = [], []
        batch_start = perf_counter()
        for i, (kq, nq, cq) in enumerate(zip(k, n, conf), first_id):
            start = perf_counter_ns()
            answers.append(query(kq, nq, cq, i))
            latencies.append(perf_counter_ns() - start)
        return perf_counter() - batch_start, latencies, answers

    def check(self, k: list[int], n: list[int], conf: list[float], answers, outcome: Outcome,
              counted: bool = True) -> None:
        kk, nn, cc = np.array(k, dtype=float), np.array(n, dtype=float), np.array(conf)
        complete = np.array([not isinstance(a, Exception) for a in answers])
        ok = {}
        if complete.any():
            idx = np.flatnonzero(complete)
            ka, na, ca = kk[idx], nn[idx], cc[idx]
            bounds = np.array([[(iv.lower, iv.upper) for iv in answers[i][0]] for i in idx])
            for j, method in enumerate(self.methods):
                lo, up = bounds[:, j, 0], bounds[:, j, 1]
                label = method.name.lower()
                if j == self.cp_index:
                    ok[label] = oracle.clopper_pearson_ok(ka.astype(np.int64), na.astype(np.int64), ca, lo, up)
                else:
                    ref = getattr(oracle, label)(ka, na, ca)
                    ok[label] = (oracle.close(lo, ref[0], oracle.CLOSED_FORM_TOL)
                                 & oracle.close(up, ref[1], oracle.CLOSED_FORM_TOL))
            point = ka / na
            for j, policy in enumerate(self.policies):
                used = np.array([answers[i][1][j].qber_used for i in idx])
                thr = np.array([answers[i][1][j].threshold for i in idx])
                proceed = np.array([answers[i][1][j].decision.name == "PROCEED" for i in idx])
                expected = point if policy.name == "POINT_ESTIMATE" else bounds[:, self.cp_index, 1]
                ok[f"decide.{policy.value}"] = (
                    (used == expected) & oracle.close(thr, self.threshold, oracle.CP_TOL)
                    & (proceed == (used < thr)))
        row = np.cumsum(complete) - 1  # position of answer i among the complete ones
        h2 = oracle.binary_entropy(kk / nn)
        for i, answer in enumerate(answers):
            if isinstance(answer, Exception):
                outcome.record([f"query (k={k[i]}, n={n[i]}, conf={conf[i]}) raised "
                                f"{type(answer).__name__}: {answer}"], counted=counted)
                continue
            problems = [f"{label} wrong at (k={k[i]}, n={n[i]}, conf={conf[i]})"
                        for label, flags in ok.items() if not flags[row[i]]]
            report = answer[2]
            known_defect = False
            if isinstance(report, ValueError):
                # ROADMAP item 4: key_rate rejects a point estimate above 0.5.
                if k[i] / n[i] > 0.5:
                    known_defect = True
                else:
                    problems.append(f"key_rate raised at qber {k[i] / n[i]}: {report}")
            elif k[i] / n[i] <= 0.5:
                rate = 1.0 - 2.0 * h2[i]
                if abs(report.rate - rate) > oracle.RATE_TOL or report.secure != (report.rate > 0.0):
                    problems.append(f"key_rate wrong at qber {k[i] / n[i]}")
            elif not np.isfinite(report.rate):
                problems.append(f"key_rate not finite at qber {k[i] / n[i]}")
            outcome.record(problems, known_defect, counted)


# Per-query latencies go into a fixed histogram (0.1 us bins up to 50 ms),
# so the benchmark's own memory does not grow with the queries it runs and
# peak_rss_mb does not rise when the program gets faster.
LATENCY_BIN_NS = 100
LATENCY_BINS = 500_000


def histogram_percentile(hist: np.ndarray, q: float) -> float:
    cumulative = np.cumsum(hist)
    return (float(np.searchsorted(cumulative, q / 100.0 * cumulative[-1])) + 0.5) * LATENCY_BIN_NS


def _query_sizes(tiny: bool) -> tuple[int, int, int]:
    """(queries per batch, counted batches in a timed run, batches in a traced run)"""
    return (100, 1, 1) if tiny else (1000, 10, 5)


def measure_queries(ctx: Context, package, outcome: Outcome) -> dict:
    batch, counted_batches, _ = _query_sizes(ctx.tiny)
    runner = QueryRunner(package)
    runner.run_batch(*query_batch(ctx.seed, 1 << 20, batch // 5))  # warm-up, unchecked
    walls = []
    yard = Yardstick(YARDSTICKS_PER_BATCH)
    hist = np.zeros(LATENCY_BINS, dtype=np.int64)

    def step(i: int) -> None:
        k, n, conf = query_batch(ctx.seed, i, batch)
        reference = yard.run()
        wall, lat, answers = runner.run_batch(k, n, conf)
        yard.pair(wall, reference)
        walls.append(wall)
        bins = np.minimum(np.asarray(lat) // LATENCY_BIN_NS, LATENCY_BINS - 1)
        hist[:] += np.bincount(bins, minlength=LATENCY_BINS)
        # Every batch is checked. `attempted` and `failed` count the first
        # `counted_batches`, which every run runs, so they depend on the seed
        # only and not on how many batches the host's speed lets a run fit
        # in. A wrong output in a later batch still counts as a failure.
        runner.check(k, n, conf, answers, outcome, counted=i < counted_batches)

    with pinned():
        _closed_loop(ctx.seconds, counted_batches, step)
    wall = statistics.median(walls)
    return {
        "wall_s": yard.scaled(),
        "wall_raw_s": wall,
        "yardstick_s": statistics.median(yard.samples),
        "queries_per_s": batch / wall,
        "query_p50_us": histogram_percentile(hist, 50) / 1e3,
        "query_p99_us": histogram_percentile(hist, 99) / 1e3,
        "query_samples": int(hist.sum()),
        "queries_per_batch": batch,
        "batches_counted": counted_batches,
        "batches_timed": len(walls),
        "samples": {"wall_s": walls, "yardstick_s": yard.samples},
    }


def trace_queries(ctx: Context, package, outcome: Outcome) -> tuple[dict, dict]:
    batch, _, batches = _query_sizes(ctx.tiny)
    runner = QueryRunner(package)
    inputs = [query_batch(ctx.seed, i, batch) for i in range(batches)]
    runner.run_batch(*query_batch(ctx.seed, 1 << 20, batch // 5))  # warm-up, unchecked
    base_wall = traced_wall = 0.0
    tracer = Tracer()
    for b, q in enumerate(inputs):  # untraced and traced alternate, batch by batch
        base_wall += runner.run_batch(*q)[0]
        with tracer:
            tracer.install(package)
            wall, _, answers = runner.run_batch(*q, first_id=b * batch, tracer=tracer)
        traced_wall += wall
        runner.check(*q, answers, outcome)

    layers = {}
    for method in package.CIMethod:
        label = method.name.lower()
        durations = tracer.durations_ns(f"stats.ci_{label}")
        layers[f"stats.ci.{label}.busy_s"] = sum(durations) / 1e9
        layers[f"stats.ci.{label}.p50_us"] = percentile(durations, 50) / 1e3
    # A bisection solves one bound; k = 0 has no lower and k = n no upper.
    bounds_solved = sum((kq > 0) + (kq < nq) for k, n, _ in inputs for kq, nq in zip(k, n))
    tail_evals = tracer.counts["stats.bdtr"] + tracer.counts["stats.bdtrc"]
    validations = tracer.prefixed_durations_ns(VALIDATE_PREFIX)
    layers.update({
        "stats.clopper_pearson.tail_evals": tail_evals / bounds_solved,
        "decision.decide.p50_us": percentile(tracer.durations_ns("decision.decide"), 50) / 1e3,
        "decision.key_rate.p50_us": percentile(tracer.durations_ns("decision.key_rate"), 50) / 1e3,
        "core.validations": len(validations),
        "core.validation_s": sum(validations) / 1e9,
        "trace.overhead_s": traced_wall - base_wall,
    })
    extras = {
        "traced_workload": {"queries": batch * batches, "bounds_solved": bounds_solved,
                            "tail_evals_total": tail_evals},
        "untraced_wall_s": base_wall,
        "traced_wall_s": traced_wall,
        "spans": {"queries": tracer.dump()},
    }
    return layers, extras


# ---------------------------------------------------------------------------


def make_workdir(root: Path) -> Path:
    workdir = root / "perfbench" / "work" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir

