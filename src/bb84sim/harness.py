"""Reproducible Monte Carlo runners: the eavesdropper-fraction sweep, QBER
histograms, and finite-size studies.

Every trial gets its own seed derived from (master_seed, point index, trial
index) with a SplitMix64-style mixer, so trials are independent, reorderable,
and parallelizable: results are keyed by their indices, never by completion
order, and the output is identical for any worker count; so is a session's
error, such as `EmptySampleError`, raised unchanged from the first failing trial.

`ThreadPoolExecutor` is imported only when a point runs on more than one
worker, so a 1-worker sweep never loads `concurrent.futures`. The module
itself still loads with the package, as every bb84sim module does (see
protocol).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    CIMethod, QberEstimate, check_confidence, check_increasing, check_probability,
)
from .protocol import (
    ChannelModel, EveStrategy, SessionConfig, check_session_params, run_session,
)
from .stats import TrialAggregate, aggregate_trials, check_trials, interval_function

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 Weyl increment
# A histogram holds one edge per bin, at about 55 B an edge, so this many
# bins take about 55 MB; a bin_width that asks for more is refused.
MAX_HISTOGRAM_BINS = 10**6


def _mix64(z: int) -> int:
    """SplitMix64 finalizer (Vigna): two xor-shift-multiply rounds."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_trial_seed(master_seed: int, f_index: int, trial_index: int) -> int:
    """Mix (master_seed, f_index, trial_index) into one 64-bit trial seed.

    Each index word is folded in with a Weyl increment and finalized with the
    SplitMix64 mixer. The mapping is frozen: golden tests pin its outputs, so
    archived per-trial seeds stay valid.
    """
    acc = master_seed & _MASK64
    for word in (f_index, trial_index):
        acc = (acc + (word & _MASK64) * _GOLDEN + _GOLDEN) & _MASK64
        acc = _mix64(acc)
    return acc


@dataclass(frozen=True, slots=True)
class SweepConfig:
    """Parameters of an eavesdropper-fraction sweep, checked on construction.

    Every runner plans its trials through one, so each parameter is checked
    in one place and before the first session runs.
    """

    f_values: tuple[float, ...]
    trials_per_f: int = 50
    n_qubits: int = 50_000
    sample_fraction: float = 0.5
    channel: ChannelModel = ChannelModel.ideal()
    master_seed: int = 42
    confidence: float = 0.95

    def __post_init__(self) -> None:
        for f in self.f_values:
            check_probability("f", f)
        check_increasing("f_values", self.f_values)
        check_trials(self.trials_per_f)
        check_session_params(self.n_qubits, self.sample_fraction, self.master_seed)
        check_confidence(self.confidence)


@dataclass(frozen=True, slots=True)
class TrialRow:
    """One trial's bookkeeping, sufficient to recompute every aggregate.

    Its fields, in order, are the columns of the sweep's per-trial file.
    """

    f: float
    trial: int
    seed: int
    n_qubits: int
    sifted_count: int
    compared_n: int
    errors_k: int
    qber: float


@dataclass(frozen=True, slots=True)
class AggregateRow:
    """One sweep point: the aggregate over its trials, with the theoretical
    f/4 alongside. Its fields, in order, are the columns of the sweep's
    aggregate file."""

    f: float
    trials: int
    mean_qber: float
    std_dev: float
    ci_low: float
    ci_high: float
    theory: float


@dataclass(frozen=True, slots=True)
class SweepResult:
    """The rows of a sweep's two files: one per point and one per trial."""

    per_point: tuple[AggregateRow, ...]
    per_trial_rows: tuple[TrialRow, ...]


def _run_point_trials(config: SweepConfig, f: float, index: int,
                      workers: int = 1) -> list[TrialRow]:
    """The config's trials at fraction f, seeded from (master seed, index)."""
    eve = EveStrategy.intercept_resend(f)

    def job(t: int) -> TrialRow:
        seed = derive_trial_seed(config.master_seed, index, t)
        session = SessionConfig(
            n_qubits=config.n_qubits,
            eve=eve,
            channel=config.channel,
            sample_fraction=config.sample_fraction,
            seed=seed,
        )
        result = run_session(session, ledger=False)
        est = result.estimate
        return TrialRow(
            f=f,
            trial=t,
            seed=seed,
            n_qubits=config.n_qubits,
            sifted_count=result.sifted_count,
            compared_n=est.compared_n,
            errors_k=est.errors_k,
            qber=est.point_estimate,
        )

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(job, range(config.trials_per_f)))
    return [job(t) for t in range(config.trials_per_f)]


def check_workers(workers: int) -> None:
    """Raise ValueError unless at least one worker runs the trials."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _estimates(rows: Sequence[TrialRow]) -> list[QberEstimate]:
    return [QberEstimate(r.errors_k, r.compared_n) for r in rows]


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Run trials_per_f sessions at every f and aggregate per point.

    Deterministic in the config; the worker count only affects wall time.
    """
    check_workers(workers)
    trial_rows: list[TrialRow] = []
    points: list[AggregateRow] = []
    for index, f in enumerate(config.f_values):
        rows = _run_point_trials(config, f, index, workers)
        trial_rows.extend(rows)
        agg = aggregate_trials(_estimates(rows), config.confidence)
        points.append(AggregateRow(
            f=f,
            trials=agg.trials_m,
            mean_qber=agg.mean_qber,
            std_dev=agg.std_dev,
            ci_low=agg.ci_of_mean.lower,
            ci_high=agg.ci_of_mean.upper,
            theory=f / 4.0,
        ))
    return SweepResult(per_point=tuple(points), per_trial_rows=tuple(trial_rows))


@dataclass(frozen=True, slots=True)
class HistogramResult:
    """Binned per-trial QBER values, with their mean and sample std."""

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    mean: float
    std: float

    def __post_init__(self) -> None:
        if len(self.counts) != len(self.bin_edges) - 1:
            raise ValueError("need exactly one more edge than bins")
        check_increasing("bin edges", self.bin_edges)
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")


def run_histogram(
    f: float,
    *,
    trials: int = 50,
    n_qubits: int = 50_000,
    sample_fraction: float = 0.5,
    channel: ChannelModel = ChannelModel.ideal(),
    master_seed: int = 42,
    bin_width: float = 0.002,
) -> HistogramResult:
    """Distribution of per-trial QBER values at a fixed eavesdropper fraction.

    The trials, mean and std are those of a one-point sweep with the same
    master seed. Bins of the given width cover [max(0, mean - 5 std),
    mean + 5 std], widened if needed so that every trial lands in some bin;
    they are half-open but for the last, as in numpy.histogram. When all
    trials agree (std = 0) one bin [mean, mean + bin_width) holds them all.
    Raises ValueError, once the trials have run, when that is more than
    MAX_HISTOGRAM_BINS bins.
    """
    from bisect import bisect_right

    config = SweepConfig((f,), trials, n_qubits, sample_fraction, channel, master_seed)
    if not 0.0 < bin_width < math.inf:
        raise ValueError(f"bin_width must be positive and finite, got {bin_width}")
    sweep = run_sweep(config)
    point = sweep.per_point[0]
    mean, std = point.mean_qber, point.std_dev
    values = [r.qber for r in sweep.per_trial_rows]
    lo = min(max(0.0, mean - 5.0 * std), min(values))
    hi = max(mean + 5.0 * std, max(values) + bin_width * 1e-9)
    n_bins = max(1, math.ceil((hi - lo) / bin_width))
    if n_bins > MAX_HISTOGRAM_BINS:
        raise ValueError(f"bin_width {bin_width} gives {n_bins} bins, more than "
                         f"the {MAX_HISTOGRAM_BINS} allowed")
    edges = tuple(lo + bin_width * i for i in range(n_bins + 1))
    counts = [0] * n_bins
    for v in values:  # searching edges[:n_bins] closes the last bin
        if edges[0] <= v <= edges[-1]:
            counts[bisect_right(edges, v, 0, n_bins) - 1] += 1
    assert sum(counts) == trials
    return HistogramResult(bin_edges=edges, counts=tuple(counts), mean=mean, std=std)


@dataclass(frozen=True, slots=True)
class FiniteSizePoint:
    """Aggregate at one qubit count, plus the mean per-trial interval width."""

    n_qubits: int
    aggregate: TrialAggregate
    ci_width: float


def run_finite_size_study(
    f: float,
    n_values: Sequence[int],
    *,
    trials: int = 50,
    sample_fraction: float = 0.5,
    channel: ChannelModel = ChannelModel.ideal(),
    master_seed: int = 42,
    ci_method: CIMethod = CIMethod.CLOPPER_PEARSON,
    confidence: float = 0.95,
) -> list[FiniteSizePoint]:
    """How interval width shrinks as the key grows: sweep over n at fixed f.

    ci_width at each n is the mean, over trials, of the width of the chosen
    interval on that trial's own (k, n) estimate; the per-trial reading is
    what makes "shorter keys give wider intervals" directly visible.
    """
    check_increasing("n_values", n_values)
    interval = interval_function(ci_method)
    configs = [
        SweepConfig((f,), trials, n_qubits, sample_fraction, channel, master_seed,
                    confidence)
        for n_qubits in n_values
    ]
    out: list[FiniteSizePoint] = []
    for n_index, config in enumerate(configs):
        estimates = _estimates(_run_point_trials(config, f, n_index))
        widths = [interval(e, confidence).width for e in estimates]
        out.append(
            FiniteSizePoint(
                n_qubits=config.n_qubits,
                aggregate=aggregate_trials(estimates, confidence),
                ci_width=math.fsum(widths) / len(widths),
            )
        )
    return out
