"""Reproducible Monte Carlo runners: the eavesdropper-fraction sweep, QBER
histograms, and finite-size studies.

Every trial gets its own seed derived from (master_seed, point index, trial
index) with a SplitMix64-style mixer, so trials are independent, reorderable,
and parallelizable: results are keyed by their indices, never by completion
order, and the output is identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import CIMethod, QberEstimate, check_confidence, check_probability
from .protocol import (
    ChannelModel, EveStrategy, SessionConfig, check_session_params, run_session,
)
from .stats import TrialAggregate, aggregate_trials, check_trials, confidence_interval

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64 Weyl increment


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
        if not self.f_values:
            raise ValueError("f_values must be non-empty")
        for f in self.f_values:
            check_probability("f", f)
        if any(b <= a for a, b in zip(self.f_values, self.f_values[1:])):
            raise ValueError("f_values must be strictly increasing")
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
                      workers: int) -> list[TrialRow]:
    """The config's trials at fraction f, seeded from (master seed, index)."""

    def job(t: int) -> TrialRow:
        seed = derive_trial_seed(config.master_seed, index, t)
        session = SessionConfig(
            n_qubits=config.n_qubits,
            eve=EveStrategy.intercept_resend(f),
            channel=config.channel,
            sample_fraction=config.sample_fraction,
            seed=seed,
        )
        try:
            result = run_session(session, ledger=False)
        except Exception as exc:
            raise RuntimeError(f"trial failed at f={f}, trial={t}: {exc}") from exc
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
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(job, range(config.trials_per_f)))
    return [job(t) for t in range(config.trials_per_f)]


def _estimates(rows: Sequence[TrialRow]) -> list[QberEstimate]:
    return [QberEstimate(r.errors_k, r.compared_n) for r in rows]


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Run trials_per_f sessions at every f and aggregate per point.

    Deterministic in the config; the worker count only affects wall time.
    """
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
        if any(b <= a for a, b in zip(self.bin_edges, self.bin_edges[1:])):
            raise ValueError("bin edges must be strictly increasing")
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
    f_index: int = 0,
    workers: int = 1,
) -> HistogramResult:
    """Distribution of per-trial QBER values at a fixed eavesdropper fraction.

    Bins of the given width cover [max(0, mean - 5 std), mean + 5 std],
    widened if needed so that every trial lands in some bin; when all trials
    agree exactly (std = 0) a single bin holds them all. Pass f_index to
    reuse the per-trial seeds of a sweep position.
    """
    config = SweepConfig((f,), trials, n_qubits, sample_fraction, channel, master_seed)
    if bin_width <= 0.0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    rows = _run_point_trials(config, f, f_index, workers)
    values = np.array([r.qber for r in rows])
    mean = float(np.mean(values))
    std = float(np.std(values, ddof=1))
    if std == 0.0:
        edges = np.array([mean, mean + bin_width])
    else:
        lo = min(max(0.0, mean - 5.0 * std), float(values.min()))
        hi = max(mean + 5.0 * std, float(values.max()) + bin_width * 1e-9)
        n_bins = max(1, math.ceil((hi - lo) / bin_width))
        edges = lo + bin_width * np.arange(n_bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    assert int(counts.sum()) == trials
    return HistogramResult(
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        mean=mean,
        std=std,
    )


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
    workers: int = 1,
) -> list[FiniteSizePoint]:
    """How interval width shrinks as the key grows: sweep over n at fixed f.

    ci_width at each n is the mean, over trials, of the width of the chosen
    interval on that trial's own (k, n) estimate; the per-trial reading is
    what makes "shorter keys give wider intervals" directly visible.
    """
    if not n_values:
        raise ValueError("n_values must be non-empty")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("n_values must be strictly increasing")
    configs = [
        SweepConfig((f,), trials, n_qubits, sample_fraction, channel, master_seed,
                    confidence)
        for n_qubits in n_values
    ]
    out: list[FiniteSizePoint] = []
    for n_index, config in enumerate(configs):
        estimates = _estimates(_run_point_trials(config, f, n_index, workers))
        widths = [
            confidence_interval(e, confidence, ci_method).width for e in estimates
        ]
        out.append(
            FiniteSizePoint(
                n_qubits=config.n_qubits,
                aggregate=aggregate_trials(estimates, confidence),
                ci_width=float(np.mean(widths)),
            )
        )
    return out
