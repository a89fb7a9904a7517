"""End-to-end acceptance checks.

Each test prints one `[acceptance N] name: PASS/FAIL` line (visible with
`pytest -s tests/test_acceptance.py`) and then asserts, so the suite doubles
as a human-readable scorecard. Tolerances are statistical where the quantity
is Monte Carlo (sigma-scaled bands) and tight where it is deterministic.
"""

import hashlib
import math

import numpy as np
import pytest
import scipy.stats

from bb84sim.cli import _f_grid, format_aggregate_csv, format_trials_csv
from bb84sim.core import CIMethod, QberEstimate
from bb84sim.harness import SweepConfig, run_finite_size_study, run_histogram, run_sweep
from bb84sim.protocol import ChannelModel
from bb84sim.stats import (
    ci_clopper_pearson, ci_wilson, confidence_interval, hoeffding_half_width,
)
from bb84sim.decision import key_rate, threshold_root

from test_stats import _cp_oracle


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {name}: {status} ({detail})")
    assert ok, f"acceptance {number} {name}: {detail}"


@pytest.fixture(scope="module")
def default_sweep():
    """The flagship configuration: 21 fractions, 50 trials each, 50,000
    transmitted qubits per trial, master seed 42, noiseless channel."""
    config = SweepConfig(f_values=_f_grid(0.0, 1.0, 0.05))
    return config, run_sweep(config)


def test_acceptance_1_five_point_agreement(default_sweep):
    _, result = default_sweep
    targets = {0.0, 0.1, 0.2, 0.5, 1.0}
    rows = [p for p in result.per_point if p.f in targets]
    assert len(rows) == 5
    worst = max(abs(p.mean_qber - p.f / 4.0) for p in rows)
    zero = next(p for p in rows if p.f == 0.0)
    ok = (
        worst <= 0.005
        and zero.mean_qber == 0.0
        and zero.std_dev == 0.0
    )
    _report(
        1, "five-point mean error rate within 0.005 of f/4", ok,
        f"max |mean - f/4| = {worst:.6f}, f=0 mean/std = "
        f"{zero.mean_qber}/{zero.std_dev}",
    )


def test_acceptance_2_linear_sweep(default_sweep):
    _, result = default_sweep
    assert len(result.per_point) == 21
    deviations_ok = all(
        abs(p.mean_qber - p.f / 4.0)
        <= 4.0 * p.std_dev / math.sqrt(p.trials)
        for p in result.per_point
    )
    fs = np.array([p.f for p in result.per_point])
    means = np.array([p.mean_qber for p in result.per_point])
    slope = float(np.polyfit(fs, means, 1)[0])
    ok = deviations_ok and 0.24 <= slope <= 0.26
    _report(
        2, "21-point sweep linear in f with slope 1/4", ok,
        f"per-point 4-sigma agreement = {deviations_ok}, slope = {slope:.5f}",
    )


def test_acceptance_3_noise_free_distribution():
    hist = run_histogram(0.0, trials=50, n_qubits=50_000)
    occupied = sum(1 for c in hist.counts if c > 0)
    ok = hist.mean == 0.0 and hist.std == 0.0 and occupied == 1 and sum(hist.counts) == 50
    _report(
        3, "zero-interception trials give exactly zero errors", ok,
        f"mean = {hist.mean}, std = {hist.std}, occupied bins = {occupied}",
    )


def test_acceptance_4_full_attack_distribution():
    # 100,000 transmitted qubits make ~50,000-bit sifted keys per trial,
    # i.e. ~25,000 compared bits, the regime the target brackets describe
    hist = run_histogram(1.0, trials=50, n_qubits=100_000)
    ok = 0.245 <= hist.mean <= 0.254 and 0.0015 <= hist.std <= 0.0030
    _report(
        4, "full-attack error distribution near 0.25", ok,
        f"mean = {hist.mean:.4f} (target [0.245, 0.254]), "
        f"std = {hist.std:.4f} (target [0.0015, 0.0030])",
    )


def test_acceptance_5a_exact_interval_vs_oracle():
    n = 200
    worst = 0.0
    for k in range(n + 1):
        ours = ci_clopper_pearson(QberEstimate(k, n), 0.95)
        lo, hi = _cp_oracle(k, n)
        worst = max(worst, abs(ours.lower - lo), abs(ours.upper - hi))
    ok = worst <= 1e-6
    _report(
        5, "exact binomial interval matches tail-sum oracle at n=200", ok,
        f"max bound deviation = {worst:.2e} (tolerance 1e-6)",
    )


def test_acceptance_5b_interval_coverage():
    n, p, replicates = 500, 0.1, 20_000
    rng = np.random.default_rng(20240814)
    ks, counts = np.unique(rng.binomial(n, p, replicates), return_counts=True)
    cp_hits = wilson_hits = 0
    for k, c in zip(ks.tolist(), counts.tolist()):
        est = QberEstimate(k, n)
        cp = ci_clopper_pearson(est, 0.95)
        wil = ci_wilson(est, 0.95)
        cp_hits += c * (cp.lower <= p <= cp.upper)
        wilson_hits += c * (wil.lower <= p <= wil.upper)
    cp_cov = cp_hits / replicates
    wilson_cov = wilson_hits / replicates
    ok = cp_cov >= 0.95 and 0.94 <= wilson_cov <= 0.96
    _report(
        5, "interval coverage at p=0.1, n=500, 20000 replicates", ok,
        f"exact-method coverage = {cp_cov:.4f} (>= 0.95), "
        f"score coverage = {wilson_cov:.4f} (0.95 +/- 0.01)",
    )


def test_acceptance_5c_concentration_half_width():
    worst = max(
        abs(hoeffding_half_width(n, conf)
            - math.sqrt(math.log(2.0 / (1.0 - conf)) / (2.0 * n)))
        for n in (100, 1_000, 12_500, 50_000)
        for conf in (0.9, 0.95, 0.99)
    )
    ok = worst <= 1e-12
    _report(
        5, "concentration half-width equals sqrt(ln(2/delta)/(2n))", ok,
        f"max deviation = {worst:.2e} (tolerance 1e-12)",
    )


def test_acceptance_6_security_threshold():
    root = threshold_root()
    residual = abs(key_rate(root).rate)
    ok = 0.1095 <= root <= 0.1105 and residual <= 1e-5
    _report(
        6, "key-rate zero crossing near 0.11", ok,
        f"root = {root:.6f} (target [0.1095, 0.1105]), |rate(root)| = {residual:.2e}",
    )


def test_acceptance_7_finite_size_widths():
    points = run_finite_size_study(0.5, [1_000, 10_000, 100_000], trials=50)
    widths = [p.ci_width for p in points]
    decreasing = widths[0] > widths[1] > widths[2]
    scaling_err = max(
        abs(hoeffding_half_width(n, 0.95) / hoeffding_half_width(4 * n, 0.95) - 2.0)
        / 2.0
        for n in (1_000, 10_000, 100_000)
    )
    ok = decreasing and scaling_err <= 1e-9
    _report(
        7, "interval widths shrink with key size", ok,
        f"widths = {[round(w, 5) for w in widths]} strictly decreasing = "
        f"{decreasing}, 1/sqrt(n) scaling error = {scaling_err:.2e}",
    )


# sha256 of the flagship's two CSV files at master seed 42. Its sessions
# sift more than 10,000 positions, so `rng.choice` takes its tail-shuffle
# branch, which the small golden sweeps of test_cli.py never reach.
FLAGSHIP_SHA256 = {
    "trials": "44811125c14e44ce463cddf323ff2946c430deb9e9e881507bfb263e6c2cf11d",
    "aggregate": "29e06ac5aef1fe3a88a48debb737db163d5e71c7693724a693de0d57fc2c5f2b",
}


def _csv_files(result):
    return {
        "trials": format_trials_csv(result.per_trial_rows),
        "aggregate": format_aggregate_csv(result.per_point),
    }


def test_acceptance_8_determinism(default_sweep):
    config, first = default_sweep
    files = _csv_files(first)
    repeat_same = _csv_files(run_sweep(config)) == files
    workers_same = _csv_files(run_sweep(config, workers=8)) == files
    golden = all(
        hashlib.sha256(files[name].encode()).hexdigest() == digest
        for name, digest in FLAGSHIP_SHA256.items()
    )
    ok = repeat_same and workers_same and golden
    _report(
        8, "repeat and parallel runs emit identical, golden bytes", ok,
        f"repeat identical = {repeat_same}, workers 1 vs 8 identical = {workers_same}, "
        f"seed-42 sha256 golden = {golden}",
    )


def _randomized_pit(x, n, prob, v):
    """F(x - 1) + v * P(X = x) for X ~ Binomial(n, prob): exactly Uniform(0, 1)
    when x follows that law and v is an independent uniform."""
    below = scipy.stats.binom.cdf(x - 1, n, prob)
    return below + v * (scipy.stats.binom.cdf(x, n, prob) - below)


def test_acceptance_9_trials_follow_the_binomial_law():
    """Per sifted qubit the error probability is q = f/4 + p/2 * (1 - f/2),
    independently, and the sample is chosen blind to errors, so errors_k is
    exactly Binomial(compared_n, q) and sifted_count Binomial(n_qubits, 1/2).
    A KS test of their randomized probability-integral transforms checks the
    whole law, variance included, not only the mean; the intervals must
    then cover q as they would on true binomial draws."""
    p, confidence = 0.05, 0.95
    config = SweepConfig(f_values=_f_grid(0.0, 1.0, 0.05), trials_per_f=40,
                         n_qubits=4_000, channel=ChannelModel.depolarizing(p))
    rows = run_sweep(config).per_trial_rows
    f = np.array([r.f for r in rows])
    q = f / 4 + p / 2 * (1 - f / 2)
    errors = np.array([r.errors_k for r in rows])
    compared = np.array([r.compared_n for r in rows])
    sifted = np.array([r.sifted_count for r in rows])
    v = np.random.default_rng(20260914).random((2, len(rows)))
    ks_errors = scipy.stats.kstest(_randomized_pit(errors, compared, q, v[0]), "uniform").pvalue
    ks_sifted = scipy.stats.kstest(
        _randomized_pit(sifted, config.n_qubits, 0.5, v[1]), "uniform").pvalue

    coverage = {}
    for method in CIMethod:
        cis = [confidence_interval(QberEstimate(int(k), int(n)), confidence, method)
               for k, n in zip(errors, compared)]
        coverage[method] = np.mean([ci.lower <= qi <= ci.upper for ci, qi in zip(cis, q)])
    slack = 3 * math.sqrt(confidence * (1 - confidence) / len(rows))
    # Clopper-Pearson and Hoeffding guarantee the level; Wald and Wilson
    # approximate it, to within 0.01 here as in acceptance 5.
    exact = (CIMethod.CLOPPER_PEARSON, CIMethod.HOEFFDING)
    covered = all(
        coverage[m] >= confidence - slack if m in exact
        else abs(coverage[m] - confidence) <= 0.01 + slack
        for m in CIMethod
    )
    ok = ks_errors > 1e-3 and ks_sifted > 1e-3 and covered
    _report(
        9, f"{len(rows)} simulated trials follow the binomial law", ok,
        f"KS p errors_k = {ks_errors:.3f}, sifted_count = {ks_sifted:.3f} (> 0.001); "
        + ", ".join(f"{m.value} coverage = {c:.4f}" for m, c in coverage.items())
        + f" (Monte Carlo slack {slack:.4f})",
    )
