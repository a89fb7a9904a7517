import math

import numpy as np
import pytest

from bb84sim import harness
from bb84sim.core import CIMethod, QberEstimate
from bb84sim.harness import (
    _GOLDEN,
    _mix64,
    HistogramResult,
    SweepConfig,
    derive_trial_seed,
    run_finite_size_study,
    run_histogram,
    run_sweep,
)
from bb84sim.protocol import ChannelModel, EmptySampleError
from bb84sim.stats import aggregate_trials, hoeffding_half_width


# ---------------------------------------------------------------------------
# seed derivation


def test_mixer_matches_reference_sequence():
    """The finalizer reproduces the published SplitMix64 outputs for the
    stream seeded with 0 (state advances by the Weyl constant per step)."""
    assert _mix64(_GOLDEN) == 0xE220A8397B1DCDAF
    assert _mix64((2 * _GOLDEN) & ((1 << 64) - 1)) == 0x6E789E6AA1B965F4
    assert _mix64((3 * _GOLDEN) & ((1 << 64) - 1)) == 0x06C45D188009454F


def test_derive_trial_seed_golden_values():
    assert derive_trial_seed(0, 0, 0) == 12035550249420947055
    assert derive_trial_seed(42, 0, 0) == 6332618229526065668
    assert derive_trial_seed(42, 0, 1) == 17630415256238047317
    assert derive_trial_seed(42, 1, 0) == 18201609923829866926


def test_derive_trial_seed_determinism_and_spread():
    assert derive_trial_seed(42, 0, 0) == derive_trial_seed(42, 0, 0)
    assert derive_trial_seed(42, 0, 0) != derive_trial_seed(42, 0, 1)
    assert derive_trial_seed(42, 0, 0) != derive_trial_seed(42, 1, 0)
    assert derive_trial_seed(42, 0, 0) != derive_trial_seed(7, 0, 0)


def test_derive_trial_seed_no_collisions_on_the_default_grid():
    seeds = {
        derive_trial_seed(42, fi, t) for fi in range(21) for t in range(50)
    }
    assert len(seeds) == 21 * 50


def test_derived_seeds_fit_in_64_bits():
    for fi in range(5):
        for t in range(5):
            assert 0 <= derive_trial_seed(42, fi, t) < 2**64


# ---------------------------------------------------------------------------
# sweep


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(f_values=())
    with pytest.raises(ValueError):
        SweepConfig(f_values=(0.0, 1.2))
    with pytest.raises(ValueError):
        SweepConfig(f_values=(0.5, 0.5))
    with pytest.raises(ValueError):
        SweepConfig(f_values=(0.5, 0.2))
    with pytest.raises(ValueError):
        SweepConfig(f_values=(0.0, 0.5), trials_per_f=1)


@pytest.fixture(scope="module")
def small_sweep():
    config = SweepConfig(
        f_values=(0.0, 0.5, 1.0), trials_per_f=8, n_qubits=4_000, master_seed=42
    )
    return config, run_sweep(config)


def test_sweep_shape_and_theory_column(small_sweep):
    config, result = small_sweep
    assert len(result.per_point) == 3
    assert len(result.per_trial_rows) == 3 * 8
    for point in result.per_point:
        assert point.theory == point.f / 4.0
        assert point.trials == 8


def test_sweep_rows_carry_their_seeds(small_sweep):
    config, result = small_sweep
    f_index = {f: i for i, f in enumerate(config.f_values)}
    for row in result.per_trial_rows:
        assert row.seed == derive_trial_seed(42, f_index[row.f], row.trial)
        assert row.n_qubits == config.n_qubits
        assert 0 <= row.errors_k <= row.compared_n
        assert row.compared_n == math.floor(0.5 * row.sifted_count)
        assert row.qber == row.errors_k / row.compared_n


def test_sweep_aggregates_recomputable_from_rows(small_sweep):
    """The per-trial rows fully determine every published aggregate."""
    config, result = small_sweep
    for point in result.per_point:
        rows = [r for r in result.per_trial_rows if r.f == point.f]
        redo = aggregate_trials(
            [QberEstimate(r.errors_k, r.compared_n) for r in rows], 0.95
        )
        assert (redo.trials_m, redo.mean_qber, redo.std_dev,
                redo.ci_of_mean.lower, redo.ci_of_mean.upper) == (
            point.trials, point.mean_qber, point.std_dev, point.ci_low, point.ci_high)


def test_sweep_is_deterministic(small_sweep):
    config, result = small_sweep
    again = run_sweep(config)
    assert again == result


def test_sweep_workers_do_not_change_results(small_sweep):
    config, result = small_sweep
    parallel = run_sweep(config, workers=4)
    assert parallel == result


def test_sweep_means_track_f_over_4():
    config = SweepConfig(
        f_values=(0.0, 0.4, 0.8), trials_per_f=10, n_qubits=20_000
    )
    for point in run_sweep(config).per_point:
        bound = 4.0 * point.std_dev / math.sqrt(point.trials)
        assert abs(point.mean_qber - point.theory) <= max(bound, 1e-12)


@pytest.mark.parametrize("run", [
    lambda: run_sweep(SweepConfig(f_values=(0.0, 1.0), trials_per_f=2, n_qubits=1)),
    lambda: run_histogram(0.0, trials=2, n_qubits=1),
    lambda: run_finite_size_study(0.0, [1], trials=2),
], ids=["sweep", "histogram", "finite-size"])
def test_runners_raise_the_sessions_empty_sample_error(run):
    with pytest.raises(EmptySampleError, match="increase n_qubits"):
        run()


# ---------------------------------------------------------------------------
# histogram


def test_histogram_result_validation():
    with pytest.raises(ValueError):
        HistogramResult(bin_edges=(0.0, 0.1), counts=(1, 2), mean=0.0, std=0.0)
    with pytest.raises(ValueError):
        HistogramResult(bin_edges=(0.1, 0.1), counts=(1,), mean=0.1, std=0.0)
    with pytest.raises(ValueError):
        HistogramResult(bin_edges=(0.0, 0.1), counts=(-1,), mean=0.0, std=0.0)


def test_histogram_zero_error_case_is_a_single_bin():
    hist = run_histogram(0.0, trials=50, n_qubits=2_000)
    assert hist.counts == (50,)
    assert len(hist.bin_edges) == 2
    assert hist.mean == 0.0
    assert hist.std == 0.0


def test_histogram_counts_cover_all_trials():
    hist = run_histogram(1.0, trials=40, n_qubits=4_000)
    assert sum(hist.counts) == 40
    assert len(hist.counts) == len(hist.bin_edges) - 1
    widths = np.diff(hist.bin_edges)
    assert np.allclose(widths, 0.002)


def test_histogram_respects_bin_width():
    hist = run_histogram(1.0, trials=20, n_qubits=4_000, bin_width=0.01)
    assert np.allclose(np.diff(hist.bin_edges), 0.01)


def test_histogram_agrees_with_sweep_rows():
    """A histogram's mean and std are those of the first point of a sweep
    with the same master seed, to the bit; np.mean differs here by 5.55e-17."""
    config = SweepConfig(f_values=(1.0,), trials_per_f=50, n_qubits=4_000)
    point = run_sweep(config).per_point[0]
    hist = run_histogram(1.0, trials=50, n_qubits=4_000)
    assert hist.mean == point.mean_qber
    assert hist.std == point.std_dev


@pytest.mark.parametrize("f, n_qubits, trials, bin_width", [
    (0.0, 2_000, 50, 0.002),  # std = 0: one bin
    (1.0, 4_000, 50, 0.002),
    (0.5, 1_000, 30, 0.01),
    (0.3, 300, 40, 0.05),
    (1.0, 50_000, 20, 0.0005),
    (0.8, 10_000, 25, 0.0037),
])
def test_histogram_counts_are_numpy_histograms(f, n_qubits, trials, bin_width):
    config = SweepConfig(f_values=(f,), trials_per_f=trials, n_qubits=n_qubits)
    values = [r.qber for r in run_sweep(config).per_trial_rows]
    hist = run_histogram(f, trials=trials, n_qubits=n_qubits, bin_width=bin_width)
    counts, _ = np.histogram(values, bins=hist.bin_edges)
    assert hist.counts == tuple(counts.tolist())


def test_histogram_closes_its_last_bin(monkeypatch):
    """numpy.histogram counts a value on the last edge in the last bin. The
    edges reach bin_width * 1e-9 past the largest trial, so only bins far
    narrower than any k/n spacing put a trial there: these 60 stand-in
    trials lie at 1/4 and 2^-33 either side of it, in bins of 2^-34."""
    ks = [2**31 - 1, 2**31 + 1] + [2**31] * 58
    rows = [harness.TrialRow(1.0, t, 0, 2**34, 2**34, 2**33, k, k / 2**33)
            for t, k in enumerate(ks)]
    monkeypatch.setattr(harness, "_run_point_trials", lambda *args: rows)
    hist = run_histogram(1.0, trials=60, bin_width=2**-34)
    assert hist.bin_edges[-1] == max(r.qber for r in rows)
    counts, _ = np.histogram([r.qber for r in rows], bins=hist.bin_edges)
    assert hist.counts == tuple(counts.tolist()) == (1, 0, 58, 1)


def test_histogram_bin_count_is_bounded():
    """At f = 1, 4,000 qubits and 20 trials the bins span about 0.134:
    bins of 1e-6 give 134,013 of them, and bins of 1e-7 would give
    1,340,128, more than MAX_HISTOGRAM_BINS, so they are refused."""
    def hist(bin_width):
        return run_histogram(1.0, trials=20, n_qubits=4_000, bin_width=bin_width)

    assert len(hist(1e-6).counts) == 134_013
    with pytest.raises(ValueError, match="bin_width 1e-07 gives 1340128 bins"):
        hist(1e-7)


def test_histogram_std_scales_with_qubit_count():
    small = run_histogram(1.0, trials=50, n_qubits=5_000)
    large = run_histogram(1.0, trials=50, n_qubits=50_000)
    ratio = small.std / large.std
    assert math.sqrt(10) * 0.8 < ratio < math.sqrt(10) * 1.2


def _no_session(*args, **kwargs):
    pytest.fail("a session ran before the arguments were checked")


def test_histogram_parameter_validation(monkeypatch):
    monkeypatch.setattr(harness, "run_session", _no_session)
    with pytest.raises(ValueError):
        run_histogram(0.5, trials=1)
    for bad_width in (0.0, -0.002, math.nan, math.inf):
        with pytest.raises(ValueError, match="bin_width"):
            run_histogram(0.5, trials=10, bin_width=bad_width)
    for bad_seed in (-1, 2**64):
        with pytest.raises(ValueError, match="64 bits"):
            run_histogram(0.5, trials=10, master_seed=bad_seed)


def test_sweep_checks_workers_before_a_session(monkeypatch):
    monkeypatch.setattr(harness, "run_session", _no_session)
    config = SweepConfig((0.0, 0.5), trials_per_f=2, n_qubits=200)
    for bad_workers in (0, -3):
        with pytest.raises(ValueError, match="workers must be at least 1"):
            run_sweep(config, workers=bad_workers)


# ---------------------------------------------------------------------------
# finite-size behaviour


def test_finite_size_widths_decrease():
    points = run_finite_size_study(0.5, [1_000, 10_000, 100_000], trials=10)
    widths = [p.ci_width for p in points]
    assert widths[0] > widths[1] > widths[2]
    assert [p.n_qubits for p in points] == [1_000, 10_000, 100_000]
    for p in points:
        assert p.aggregate.trials_m == 10


def test_finite_size_single_n():
    points = run_finite_size_study(0.5, [5_000], trials=5)
    assert len(points) == 1
    assert points[0].ci_width > 0.0


def test_finite_size_input_validation(monkeypatch):
    monkeypatch.setattr(harness, "run_session", _no_session)
    with pytest.raises(ValueError):
        run_finite_size_study(0.5, [])
    with pytest.raises(ValueError):
        run_finite_size_study(0.5, [2_000, 1_000])
    with pytest.raises(ValueError):
        run_finite_size_study(0.25, [2_000, 8_000], trials=1)
    for bad in (1.5, math.nan):
        with pytest.raises(ValueError):
            run_finite_size_study(0.25, [2_000, 8_000], trials=5, confidence=bad)
    for bad_seed in (-1, 2**64):
        with pytest.raises(ValueError, match="64 bits"):
            run_finite_size_study(0.25, [2_000, 8_000], trials=5, master_seed=bad_seed)
    for bad_method in ("wald", None):
        with pytest.raises(ValueError, match="unknown interval method"):
            run_finite_size_study(0.25, [2_000, 8_000], trials=5, ci_method=bad_method)


def test_finite_size_honours_interval_method():
    kwargs = dict(trials=5, master_seed=9)
    cp = run_finite_size_study(0.5, [2_000], ci_method=CIMethod.CLOPPER_PEARSON, **kwargs)
    hoeff = run_finite_size_study(0.5, [2_000], ci_method=CIMethod.HOEFFDING, **kwargs)
    assert hoeff[0].ci_width > cp[0].ci_width


def test_finite_size_with_noisy_channel():
    points = run_finite_size_study(
        0.0, [2_000, 8_000], trials=5, channel=ChannelModel.depolarizing(0.1)
    )
    for p in points:
        agg = p.aggregate
        bound = 4.0 * agg.std_dev / math.sqrt(agg.trials_m)
        assert abs(agg.mean_qber - 0.05) <= max(bound, 1e-12)


def test_hoeffding_width_quarters_the_n_to_halve():
    """Closed-form 1/sqrt(n) scaling, checked at exact sample sizes."""
    for n in (1_000, 10_000, 25_000):
        ratio = hoeffding_half_width(n, 0.95) / hoeffding_half_width(4 * n, 0.95)
        assert abs(ratio - 2.0) <= 1e-9
