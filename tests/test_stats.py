import math
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from bb84sim import stats
from bb84sim.core import CIMethod, QberEstimate
from bb84sim.stats import (
    aggregate_trials,
    ci_clopper_pearson,
    ci_hoeffding,
    ci_wald,
    ci_wilson,
    confidence_interval,
    hoeffding_half_width,
    normal_quantile,
)

# Reference values frozen from independent evaluations: scipy.stats.norm.ppf
# for the quantiles, the closed-form score/Wald algebra evaluated separately,
# and the beta-quantile form of the exact binomial interval
# (lower = Beta(alpha/2; k, n-k+1), upper = Beta(1-alpha/2; k+1, n-k)).
Z_95 = 1.959963984540054
QUANTILES = {
    0.5: 0.6744897501960817,
    0.9: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.99: 2.5758293035489004,
    0.999: 3.2905267314919255,
}
WALD_12500_50000 = (0.24620454606435502, 0.25379545393564495)
WILSON_0_100_UPPER = 0.03699349820698568
WILSON_50_100 = (0.4038315303659956, 0.5961684696340044)
WILSON_6238_25000 = (0.2441946136822359, 0.25492235117990275)
CP_BOUNDS = {
    (0, 100): (0.0, 0.03621669264517641),
    (100, 100): (0.9637833073548235, 1.0),
    (3, 10): (0.0667395111777345, 0.6524528500599973),
    (6238, 25000): (0.24416521274551473, 0.2549330675915424),
    (1, 50000): (5.063560314875393e-07, 0.00011142777363894384),
}
HOEFFDING_HALF = {
    100: 0.13581015157406195,
    1000: 0.04294694083467376,
    50000: 0.006073614619083051,
}


# ---------------------------------------------------------------------------
# normal quantile


def test_normal_quantile_frozen_values():
    for level, z in QUANTILES.items():
        assert normal_quantile(level) == pytest.approx(z, abs=1e-9)


def test_normal_quantile_tracks_scipy_over_a_grid():
    levels = np.linspace(0.001, 0.999, 997)
    ours = np.array([normal_quantile(float(v)) for v in levels])
    ref = scipy.stats.norm.ppf(0.5 + levels / 2.0)
    assert np.max(np.abs(ours - ref)) < 1e-9


def test_normal_quantile_extreme_levels():
    # The reference takes the upper tail (1 - level)/2, which is exact near
    # level 1; 0.5 + level/2 rounds there, and at 1 - 2**-53 it reaches 1.
    for level in (1e-12, 1 - 1e-12, 1e-9, 1 - 1e-9, 1 - 1e-15, 1 - 2**-53):
        ref = float(scipy.stats.norm.isf((1.0 - level) / 2.0))
        assert normal_quantile(level) == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
def test_normal_quantile_domain(bad):
    with pytest.raises(ValueError):
        normal_quantile(bad)


# ---------------------------------------------------------------------------
# the four interval methods


def test_wald_frozen_bounds():
    ci = ci_wald(QberEstimate(12500, 50000), 0.95)
    assert ci.lower == pytest.approx(WALD_12500_50000[0], abs=1e-12)
    assert ci.upper == pytest.approx(WALD_12500_50000[1], abs=1e-12)
    assert ci.method is CIMethod.WALD
    assert ci.confidence == 0.95


def test_wald_degenerates_at_the_boundary():
    lo = ci_wald(QberEstimate(0, 100), 0.95)
    assert (lo.lower, lo.upper) == (0.0, 0.0)
    hi = ci_wald(QberEstimate(100, 100), 0.95)
    assert (hi.lower, hi.upper) == (1.0, 1.0)


def test_wilson_frozen_bounds():
    upper_only = ci_wilson(QberEstimate(0, 100), 0.95)
    assert upper_only.lower == pytest.approx(0.0, abs=1e-15)
    assert upper_only.upper == pytest.approx(WILSON_0_100_UPPER, abs=1e-12)
    mid = ci_wilson(QberEstimate(50, 100), 0.95)
    assert mid.lower == pytest.approx(WILSON_50_100[0], abs=1e-12)
    assert mid.upper == pytest.approx(WILSON_50_100[1], abs=1e-12)
    big = ci_wilson(QberEstimate(6238, 25000), 0.95)
    assert big.lower == pytest.approx(WILSON_6238_25000[0], abs=1e-12)
    assert big.upper == pytest.approx(WILSON_6238_25000[1], abs=1e-12)


def test_wilson_never_degenerate_for_interior_confidence():
    for k, n in ((0, 100), (100, 100), (0, 5)):
        ci = ci_wilson(QberEstimate(k, n), 0.95)
        assert ci.width > 0.0


def test_clopper_pearson_frozen_bounds():
    for (k, n), (lo, hi) in CP_BOUNDS.items():
        ci = ci_clopper_pearson(QberEstimate(k, n), 0.95)
        assert ci.lower == pytest.approx(lo, abs=2e-9), (k, n)
        assert ci.upper == pytest.approx(hi, abs=2e-9), (k, n)
        assert ci.method is CIMethod.CLOPPER_PEARSON


def _log_binom_tail_upper(k: int, n: int, p: float, log_choose) -> float:
    """P[Bin(n, p) <= k] summed in log space; an oracle route that shares
    nothing with the production implementation."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    lp, lq = math.log(p), math.log1p(-p)
    return math.fsum(
        math.exp(log_choose[i] + i * lp + (n - i) * lq) for i in range(0, k + 1)
    )


def _log_binom_tail_lower(k: int, n: int, p: float, log_choose) -> float:
    """P[Bin(n, p) >= k] in log space."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0
    lp, lq = math.log(p), math.log1p(-p)
    return math.fsum(
        math.exp(log_choose[i] + i * lp + (n - i) * lq) for i in range(k, n + 1)
    )


def _cp_oracle(k: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact interval by direct tail-sum bisection (math module only)."""
    alpha = 1.0 - confidence
    log_choose = [
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
        for i in range(n + 1)
    ]
    def solve(tail, target, increasing):
        lo, hi = 0.0, 1.0
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if (tail(mid) < target) == increasing:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lower = 0.0 if k == 0 else solve(
        lambda p: _log_binom_tail_lower(k, n, p, log_choose), alpha / 2, True)
    upper = 1.0 if k == n else solve(
        lambda p: _log_binom_tail_upper(k, n, p, log_choose), alpha / 2, False)
    return lower, upper


def test_clopper_pearson_matches_scratch_oracle():
    n = 50
    for k in range(n + 1):
        ours = ci_clopper_pearson(QberEstimate(k, n), 0.95)
        lo, hi = _cp_oracle(k, n)
        assert ours.lower == pytest.approx(lo, abs=5e-9), k
        assert ours.upper == pytest.approx(hi, abs=5e-9), k


def test_clopper_pearson_reads_the_tails_through_the_module(monkeypatch):
    # The benchmark counts tail evaluations by wrapping stats.bdtr/bdtrc;
    # tails bound to local names would leave that count at 0.
    for name in ("bdtr", "bdtrc"):
        monkeypatch.delitem(vars(stats), name, raising=False)  # as if never used
    calls = Counter()
    for name in ("bdtr", "bdtrc"):
        tail = getattr(stats, name)

        def counted(*args, name=name, tail=tail):
            calls[name] += 1
            return tail(*args)

        monkeypatch.setattr(stats, name, counted)
    ci_clopper_pearson(QberEstimate(3, 100), 0.95)
    # each bisection halves [0, 1] until it is below 1e-9: 2**-30 < 1e-9
    assert calls == {"bdtr": 30, "bdtrc": 30}


def test_clopper_pearson_exact_coverage_is_at_least_nominal():
    """Coverage computed exactly (pmf-weighted), not by simulation."""
    for n, p in ((15, 0.3), (40, 0.1)):
        pmf = scipy.stats.binom.pmf(np.arange(n + 1), n, p)
        cover = sum(
            pmf[k]
            for k in range(n + 1)
            if (lambda ci: ci.lower <= p <= ci.upper)(
                ci_clopper_pearson(QberEstimate(k, n), 0.95))
        )
        assert cover >= 0.95


def test_wilson_exact_coverage_near_nominal():
    n, p = 500, 0.1
    pmf = scipy.stats.binom.pmf(np.arange(n + 1), n, p)
    cover = sum(
        pmf[k]
        for k in range(n + 1)
        if (lambda ci: ci.lower <= p <= ci.upper)(ci_wilson(QberEstimate(k, n), 0.95))
    )
    assert 0.94 < cover < 0.97


def test_hoeffding_half_width_frozen():
    for n, half in HOEFFDING_HALF.items():
        assert hoeffding_half_width(n, 0.95) == pytest.approx(half, abs=1e-12)


def test_hoeffding_closed_form():
    for n in (10, 333, 7919):
        for conf in (0.9, 0.95, 0.99):
            expected = math.sqrt(math.log(2.0 / (1.0 - conf)) / (2.0 * n))
            assert hoeffding_half_width(n, conf) == pytest.approx(expected, abs=1e-15)


def test_hoeffding_interval_clamps():
    ci = ci_hoeffding(QberEstimate(0, 100), 0.95)
    assert ci.lower == 0.0
    assert ci.upper == pytest.approx(HOEFFDING_HALF[100], abs=1e-12)


def test_hoeffding_at_least_as_wide_as_wald():
    n = 1000
    for k in range(0, n + 1, 50):
        est = QberEstimate(k, n)
        assert ci_hoeffding(est, 0.95).width >= ci_wald(est, 0.95).width - 1e-15


def test_all_methods_bracket_the_point_estimate():
    est = QberEstimate(6238, 25000)
    for method in CIMethod:
        ci = confidence_interval(est, 0.95, method)
        assert ci.lower <= est.point_estimate <= ci.upper
        assert ci.method is method
    hoeffding = confidence_interval(est, 0.95, CIMethod.HOEFFDING)
    for method in (CIMethod.WALD, CIMethod.WILSON, CIMethod.CLOPPER_PEARSON):
        assert hoeffding.width > confidence_interval(est, 0.95, method).width


# Property checks over arbitrary (k, n, confidence).
counts = st.integers(1, 10**6).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n)))
levels = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(deadline=None)
@given(counts, levels)
def test_every_interval_lies_in_unit_range_and_brackets_k_over_n(kn, confidence):
    k, n = kn
    est = QberEstimate(k, n)
    for method in CIMethod:
        ci = confidence_interval(est, confidence, method)
        assert 0.0 <= ci.lower <= k / n <= ci.upper <= 1.0, method


@settings(deadline=None)
@given(counts, levels, levels)
def test_raising_confidence_never_shrinks_an_interval(kn, a, b):
    k, n = kn
    low, high = sorted((a, b))
    est = QberEstimate(k, n)
    for method in CIMethod:
        # Clopper-Pearson bounds come from bisections to 1e-9.
        tol = 1e-9 if method is CIMethod.CLOPPER_PEARSON else 0.0
        narrow = confidence_interval(est, low, method)
        wide = confidence_interval(est, high, method)
        assert wide.lower <= narrow.lower + tol, method
        assert wide.upper >= narrow.upper - tol, method


@settings(deadline=None)
@given(counts, levels)
def test_wald_lies_inside_hoeffding(kn, confidence):
    # Both are centred on k/n. Wald's half-width is at most z/(2 sqrt n), and
    # z^2/4 <= ln(2/delta)/2 because delta = 2 Phi(-z) <= exp(-z^2/2).
    est = QberEstimate(*kn)
    wald = ci_wald(est, confidence)
    hoeffding = ci_hoeffding(est, confidence)
    assert hoeffding.lower <= wald.lower and wald.upper <= hoeffding.upper


@settings(deadline=None)
@given(counts, st.integers(2, 1000), levels)
def test_scaling_k_and_n_up_never_widens_an_interval(kn, m, confidence):
    k, n = kn
    for method in CIMethod:
        # Clopper-Pearson bounds come from bisections to 1e-9.
        tol = 1e-9 if method is CIMethod.CLOPPER_PEARSON else 0.0
        small = confidence_interval(QberEstimate(k, n), confidence, method)
        large = confidence_interval(QberEstimate(m * k, m * n), confidence, method)
        assert large.width <= small.width + tol, method


def test_widths_shrink_with_n():
    for method in CIMethod:
        widths = [
            confidence_interval(QberEstimate(n // 10, n), 0.95, method).width
            for n in (100, 1000, 10000)
        ]
        assert widths[0] > widths[1] > widths[2]


def test_widths_grow_with_confidence():
    est = QberEstimate(25, 100)
    for method in CIMethod:
        w90 = confidence_interval(est, 0.90, method).width
        w95 = confidence_interval(est, 0.95, method).width
        w99 = confidence_interval(est, 0.99, method).width
        assert w90 < w95 < w99


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.2])
def test_interval_confidence_domain(bad):
    with pytest.raises(ValueError):
        ci_wald(QberEstimate(1, 10), bad)


# ---------------------------------------------------------------------------
# aggregation across trials


def test_aggregate_trials_frozen_example():
    agg = aggregate_trials(
        [QberEstimate(1, 10), QberEstimate(2, 10), QberEstimate(3, 10)], 0.95
    )
    assert agg.trials_m == 3
    assert agg.mean_qber == pytest.approx(0.2, abs=1e-15)
    assert agg.std_dev == pytest.approx(0.1, abs=1e-15)
    # half-width z * std / sqrt(m), evaluated independently
    assert agg.ci_of_mean.lower == pytest.approx(0.08684142659238284, abs=1e-12)
    assert agg.ci_of_mean.upper == pytest.approx(0.3131585734076172, abs=1e-12)


def test_aggregate_identical_trials_is_degenerate():
    agg = aggregate_trials([QberEstimate(5, 50)] * 4, 0.95)
    assert agg.mean_qber == 0.1
    assert agg.std_dev == 0.0
    assert agg.ci_of_mean.width == 0.0


def test_aggregate_clamps_to_unit_interval():
    agg = aggregate_trials([QberEstimate(0, 10)] * 3 + [QberEstimate(1, 10)], 0.95)
    assert agg.ci_of_mean.lower >= 0.0


def test_aggregate_needs_two_trials():
    with pytest.raises(ValueError):
        aggregate_trials([QberEstimate(1, 10)], 0.95)
    with pytest.raises(ValueError):
        aggregate_trials([], 0.95)
