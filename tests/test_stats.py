import copy
import hashlib
import math
import pickle
import random
from collections import Counter

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings, strategies as st

from bb84sim import stats
from bb84sim.core import BISECT_TOL, CIMethod, ConfidenceInterval, QberEstimate, bisect_root
from bb84sim.decision import DecisionPolicy, decide, key_rate
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


def test_normal_quantile_bits_are_frozen():
    # Wald, Wilson and the sweep's interval of the mean are printed from z, so
    # z may not move even in its last bit; the approx checks above and below
    # would not notice that.
    frozen = {
        0.5: "0x1.5956b87528a49p-1",
        0.8: "0x1.4813c36e26d34p+0",
        0.9: "0x1.a515209676abdp+0",
        0.95: "0x1.f5c0331eeff82p+0",
        0.99: "0x1.49b4c64d6915fp+1",
        0.999: "0x1.a52ffadd2f8c0p+1",
        0.9999: "0x1.f1feea391d181p+1",
        1 - 1e-12: "0x1.c85a462a6e23dp+2",
        1 - 2**-53: "0x1.095b059d67c4cp+3",
    }
    for level, bits in frozen.items():
        assert normal_quantile(level).hex() == bits, level


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


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_normal_quantile_domain(bad):
    # the quantile is cached per level, but a bad level is never cached: it
    # raises on every call, also once valid levels are cached
    for level in QUANTILES:
        normal_quantile(level)
    for _ in range(2):
        with pytest.raises(ValueError):
            normal_quantile(bad)


@pytest.mark.parametrize("first", [np.float64, float], ids=["numpy-first", "float-first"])
def test_normal_quantile_numpy_level_has_the_float_bits(first):
    # a numpy level and the equal float share one cache entry
    normal_quantile.cache_clear()
    for level in (first(0.95), 0.95, np.float64(0.95)):
        z = normal_quantile(level)
        assert type(z) is float and z.hex() == "0x1.f5c0331eeff82p+0"


# ---------------------------------------------------------------------------
# the four interval methods


def test_wald_frozen_bounds():
    ci = ci_wald(QberEstimate(12500, 50000), 0.95)
    assert ci.lower == pytest.approx(WALD_12500_50000[0], abs=1e-12)
    assert ci.upper == pytest.approx(WALD_12500_50000[1], abs=1e-12)


def test_wald_degenerates_at_the_boundary():
    lo = ci_wald(QberEstimate(0, 100), 0.95)
    assert (lo.lower, lo.upper) == (0.0, 0.0)
    hi = ci_wald(QberEstimate(100, 100), 0.95)
    assert (hi.lower, hi.upper) == (1.0, 1.0)


@pytest.mark.parametrize("method", list(CIMethod), ids=[m.value for m in CIMethod])
def test_lower_bound_at_k_0_is_plus_zero_and_upper_at_k_n_is_one(method):
    # == cannot tell -0.0 from 0.0, and a clamp written `x if x >= 0.0 else
    # 0.0` would pass a -0.0 that reached it; the sign shows one
    for n in (1, 7, 100, 50_000, 10**6):
        for confidence in (0.5, 0.9, 0.95, 0.999):
            lower = confidence_interval(QberEstimate(0, n), confidence, method).lower
            assert lower == 0.0 and math.copysign(1.0, lower) == 1.0, (n, confidence)
            upper = confidence_interval(QberEstimate(n, n), confidence, method).upper
            assert upper == 1.0, (n, confidence)


@pytest.mark.parametrize("dtype", [np.int64, np.int32])
@pytest.mark.parametrize("method", list(CIMethod), ids=[m.value for m in CIMethod])
def test_numpy_counts_give_the_float_bounds_of_python_ints(method, dtype):
    # numpy.float64 subclasses float, so only `type(...) is float` tells
    # that an estimate keeps numpy counts as Python ints and k/n is a float
    for k, n in ((0, 40), (3, 100), (40, 40), (6238, 25000)):
        ci = confidence_interval(QberEstimate(dtype(k), dtype(n)), 0.95, method)
        assert ci == confidence_interval(QberEstimate(k, n), 0.95, method), (k, n)
        assert type(ci.lower) is float and type(ci.upper) is float, (k, n)


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


def _binom_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P[Bin(n, p) >= k], P[Bin(n, p) <= k]) summed in log space; an oracle
    route that shares nothing with the production implementation.

    The sum runs over the terms within 40 standard deviations, plus 40, of
    the mean; by Bernstein's inequality the rest weigh less than e^-60.
    Each term's log is its neighbour's plus log((n - i)/(i + 1)) + log(p/q),
    and the terms are divided by their sum, so no log-binomial coefficient
    is formed: at n = 2^31 its lgamma differences would cancel to ~1e-5."""
    if p <= 0.0:
        return float(k == 0), 1.0
    if p >= 1.0:
        return 1.0, float(k == n)
    spread = 40.0 * math.sqrt(n * p * (1.0 - p)) + 40.0
    lo = max(0, math.floor(n * p - spread))
    hi = min(n, math.ceil(n * p + spread))
    i = np.arange(lo, hi, dtype=np.float64)
    steps = np.log((n - i) / (i + 1.0)) + (math.log(p) - math.log1p(-p))
    logs = np.concatenate(([0.0], np.cumsum(steps)))
    terms = np.exp(logs - logs.max())
    total = terms.sum()
    at_least = terms[max(0, k - lo):].sum() / total
    at_most = terms[:max(0, k - lo + 1)].sum() / total
    return at_least, at_most


def _cp_oracle(k: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Exact interval by direct tail-sum bisection."""
    alpha = 1.0 - confidence

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
        lambda p: _binom_tails(k, n, p)[0], alpha / 2, True)
    upper = 1.0 if k == n else solve(
        lambda p: _binom_tails(k, n, p)[1], alpha / 2, False)
    return lower, upper


def test_clopper_pearson_matches_scratch_oracle():
    n = 50
    for k in range(n + 1):
        ours = ci_clopper_pearson(QberEstimate(k, n), 0.95)
        lo, hi = _cp_oracle(k, n)
        assert ours.lower == pytest.approx(lo, abs=5e-9), k
        assert ours.upper == pytest.approx(hi, abs=5e-9), k


@pytest.mark.parametrize("k, n, confidence", [
    (3, 100, 0.95), (0, 10, 0.999), (10, 10, 0.9), (250_000, 1_000_000, 0.99),
])
def test_clopper_pearson_takes_numpy_integer_counts(k, n, confidence):
    # scipy's fused Cython kernels reject numpy integers in place of floats
    ours = ci_clopper_pearson(QberEstimate(np.int64(k), np.int64(n)), confidence)
    assert ours == ci_clopper_pearson(QberEstimate(k, n), confidence)


def test_clopper_pearson_bounds_are_the_ufunc_quantiles():
    """On ordinary cases every bound passes its check, so it is the beta
    quantile itself, to the last bit of scipy.special's ufunc."""
    rng = np.random.default_rng(16)
    for _ in range(500):
        n = int(np.rint(10.0 ** rng.uniform(0.0, 6.0)))
        k = int(rng.integers(0, n + 1))
        confidence = float(rng.uniform(0.9, 0.999))
        half_alpha = (1.0 - confidence) / 2.0
        ci = ci_clopper_pearson(QberEstimate(k, n), confidence)
        lower = 0.0 if k == 0 else float(scipy.special.betaincinv(k, n - k + 1, half_alpha))
        upper = 1.0 if k == n else 1.0 - float(scipy.special.betaincinv(n - k, k + 1, half_alpha))
        assert (ci.lower, ci.upper) == (lower, upper), (k, n, confidence)


def _count_tails(monkeypatch) -> Counter:
    """Wrap stats.bdtr/bdtrc as the benchmark does, counting every call."""
    for name in ("betainc", "betaincinv"):
        monkeypatch.setattr(stats, name, stats._scipy_kernel(name))  # as if scipy were never loaded
    calls = Counter()
    for name in ("bdtr", "bdtrc"):
        tail = getattr(stats, name)

        def counted(*args, name=name, tail=tail):
            calls[name] += 1
            return tail(*args)

        monkeypatch.setattr(stats, name, counted)
    return calls


def _miss_the_quantile(monkeypatch) -> None:
    """Put every beta quantile 1e-6 off, so that no bound passes its check."""
    quantile = stats.betaincinv
    monkeypatch.setattr(stats, "betaincinv", lambda a, b, y: quantile(a, b, y) + 1e-6)


def test_clopper_pearson_reads_the_tails_through_the_module(monkeypatch):
    # The benchmark counts tail evaluations by wrapping stats.bdtr/bdtrc;
    # tails bound to local names would leave that count at 0.
    calls = _count_tails(monkeypatch)
    ci_clopper_pearson(QberEstimate(3, 100), 0.95)
    # each bound is checked by one tail evaluation either side of it
    assert calls == {"bdtr": 2, "bdtrc": 2}


def test_a_bracket_off_the_unit_interval_fails_its_check(monkeypatch):
    """The check tests each bracket as it is, not clamped into [0, 1], so a
    bound within BISECT_TOL of 0 or 1 must fail it: that rests on betainc
    being NaN off [0, 1]. At n = 10^18 the upper quantile rounds to 0, so
    its bracket starts at -1e-9 and it is bisected past the check's four
    evaluations; a clamped bracket would pass it at 0."""
    for x in (-1e-9, 1.0 + 1e-9):
        assert math.isnan(stats.betainc(5, 3, x)), x
    calls = _count_tails(monkeypatch)
    ci_clopper_pearson(QberEstimate(5, 10**18), 0.95)
    assert sum(calls.values()) > 4


@pytest.mark.parametrize("k, n, confidence", [
    (3, 100, 0.95), (0, 10, 0.999), (10, 10, 0.9), (250_000, 1_000_000, 0.99),
    # the missed upper quantile is below 0, where the right-hand tail is NaN
    (5, 10**18, 0.95), (0, 10**18, 0.95),
])
def test_clopper_pearson_bisects_a_bound_that_fails_its_check(
    monkeypatch, k, n, confidence
):
    calls = _count_tails(monkeypatch)
    _miss_the_quantile(monkeypatch)
    ci = ci_clopper_pearson(QberEstimate(k, n), confidence)
    half_alpha = (1.0 - confidence) / 2.0
    halvings = Counter()

    def lower_tail(p):
        halvings["bdtrc"] += 1
        return scipy.special.betainc(k, n - k + 1, p)

    def upper_tail(p):
        halvings["bdtr"] += 1
        return scipy.special.betainc(n - k, k + 1, 1.0 - p)

    lower = 0.0 if k == 0 else bisect_root(lambda p: lower_tail(p) < half_alpha)
    upper = 1.0 if k == n else bisect_root(lambda p: upper_tail(p) >= half_alpha)
    assert (ci.lower, ci.upper) == (lower, upper)
    # the check's two evaluations, then one per halving down to adjacent floats
    assert calls == Counter(bdtrc=(2 + halvings["bdtrc"]) * (k > 0),
                            bdtr=(2 + halvings["bdtr"]) * (k < n))


def _brackets(tail, bound: float, half_alpha: float) -> bool:
    """True when the monotone tail crosses half_alpha within BISECT_TOL of bound."""
    left = tail(max(bound - BISECT_TOL, 0.0))
    right = tail(min(bound + BISECT_TOL, 1.0))
    return min(left, right) <= half_alpha <= max(left, right)


CP_GRID_N = (1, 2, 3, 4, 5, 10, 30, 57, 100, 120)
CP_GRID_CONFIDENCES = (0.9, 0.95, 0.99, 0.999)


@pytest.mark.parametrize("miss", [False, True], ids=["quantile", "bisection"])
def test_clopper_pearson_bounds_lie_within_the_tolerance_of_their_roots(
    monkeypatch, miss
):
    """Every bound, whichever way it was found, is within BISECT_TOL of the
    root of its tail equation, with the tails of the log-space oracle
    `_binom_tails`, not scipy's betainc, which is the package's own tail."""
    if miss:
        _miss_the_quantile(monkeypatch)
    cases = [(k, n, c) for n in CP_GRID_N for k in range(n + 1)
             for c in CP_GRID_CONFIDENCES + (1.0 - 1e-9,)]
    cases += [(k, 10**6, c)
              for k in (0, 1, 1_000, 110_000, 500_000, 10**6 - 1, 10**6)
              for c in CP_GRID_CONFIDENCES + (1.0 - 1e-9,)]
    # Near the median at n >= 10^7 and confidence 1e-6, scipy 1.17's binomial
    # tails bdtr/bdtrc are off by about 1.4e-4, and from n = 2^31 they are NaN.
    cases += [(2_500_000, 10**7, 1e-6), (10**7, 10**8, 1e-6),
              (25_000_000, 10**8, 1e-6), (2**30, 2**31, 0.95)]
    for k, n, confidence in cases:
        ci = ci_clopper_pearson(QberEstimate(k, n), confidence)
        half_alpha = (1.0 - confidence) / 2.0
        at_least = lambda p: _binom_tails(k, n, p)[0]
        at_most = lambda p: _binom_tails(k, n, p)[1]
        case = (k, n, confidence)
        if k == 0:
            assert ci.lower == 0.0, case
        else:
            assert _brackets(at_least, ci.lower, half_alpha), case
        if k == n:
            assert ci.upper == 1.0, case
        else:
            assert _brackets(at_most, ci.upper, half_alpha), case


@pytest.mark.parametrize("k, n", [
    (1000, 10**12), (999, 10**14), (5, 10**18), (1, 10**19),
])
def test_clopper_pearson_bounds_never_cross_at_huge_n(k, n):
    """Where both roots lie below BISECT_TOL, each bound's bracket leaves
    [0, 1], so both are bisected, not passed anywhere within BISECT_TOL of
    their roots: at n = 10^18, 1 - betaincinv rounds the upper quantile to 0.
    Too large for the roots test, whose bisection case puts the upper bound
    below 0 here."""
    ci = ci_clopper_pearson(QberEstimate(k, n), 0.95)
    assert 0.0 <= ci.lower <= ci.upper <= 1.0
    if n <= 10**14:  # past it the oracle sums a million terms or more
        assert _brackets(lambda p: _binom_tails(k, n, p)[0], ci.lower, 0.025)
        assert _brackets(lambda p: _binom_tails(k, n, p)[1], ci.upper, 0.025)


@pytest.mark.parametrize("confidence", CP_GRID_CONFIDENCES)
@pytest.mark.parametrize("k, n", [(5, 10**18), (1, 10**19), (0, 10**18)])
def test_clopper_pearson_tiny_bounds_contain_k_over_n(k, n, confidence):
    """Each bound here lies within BISECT_TOL of 0 and is bisected. The lower
    lands on its Poisson-limit root, a gamma quantile over n. The upper is
    found through `bdtr`'s 1 - p, so it is no finer than the floats below 1,
    but it lies above its Poisson-limit root."""
    half_alpha = (1.0 - confidence) / 2.0
    ci = ci_clopper_pearson(QberEstimate(k, n), confidence)
    assert ci.lower <= k / n <= ci.upper
    if k > 0:
        root = scipy.stats.gamma.ppf(half_alpha, k) / n
        assert abs(ci.lower - root) <= 1e-12 * root
    assert ci.upper >= scipy.stats.gamma.isf(half_alpha, k + 1) / n


def test_clopper_pearson_bisects_tiny_bounds_to_the_float():
    """Both bounds fail their check and are bisected: scipy's beta quantile
    puts each at 2^-26, where the roots are about 1e-11 and 1e-9. The lower
    bound, bisected to adjacent floats, lands on its Poisson-limit root, a
    gamma quantile over n, to a relative 3e-11. The upper bound does not:
    `bdtr` forms 1 - p, so its bisection gives 1.0629219726610017e-11, a
    relative 7.7e-7 above both the Poisson limit and the root of the
    complemented tail `betaincc`, which agree to 3e-13. The 1e-15 absolute
    check passes that error."""
    upper = ci_clopper_pearson(QberEstimate(999, 10**14), 0.95).upper
    assert abs(upper - scipy.stats.gamma.isf(0.025, 1000) / 10**14) <= 1e-15
    lower = ci_clopper_pearson(QberEstimate(1000, 10**12), 0.95).lower
    assert abs(lower - scipy.stats.gamma.ppf(0.025, 1000) / 10**12) <= 1e-15


def _binom_pmf(n: int, p: np.ndarray) -> np.ndarray:
    """P[Bin(n, p) = k] for k = 0..n (rows) at each p (columns), taken in log
    space with math.lgamma, so the coverage test rests on no scipy function."""
    k = np.arange(n + 1)
    log_choose = np.array(
        [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in k])
    return np.exp(
        log_choose[:, None] + np.outer(k, np.log(p)) + np.outer(n - k, np.log1p(-p)))


def _bounds(n: int, confidence: float, method: CIMethod) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper bounds of the interval at each k = 0..n, as
    columns that broadcast against `_binom_pmf(n, p)`."""
    cis = [confidence_interval(QberEstimate(k, n), confidence, method)
           for k in range(n + 1)]
    return (np.array([ci.lower for ci in cis])[:, None],
            np.array([ci.upper for ci in cis])[:, None])


def test_clopper_pearson_exact_coverage_is_at_least_nominal():
    """Coverage computed exactly (pmf-weighted), not by simulation, for
    Clopper-Pearson and the distribution-free Hoeffding interval, at every n
    up to 100, 200 values of p in (0, 0.5] (0.1 and 0.3 among them) and
    three levels. Coverage steps where p crosses a bound, and each bound is
    only within BISECT_TOL of its root, so a p that close to one is left out."""
    p = np.arange(1, 201) / 400
    for n in range(1, 101):
        pmf = _binom_pmf(n, p)
        for confidence in (0.9, 0.95, 0.99):
            for method in (CIMethod.CLOPPER_PEARSON, CIMethod.HOEFFDING):
                lower, upper = _bounds(n, confidence, method)
                cover = (pmf * ((lower <= p) & (p <= upper))).sum(axis=0)
                clear = (np.abs(p - lower) > BISECT_TOL) & (np.abs(p - upper) > BISECT_TOL)
                clear = clear.all(axis=0)
                assert clear.sum() >= 190, (n, confidence, method)
                assert (cover[clear] >= confidence).all(), (n, confidence, method)


def test_wilson_and_wald_mean_exact_coverage():
    """Exact coverage averaged over the p grid of the Clopper-Pearson test,
    at every n from 30 to 100 and three levels: Wilson's lies within 0.015
    of nominal, and Wald's below it, as Brown, Cai & DasGupta (2001) found.
    Wilson reads 0.9008-0.9061, 0.9504-0.9527 and 0.9887-0.9898 here, and
    Wald 0.8345-0.8774, 0.8775-0.9246 and 0.9162-0.9651."""
    p = np.arange(1, 201) / 400
    for n in range(30, 101):
        pmf = _binom_pmf(n, p)
        for confidence in (0.9, 0.95, 0.99):
            mean = {}
            for method in (CIMethod.WILSON, CIMethod.WALD):
                lower, upper = _bounds(n, confidence, method)
                mean[method] = (pmf * ((lower <= p) & (p <= upper))).sum(axis=0).mean()
            assert abs(mean[CIMethod.WILSON] - confidence) < 0.015, (n, confidence)
            assert mean[CIMethod.WALD] < confidence, (n, confidence)


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
    hoeffding = confidence_interval(est, 0.95, CIMethod.HOEFFDING)
    for method in (CIMethod.WALD, CIMethod.WILSON, CIMethod.CLOPPER_PEARSON):
        assert hoeffding.width > confidence_interval(est, 0.95, method).width


@pytest.mark.parametrize("method,function", [
    (CIMethod.WALD, ci_wald),
    (CIMethod.WILSON, ci_wilson),
    (CIMethod.CLOPPER_PEARSON, ci_clopper_pearson),
    (CIMethod.HOEFFDING, ci_hoeffding),
], ids=["wald", "wilson", "clopper-pearson", "hoeffding"])
def test_dispatch_calls_the_named_interval(method, function):
    # CIMethod hashes by identity, which holds because copies are the member
    copies = (pickle.loads(pickle.dumps(method)), copy.deepcopy(method))
    assert all(copied is method for copied in copies)
    for k, n in ((0, 40), (7, 40), (40, 40), (6238, 25000)):
        est = QberEstimate(k, n)
        for m in (method, *copies):
            assert confidence_interval(est, 0.95, m) == function(est, 0.95)


@pytest.mark.parametrize("method", ["wald", None, ["wald"]])
def test_unknown_interval_method_is_a_value_error(method):
    with pytest.raises(ValueError, match="unknown interval method"):
        confidence_interval(QberEstimate(3, 100), 0.95, method)


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
@example(kn=(114, 114), m=2, confidence=1.5485e-07)
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


def _query_stream(seed: int, size: int):
    """Seeded (k, n, confidence): n up to 10**6, k = 0 and k = n forced in,
    and error rates up to 1, 1/2, ... 1/16. Only `random`'s integer draws
    are used, which give the same stream on every supported Python."""
    rng = random.Random(seed)
    for i in range(size):
        n = rng.randint(1, 10 ** rng.randint(1, 6))
        k = 0 if i % 50 == 0 else n if i % 50 == 25 else rng.randint(0, n >> rng.randint(0, 4))
        yield k, n, rng.choice((0.9, 0.95, 0.99, 0.999))


def test_pure_python_intervals_decisions_and_rates_keep_their_bits():
    # Wald, Wilson and Hoeffding are pinned above only to 1e-12, so a change
    # in the last bit would pass them; this digest of every bound, verdict
    # and rate over a seeded stream would not. Clopper-Pearson rests on
    # scipy's kernels, whose bits may differ between versions, and is pinned
    # to its ufunc quantiles instead. The levels are those whose quantile
    # bits test_normal_quantile_bits_are_frozen pins.
    methods = (CIMethod.WALD, CIMethod.WILSON, CIMethod.HOEFFDING)
    digest = hashlib.sha256()
    for k, n, confidence in _query_stream(2026, 10_000):
        est = QberEstimate(k, n)
        intervals = [confidence_interval(est, confidence, m) for m in methods]
        verdicts = [decide(est, iv, policy) for iv in intervals for policy in DecisionPolicy]
        floats = [x for iv in intervals for x in (iv.lower, iv.upper)]
        floats += [x for v in verdicts for x in (v.qber_used, v.threshold)]
        floats.append(key_rate(est.point_estimate).rate)
        line = " ".join([*(x.hex() for x in floats), *(v.decision.value for v in verdicts)])
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == (
        "7cabaf00bb9f12eb6c828a2314823492b7a2a0013f66678202f50dc292b45658")


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.2])
def test_interval_confidence_domain(bad):
    # each construction checks its own level
    for method in CIMethod:
        with pytest.raises(ValueError):
            confidence_interval(QberEstimate(1, 10), bad, method)


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


def test_aggregate_refuses_a_negative_std_dev():
    with pytest.raises(ValueError, match="std_dev must be non-negative: -1e-09"):
        stats.TrialAggregate(2, 0.1, -1e-9, ConfidenceInterval(0.0, 0.2))


def test_aggregate_needs_two_trials():
    with pytest.raises(ValueError):
        aggregate_trials([QberEstimate(1, 10)], 0.95)
    with pytest.raises(ValueError):
        aggregate_trials([], 0.95)
