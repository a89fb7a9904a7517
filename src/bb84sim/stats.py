"""Binomial confidence intervals for the error rate, and cross-trial
aggregation.

Four interval constructions are provided, spanning the usual
accuracy/robustness trade-offs for a binomial proportion:

* Wald -- normal approximation centred at the sample proportion. Cheap,
  standard, degenerates to a zero-width interval at k = 0 or k = n.
* Wilson -- score interval with the centre shrunk toward 1/2; much better
  small-sample coverage than Wald.
* Clopper-Pearson -- exact interval by inversion of the binomial tails;
  coverage is guaranteed to be at least nominal, at the price of
  conservatism.
* Hoeffding -- distribution-free concentration bound of half-width
  sqrt(ln(2/delta) / (2n)); the widest of the four, but valid for any
  bounded error process regardless of sample size.

All functions are pure. The standard-normal quantile comes from the standard
library's `statistics.NormalDist`, which implements Wichura's algorithm AS 241
(PPND16); `statistics` is imported on the first quantile, not with this module.

Only Clopper-Pearson needs scipy, for the binomial tails `bdtr` and `bdtrc`.
Importing `scipy.special` takes about 0.3 s, so it happens on the first
Clopper-Pearson call or the first access to `stats.bdtr`/`stats.bdtrc`, not
when this module is imported.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    CIMethod, ConfidenceInterval, QberEstimate,
    bisect_root, check_compared_n, check_confidence, check_probability,
)


@functools.cache
def _standard_normal():
    from statistics import NormalDist

    return NormalDist()


def normal_quantile(two_sided_level: float) -> float:
    """Two-sided standard-normal critical value z with P(|Z| <= z) = level.

    normal_quantile(0.95) is the familiar 1.959964... It is computed from
    the tail (1 - level) / 2, which is exact in floating point for every
    level of 1/2 and above; 0.5 + level / 2 would round near 1.
    """
    check_confidence(two_sided_level)
    return -_standard_normal().inv_cdf((1.0 - two_sided_level) / 2.0)


def ci_wald(est: QberEstimate, confidence: float) -> ConfidenceInterval:
    """Wald interval: p-hat +/- z * sqrt(p-hat (1 - p-hat) / n), clamped to [0, 1].

    At k = 0 or k = n the estimated variance vanishes and the interval
    collapses to a point; that pathology is the standard argument against
    Wald for small samples, and it is kept on purpose.
    """
    z = normal_quantile(confidence)
    p = est.point_estimate
    half = z * math.sqrt(p * (1.0 - p) / est.compared_n)
    return ConfidenceInterval(max(0.0, p - half), min(1.0, p + half))


def ci_wilson(est: QberEstimate, confidence: float) -> ConfidenceInterval:
    """Wilson score interval.

    Centre (p-hat + z^2/2n) / (1 + z^2/n), half-width
    (z / (1 + z^2/n)) * sqrt(p-hat (1 - p-hat)/n + z^2/4n^2). The exact
    interval contains p-hat; the bounds are clamped to it because at k = 0
    or k = n rounding can leave the nearer bound on the wrong side by ~1e-17.
    """
    z = normal_quantile(confidence)
    n = est.compared_n
    p = est.point_estimate
    z2n = z * z / n
    centre = (p + z2n / 2.0) / (1.0 + z2n)
    half = (z / (1.0 + z2n)) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return ConfidenceInterval(
        max(0.0, min(p, centre - half)), min(1.0, max(p, centre + half))
    )


def _bind_tails() -> None:
    """Import scipy's binomial tails into this module's globals, keeping any
    binding already there (a counting wrapper set with setattr)."""
    from scipy.special import bdtr, bdtrc

    namespace = globals()
    namespace.setdefault("bdtr", bdtr)
    namespace.setdefault("bdtrc", bdtrc)


def __getattr__(name: str):
    # PEP 562: reached only while a tail is not yet bound.
    if name in ("bdtr", "bdtrc"):
        _bind_tails()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def ci_clopper_pearson(est: QberEstimate, confidence: float) -> ConfidenceInterval:
    """Exact (Clopper-Pearson) interval by inverting the binomial tails.

    lower is the p at which P[Bin(n, p) >= k] = alpha/2 (0 when k = 0) and
    upper the p at which P[Bin(n, p) <= k] = alpha/2 (1 when k = n). Both are
    found by bisection to an absolute tolerance of 1e-9; the binomial tails
    come from scipy's bdtr/bdtrc, imported on the first call. Each evaluation
    looks them up as this module's globals, so a wrapper set on `stats.bdtr`
    or `stats.bdtrc` sees every call.
    """
    check_confidence(confidence)
    if "bdtr" not in globals() or "bdtrc" not in globals():
        _bind_tails()
    alpha = 1.0 - confidence
    k, n = est.errors_k, est.compared_n
    if k == 0:
        lower = 0.0
    else:
        # P[X >= k] grows monotonically from 0 to 1 as p sweeps [0, 1].
        lower = bisect_root(lambda p: bdtrc(k - 1, n, p) < alpha / 2.0)
    if k == n:
        upper = 1.0
    else:
        # P[X <= k] falls monotonically from 1 to 0.
        upper = bisect_root(lambda p: bdtr(k, n, p) >= alpha / 2.0)
    return ConfidenceInterval(lower, upper)


def hoeffding_half_width(compared_n: int, confidence: float) -> float:
    """Concentration half-width sqrt(ln(2/delta) / (2n)) with delta = 1 - confidence."""
    check_confidence(confidence)
    check_compared_n(compared_n)
    delta = 1.0 - confidence
    return math.sqrt(math.log(2.0 / delta) / (2.0 * compared_n))


def ci_hoeffding(est: QberEstimate, confidence: float) -> ConfidenceInterval:
    """Distribution-free interval p-hat +/- sqrt(ln(2/delta)/(2n)), clamped."""
    half = hoeffding_half_width(est.compared_n, confidence)
    p = est.point_estimate
    return ConfidenceInterval(max(0.0, p - half), min(1.0, p + half))


_CI_FUNCTIONS = {
    CIMethod.WALD: ci_wald,
    CIMethod.WILSON: ci_wilson,
    CIMethod.CLOPPER_PEARSON: ci_clopper_pearson,
    CIMethod.HOEFFDING: ci_hoeffding,
}


def confidence_interval(
    est: QberEstimate, confidence: float, method: CIMethod
) -> ConfidenceInterval:
    """Dispatch to the requested interval construction."""
    return _CI_FUNCTIONS[method](est, confidence)


def check_trials(trials: int) -> None:
    """Raise ValueError unless there are at least 2 trials, the fewest whose
    sample standard deviation exists."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials to aggregate, got {trials}")


@dataclass(frozen=True, slots=True)
class TrialAggregate:
    """Cross-trial summary: mean, sample std (divisor m - 1), and the
    normal-approximation interval for the mean, mean +/- z * std / sqrt(m)."""

    trials_m: int
    mean_qber: float
    std_dev: float
    ci_of_mean: ConfidenceInterval

    def __post_init__(self) -> None:
        check_trials(self.trials_m)
        check_probability("mean_qber", self.mean_qber)
        if self.std_dev < 0.0:
            raise ValueError(f"std_dev must be non-negative: {self.std_dev}")


def aggregate_trials(
    per_trial: Sequence[QberEstimate], confidence: float
) -> TrialAggregate:
    """Aggregate per-trial point estimates into mean / std / CI-of-the-mean.

    The interval uses the plain normal critical value (no Student-t
    correction) and is clamped to [0, 1]: the Wald construction, applied to
    the Monte Carlo mean rather than to one trial's k/n.
    """
    m = len(per_trial)
    check_trials(m)
    values = [e.point_estimate for e in per_trial]
    mean = math.fsum(values) / m
    var = math.fsum((v - mean) ** 2 for v in values) / (m - 1)
    std = math.sqrt(var)
    half = normal_quantile(confidence) * std / math.sqrt(m)
    ci = ConfidenceInterval(max(0.0, mean - half), min(1.0, mean + half))
    return TrialAggregate(trials_m=m, mean_qber=mean, std_dev=std, ci_of_mean=ci)
