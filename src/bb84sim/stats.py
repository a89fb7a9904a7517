"""Binomial confidence intervals for the error rate, and cross-trial
aggregation.

Four interval constructions are provided, spanning the usual
accuracy/robustness trade-offs for a binomial proportion:

* Wald -- normal approximation centred at the sample proportion. Cheap,
  standard, degenerates to a zero-width interval at k = 0 or k = n.
* Wilson -- score interval with the centre shrunk toward 1/2; much better
  small-sample coverage than Wald.
* Clopper-Pearson -- exact interval by inversion of the binomial tails,
  computed as beta quantiles; coverage is guaranteed to be at least
  nominal, at the price of conservatism.
* Hoeffding -- distribution-free concentration bound of half-width
  sqrt(ln(2/delta) / (2n)); the widest of the four, but valid for any
  bounded error process regardless of sample size.

All functions are pure. The standard-normal quantile comes from the standard
library's `statistics.NormalDist`, which implements Wichura's algorithm AS 241
(PPND16); `statistics` is imported on the first quantile, not with this module.
Each level's quantile is computed once and then kept in a small cache, so
Wald, Wilson and the aggregate do not rerun AS 241 for a level they have seen.

`confidence_interval` finds a method's construction in the table
`_CI_FUNCTIONS`, read at each call, so a wrapper put in the table runs. The
bounds are clamped with conditional expressions that give the floats
`min`/`max` would, without their calls.

Only Clopper-Pearson needs scipy: the beta quantile `betaincinv` gives each
bound, and two evaluations of a binomial tail check it. The tails `bdtr`
(P[X <= k]) and `bdtrc` (P[X > k]) are this module's own, each one call of
the regularized incomplete beta function `betainc`. Both scipy functions are
taken from `scipy.special.cython_special`, whose scalar kernels return the
ufuncs' doubles at a fraction of their per-call cost. Importing scipy takes
about 0.35 s, so `betainc` and `betaincinv` start as stand-ins: the first
call of one imports scipy, puts the kernel in the stand-in's place and
returns the kernel's value. Reading either name imports nothing.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from .core import (
    BISECT_TOL, CIMethod, ConfidenceInterval, QberEstimate, Value,
    bisect_root, check_confidence, check_probability,
)


@functools.lru_cache(maxsize=64)
def normal_quantile(two_sided_level: float) -> float:
    """Two-sided standard-normal critical value z with P(|Z| <= z) = level.

    normal_quantile(0.95) is the familiar 1.959964... It is computed from
    the tail (1 - level) / 2, which is exact in floating point for every
    level of 1/2 and above; 0.5 + level / 2 would round near 1.

    The values of the last 64 levels asked for are cached. A level is
    checked, and `statistics` imported, whenever it is not in the cache; a
    level that fails the check raises without being cached, so it raises on
    every call.
    """
    check_confidence(two_sided_level)
    from statistics import NormalDist

    return -NormalDist().inv_cdf((1.0 - two_sided_level) / 2.0)


def ci_wald(est: QberEstimate, confidence: float) -> ConfidenceInterval:
    """Wald interval: p-hat +/- z * sqrt(p-hat (1 - p-hat) / n), clamped to [0, 1].

    At k = 0 or k = n the estimated variance vanishes and the interval
    collapses to a point; that pathology is the standard argument against
    Wald for small samples, and it is kept on purpose.
    """
    z = normal_quantile(confidence)
    p = est.point_estimate
    half = z * math.sqrt(p * (1.0 - p) / est.compared_n)
    lower, upper = p - half, p + half
    return ConfidenceInterval(lower if lower > 0.0 else 0.0, upper if upper < 1.0 else 1.0)


def ci_wilson(est: QberEstimate, confidence: float) -> ConfidenceInterval:
    """Wilson score interval.

    Centre (p-hat + z^2/2n) / (1 + z^2/n), half-width
    (z / (1 + z^2/n)) * sqrt(p-hat (1 - p-hat)/n + z^2/4n^2); at k = n the
    lower bound is 1 / (1 + z^2/n), which centre - half would round so that
    it can fall as n grows. The exact interval contains p-hat; the bounds
    are clamped to it because at k = 0 or k = n rounding can leave the
    nearer bound on the wrong side by ~1e-17.
    """
    z = normal_quantile(confidence)
    n = est.compared_n
    p = est.point_estimate
    z2n = z * z / n
    centre = (p + z2n / 2.0) / (1.0 + z2n)
    half = (z / (1.0 + z2n)) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    lower = 1.0 / (1.0 + z2n) if p == 1.0 else centre - half
    upper = centre + half
    lower = lower if lower < p else p
    upper = upper if upper > p else p
    return ConfidenceInterval(lower if lower > 0.0 else 0.0, upper if upper < 1.0 else 1.0)


def _scipy_kernel(name: str):
    """A stand-in for the global `name`, scipy's kernel of that name.

    Its first call imports `scipy.special.cython_special` and takes the
    kernel's double specialisation: the `scipy.special` ufunc's double,
    without the ufunc's dispatch. A kernel fused over float and double
    dispatches on the Python type of each argument and rejects an int; its
    double specialisation converts one as float() does. A kernel that is
    not fused takes double already. The kernel then replaces the stand-in,
    unless a wrapper set with setattr has replaced it already, and is
    called."""
    def stand_in(*args):
        from scipy.special import cython_special

        kernel = getattr(cython_special, name)
        kernel = getattr(kernel, "__signatures__", {}).get("double", kernel)
        if globals()[name] is stand_in:
            globals()[name] = kernel
        return kernel(*args)

    return stand_in


betainc = _scipy_kernel("betainc")
betaincinv = _scipy_kernel("betaincinv")


def bdtr(k: int, n: int, p: float) -> float:
    """P[Bin(n, p) <= k] = I_{1-p}(n - k, k + 1), for 0 <= k < n."""
    return betainc(n - k, k + 1, 1.0 - p)


def bdtrc(k: int, n: int, p: float) -> float:
    """P[Bin(n, p) > k] = I_p(k + 1, n - k), for 0 <= k < n."""
    return betainc(k + 1, n - k, p)


def ci_clopper_pearson(est: QberEstimate, confidence: float) -> ConfidenceInterval:
    """Exact (Clopper-Pearson) interval by inverting the binomial tails.

    lower is the p at which P[Bin(n, p) >= k] = alpha/2 (0 when k = 0) and
    upper the p at which P[Bin(n, p) <= k] = alpha/2 (1 when k = n). Both are
    beta quantiles (Brown, Cai & DasGupta 2001): lower = betaincinv(k,
    n - k + 1, alpha/2) and upper = 1 - betaincinv(n - k, k + 1, alpha/2),
    the form that never rounds 1 - alpha/2.

    Each bound is then checked with two tail evaluations, one BISECT_TOL
    either side: the tail must cross alpha/2 between them, so the bound lies
    within 1e-9 of the root whatever scipy's quantile does. The check is one
    bracket test of both evaluations, which a NaN tail fails; `betainc` is
    NaN outside [0, 1], so a bound within BISECT_TOL of 0 or 1 fails it.
    Only a bound that fails the check is bisected instead, to adjacent
    floats; its predicate is built only then. The tails are `bdtrc` for the
    lower bound and `bdtr` for the upper, both scipy's `betainc` looked up
    as this module's globals, so the check and the bisection evaluate the
    function the quantile inverts, and a wrapper set on `stats.bdtr` or
    `stats.bdtrc` sees every call. `bdtr` forms 1 - p, so an upper bound
    bisected near 0 is no finer than the floats below 1: at k = 5,
    n = 10^18 and 0.95 it is 2^-54, about 4.8 times its root.

    Bounds within BISECT_TOL of roots closer than that could cross, so the
    lower is clamped to the upper. No known case needs it: a tiny bound,
    whose quantile can round to 0, is bisected.
    """
    check_confidence(confidence)
    half_alpha = (1.0 - confidence) / 2.0
    k, n = est.errors_k, est.compared_n
    if k == 0:
        lower = 0.0
    else:
        # P[X >= k] grows monotonically from 0 to 1 as p sweeps [0, 1].
        lower = betaincinv(k, n - k + 1, half_alpha)
        below = bdtrc(k - 1, n, lower - BISECT_TOL)
        above = bdtrc(k - 1, n, lower + BISECT_TOL)
        if not below < half_alpha <= above:
            lower = bisect_root(lambda p: bdtrc(k - 1, n, p) < half_alpha)
    if k == n:
        upper = 1.0
    else:
        # P[X <= k] falls monotonically from 1 to 0.
        upper = 1.0 - betaincinv(n - k, k + 1, half_alpha)
        below = bdtr(k, n, upper - BISECT_TOL)
        above = bdtr(k, n, upper + BISECT_TOL)
        if not above < half_alpha <= below:
            upper = bisect_root(lambda p: bdtr(k, n, p) >= half_alpha)
    return ConfidenceInterval(upper if upper < lower else lower, upper)


def _hoeffding_half_width(compared_n: int, confidence: float) -> float:
    """hoeffding_half_width without its checks."""
    delta = 1.0 - confidence
    return math.sqrt(math.log(2.0 / delta) / (2.0 * compared_n))


def hoeffding_half_width(compared_n: int, confidence: float) -> float:
    """Concentration half-width sqrt(ln(2/delta) / (2n)) with delta = 1 - confidence.
    The count is checked, and taken as a Python int, as an estimate's is."""
    check_confidence(confidence)
    return _hoeffding_half_width(QberEstimate(0, compared_n).compared_n, confidence)


def ci_hoeffding(est: QberEstimate, confidence: float) -> ConfidenceInterval:
    """Distribution-free interval p-hat +/- sqrt(ln(2/delta)/(2n)), clamped.
    The estimate has checked its count already, so only the level is checked."""
    check_confidence(confidence)
    half = _hoeffding_half_width(est.compared_n, confidence)
    p = est.point_estimate
    lower, upper = p - half, p + half
    return ConfidenceInterval(lower if lower > 0.0 else 0.0, upper if upper < 1.0 else 1.0)


_CI_FUNCTIONS = {
    CIMethod.WALD: ci_wald,
    CIMethod.WILSON: ci_wilson,
    CIMethod.CLOPPER_PEARSON: ci_clopper_pearson,
    CIMethod.HOEFFDING: ci_hoeffding,
}


def interval_function(
    method: CIMethod,
) -> Callable[[QberEstimate, float], ConfidenceInterval]:
    """The interval construction of a method. A method that is not a
    CIMethod member raises ValueError."""
    try:
        return _CI_FUNCTIONS[method]
    except (KeyError, TypeError):  # not a member, or not even hashable
        raise ValueError(f"unknown interval method {method!r}") from None


def confidence_interval(
    est: QberEstimate, confidence: float, method: CIMethod
) -> ConfidenceInterval:
    """The interval of the requested method: its construction is looked up in
    `_CI_FUNCTIONS` at each call, so a wrapper set in that table runs.
    interval_function is called only to raise for a method not in the table."""
    try:
        function = _CI_FUNCTIONS[method]
    except (KeyError, TypeError):
        function = interval_function(method)  # raises ValueError
    return function(est, confidence)


def check_trials(trials: int) -> None:
    """Raise ValueError unless there are at least 2 trials, the fewest whose
    sample standard deviation exists."""
    if trials < 2:
        raise ValueError(f"need at least 2 trials to aggregate, got {trials}")


class TrialAggregate(Value):
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
