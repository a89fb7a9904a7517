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

All functions are pure. The standard-normal quantile is computed locally
(Wichura's algorithm AS 241) rather than taken from a table or an external
dependency, so every number the library emits is reproducible from this file.

Only Clopper-Pearson needs scipy, for the binomial tails `bdtr` and `bdtrc`.
Importing `scipy.special` takes about 0.3 s, so it happens on the first
Clopper-Pearson call or the first access to `stats.bdtr`/`stats.bdtrc`, not
when this module is imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    CIMethod, ConfidenceInterval, QberEstimate,
    check_compared_n, check_confidence, check_probability,
)

# Coefficients of Wichura's AS 241 rational approximations (PPND16 variant,
# absolute error below 1e-15 over (0, 1)). Highest-order term first.
_A = (
    2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
    4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
    1.3314166789178437745e2, 3.3871328727963666080e0,
)
_B = (
    5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
    2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
    4.2313330701600911252e1, 1.0,
)
_C = (
    7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
    1.27045825245236838258e0, 3.64784832476320460504e0, 5.76949722146069140550e0,
    4.63033784615654529590e0, 1.42343711074968357734e0,
)
_D = (
    1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
    1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e0,
    2.05319162663775882187e0, 1.0,
)
_E = (
    2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
    2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
    5.46378491116411436990e0, 6.65790464350110377720e0,
)
_F = (
    2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
    7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
    5.99832206555887937690e-1, 1.0,
)


def _horner(coeffs: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _ppnd16(p: float) -> float:
    """Lower-tail standard-normal quantile via AS 241 (PPND16)."""
    q = p - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        return q * _horner(_A, r) / _horner(_B, r)
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    if r <= 5.0:
        r -= 1.6
        z = _horner(_C, r) / _horner(_D, r)
    else:
        r -= 5.0
        z = _horner(_E, r) / _horner(_F, r)
    return -z if q < 0.0 else z


def normal_quantile(two_sided_level: float) -> float:
    """Two-sided standard-normal critical value z with P(|Z| <= z) = level.

    normal_quantile(0.95) is the familiar 1.959964... It is computed from
    the tail (1 - level) / 2, which is exact in floating point for every
    level of 1/2 and above; 0.5 + level / 2 would round near 1.
    """
    check_confidence(two_sided_level)
    return -_ppnd16((1.0 - two_sided_level) / 2.0)


def ci_wald(est: QberEstimate, confidence: float) -> ConfidenceInterval:
    """Wald interval: p-hat +/- z * sqrt(p-hat (1 - p-hat) / n), clamped to [0, 1].

    At k = 0 or k = n the estimated variance vanishes and the interval
    collapses to a point; that pathology is the standard argument against
    Wald for small samples, and it is kept on purpose.
    """
    z = normal_quantile(confidence)
    p = est.point_estimate
    half = z * math.sqrt(p * (1.0 - p) / est.compared_n)
    return ConfidenceInterval(
        max(0.0, p - half), min(1.0, p + half), confidence, CIMethod.WALD
    )


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
        max(0.0, min(p, centre - half)), min(1.0, max(p, centre + half)),
        confidence, CIMethod.WILSON,
    )


def _bisect_binomial(
    tail: "callable", target: float, increasing: bool, tol: float = 1e-9
) -> float:
    """Solve tail(p) = target for p in [0, 1] by bisection on a monotone tail."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (tail(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
        lower = _bisect_binomial(
            lambda p: float(bdtrc(k - 1, n, p)), alpha / 2.0, increasing=True
        )
    if k == n:
        upper = 1.0
    else:
        upper = _bisect_binomial(
            lambda p: float(bdtr(k, n, p)), alpha / 2.0, increasing=False
        )
    return ConfidenceInterval(lower, upper, confidence, CIMethod.CLOPPER_PEARSON)


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
    return ConfidenceInterval(
        max(0.0, p - half), min(1.0, p + half), confidence, CIMethod.HOEFFDING
    )


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
    correction) and is clamped to [0, 1]. It carries the WALD tag: it is the
    same normal approximation, applied to the Monte Carlo mean.
    """
    m = len(per_trial)
    check_trials(m)
    values = [e.point_estimate for e in per_trial]
    mean = math.fsum(values) / m
    var = math.fsum((v - mean) ** 2 for v in values) / (m - 1)
    std = math.sqrt(var)
    half = normal_quantile(confidence) * std / math.sqrt(m)
    ci = ConfidenceInterval(
        max(0.0, mean - half), min(1.0, mean + half), confidence, CIMethod.WALD
    )
    return TrialAggregate(trials_m=m, mean_qber=mean, std_dev=std, ci_of_mean=ci)
