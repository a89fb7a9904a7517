"""Security decision layer: binary entropy, the abort threshold, and the
asymptotic secret-key-rate estimate.

The key rate for BB84 under one-way post-processing is R = 1 - 2 H2(Q),
where H2 is the binary entropy and Q the error rate (Shor-Preskill bound).
R crosses zero at Q* ~ 0.11, which is where the famous "11 percent"
abort threshold comes from; the threshold here is computed as that root
rather than hard-coded, so decision and rate can never disagree.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

from .core import (
    ConfidenceInterval, Decision, QberEstimate, SecurityVerdict, bisect_root,
    check_probability,
)


class DecisionPolicy(enum.Enum):
    """What to compare against the threshold: the point estimate, or the
    upper confidence bound (the conservative finite-sample choice)."""

    POINT_ESTIMATE = "point"
    UPPER_BOUND = "upper"


@dataclass(frozen=True, slots=True)
class KeyRateReport:
    """Asymptotic key rate at a given error rate; secure iff the rate is positive."""

    qber: float
    rate: float
    secure: bool


def binary_entropy(q: float) -> float:
    """H2(q) = -q log2 q - (1-q) log2 (1-q), with H2(0) = H2(1) = 0."""
    check_probability("q", q)
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def key_rate(qber: float) -> KeyRateReport:
    """Asymptotic secret-key rate 1 - 2 H2(qber), evaluated at min(qber, 0.5).

    A sampled error rate above 0.5 is a legitimate outcome of a small or
    fully disturbed session. The formula itself climbs back to +1 as qber
    approaches 1, which would call such a session secure, so the rate is
    held at its value at 0.5, namely -1. The report keeps the measured qber.
    """
    check_probability("qber", qber)
    rate = 1.0 - 2.0 * binary_entropy(min(qber, 0.5))
    return KeyRateReport(qber=qber, rate=rate, secure=rate > 0.0)


@functools.lru_cache(maxsize=1)
def threshold_root() -> float:
    """The error rate Q* at which 1 - 2 H2(Q*) = 0, by bisection on (0, 0.5).

    The rate is strictly decreasing on [0, 0.5] from 1 to -1, so the root is
    unique; bisection runs to an interval width of 1e-9. Q* ~ 0.1100.
    """
    return bisect_root(lambda q: 1.0 - 2.0 * binary_entropy(q) > 0.0, hi=0.5)


def decide(
    estimate: QberEstimate,
    interval: ConfidenceInterval,
    policy: DecisionPolicy = DecisionPolicy.UPPER_BOUND,
) -> SecurityVerdict:
    """Proceed/abort against the entropy-root threshold.

    POINT_ESTIMATE compares k/n itself; UPPER_BOUND compares the interval's
    upper limit, so sampling uncertainty counts against proceeding. Since
    upper >= point, the upper-bound policy can only be stricter.
    """
    threshold = threshold_root()
    if policy is DecisionPolicy.POINT_ESTIMATE:
        qber_used = estimate.point_estimate
    elif policy is DecisionPolicy.UPPER_BOUND:
        qber_used = interval.upper
    else:
        raise ValueError(f"unknown policy {policy!r}")
    decision = Decision.PROCEED if qber_used < threshold else Decision.ABORT
    return SecurityVerdict(decision=decision, qber_used=qber_used, threshold=threshold)
