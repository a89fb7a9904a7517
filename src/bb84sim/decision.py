"""Security decision layer: binary entropy, the abort threshold, and the
asymptotic secret-key-rate estimate.

The key rate for BB84 under one-way post-processing is R = 1 - 2 H2(Q),
where H2 is the binary entropy and Q the error rate (Shor-Preskill bound).
R crosses zero at Q* ~ 0.11, which is where the famous "11 percent"
abort threshold comes from. The threshold is the least float at which
`key_rate` is not positive, so decision and rate can never disagree.
"""

from __future__ import annotations

import enum
import functools
import math

from .core import (
    ConfidenceInterval, QberEstimate, SecurityVerdict, Value, bisect_root, check_probability,
)


class DecisionPolicy(enum.Enum):
    """What to compare against the threshold: the point estimate, or the
    upper confidence bound (the conservative finite-sample choice)."""

    POINT_ESTIMATE = "point"
    UPPER_BOUND = "upper"


class KeyRateReport(Value):
    """Asymptotic key rate at some error rate."""

    rate: float

    @property
    def secure(self) -> bool:
        """True iff the rate is positive."""
        return self.rate > 0.0


def _binary_entropy(q: float) -> float:
    """binary_entropy without its check."""
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def binary_entropy(q: float) -> float:
    """H2(q) = -q log2 q - (1-q) log2 (1-q), with H2(0) = H2(1) = 0."""
    check_probability("q", q)
    return _binary_entropy(q)


def key_rate(qber: float) -> KeyRateReport:
    """Asymptotic secret-key rate 1 - 2 H2(qber), evaluated at min(qber, 0.5).

    A sampled error rate above 0.5 is a legitimate outcome of a small or
    fully disturbed session. The formula itself climbs back to +1 as qber
    approaches 1, which would call such a session secure, so the rate is
    held at its value at 0.5, namely -1.
    """
    check_probability("qber", qber)
    return KeyRateReport(1.0 - 2.0 * _binary_entropy(0.5 if qber > 0.5 else qber))


@functools.lru_cache(maxsize=1)
def threshold_root() -> float:
    """The least float Q* ~ 0.1100 at which key_rate(Q*) is not secure, by
    bisecting its sign on its whole domain [0, 1] to adjacent floats; it is
    -1 above 0.5, so at every float q < Q* exactly when key_rate(q).secure."""
    return bisect_root(lambda q: key_rate(q).secure)


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
    if policy is DecisionPolicy.POINT_ESTIMATE:
        qber_used = estimate.point_estimate
    elif policy is DecisionPolicy.UPPER_BOUND:
        qber_used = interval.upper
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return SecurityVerdict(qber_used, threshold_root())
