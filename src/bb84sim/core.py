"""Shared domain types: interval methods, decisions, estimates, intervals and
verdicts, the bound checks on the quantities they share, and the bisection
that both the threshold and the exact interval solve with.

Everything here is an immutable value type. Instances validate themselves on
construction, so any estimate that exists is internally consistent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable


class CIMethod(enum.Enum):
    """Binomial confidence-interval method."""

    WALD = "wald"
    WILSON = "wilson"
    CLOPPER_PEARSON = "clopper-pearson"
    HOEFFDING = "hoeffding"


class Decision(enum.Enum):
    """Outcome of the security check on the estimated error rate."""

    PROCEED = "proceed"
    ABORT = "abort"


def check_probability(name: str, value: float) -> None:
    """Raise ValueError unless value lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def check_confidence(confidence: float) -> None:
    """Raise ValueError unless confidence lies strictly inside (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def check_compared_n(compared_n: int) -> None:
    """Raise ValueError unless at least one bit was compared."""
    if compared_n < 1:
        raise ValueError(f"compared_n must be positive, got {compared_n}")


def bisect_root(root_above: Callable[[float], bool], hi: float = 1.0,
                tol: float = 1e-9) -> float:
    """The root of a monotone function on [0, hi] by bisection: halve the
    bracket, keeping the upper half where root_above(midpoint), until it is
    no wider than tol, and return its midpoint."""
    lo = 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if root_above(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True, slots=True)
class QberEstimate:
    """Error count over a compared sample: k mismatches out of n comparisons."""

    errors_k: int
    compared_n: int

    def __post_init__(self) -> None:
        check_compared_n(self.compared_n)
        if not 0 <= self.errors_k <= self.compared_n:
            raise ValueError(
                f"errors_k must be in [0, compared_n], got k={self.errors_k}, "
                f"n={self.compared_n}"
            )

    @property
    def point_estimate(self) -> float:
        """The point estimate k/n."""
        return self.errors_k / self.compared_n


@dataclass(frozen=True, slots=True)
class ConfidenceInterval:
    """A [lower, upper] interval for an error rate at a given confidence level."""

    lower: float
    upper: float
    confidence: float
    method: CIMethod

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(
                f"need 0 <= lower <= upper <= 1, got [{self.lower}, {self.upper}]"
            )
        check_confidence(self.confidence)

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, slots=True)
class SecurityVerdict:
    """Proceed/abort decision, with the error rate and threshold that drove it."""

    decision: Decision
    qber_used: float
    threshold: float

    def __post_init__(self) -> None:
        expected = Decision.PROCEED if self.qber_used < self.threshold else Decision.ABORT
        if self.decision is not expected:
            raise ValueError(
                f"decision {self.decision} inconsistent with qber_used="
                f"{self.qber_used} vs threshold={self.threshold}"
            )
