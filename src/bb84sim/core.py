"""Shared domain types: interval methods, decisions, estimates, intervals and
verdicts, the bound checks on the quantities they share, and the bisection to
adjacent floats that both the threshold and the exact interval solve with.

Everything here is an immutable value type. Estimates and intervals validate
themselves on construction, and a verdict derives its decision, so any value
that exists is internally consistent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence


class CIMethod(enum.Enum):
    """Binomial confidence-interval method."""

    WALD = "wald"
    WILSON = "wilson"
    CLOPPER_PEARSON = "clopper-pearson"
    HOEFFDING = "hoeffding"

    # Members are singletons, so hash by identity: Enum's own hash runs Python
    # code on every lookup in a dict keyed by method.
    __hash__ = object.__hash__


class Decision(enum.Enum):
    """Outcome of the security check on the estimated error rate."""

    PROCEED = "proceed"
    ABORT = "abort"


def check_probability(name: str, value: float) -> None:
    """Raise ValueError unless value lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def check_increasing(name: str, values: Sequence[float]) -> None:
    """Raise ValueError unless values is non-empty and strictly increasing."""
    if not values:
        raise ValueError(f"{name} must be non-empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing")


def check_confidence(confidence: float) -> None:
    """Raise ValueError unless confidence lies strictly inside (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


def check_compared_n(compared_n: int) -> None:
    """Raise ValueError unless at least one bit was compared."""
    if compared_n < 1:
        raise ValueError(f"compared_n must be positive, got {compared_n}")


# The half-width of the bracket that checks a Clopper-Pearson bound (see stats).
BISECT_TOL = 1e-9


def bisect_root(root_above: Callable[[float], bool]) -> float:
    """The least float in (0, 1] at which the monotone root_above is false
    (taken as false at 1): halve [0, 1], keeping the upper half where
    root_above(mid), until the ends are adjacent floats; return the upper end."""
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if root_above(mid):
            lo = mid
        else:
            hi = mid
    return hi


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
    """A [lower, upper] interval for an error rate. The function that builds
    one checks its confidence level; the interval keeps only the bounds."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(
                f"need 0 <= lower <= upper <= 1, got [{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True, slots=True)
class SecurityVerdict:
    """The error rate compared against the abort threshold, and the decision
    that comparison gives."""

    qber_used: float
    threshold: float

    @property
    def decision(self) -> Decision:
        """PROCEED iff qber_used < threshold; exactly at the threshold aborts."""
        return Decision.PROCEED if self.qber_used < self.threshold else Decision.ABORT
