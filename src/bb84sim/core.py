"""Shared domain types: bases, per-qubit records, estimates, and the bound
checks on the quantities they share.

Everything here is an immutable value type. Instances validate themselves on
construction, so any record or estimate that exists is internally consistent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class Basis(enum.IntEnum):
    """Preparation/measurement basis: rectilinear (+) or diagonal (x)."""

    RECTILINEAR = 0
    DIAGONAL = 1


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


def _check_bit(value: int, name: str) -> None:
    if value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1, got {value!r}")


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


@dataclass(frozen=True, slots=True)
class TransmissionRecord:
    """Full per-qubit ledger entry for one position in a session.

    The simulator is an omniscient referee: the record keeps Eve's internal
    state (her basis and measured bit) even though a real adversary would
    hide it, which lets tests check the error mechanism exactly.
    """

    alice_bit: int
    alice_basis: Basis
    eve_intercepted: bool
    eve_basis: Optional[Basis]
    eve_bit: Optional[int]
    channel_flipped: bool
    bob_basis: Basis
    bob_bit: int
    sifted: bool
    sampled: bool

    def __post_init__(self) -> None:
        _check_bit(self.alice_bit, "alice_bit")
        _check_bit(self.bob_bit, "bob_bit")
        if self.eve_intercepted:
            if self.eve_basis is None or self.eve_bit is None:
                raise ValueError("intercepted record must carry eve_basis and eve_bit")
            _check_bit(self.eve_bit, "eve_bit")
        elif self.eve_basis is not None or self.eve_bit is not None:
            raise ValueError("non-intercepted record must not carry Eve fields")
        if self.sifted != (self.alice_basis == self.bob_basis):
            raise ValueError("sifted flag must equal (alice_basis == bob_basis)")
        if self.sampled and not self.sifted:
            raise ValueError("only sifted positions can be sampled")


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
