"""One BB84 session: preparation, eavesdropping, channel noise, measurement,
sifting, and sacrificial sampling.

The physics reduces to two rules. Measuring a state in its preparation basis
returns the encoded bit deterministically; measuring in the other basis
returns a uniformly random bit. An intercept-resend attacker therefore leaves
matched-basis interceptions undisturbed but randomizes the rest, which is why
a fraction f of interceptions induces an error rate of f/4 on the sifted key:
Eve guesses the wrong basis half the time, and only half of those corrupted
positions read back wrong for Bob.

Sessions are pure functions of their config. `run_session` is vectorized over
the whole qubit train with numpy and is the only implementation of the
physics; tests check its ledger against the per-qubit rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import QberEstimate, check_probability


class EmptySampleError(RuntimeError):
    """Raised when a session cannot spare any sifted bits for comparison.

    The caller should increase n_qubits (or the sample fraction).
    """


@dataclass(frozen=True, slots=True)
class ChannelModel:
    """Quantum channel noise model.

    The depolarizing channel replaces the qubit, with probability p, by a
    state in the same basis carrying a uniformly random bit, so the bit
    survives with probability 1 - p/2. The ideal channel is p = 0.
    Basis-mixing is deliberately not modelled: after sifting it would be
    statistically indistinguishable from this bit-level model.
    """

    depolarizing_p: float = 0.0

    def __post_init__(self) -> None:
        check_probability("depolarizing_p", self.depolarizing_p)

    @classmethod
    def ideal(cls) -> "ChannelModel":
        return cls(0.0)

    @classmethod
    def depolarizing(cls, p: float) -> "ChannelModel":
        return cls(p)


@dataclass(frozen=True, slots=True)
class EveStrategy:
    """Intercept-resend eavesdropping on a fraction f of the qubits. The
    absent eavesdropper is f = 0."""

    fraction_f: float = 0.0

    def __post_init__(self) -> None:
        check_probability("fraction_f", self.fraction_f)

    @classmethod
    def absent(cls) -> "EveStrategy":
        return cls(0.0)

    @classmethod
    def intercept_resend(cls, fraction: float) -> "EveStrategy":
        return cls(fraction)


def check_session_params(n_qubits: int, sample_fraction: float, seed: int) -> None:
    """Raise ValueError unless n_qubits >= 1, sample_fraction is strictly
    inside (0, 1) and seed fits in 64 bits."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be positive, got {n_qubits}")
    if not 0.0 < sample_fraction < 1.0:
        raise ValueError(
            f"sample_fraction must be strictly in (0, 1), got {sample_fraction}"
        )
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in 64 bits, got {seed}")


@dataclass(frozen=True, slots=True)
class SessionConfig:
    """Parameters of one BB84 session.

    sample_fraction must be strictly inside (0, 1): some sifted bits are
    sacrificed for error estimation and some must remain as key material.
    """

    n_qubits: int
    eve: EveStrategy
    channel: ChannelModel
    sample_fraction: float = 0.5
    seed: int = 42

    def __post_init__(self) -> None:
        check_session_params(self.n_qubits, self.sample_fraction, self.seed)


class TransmissionLedger:
    """Per-qubit ledger of a whole session, stored as equal-length numpy
    columns for vectorized auditing. Entries of `eve_bases` and `eve_bits`
    are only meaningful where `eve_intercepted` is set.
    """

    __slots__ = (
        "alice_bits", "alice_bases", "eve_intercepted", "eve_bases", "eve_bits",
        "channel_flipped", "bob_bases", "bob_bits", "sifted", "sampled",
    )

    def __init__(
        self,
        alice_bits: np.ndarray,
        alice_bases: np.ndarray,
        eve_intercepted: np.ndarray,
        eve_bases: np.ndarray,
        eve_bits: np.ndarray,
        channel_flipped: np.ndarray,
        bob_bases: np.ndarray,
        bob_bits: np.ndarray,
        sifted: np.ndarray,
        sampled: np.ndarray,
    ) -> None:
        columns = (
            alice_bits, alice_bases, eve_intercepted, eve_bases, eve_bits,
            channel_flipped, bob_bases, bob_bits, sifted, sampled,
        )
        n = len(alice_bits)
        if any(len(col) != n for col in columns):
            raise ValueError("all ledger columns must have equal length")
        self.alice_bits = alice_bits
        self.alice_bases = alice_bases
        self.eve_intercepted = eve_intercepted
        self.eve_bases = eve_bases
        self.eve_bits = eve_bits
        self.channel_flipped = channel_flipped
        self.bob_bases = bob_bases
        self.bob_bits = bob_bits
        self.sifted = sifted
        self.sampled = sampled

    def __len__(self) -> int:
        return len(self.alice_bits)


@dataclass(frozen=True, slots=True)
class SessionResult:
    """Outcome of one session: the ledger plus sift/sample bookkeeping."""

    records: TransmissionLedger
    sifted_count: int
    estimate: QberEstimate
    raw_key_bits: int

    def __post_init__(self) -> None:
        if self.sifted_count != int(np.count_nonzero(self.records.sifted)):
            raise ValueError("sifted_count does not match the ledger")
        if self.estimate.compared_n + self.raw_key_bits != self.sifted_count:
            raise ValueError("compared_n + raw_key_bits must equal sifted_count")


def _random_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform 0/1 draws as uint8, identical in values and in the
    generator state it leaves to `rng.integers(0, 2, n, dtype=np.uint8)`.

    numpy draws range-2 uint8 values by Lemire's method, which never rejects
    (256 is even) and returns the top bit of each byte, taking the bytes
    low-first from the same uint32 stream that `Generator.bytes` serialises
    little-endian. Both consume ceil(n/4) uint32 words.
    """
    return np.frombuffer(rng.bytes(n), np.uint8) >> 7


def run_session(config: SessionConfig) -> SessionResult:
    """Execute one full BB84 session, deterministically in the seed.

    Per qubit the pipeline is prepare -> Eve -> channel -> Bob's basis choice
    -> measurement; positions with matching Alice/Bob bases are sifted, and
    floor(sample_fraction * sifted_count) of them, chosen uniformly without
    replacement, are sacrificed to estimate the error rate by direct
    comparison of Alice's and Bob's bits.

    The random stream (PCG64 seeded with config.seed) is consumed in a fixed
    order of whole-session draws: Alice bits, Alice bases, Eve intercept
    events, Eve bases, Eve mismatch outcomes, channel events, channel
    replacement bits, Bob bases, Bob mismatch outcomes, then the sample
    choice. Every block is drawn regardless of f and p.

    The 0/1 blocks are the top bit of each byte of `rng.bytes(n)`. That is
    what `rng.integers(0, 2, n, dtype=np.uint8)` returns, from the same
    words, leaving the same generator state (see `_random_bits`), so every
    output byte is the one `integers` draws would give.

    Raises EmptySampleError when the sample would be empty; transmit more
    qubits.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_qubits
    f = config.eve.fraction_f
    p = config.channel.depolarizing_p

    alice_bits = _random_bits(rng, n)
    alice_bases = _random_bits(rng, n)

    intercepted = rng.random(n) < f
    eve_bases = _random_bits(rng, n)
    eve_mismatch_draws = _random_bits(rng, n)
    # Selects on the 0/1 uint8 columns are bitwise: d ^ ((a ^ d) & m) is a
    # where m is 1 and d where it is 0.
    # Eve measures: her own basis reads Alice's bit, a mismatch reads noise.
    eve_bits = alice_bits ^ ((eve_mismatch_draws ^ alice_bits) & (eve_bases ^ alice_bases))

    resent = intercepted.view(np.uint8)
    state_bits = alice_bits ^ ((eve_bits ^ alice_bits) & resent)
    state_bases = alice_bases ^ ((eve_bases ^ alice_bases) & resent)

    depolarized = rng.random(n) < p
    channel_draws = _random_bits(rng, n)
    flips = (channel_draws ^ state_bits) & depolarized.view(np.uint8)
    channel_flipped = flips.view(bool)
    state_bits ^= flips

    bob_bases = _random_bits(rng, n)
    bob_mismatch_draws = _random_bits(rng, n)
    bob_bits = state_bits ^ ((bob_mismatch_draws ^ state_bits) & (bob_bases ^ state_bases))

    sifted = alice_bases == bob_bases
    sifted_idx = np.flatnonzero(sifted)
    sifted_count = int(sifted_idx.size)

    sample_size = math.floor(config.sample_fraction * sifted_count)
    if sample_size == 0:
        raise EmptySampleError(
            f"no sifted bits to sample (sifted_count={sifted_count}, "
            f"sample_fraction={config.sample_fraction}); increase n_qubits"
        )
    sample_idx = rng.choice(sifted_idx, size=sample_size, replace=False)
    sampled = np.zeros(n, dtype=bool)
    sampled[sample_idx] = True

    errors_k = int(np.count_nonzero(alice_bits[sample_idx] != bob_bits[sample_idx]))

    ledger = TransmissionLedger(
        alice_bits=alice_bits,
        alice_bases=alice_bases,
        eve_intercepted=intercepted,
        eve_bases=eve_bases,
        eve_bits=eve_bits,
        channel_flipped=channel_flipped,
        bob_bases=bob_bases,
        bob_bits=bob_bits,
        sifted=sifted,
        sampled=sampled,
    )
    return SessionResult(
        records=ledger,
        sifted_count=sifted_count,
        estimate=QberEstimate(errors_k, sample_size),
        raw_key_bits=sifted_count - sample_size,
    )
