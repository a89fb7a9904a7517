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
physics; tests check its ledger against the per-qubit rules. Sweeps call it
with ledger=False, which returns the same counts without the ledger and
skips the random blocks that cannot change them, leaving the stream as is.
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


@dataclass(frozen=True, slots=True, eq=False)
class TransmissionLedger:
    """Per-qubit ledger of a whole session, stored as equal-length numpy
    columns for vectorized auditing. Entries of `eve_bases` and `eve_bits`
    are only meaningful where `eve_intercepted` is set.

    Its fields, in order, are the columns, also listed as `__slots__`.
    Equality is identity, since `==` on arrays has no single truth value.
    """

    alice_bits: np.ndarray
    alice_bases: np.ndarray
    eve_intercepted: np.ndarray
    eve_bases: np.ndarray
    eve_bits: np.ndarray
    channel_flipped: np.ndarray
    bob_bases: np.ndarray
    bob_bits: np.ndarray
    sifted: np.ndarray
    sampled: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.alice_bits)
        if any(len(getattr(self, name)) != n for name in self.__slots__):
            raise ValueError("all ledger columns must have equal length")

    def __len__(self) -> int:
        return len(self.alice_bits)


@dataclass(frozen=True, slots=True)
class SessionResult:
    """Outcome of one session: the ledger (None for a counts-only session)
    plus sift/sample bookkeeping."""

    records: TransmissionLedger | None
    sifted_count: int
    estimate: QberEstimate
    raw_key_bits: int

    def __post_init__(self) -> None:
        if self.records is not None and self.sifted_count != int(
                np.count_nonzero(self.records.sifted)):
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


def _set_uint32_buffer(bitgen: np.random.PCG64, has_uint32: int, uinteger: int) -> None:
    """Set PCG64's buffered uint32 draw, which `advance` clears."""
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = has_uint32, uinteger
    bitgen.state = state


def _skip_random(bitgen: np.random.PCG64, n: int) -> None:
    """Leave `bitgen` in the state `rng.random(n)` would, without drawing.

    Each double takes one 64-bit word and leaves the uint32 buffer alone,
    but `advance` clears that buffer, so it is put back.
    """
    state = bitgen.state
    bitgen.advance(n)
    _set_uint32_buffer(bitgen, state["has_uint32"], state["uinteger"])


def _skip_bytes(bitgen: np.random.PCG64, n: int) -> None:
    """Leave `bitgen` in the state `rng.bytes(n)` would, without drawing.

    `bytes(n)` takes ceil(n/4) uint32 draws: the buffered high half first,
    if one is held, then both halves of each new 64-bit word, low first.
    An odd count leaves the last word's high half buffered. `uinteger`
    keeps that high half even once it is used, so the last word is drawn
    for real.
    """
    state = bitgen.state
    has_uint32, uinteger = state["has_uint32"], state["uinteger"]
    words = (n + 3) // 4 - has_uint32
    if words:
        bitgen.advance((words + 1) // 2 - 1)
        uinteger = int(bitgen.random_raw()) >> 32
    _set_uint32_buffer(bitgen, words % 2, uinteger)


def _bit_block(rng: np.random.Generator, n: int, used: bool) -> np.ndarray | np.uint8:
    """`_random_bits(rng, n)`, or, when the block is not used, the constant
    0 after skipping it."""
    if used:
        return _random_bits(rng, n)
    _skip_bytes(rng.bit_generator, n)
    return np.uint8(0)


def _event_block(rng: np.random.Generator, n: int, prob: float,
                 used: bool) -> np.ndarray | np.uint8:
    """Events of probability `prob` as 0/1 uint8, from `rng.random(n) < prob`.

    A block that is not used must have prob 0 or 1, where every event is
    known: it is skipped and that constant returned.
    """
    if used:
        return (rng.random(n) < prob).view(np.uint8)
    _skip_random(rng.bit_generator, n)
    return np.uint8(prob)


def _measure(alice_bits, alice_bases, resent, eve_bases, eve_draws,
             depolarized, channel_draws, bob_bases, bob_draws):
    """The per-qubit physics on 0/1 uint8 arrays, or on 0-d constants that
    broadcast: returns Eve's reads, the channel's flips and Bob's reads.

    Selects are bitwise: d ^ ((a ^ d) & m) is a where m is 1 and d where it
    is 0.
    """
    # Eve measures: her own basis reads Alice's bit, a mismatch reads noise.
    eve_bits = alice_bits ^ ((eve_draws ^ alice_bits) & (eve_bases ^ alice_bases))
    state_bits = alice_bits ^ ((eve_bits ^ alice_bits) & resent)
    state_bases = alice_bases ^ ((eve_bases ^ alice_bases) & resent)
    flips = (channel_draws ^ state_bits) & depolarized
    state_bits ^= flips
    bob_bits = state_bits ^ ((bob_draws ^ state_bits) & (bob_bases ^ state_bases))
    return eve_bits, flips, bob_bits


def _sample(rng: np.random.Generator, sifted: np.ndarray,
            sample_fraction: float) -> tuple[int, np.ndarray]:
    """The sifted count and floor(sample_fraction * sifted count) sifted
    positions, chosen uniformly without replacement.

    The sifted positions are freed on return, before the physics runs.
    """
    sifted_idx = np.flatnonzero(sifted)
    sifted_count = int(sifted_idx.size)
    sample_size = math.floor(sample_fraction * sifted_count)
    if sample_size == 0:
        raise EmptySampleError(
            f"no sifted bits to sample (sifted_count={sifted_count}, "
            f"sample_fraction={sample_fraction}); increase n_qubits"
        )
    return sifted_count, rng.choice(sifted_idx, size=sample_size, replace=False)


def run_session(config: SessionConfig, ledger: bool = True) -> SessionResult:
    """Execute one full BB84 session, deterministically in the seed.

    Per qubit the pipeline is prepare -> Eve -> channel -> Bob's basis choice
    -> measurement; positions with matching Alice/Bob bases are sifted, and
    floor(sample_fraction * sifted_count) of them, chosen uniformly without
    replacement, are sacrificed to estimate the error rate by direct
    comparison of Alice's and Bob's bits.

    The random stream (PCG64 seeded with config.seed) is consumed in a fixed
    order of whole-session blocks: Alice bits, Alice bases, Eve intercept
    events, Eve bases, Eve mismatch outcomes, channel events, channel
    replacement bits, Bob bases, Bob mismatch outcomes, then the sample
    choice. Every block is consumed regardless of f and p: drawn, or
    skipped by advancing the generator to the state the draw would leave,
    so the stream is the same either way.

    The 0/1 blocks are the top bit of each byte of `rng.bytes(n)`. That is
    what `rng.integers(0, 2, n, dtype=np.uint8)` returns, from the same
    words, leaving the same generator state (see `_random_bits`), so every
    output byte is the one `integers` draws would give.

    With ledger=False the session returns only its counts, with records
    None. It skips each block that cannot change them: Eve's intercept
    events at f = 0 or 1 and her bases and reads at f = 0, the channel's
    events at p = 0 or 1 and its bits at p = 0. A skipped block enters the
    physics as the constant it would have been. The counts equal the
    ledger session's.

    Raises EmptySampleError when the sample would be empty; transmit more
    qubits.
    """
    rng = np.random.default_rng(config.seed)
    assert isinstance(rng.bit_generator, np.random.PCG64), "the skips assume PCG64"
    n = config.n_qubits
    f = config.eve.fraction_f
    p = config.channel.depolarizing_p

    alice_bits = _random_bits(rng, n)
    alice_bases = _random_bits(rng, n)
    resent = _event_block(rng, n, f, used=ledger or 0 < f < 1)
    eve_bases = _bit_block(rng, n, used=ledger or f > 0)
    eve_draws = _bit_block(rng, n, used=ledger or f > 0)
    depolarized = _event_block(rng, n, p, used=ledger or 0 < p < 1)
    channel_draws = _bit_block(rng, n, used=ledger or p > 0)
    bob_bases = _random_bits(rng, n)
    bob_draws = _random_bits(rng, n)

    sifted = alice_bases == bob_bases
    sifted_count, sample_idx = _sample(rng, sifted, config.sample_fraction)
    sample_size = sample_idx.size

    eve_bits, flips, bob_bits = _measure(
        alice_bits, alice_bases, resent, eve_bases, eve_draws,
        depolarized, channel_draws, bob_bases, bob_draws)
    errors_k = int(np.count_nonzero(alice_bits[sample_idx] != bob_bits[sample_idx]))

    records = None
    if ledger:
        sampled = np.zeros(n, dtype=bool)
        sampled[sample_idx] = True
        records = TransmissionLedger(
            alice_bits=alice_bits,
            alice_bases=alice_bases,
            eve_intercepted=resent.view(bool),
            eve_bases=eve_bases,
            eve_bits=eve_bits,
            channel_flipped=flips.view(bool),
            bob_bases=bob_bases,
            bob_bits=bob_bits,
            sifted=sifted,
            sampled=sampled,
        )
    return SessionResult(
        records=records,
        sifted_count=sifted_count,
        estimate=QberEstimate(errors_k, sample_size),
        raw_key_bits=sifted_count - sample_size,
    )
