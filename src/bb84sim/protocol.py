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
the whole qubit train with numpy; the scalar operations (`prepare`, `measure`,
`eve_act`, `channel_act`) define the same per-qubit semantics one state at a
time. They consume the random stream in a different order, so no test
compares them with `run_session`; the session's ledger is instead checked
against the per-qubit rules by property-based tests.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .core import Basis, BB84State, QberEstimate, TransmissionRecord


class EmptySampleError(RuntimeError):
    """Raised when a session cannot spare any sifted bits for comparison.

    The caller should increase n_qubits (or the sample fraction).
    """


class ChannelKind(enum.Enum):
    IDEAL = "ideal"
    DEPOLARIZING = "depolarizing"


@dataclass(frozen=True, slots=True)
class ChannelModel:
    """Quantum channel noise model.

    The depolarizing channel replaces the qubit, with probability p, by a
    state in the same basis carrying a uniformly random bit, so the bit
    survives with probability 1 - p/2. An ideal channel never disturbs
    anything. Basis-mixing is deliberately not modelled: after sifting it
    would be statistically indistinguishable from this bit-level model.
    """

    kind: ChannelKind
    depolarizing_p: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind is ChannelKind.DEPOLARIZING:
            if self.depolarizing_p is None or not 0.0 <= self.depolarizing_p <= 1.0:
                raise ValueError(
                    f"depolarizing_p must be in [0, 1], got {self.depolarizing_p!r}"
                )
        elif self.depolarizing_p is not None:
            raise ValueError("ideal channel takes no depolarizing_p")

    @classmethod
    def ideal(cls) -> "ChannelModel":
        return cls(ChannelKind.IDEAL)

    @classmethod
    def depolarizing(cls, p: float) -> "ChannelModel":
        return cls(ChannelKind.DEPOLARIZING, p)

    @property
    def flip_probability(self) -> float:
        """Probability that the channel changes the bit value (= p/2)."""
        if self.kind is ChannelKind.IDEAL:
            return 0.0
        return self.depolarizing_p / 2.0


class EveKind(enum.Enum):
    ABSENT = "absent"
    INTERCEPT_RESEND = "intercept-resend"


@dataclass(frozen=True, slots=True)
class EveStrategy:
    """Eavesdropping strategy. Absent behaves exactly like intercept-resend
    with fraction 0: same random draws, same outputs."""

    kind: EveKind
    fraction_f: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind is EveKind.INTERCEPT_RESEND:
            if self.fraction_f is None or not 0.0 <= self.fraction_f <= 1.0:
                raise ValueError(
                    f"fraction_f must be in [0, 1], got {self.fraction_f!r}"
                )
        elif self.fraction_f is not None:
            raise ValueError("absent strategy takes no fraction_f")

    @classmethod
    def absent(cls) -> "EveStrategy":
        return cls(EveKind.ABSENT)

    @classmethod
    def intercept_resend(cls, fraction: float) -> "EveStrategy":
        return cls(EveKind.INTERCEPT_RESEND, fraction)

    @property
    def effective_fraction(self) -> float:
        if self.kind is EveKind.ABSENT:
            return 0.0
        return self.fraction_f


@dataclass(frozen=True, slots=True)
class InterceptMetadata:
    """What Eve did at one position: nothing, or measure-and-resend."""

    intercepted: bool
    basis: Optional[Basis] = None
    bit: Optional[int] = None


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
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be positive, got {self.n_qubits}")
        if not 0.0 < self.sample_fraction < 1.0:
            raise ValueError(
                f"sample_fraction must be strictly in (0, 1), got {self.sample_fraction}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


class TransmissionLedger(Sequence):
    """Per-qubit ledger of a whole session, stored column-wise.

    Indexing materializes a validated `TransmissionRecord`; the underlying
    numpy columns are exposed for vectorized auditing. Entries of `eve_bases`
    and `eve_bits` are only meaningful where `eve_intercepted` is set (the
    record view returns None elsewhere).
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

    def __getitem__(self, index: int) -> TransmissionRecord:
        if isinstance(index, slice):
            raise TypeError("ledger does not support slicing; index positions")
        i = int(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(index)
        intercepted = bool(self.eve_intercepted[i])
        return TransmissionRecord(
            alice_bit=int(self.alice_bits[i]),
            alice_basis=Basis(int(self.alice_bases[i])),
            eve_intercepted=intercepted,
            eve_basis=Basis(int(self.eve_bases[i])) if intercepted else None,
            eve_bit=int(self.eve_bits[i]) if intercepted else None,
            channel_flipped=bool(self.channel_flipped[i]),
            bob_basis=Basis(int(self.bob_bases[i])),
            bob_bit=int(self.bob_bits[i]),
            sifted=bool(self.sifted[i]),
            sampled=bool(self.sampled[i]),
        )


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


def prepare(rng: np.random.Generator) -> BB84State:
    """Draw one uniformly random BB84 state (independent bit and basis)."""
    bit = int(rng.integers(0, 2))
    basis = Basis(int(rng.integers(0, 2)))
    return BB84State(bit, basis)


def measure(state: BB84State, basis: Basis, rng: np.random.Generator) -> int:
    """Measure a state in the given basis.

    Matching basis reads the encoded bit back deterministically; a
    mismatched basis yields a uniformly random bit (and consumes one draw
    from the stream only in that case).
    """
    if basis == state.basis:
        return state.bit
    return int(rng.integers(0, 2))


def eve_act(
    state: BB84State, strategy: EveStrategy, rng: np.random.Generator
) -> tuple[BB84State, InterceptMetadata]:
    """Apply the eavesdropping strategy to one in-flight state.

    With probability fraction_f Eve measures in a uniformly random basis and
    resends a fresh state carrying her outcome in her basis; otherwise the
    state passes through untouched. The metadata records what she saw.
    """
    f = strategy.effective_fraction
    if f > 0.0 and rng.random() < f:
        eve_basis = Basis(int(rng.integers(0, 2)))
        eve_bit = measure(state, eve_basis, rng)
        return BB84State(eve_bit, eve_basis), InterceptMetadata(True, eve_basis, eve_bit)
    return state, InterceptMetadata(False)


def channel_act(
    state: BB84State, channel: ChannelModel, rng: np.random.Generator
) -> tuple[BB84State, bool]:
    """Apply channel noise to one state, reporting whether the bit changed.

    Depolarizing with probability p: the qubit is replaced by a state in the
    same basis with a uniformly random bit, so the bit flips with overall
    probability p/2. Ideal channels return the input unchanged.
    """
    if channel.kind is ChannelKind.DEPOLARIZING and rng.random() < channel.depolarizing_p:
        new_bit = int(rng.integers(0, 2))
        return BB84State(new_bit, state.basis), new_bit != state.bit
    return state, False


def sift(records: Union[TransmissionLedger, Iterable[TransmissionRecord]]) -> list[int]:
    """Return the positions where Alice's and Bob's bases match, in order."""
    if isinstance(records, TransmissionLedger):
        return np.flatnonzero(records.alice_bases == records.bob_bases).tolist()
    return [i for i, rec in enumerate(records) if rec.alice_basis == rec.bob_basis]


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
    choice. Every block is drawn regardless of the eve/channel settings, so
    an absent Eve is bit-for-bit identical to intercept-resend with f = 0 and
    an ideal channel to depolarizing with p = 0.

    The 0/1 blocks are the top bit of each byte of `rng.bytes(n)`. That is
    what `rng.integers(0, 2, n, dtype=np.uint8)` returns, from the same
    words, leaving the same generator state (see `_random_bits`), so every
    output byte is the one `integers` draws would give.

    Raises EmptySampleError when the sample would be empty; transmit more
    qubits.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_qubits
    f = config.eve.effective_fraction
    p = config.channel.flip_probability * 2.0

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
