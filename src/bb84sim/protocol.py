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
physics; tests check its ledger against the per-qubit rules. Every random
block, 0/1 or event, is drawn a run at a time as raw PCG64 words, byte for
byte the `rng.integers` and `rng.random` draws that define the stream.
Sweeps call it with ledger=False, which returns the same counts without the
ledger and passes the random blocks no count reads with a plain `advance`,
leaving the stream as is.

numpy is imported by each function that calls it, not with the module, so
`import bb84sim` and the security threshold run without it. Once numpy is
loaded such an import costs about 0.2 us; a session makes eight, in about
500 us. The module itself still loads with the package, as every bb84sim
module does, so code that looks the modules up in `sys.modules` or as
package attributes, as perfbench does, need not import them first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import QberEstimate, check_probability

if TYPE_CHECKING:
    import numpy as np


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

    def __post_init__(self) -> None:
        import numpy as np

        if self.records is not None and self.sifted_count != int(
                np.count_nonzero(self.records.sifted)):
            raise ValueError("sifted_count does not match the ledger")

    @property
    def raw_key_bits(self) -> int:
        """Sifted bits left for the key once the compared sample is spent."""
        return self.sifted_count - self.estimate.compared_n


def _blocks(rng: np.random.Generator, n: int, read: tuple[bool, ...],
            prob: float | None = None) -> list[np.ndarray | np.uint8]:
    """A run of adjacent blocks of n draws, one per flag of `read`, from raw
    PCG64 words, leaving the generator where the draws that define the
    stream would: consecutive `rng.integers(0, 2, n, dtype=np.uint8)` 0/1
    blocks, or with `prob` consecutive `rng.random(n) < prob` event blocks
    as 0/1 uint8. An unread block is not generated and comes back as a
    constant: 0, or `prob`, which must then be 0 or 1.

    Precondition: PCG64 holds no buffered uint32 half-word. `run_session`
    meets it, since every run before each call takes whole words.

    numpy draws range-2 uint8 values by Lemire's method, which never rejects
    (256 is even) and returns the top bit of each byte, taking the bytes of
    ceil(n/4) uint32 draws low-first; uint32 draws are the halves of 64-bit
    words, low half first. A double is (word >> 11) / 2**53, so it is below
    prob exactly where word <= (ceil(prob * 2**53) << 11) - 1, and an event
    takes one word. So from an empty buffer a run of k blocks of h uint32
    halves each is ceil(k*h/2) raw words. Only those from the first read
    block to the last are generated, and `advance`, which empties the
    buffer, passes the rest. An odd k*h leaves the last word's high half
    buffered for the next draw, so then they run on to it and set it in
    `bitgen.state`, the one write of the state.
    """
    import numpy as np

    bitgen = rng.bit_generator
    h = (n + 3) // 4 if prob is None else 2 * n
    total = len(read) * h
    blocks = [i for i, r in enumerate(read) if r]
    start = blocks[0] * h if blocks else total
    stop = (blocks[-1] + 1) * h if blocks and total % 2 == 0 else total
    lo, hi = start // 2, (stop + 1) // 2
    if lo:
        bitgen.advance(lo)
    words = bitgen.random_raw(hi - lo)
    if hi < (total + 1) // 2:
        bitgen.advance((total + 1) // 2 - hi)
    if total % 2:
        state = bitgen.state
        state["has_uint32"], state["uinteger"] = 1, int(words[-1]) >> 32
        bitgen.state = state
    if prob is None:
        data = words.astype("<u8", copy=False).view(np.uint8)
        return [data[4 * (i * h - 2 * lo):][:n] >> 7 if r else np.uint8(0)
                for i, r in enumerate(read)]
    threshold = (math.ceil(prob * 2**53) << 11) - 1
    return [(words[i * n - lo:][:n] <= threshold).view(np.uint8) if r
            else np.uint8(prob) for i, r in enumerate(read)]


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
    import numpy as np

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
    skipped by a plain `advance` past its words, so the stream is the same
    either way.

    Each 0/1 block means `rng.integers(0, 2, n, dtype=np.uint8)` and each
    event block `rng.random(n) < prob`. The blocks come in five runs
    (Alice's pair, Eve's events, Eve's pair, the channel's events, then the
    channel bits with Bob's pair), and each run is drawn at once as raw
    PCG64 words (see `_blocks`): the same values from the same words,
    leaving the same generator state, so every output byte is the one
    those draws would give.

    With ledger=False the session returns only its counts, with records
    None, and skips each block they cannot read. Eve's intercept events at
    f = 0 or 1 and the channel's at p = 0 or 1 are constants. Eve's reads
    are skipped always: one is random only where her basis is wrong, and
    then her resend meets Bob's basis wrong at every sifted position, so
    his own draw decides the bit at any p. The channel's bits are skipped
    at p = 0, where no event fires to read them. At f = 0 nothing is
    resent, so Eve's bases and Bob's reads are skipped: a sifted position
    reads his draw only after a wrong-basis resend. A skipped 0/1 block
    enters the physics as 0, so on this path `_measure`'s Eve reads, and
    its flips at her wrong-basis resends, are not the ledger's. Nothing
    reads them, and a split of the errors by cause counts neither: an
    error at such a resend is Eve's, and the channel's are its flips where
    she did not disturb the qubit. The counts equal the ledger session's.

    Raises EmptySampleError when the sample would be empty; transmit more
    qubits.
    """
    import numpy as np

    rng = np.random.default_rng(config.seed)
    assert isinstance(rng.bit_generator, np.random.PCG64), "the draws and skips assume PCG64"
    n = config.n_qubits
    f = config.eve.fraction_f
    p = config.channel.depolarizing_p

    alice_bits, alice_bases = _blocks(rng, n, (True, True))
    resent, = _blocks(rng, n, (ledger or 0 < f < 1,), f)
    eve_bases, eve_draws = _blocks(rng, n, (ledger or f > 0, ledger))
    depolarized, = _blocks(rng, n, (ledger or 0 < p < 1,), p)
    channel_draws, bob_bases, bob_draws = _blocks(
        rng, n, (ledger or p > 0, True, ledger or f > 0))

    sifted = alice_bases == bob_bases
    sifted_count, sample_idx = _sample(rng, sifted, config.sample_fraction)
    sample_size = sample_idx.size

    eve_bits, flips, bob_bits = _measure(
        alice_bits, alice_bases, resent, eve_bases, eve_draws,
        depolarized, channel_draws, bob_bases, bob_draws)
    errors_k = int(np.count_nonzero((alice_bits ^ bob_bits).take(sample_idx)))

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
    )
