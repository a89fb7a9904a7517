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
block is drawn as raw PCG64 words, byte for byte the `rng.integers` and
`rng.random` draws that define the stream: 0/1 blocks as runs of adjacent
blocks, event blocks one at a time and read only at 0 < prob < 1. The
physics works on those bytes as they are: a 0/1 value is bit 7 of its
byte, an event block is a 0x00/0xFF mask, and the bits are tracked as
errors, differences from Alice's bit. Only the ledger turns its columns
into 0/1 values. A block that no returned value reads is passed with a
plain `advance`, which leaves the stream as is, and enters the physics as
the constant 0, which skips every term that reads it. Sweeps call it with
ledger=False, which returns the same counts without the ledger.

numpy is imported by each function that calls it, not with the module, so
`import bb84sim` and the security threshold run without it. Once numpy is
loaded such an import costs about 0.2 us; a session makes eight, in about
500 us. The module itself still loads with the package, as every bb84sim
module does, so code that looks the modules up in `sys.modules` or as
package attributes, as perfbench does, need not import them first.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .core import QberEstimate, Value, check_probability

if TYPE_CHECKING:
    import numpy as np


class EmptySampleError(RuntimeError):
    """Raised when a session cannot spare any sifted bits for comparison, which
    only its sifting tells. Every runner raises it unchanged, and the CLI exits
    1; the caller should increase n_qubits (or the sample fraction)."""


class ChannelModel(Value):
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


class EveStrategy(Value):
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


class SessionConfig(Value):
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


class TransmissionLedger(Value):
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

    __eq__, __hash__ = object.__eq__, object.__hash__

    def __post_init__(self) -> None:
        n = len(self.alice_bits)
        if any(len(getattr(self, name)) != n for name in self.__slots__):
            raise ValueError("all ledger columns must have equal length")

    def __len__(self) -> int:
        return len(self.alice_bits)


class SessionResult(Value):
    """Outcome of one session: the ledger (None for a counts-only session)
    plus sift/sample bookkeeping."""

    records: TransmissionLedger | None
    sifted_count: int
    estimate: QberEstimate

    def __post_init__(self) -> None:
        if self.records is not None:
            import numpy as np

            if self.sifted_count != int(np.count_nonzero(self.records.sifted)):
                raise ValueError("sifted_count does not match the ledger")

    @property
    def raw_key_bits(self) -> int:
        """Sifted bits left for the key once the compared sample is spent."""
        return self.sifted_count - self.estimate.compared_n


def _blocks(rng: np.random.Generator, n: int,
            read: tuple[bool, ...]) -> list[np.ndarray | np.uint8]:
    """A run of adjacent 0/1 blocks of n draws, one per flag of `read`, from
    raw PCG64 words, leaving the generator where consecutive
    `rng.integers(0, 2, n, dtype=np.uint8)` draws would. A read block is the
    raw bytes the draw reads, its value in bit 7; an unread one is not
    generated and is the constant 0. Precondition, met by `run_session`:
    PCG64 holds no buffered uint32 half-word.

    numpy draws range-2 uint8 values by Lemire's method, which never rejects
    (256 is even) and returns the top bit of each byte, taking the bytes of
    ceil(n/4) uint32 draws low-first; uint32 draws are the halves of 64-bit
    words, low half first. So from an empty buffer a run of k blocks of h
    uint32 halves each is ceil(k*h/2) raw words. Only those from the first
    read block to the last are generated, and `advance`, which empties the
    buffer, passes the rest. An odd k*h leaves the last word's high half
    buffered for the next draw, so then they run on to it and set it in
    `bitgen.state`, the one write of the state.
    """
    import numpy as np

    bitgen = rng.bit_generator
    h = (n + 3) // 4
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
    data = words.astype("<u8", copy=False).view(np.uint8)
    return [data[4 * (i * h - 2 * lo):][:n] if r else np.uint8(0)
            for i, r in enumerate(read)]


def _events(rng: np.random.Generator, n: int, prob: float) -> np.ndarray | np.uint8:
    """The event block `rng.random(n) < prob` as a uint8 mask, 0xFF where an
    event fires and 0x00 elsewhere, leaving the generator where the draw
    would, under the precondition of `_blocks`. A double is one raw PCG64
    word, (word >> 11) / 2**53, so only 0 < prob < 1 is drawn; at 0 or 1
    every event is known, `advance` passes the n words and the mask is the
    constant 0x00 or 0xFF."""
    import numpy as np

    if not 0 < prob < 1:
        rng.bit_generator.advance(n)
        return np.uint8(0xFF if prob else 0)
    threshold = (math.ceil(prob * 2**53) << 11) - 1
    mask = (rng.bit_generator.random_raw(n) <= threshold).view(np.uint8)
    np.subtract(0, mask, out=mask)  # 0 - 1 is 0xFF in uint8
    return mask


def _skipped(x) -> bool:
    """Whether x is the constant 0 that stands for a block not generated or
    for events that never fire."""
    return x.ndim == 0 and not x


def _and(x, mask):
    """x & mask as a new array, or the constant 0 where either is that
    constant."""
    return x if _skipped(x) else mask if _skipped(mask) else x & mask


def _xor(out, x):
    """out ^ x, written into out where both are arrays, so out must be an
    array that nothing else holds; where either is the constant 0, the
    other."""
    if _skipped(out) or _skipped(x):
        return x if _skipped(out) else out
    out ^= x
    return out


def _select(draw, mask, alice_bits, error=None):
    """(draw ^ alice_bits ^ error) & mask as a new array: the change to an
    error, a bit's difference from Alice's, that sets it to the draw's where
    mask is set; None is no error. This is the select d ^ ((a ^ d) & m), a
    where m is set and d elsewhere, taken relative to Alice's bit. Where the
    draw or the mask is the constant 0, so is the change, at no cost."""
    if _skipped(draw) or _skipped(mask):
        return draw if _skipped(draw) else mask
    out = draw ^ alice_bits
    if error is not None:
        out = _xor(out, error)
    out &= mask
    return out


def _measure(alice_bits, alice_bases, resent, eve_bases, eve_draws,
             depolarized, channel_draws, bob_bases, bob_draws):
    """The per-qubit physics on the blocks of `_blocks`: bytes read at bit
    7, 0x00/0xFF event masks, or 0-d constants that broadcast. Returns
    Eve's error, the channel's flips and Bob's error, each read at bit 7;
    an error is a bit's difference from Alice's.

    A term whose draw or mask is the constant 0 is skipped: every term of a
    block not generated, and of events that never fire, as the whole
    channel at p = 0. Arrays made here are updated in place, so at most
    five of them are live at once.
    """
    # Eve measures: her own basis reads Alice's bit, a mismatch her draw.
    eve_wrong = alice_bases if _skipped(eve_bases) else eve_bases ^ alice_bases
    eve_err = _select(eve_draws, eve_wrong, alice_bits)
    # She resends what she read, in her basis, where she intercepts.
    sent_err, sent_wrong = _and(eve_err, resent), _and(eve_wrong, resent)
    del eve_wrong
    # The channel replaces the bit by its draw where it depolarizes.
    flips = _select(channel_draws, depolarized, alice_bits, sent_err)
    state_err = _xor(sent_err, flips)
    del sent_err
    # Bob reads the state's bit in its own basis, his draw in the other.
    bob_wrong = _xor(bob_bases ^ alice_bases, sent_wrong)
    del sent_wrong
    bob_err = _xor(_select(bob_draws, bob_wrong, alice_bits, state_err), state_err)
    return eve_err, flips, bob_err


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
    event block `rng.random(n) < prob`. Three 0/1 runs (Alice's pair, Eve's
    pair, the channel bits with Bob's pair; see `_blocks`) and two event
    blocks (Eve's, the channel's; see `_events`) are drawn as raw PCG64
    words: the same values from the same words, leaving the same generator
    state, so every output byte is the one those draws give. The session
    computes on the blocks' raw bytes (see `_measure`): a position is sifted
    where bit 7 of alice_bases ^ bob_bases is 0, and errors_k counts bit 7
    of Bob's error at the sampled positions. Only the ledger converts its
    columns to 0/1, each in place on a buffer the session already holds.

    A block is generated only where a value the session returns reads it:
    an event block at 0 < prob < 1, the channel's bits at p > 0. With
    ledger=False the session returns only its counts, with records None,
    and they read fewer blocks. Never Eve's reads: one is random only where
    her basis is wrong, and then her resend meets Bob's basis wrong at
    every sifted position, so his own draw decides the bit at any p. At
    f = 0 nothing is resent, so neither Eve's bases nor Bob's reads: a
    sifted position reads his draw only after a wrong-basis resend. A
    skipped 0/1 block enters the physics as the constant 0 and its terms
    are skipped, so here `_measure`'s Eve error is 0, and its flips at her
    wrong-basis resends, and at f = 0 Bob's error where he is not sifted,
    are not the ledger's. Nothing reads them, and a split of the errors by
    cause counts none: an error at such a resend is Eve's, and the
    channel's are its flips where she did not disturb the qubit. The
    counts equal the ledger's.

    Raises EmptySampleError when the sifted key is too short to spare a bit
    for the sample, which only the sifting shows; transmit more qubits.
    """
    import numpy as np

    rng = np.random.default_rng(config.seed)
    assert isinstance(rng.bit_generator, np.random.PCG64), "the draws and skips assume PCG64"
    n = config.n_qubits
    f = config.eve.fraction_f
    p = config.channel.depolarizing_p

    alice_bits, alice_bases = _blocks(rng, n, (True, True))
    resent = _events(rng, n, f)
    eve_bases, eve_draws = _blocks(rng, n, (ledger or f > 0, ledger))
    depolarized = _events(rng, n, p)
    channel_draws, bob_bases, bob_draws = _blocks(
        rng, n, (p > 0, True, ledger or f > 0))

    sifted = (alice_bases ^ bob_bases) < 0x80
    sifted_count, sample_idx = _sample(rng, sifted, config.sample_fraction)
    sample_size = sample_idx.size

    eve_err, flips, bob_err = _measure(
        alice_bits, alice_bases, resent, eve_bases, eve_draws,
        depolarized, channel_draws, bob_bases, bob_draws)
    errors_k = int(np.count_nonzero(bob_err.take(sample_idx) >> 7)) if bob_err.ndim else 0

    records = None
    if ledger:
        # The ledger's 0/1 columns, each made in place from its bytes.
        eve_err ^= alice_bits
        bob_err ^= alice_bits
        for column in (alice_bits, alice_bases, resent, eve_bases, eve_err,
                       flips, bob_bases, bob_err):
            if column.ndim:
                np.right_shift(column, 7, out=column)
        sampled = np.zeros(n, dtype=bool)
        sampled[sample_idx] = True
        records = TransmissionLedger(
            alice_bits=alice_bits,
            alice_bases=alice_bases,
            eve_intercepted=resent.view(bool) if resent.ndim else np.full(n, bool(resent)),
            eve_bases=eve_bases,
            eve_bits=eve_err,
            channel_flipped=flips.view(bool) if flips.ndim else np.zeros(n, dtype=bool),
            bob_bases=bob_bases,
            bob_bits=bob_err,
            sifted=sifted,
            sampled=sampled,
        )
    return SessionResult(
        records=records,
        sifted_count=sifted_count,
        estimate=QberEstimate(errors_k, sample_size),
    )
