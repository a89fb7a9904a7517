"""Golden bytes of whole sessions, the draw identity they rest on, and a
one-qubit-at-a-time reference that reproduces them.

Each digest is a sha256 over every ledger column's dtype and raw bytes,
followed by (sifted_count, errors_k, compared_n). Any change to the random
stream, its block order or the per-qubit physics changes a digest, so a
speed-up that claims to be byte-identical is checked here first. At
n = 1,001 and 50,001, ceil(n/4) is odd: `integers` draws of the 0/1 blocks
leave PCG64 holding a buffered half-word between blocks, and the session's
last run of three blocks leaves one for the sample choice.
"""

import hashlib
import itertools
import math

import numpy as np
import pytest

from bb84sim.protocol import (
    ChannelModel,
    EveStrategy,
    SessionConfig,
    _blocks,
    run_session,
)

COLUMNS = (
    "alice_bits", "alice_bases", "eve_intercepted", "eve_bases", "eve_bits",
    "channel_flipped", "bob_bases", "bob_bits", "sifted", "sampled",
)

# (eve fraction, depolarizing p or None for the ideal channel, n_qubits) -> digest
GOLDEN = {
    (0.0, None, 7): "5dbe5ea13f4e4e76cfa5d8bc6317c50c8cb8fa6f273a330d1cf7ff9ce947f82b",
    (0.0, None, 1_001): "0447ebdacf3577b1f163f85572d4b74e7bf8355abcb15f62abcdffa394ad98c4",
    (0.0, None, 50_001): "9b2aa82eb01095c768400d84c5043b5d550c8c1f1ab3d5c5a10e3cf803724242",
    (0.5, None, 7): "fcfe41543cb02ab6679e477e9a9a1356ee481252dcc19b4bfd428214965c0ff6",
    (0.5, None, 1_001): "4f65f679eec75c6f06c0152f0f21e98b1af4b8446d5ae66f197832008e451554",
    (0.5, None, 50_001): "207752c832fb4b5477d88153f92be359a0388111e8b6a8a6f0528c9e8761d50a",
    (1.0, None, 7): "c88975bdab8f30fa4cbf7cbb40e9b7571c9af058082e087e374ed84323af84bf",
    (1.0, None, 1_001): "a84a50d4420d6d527845a2c810b6b30f10c79c25e86e78b1d25060c8e34c45c6",
    (1.0, None, 50_001): "ec83fe05000e35d1995d50e7e9b7f38a4d6f77e8618590e3a2d5b825151ec72c",
    (0.3, 0.05, 7): "fcfe41543cb02ab6679e477e9a9a1356ee481252dcc19b4bfd428214965c0ff6",
    (0.3, 0.05, 1_001): "316221c0b0a930749fb1460c61ea559d7c3572d21d97a6ce443dfb89c473a4aa",
    (0.3, 0.05, 50_001): "3e62c8b938ac6db1bfc3736604004aa3d5d2a0b86f5f41cbf21c29f3888d2693",
    (0.3, 1.0, 7): "af9dc7c3df3b9a2790d0ace4701483b3144b1c1a7c669d82280efce91909a584",
    (0.3, 1.0, 1_001): "654f3cac0c95f82f4497d55558227e9dfde83c637190c229aaecb3b9a67536df",
    (0.3, 1.0, 50_001): "260950e137f83c4cbab7404f5311edae3f914c1f51aef29fa9a73c934d82e223",
}


def session_digest(f, p, n):
    eve = EveStrategy.intercept_resend(f) if f > 0 else EveStrategy.absent()
    channel = ChannelModel.depolarizing(p) if p is not None else ChannelModel.ideal()
    result = run_session(SessionConfig(n, eve, channel, seed=42))
    h = hashlib.sha256()
    for name in COLUMNS:
        column = getattr(result.records, name)
        h.update(f"{name}:{column.dtype.str}:".encode())
        h.update(column.tobytes())
    est = result.estimate
    h.update(repr((result.sifted_count, est.errors_k, est.compared_n)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "f, p, n", list(GOLDEN),
    ids=[f"f{f}-{'ideal' if p is None else f'p{p}'}-n{n}" for f, p, n in GOLDEN],
)
def test_session_bytes_are_golden(f, p, n):
    assert session_digest(f, p, n) == GOLDEN[(f, p, n)]


GOLDEN_FP = list(dict.fromkeys((f, p) for f, p, _ in GOLDEN))


@pytest.mark.parametrize("f, p", GOLDEN_FP, ids=[
    f"f{f}-{'ideal' if p is None else f'p{p}'}" for f, p in GOLDEN_FP])
def test_ledger_columns_are_whole_writable_arrays(f, p):
    """Every ledger column is a contiguous, writable array of length n,
    also where its block was not generated and its value is a constant."""
    channel = ChannelModel.depolarizing(p) if p is not None else ChannelModel.ideal()
    records = run_session(SessionConfig(1_001, EveStrategy(f), channel)).records
    for name in COLUMNS:
        column = getattr(records, name)
        assert column.shape == (1_001,), name
        assert column.flags.c_contiguous and column.flags.writeable, name


def _uint32_buffer(bitgen):
    """PCG64's state with its uint32 buffer as it affects later draws: the
    `uinteger` a used half-word leaves behind is stale and never read."""
    state = bitgen.state
    return state["state"], state["has_uint32"], state["uinteger"] if state["has_uint32"] else None


# Draws after which the generator must agree, read through its uint32 buffer.
NEXT_DRAWS = (
    lambda gen, n: gen.integers(0, 2**20, 5),
    lambda gen, n: gen.random(3),
    lambda gen, n: gen.choice(n + 7, size=5, replace=False),
)


class CountingPCG64(np.random.PCG64):
    """PCG64 that counts the raw words its `random_raw` generates. The
    Generator's own draws do not go through it."""

    words = 0

    def random_raw(self, size=None, output=True):
        self.words += 1 if size is None else size
        return super().random_raw(size, output)


def words_generated(n, read, prob=None):
    """The raw words `_blocks(rng, n, read, prob)` generates from an empty
    buffer: from the first word of the first read block to the last word of
    the last one, or to the run's last word when its uint32 draws are odd,
    since that word's high half stays buffered. A 0/1 block is ceil(n/4)
    uint32 draws and an event block n whole words, so an unread event block
    generates none."""
    h = (n + 3) // 4 if prob is None else 2 * n
    spans = [(i * h // 2, ((i + 1) * h - 1) // 2) for i, r in enumerate(read) if r]
    if len(read) * h % 2:
        spans.append(((len(read) * h - 1) // 2,) * 2)
    return spans[-1][1] - spans[0][0] + 1 if spans else 0


READ_MASKS = [read for k in (1, 2, 3) for read in itertools.product((True, False), repeat=k)]

# (prob, read) of each run: None for 0/1 blocks, else the event probability.
# An event block is only left unread where every event is known, at 0 or 1.
# 1e-300 fires only on a word below 2**11, and 1 - 2**-53 on every word but
# the top 2**11.
RUNS = [
    *((None, read) for read in READ_MASKS),
    *((prob, read) for prob in (0.0, 1.0) for read in READ_MASKS),
    *((prob, read) for prob in (1e-300, 0.35, 1 - 2**-53)
      for read in READ_MASKS if all(read)),
]


# n = 1..40 covers every remainder mod 4 and mod 8 around a few words, and
# k * ceil(n/4) of either parity for each k.
@pytest.mark.parametrize("n", [*range(1, 41), 999, 1_000, 1_001, 49_999, 50_000, 50_001])
@pytest.mark.parametrize("earlier", [0, 3], ids=["fresh", "after-odd-draw"])
def test_random_bits_match_integers_draw(n, earlier):
    """For every run of `RUNS`, each read block of `_blocks(rng, n, read,
    prob)` is the matching one of k consecutive draws, each unread one is
    the constant 0 or prob, and the generator is left where those draws
    leave it: the same state and uint32 buffer, and the same next
    `integers`, `random` and `choice` draws. A 0/1 block is the draw
    `rng.integers(0, 2, n, dtype=np.uint8)`, an event block
    `rng.random(n) < prob`. The helper generates only the words of
    `words_generated`, so an unread block at a word boundary costs none.

    `run_session` calls the helper on a fresh generator or after a run of
    whole words, which leaves the buffer empty, as the helper requires;
    `earlier` = 3 doubles stands for the latter."""
    for prob, read in RUNS:
        ref = np.random.default_rng(2024)
        rng = np.random.Generator(CountingPCG64(2024))
        for gen in (ref, rng):
            gen.random(earlier)
        if prob is None:
            expected = [ref.integers(0, 2, n, dtype=np.uint8) for _ in read]
        else:
            expected = [(ref.random(n) < prob).view(np.uint8) for _ in read]
        got = _blocks(rng, n, read, prob)
        case = prob, read
        assert len(got) == len(read)
        for block, want, is_read in zip(got, expected, read):
            if is_read:
                assert block.dtype == want.dtype
                assert np.array_equal(block, want), case
            else:
                assert block.shape == () and block == (prob or 0), case
        assert rng.bit_generator.words == words_generated(n, read, prob), case
        assert _uint32_buffer(rng.bit_generator) == _uint32_buffer(ref.bit_generator), case
        for draw in NEXT_DRAWS:
            assert np.array_equal(draw(rng, n), draw(ref, n)), case


class FixedWordsPCG64(np.random.PCG64):
    """PCG64 whose `random_raw` returns the given words."""

    def __init__(self, words):
        super().__init__(0)
        self.fixed = np.array(words, dtype=np.uint64)

    def random_raw(self, size=None, output=True):
        return self.fixed[:size]


@pytest.mark.parametrize("prob", [0.0, 1e-300, 2**-53, 0.35, 0.5, 1 - 2**-53, 1.0])
def test_event_fires_exactly_where_the_double_is_below_prob(prob):
    """numpy's double from a PCG64 word is (word >> 11) / 2**53, and an
    event block fires on a word exactly where that double is below prob,
    checked on the words at either side of the threshold, where random
    draws never land."""
    raw = np.random.PCG64(7).random_raw(5)
    assert np.array_equal(np.random.default_rng(7).random(5), (raw >> 11) / 2**53)
    edge = math.ceil(prob * 2**53) << 11
    words = [w for w in (0, 1, 2**11 - 1, 2**11, edge - 2**11 - 1, edge - 2**11,
                         edge - 1, edge, edge + 2**11 - 1, edge + 2**11, 2**64 - 1)
             if 0 <= w < 2**64]
    got, = _blocks(np.random.Generator(FixedWordsPCG64(words)), len(words), (True,), prob)
    assert got.tolist() == [int((w >> 11) / 2**53 < prob) for w in words]


# At n = 50,000 a 0/1 block is 12,500 uint32 draws, 6,250 whole words, so
# each unread block at either end of a run generates none; an event block is
# 50,000 words, or none when unread.
@pytest.mark.parametrize("f, p, ledger, words", [
    pytest.param(0.35, 0.0, True, 87_500, id="ledger"),
    pytest.param(0.0, 0.0, True, 37_500, id="ledger-f0-p0"),
    pytest.param(1.0, 1.0, True, 43_750, id="ledger-f1-p1"),
    pytest.param(0.35, 0.05, True, 143_750, id="ledger-f-p"),
    pytest.param(0.35, 0.0, False, 81_250, id="f-p0"),
    pytest.param(0.0, 0.0, False, 18_750, id="f0-p0"),
    pytest.param(0.35, 0.05, False, 137_500, id="f-p"),
    pytest.param(0.0, 0.05, False, 75_000, id="f0-p"),
])
def test_session_generates_only_the_bit_words_its_counts_read(f, p, ledger, words, monkeypatch):
    """The raw words of a session's random blocks, `choice` aside. A
    block is generated only where a value the session returns reads it.
    Neither session reads Eve's events at f = 0 or 1, the channel's at
    p = 0 or 1, or the channel's bits at p = 0. The ledger reads every other
    block, as at f = 0.35, p = 0.05; the counts also leave out Eve's reads,
    and at f = 0 Eve's bases and Bob's reads."""
    bitgens = []

    def counting_rng(seed):
        bitgens.append(CountingPCG64(seed))
        return np.random.Generator(bitgens[-1])

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    run_session(SessionConfig(50_000, EveStrategy.intercept_resend(f),
                              ChannelModel.depolarizing(p)), ledger=ledger)
    assert [bitgen.words for bitgen in bitgens] == [words]


# Each draw and the skip that stands for it: `_blocks` with no block read.
# `random` is one `rng.random(n)` block, skipped as `run_session` skips the
# channel's events at p = 0. `bytes` is a pair of 0/1 blocks, whose uint32
# words two `rng.bytes(n)` draws take, skipped as Eve's pair at f = 0.
DRAWS_AND_SKIPS = {
    "random": (lambda gen, n: gen.random(n),
               lambda gen, n: _blocks(gen, n, (False,), 0.0)),
    "bytes": (lambda gen, n: (gen.bytes(n), gen.bytes(n)),
              lambda gen, n: _blocks(gen, n, (False, False))),
}

# The states a skip starts from. A skip is only made from an empty buffer,
# after whole-word draws, so the odd earlier draw is of 3 doubles; 5 leading
# bytes leave a used half-word, an empty buffer with a stale `uinteger`.
EARLIER_DRAWS = {
    "fresh": lambda gen: None,
    "after-odd-draw": lambda gen: gen.random(3),
    "after-used-half-word": lambda gen: gen.integers(0, 2, 5, dtype=np.uint8),
}


@pytest.mark.parametrize("n", [*range(1, 18), 1_001, 49_999, 50_000, 50_001])
@pytest.mark.parametrize("earlier", list(EARLIER_DRAWS))
@pytest.mark.parametrize("draw", ["bytes", "random"])
def test_skip_leaves_the_state_of_the_draw(n, earlier, draw):
    """Each skip leaves the generator where its draw does: the same 128-bit
    state and uint32 buffer, and the same next `integers`, `random` and
    `choice` draws. The draws leave a used half-word's high half as a stale
    `uinteger`, which no draw reads and `advance` does not keep."""
    ref, rng = np.random.default_rng(2024), np.random.default_rng(2024)
    for gen in (ref, rng):
        EARLIER_DRAWS[earlier](gen)
    take, skip = DRAWS_AND_SKIPS[draw]
    take(ref, n)
    skip(rng, n)
    assert _uint32_buffer(rng.bit_generator) == _uint32_buffer(ref.bit_generator)
    for next_draw in NEXT_DRAWS:
        assert np.array_equal(next_draw(rng, n), next_draw(ref, n))


def reference_session(f, p, n, sample_fraction=0.5, seed=42):
    """The session of `run_session`, from plain `rng.integers`/`rng.random`
    draws in its documented block order and a per-qubit Python loop.

    Returns the 10 ledger columns as lists and (sifted_count, errors_k,
    compared_n). Eve's read is recorded at every position, as in the ledger,
    though only intercepted positions use it.
    """
    rng = np.random.default_rng(seed)

    def bits():
        return rng.integers(0, 2, n, dtype=np.uint8).tolist()

    alice_bits, alice_bases = bits(), bits()
    intercept_draws = rng.random(n).tolist()
    eve_bases, eve_draws = bits(), bits()
    depolarize_draws = rng.random(n).tolist()
    channel_draws = bits()
    bob_bases, bob_draws = bits(), bits()

    cols = {name: [] for name in COLUMNS}
    for i in range(n):
        bit, basis = alice_bits[i], alice_bases[i]
        intercepted = intercept_draws[i] < f
        # A read in the preparation basis returns the bit, otherwise a coin.
        eve_bit = bit if eve_bases[i] == basis else eve_draws[i]
        if intercepted:
            bit, basis = eve_bit, eve_bases[i]
        flipped = False
        if depolarize_draws[i] < p:
            flipped = channel_draws[i] != bit
            bit = channel_draws[i]
        bob_bit = bit if bob_bases[i] == basis else bob_draws[i]
        row = (
            alice_bits[i], alice_bases[i], intercepted, eve_bases[i], eve_bit,
            flipped, bob_bases[i], bob_bit, alice_bases[i] == bob_bases[i], False,
        )
        for name, value in zip(COLUMNS, row):
            cols[name].append(value)

    sifted_idx = [i for i in range(n) if cols["sifted"][i]]
    sample_size = math.floor(sample_fraction * len(sifted_idx))
    sample = rng.choice(np.array(sifted_idx), size=sample_size, replace=False).tolist()
    for i in sample:
        cols["sampled"][i] = True
    errors_k = sum(cols["alice_bits"][i] != cols["bob_bits"][i] for i in sample)
    return cols, (len(sifted_idx), errors_k, sample_size)


@pytest.mark.parametrize(
    "f, p, n", list(GOLDEN),
    ids=[f"f{f}-{'ideal' if p is None else f'p{p}'}-n{n}" for f, p, n in GOLDEN],
)
def test_session_matches_per_qubit_reference(f, p, n):
    cols, counts = reference_session(f, 0.0 if p is None else p, n)
    result = run_session(SessionConfig(
        n, EveStrategy.intercept_resend(f),
        ChannelModel.depolarizing(0.0 if p is None else p), seed=42,
    ))
    for name in COLUMNS:
        assert getattr(result.records, name).tolist() == cols[name], name
    est = result.estimate
    assert (result.sifted_count, est.errors_k, est.compared_n) == counts
