"""Property-based checks of the per-qubit physics on a session's ledger.

Every qubit of a vectorized session must obey the scalar rules: bits and
bases are 0 or 1, a position is sifted exactly when Alice's and Bob's bases
agree, a matched-basis read returns the encoded bit, and the channel's flip
is the only change between the state that was sent on and the bit that
arrives.
The sift and sample counts must agree with the ledger for any config, and
the counts-only session (`ledger=False`) must return the same counts.
"""

import math

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from bb84sim.protocol import (
    ChannelModel,
    EmptySampleError,
    EveStrategy,
    SessionConfig,
    run_session,
)

unit = st.floats(0.0, 1.0)


@settings(deadline=None)
@given(
    n=st.integers(2, 2000),
    f=unit,
    p=unit,
    seed=st.integers(0, 2**64 - 1),
    sample_fraction=st.floats(0.05, 0.95),
)
def test_ledger_obeys_per_qubit_rules(n, f, p, seed, sample_fraction):
    config = SessionConfig(
        n, EveStrategy.intercept_resend(f), ChannelModel.depolarizing(p),
        sample_fraction=sample_fraction, seed=seed,
    )
    try:
        result = run_session(config)
    except EmptySampleError:
        reject()
    led = result.records

    for column in (led.alice_bits, led.alice_bases, led.eve_bases, led.eve_bits,
                   led.bob_bases, led.bob_bits):
        assert set(np.unique(column).tolist()) <= {0, 1}
    assert np.array_equal(led.sifted, led.alice_bases == led.bob_bases)

    intercepted = led.eve_intercepted
    # Eve reads Alice's bit exactly when she guesses the preparation basis.
    eve_matched = intercepted & (led.eve_bases == led.alice_bases)
    assert np.array_equal(led.eve_bits[eve_matched], led.alice_bits[eve_matched])

    # The state in flight is Eve's resend where she intercepted, else Alice's.
    state_bits = np.where(intercepted, led.eve_bits, led.alice_bits)
    state_bases = np.where(intercepted, led.eve_bases, led.alice_bases)
    bob_matched = led.bob_bases == state_bases
    arriving = state_bits ^ led.channel_flipped
    assert np.array_equal(led.bob_bits[bob_matched], arriving[bob_matched])

    assert not np.any(led.sampled & ~led.sifted)
    errors = int(np.count_nonzero(led.sampled & (led.alice_bits != led.bob_bits)))
    assert errors == result.estimate.errors_k


@settings(deadline=None)
@given(
    n=st.integers(2, 2000),
    f=unit,
    p=unit,
    seed=st.integers(0, 2**64 - 1),
    sample_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_sample_bookkeeping_matches_the_ledger(n, f, p, seed, sample_fraction):
    config = SessionConfig(
        n, EveStrategy.intercept_resend(f), ChannelModel.depolarizing(p),
        sample_fraction=sample_fraction, seed=seed,
    )
    try:
        result = run_session(config)
    except EmptySampleError:
        reject()
    led = result.records
    compared_n = result.estimate.compared_n

    assert compared_n + result.raw_key_bits == result.sifted_count
    assert compared_n == math.floor(sample_fraction * result.sifted_count)
    assert np.count_nonzero(led.sampled) == compared_n
    assert not np.any(led.sampled & ~led.sifted)
    assert result.estimate.errors_k <= compared_n


# 0 and 1 are where the counts-only session skips blocks.
edge_or_unit = st.one_of(st.sampled_from([0.0, 1.0]), unit)


def _outcome(config, ledger):
    """A session's counts, or the message of the EmptySampleError it raised."""
    try:
        result = run_session(config, ledger=ledger)
    except EmptySampleError as exc:
        return f"EmptySampleError: {exc}"
    assert (result.records is None) == (not ledger)
    return result.sifted_count, result.estimate, result.raw_key_bits


@settings(deadline=None)
@given(
    # tiny and odd n leave PCG64 holding a buffered half-word between blocks
    n=st.one_of(st.integers(1, 9), st.integers(10, 3000)),
    f=edge_or_unit,
    p=edge_or_unit,
    seed=st.integers(0, 2**64 - 1),
    sample_fraction=st.one_of(
        st.floats(1e-6, 0.02),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.98, 1.0, exclude_max=True),
    ),
)
def test_counts_only_session_matches_the_ledger_session(n, f, p, seed, sample_fraction):
    config = SessionConfig(
        n, EveStrategy.intercept_resend(f), ChannelModel.depolarizing(p),
        sample_fraction=sample_fraction, seed=seed,
    )
    assert _outcome(config, ledger=False) == _outcome(config, ledger=True)


# Sessions of the size a sweep runs, with ceil(n/4) odd (49,999 and 50,001)
# and even (50,000). About 25,000 positions are sifted, so a sample fraction
# of 0.5 makes `choice` shuffle a tail and 0.01 makes it use Floyd's
# algorithm.
@pytest.mark.parametrize("sample_fraction", [0.5, 0.01])
@pytest.mark.parametrize("p", [0.0, 0.05, 1.0])
@pytest.mark.parametrize("f", [0.0, 0.35, 1.0])
@pytest.mark.parametrize("n", [49_999, 50_000, 50_001])
def test_large_counts_only_session_matches_the_ledger_session(n, f, p, sample_fraction):
    config = SessionConfig(
        n, EveStrategy.intercept_resend(f), ChannelModel.depolarizing(p),
        sample_fraction=sample_fraction, seed=n,
    )
    assert _outcome(config, ledger=False) == _outcome(config, ledger=True)
