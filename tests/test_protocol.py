import math

import numpy as np
import pytest

from bb84sim.core import Basis, TransmissionRecord
from bb84sim.protocol import (
    ChannelModel,
    EmptySampleError,
    EveStrategy,
    SessionConfig,
    run_session,
)


def _session(n=20_000, f=0.0, p=0.0, seed=42, sample_fraction=0.5):
    config = SessionConfig(
        n, EveStrategy.intercept_resend(f), ChannelModel.depolarizing(p),
        sample_fraction=sample_fraction, seed=seed,
    )
    return run_session(config)


# ---------------------------------------------------------------------------
# configuration objects


def test_channel_model_constructors():
    assert ChannelModel.ideal() == ChannelModel() == ChannelModel.depolarizing(0.0)
    assert ChannelModel.ideal().depolarizing_p == 0.0
    assert ChannelModel.depolarizing(0.3).depolarizing_p == 0.3


def test_channel_model_validation():
    for bad in (-0.1, 1.0001, float("nan")):
        with pytest.raises(ValueError):
            ChannelModel.depolarizing(bad)


def test_eve_strategy_constructors():
    assert EveStrategy.absent() == EveStrategy() == EveStrategy.intercept_resend(0.0)
    assert EveStrategy.absent().fraction_f == 0.0
    assert EveStrategy.intercept_resend(0.3).fraction_f == 0.3


def test_eve_strategy_validation():
    for bad in (-0.2, 1.2, float("nan")):
        with pytest.raises(ValueError):
            EveStrategy.intercept_resend(bad)


def test_session_config_validation():
    ok = SessionConfig(100, EveStrategy.absent(), ChannelModel.ideal())
    assert ok.sample_fraction == 0.5
    assert ok.seed == 42
    with pytest.raises(ValueError):
        SessionConfig(0, EveStrategy.absent(), ChannelModel.ideal())
    for bad_fraction in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            SessionConfig(100, EveStrategy.absent(), ChannelModel.ideal(),
                          sample_fraction=bad_fraction)
    with pytest.raises(ValueError):
        SessionConfig(100, EveStrategy.absent(), ChannelModel.ideal(), seed=-1)
    with pytest.raises(ValueError):
        SessionConfig(100, EveStrategy.absent(), ChannelModel.ideal(), seed=2**64)


# ---------------------------------------------------------------------------
# per-qubit steps, read from the session ledger


def test_prepare_covers_all_states():
    ledger = _session(n=200, seed=0).records
    seen = set(zip(ledger.alice_bits.tolist(), ledger.alice_bases.tolist()))
    assert seen == {(b, basis) for b in (0, 1) for basis in Basis}


def test_measure_mismatched_basis_is_uniform():
    ledger = _session(n=8000, seed=7).records
    mismatched = ledger.alice_bases != ledger.bob_bases
    wrong = int(np.count_nonzero(ledger.bob_bits[mismatched] != ledger.alice_bits[mismatched]))
    n = int(np.count_nonzero(mismatched))
    # a 6-sigma band around n/2 for a fair coin
    assert abs(wrong - n / 2) < 6 * math.sqrt(n * 0.25)


def test_eve_absent_is_identity():
    ledger = _session(n=2000, seed=5).records
    assert not np.any(ledger.eve_intercepted)
    sifted = ledger.sifted
    assert np.array_equal(ledger.bob_bits[sifted], ledger.alice_bits[sifted])


def test_eve_full_interception_mechanics():
    ledger = _session(n=2000, f=1.0, seed=11).records
    assert np.all(ledger.eve_intercepted)
    matched = ledger.eve_bases == ledger.alice_bases
    # a matched-basis read is exact
    assert np.array_equal(ledger.eve_bits[matched], ledger.alice_bits[matched])
    # Eve guesses the preparation basis about half the time
    assert abs(int(np.count_nonzero(matched)) - 1000) < 6 * math.sqrt(2000 * 0.25)


def test_eve_zero_fraction_never_intercepts():
    ledger = _session(n=2000, f=0.0, seed=3).records
    assert not np.any(ledger.eve_intercepted)


def test_channel_ideal_is_identity():
    assert not np.any(_session(n=2000, f=0.5, seed=9).records.channel_flipped)


def test_channel_full_depolarizing_randomizes_bit_keeps_basis():
    ledger = _session(n=4000, p=1.0, seed=13).records
    flips = int(np.count_nonzero(ledger.channel_flipped))
    # replacement by a uniform bit flips half the time
    assert abs(flips - 2000) < 6 * math.sqrt(4000 * 0.25)
    # the basis survives: a sifted read returns the channel's output exactly
    sifted = ledger.sifted
    arriving = ledger.alice_bits ^ ledger.channel_flipped
    assert np.array_equal(ledger.bob_bits[sifted], arriving[sifted])


def test_channel_partial_depolarizing_flip_rate():
    n = 10_000
    ledger = _session(n=n, p=0.4, seed=17).records  # flips with probability 0.2
    flips = int(np.count_nonzero(ledger.channel_flipped))
    assert abs(flips / n - 0.2) < 6 * math.sqrt(0.2 * 0.8 / n)


def test_sift_ledger_fast_path_matches_record_path():
    config = SessionConfig(
        2_000, EveStrategy.intercept_resend(0.5), ChannelModel.ideal(), seed=21
    )
    ledger = run_session(config).records
    by_record = [i for i, rec in enumerate(ledger) if rec.alice_basis == rec.bob_basis]
    assert np.flatnonzero(ledger.sifted).tolist() == by_record


# ---------------------------------------------------------------------------
# full sessions


def test_session_bookkeeping():
    result = _session(n=5_000, f=0.3, seed=1)
    ledger = result.records
    assert len(ledger) == 5_000
    assert result.sifted_count == int(np.count_nonzero(ledger.sifted))
    assert result.estimate.compared_n == math.floor(0.5 * result.sifted_count)
    assert result.estimate.compared_n + result.raw_key_bits == result.sifted_count
    # sampled positions are sifted positions
    assert not np.any(ledger.sampled & ~ledger.sifted)
    assert int(np.count_nonzero(ledger.sampled)) == result.estimate.compared_n


def test_session_error_count_recomputable_from_ledger():
    result = _session(n=20_000, f=0.4, p=0.1, seed=8)
    ledger = result.records
    sampled = ledger.sampled
    k = int(np.count_nonzero(ledger.alice_bits[sampled] != ledger.bob_bits[sampled]))
    assert k == result.estimate.errors_k


def test_every_ledger_record_validates():
    """Materializing a record runs its consistency checks; a full pass over
    a 10,000-qubit attacked noisy session must not raise."""
    result = _session(n=10_000, f=0.3, p=0.2, seed=3)
    records = list(result.records)
    assert len(records) == 10_000
    intercepted = sum(r.eve_intercepted for r in records)
    assert intercepted == int(np.count_nonzero(result.records.eve_intercepted))
    assert 0 < intercepted < 10_000


def test_ledger_sequence_protocol():
    ledger = _session(n=50, seed=2).records
    assert len(ledger) == 50
    assert isinstance(ledger[0], TransmissionRecord)
    assert ledger[-1] == ledger[49]
    with pytest.raises(IndexError):
        ledger[50]
    with pytest.raises(TypeError):
        ledger[0:2]


def test_sifted_fraction_near_half():
    result = _session(n=50_000, seed=4)
    assert abs(result.sifted_count / 50_000 - 0.5) < 6 * math.sqrt(0.25 / 50_000)


def test_no_eve_no_noise_means_no_errors():
    result = _session(n=20_000, seed=5)
    assert result.estimate.errors_k == 0
    assert result.estimate.point_estimate == 0.0


@pytest.mark.parametrize("f", [0.2, 0.6, 1.0])
def test_intercept_resend_error_rate_is_f_over_4(f):
    result = _session(n=50_000, f=f, seed=6)
    q = f / 4.0
    n = result.estimate.compared_n
    sigma = math.sqrt(q * (1.0 - q) / n)
    assert abs(result.estimate.point_estimate - q) < 4 * sigma


def test_depolarizing_error_rate_is_p_over_2():
    result = _session(n=50_000, p=0.2, seed=7)
    n = result.estimate.compared_n
    sigma = math.sqrt(0.1 * 0.9 / n)
    assert abs(result.estimate.point_estimate - 0.1) < 4 * sigma


def test_combined_eve_and_noise_error_rate():
    # error probability p/2 + f/4 - f*p/4: the attack dominates on the
    # positions where Eve guessed wrong, the channel acts on the rest
    f, p = 0.5, 0.2
    expected = p / 2 + f / 4 - f * p / 4
    result = _session(n=50_000, f=f, p=p, seed=9)
    n = result.estimate.compared_n
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(result.estimate.point_estimate - expected) < 4 * sigma


def test_session_determinism():
    a = _session(n=10_000, f=0.3, p=0.1, seed=77)
    b = _session(n=10_000, f=0.3, p=0.1, seed=77)
    assert a.estimate == b.estimate
    assert a.sifted_count == b.sifted_count
    for column in ("alice_bits", "alice_bases", "eve_intercepted", "eve_bases",
                   "eve_bits", "channel_flipped", "bob_bases", "bob_bits",
                   "sifted", "sampled"):
        assert np.array_equal(getattr(a.records, column), getattr(b.records, column))


def test_different_seeds_differ():
    a = _session(n=10_000, f=0.3, seed=1)
    b = _session(n=10_000, f=0.3, seed=2)
    assert not np.array_equal(a.records.alice_bits, b.records.alice_bits)


def test_absent_equals_zero_fraction_bit_for_bit():
    kw = dict(n_qubits=10_000, channel=ChannelModel.ideal(), seed=31)
    a = run_session(SessionConfig(eve=EveStrategy.absent(), **kw))
    b = run_session(SessionConfig(eve=EveStrategy.intercept_resend(0.0), **kw))
    assert a.estimate == b.estimate
    assert np.array_equal(a.records.bob_bits, b.records.bob_bits)
    assert np.array_equal(a.records.sampled, b.records.sampled)


def test_ideal_equals_zero_depolarizing_bit_for_bit():
    kw = dict(n_qubits=10_000, eve=EveStrategy.intercept_resend(0.4), seed=32)
    a = run_session(SessionConfig(channel=ChannelModel.ideal(), **kw))
    b = run_session(SessionConfig(channel=ChannelModel.depolarizing(0.0), **kw))
    assert a.estimate == b.estimate
    assert np.array_equal(a.records.bob_bits, b.records.bob_bits)
    assert np.array_equal(a.records.sampled, b.records.sampled)


def test_sample_fraction_controls_compared_count():
    result = _session(n=20_000, seed=12, sample_fraction=0.25)
    assert result.estimate.compared_n == math.floor(0.25 * result.sifted_count)


def test_empty_sample_raises():
    with pytest.raises(EmptySampleError):
        _session(n=1, seed=0)


def test_intercepted_positions_match_fraction():
    result = _session(n=50_000, f=0.3, seed=14)
    count = int(np.count_nonzero(result.records.eve_intercepted))
    assert abs(count / 50_000 - 0.3) < 6 * math.sqrt(0.3 * 0.7 / 50_000)
