import math

import pytest

from bb84sim.core import ConfidenceInterval, Decision, QberEstimate
from bb84sim.decision import (
    DecisionPolicy,
    binary_entropy,
    decide,
    key_rate,
    threshold_root,
)

# Frozen from a 40-digit evaluation of -q log2 q - (1-q) log2 (1-q) and of
# the root of 1 - 2 H2(q) (independent high-precision arithmetic).
H2_005 = 0.28639695711595613
H2_011 = 0.499915958164528
H2_025 = 0.81127812445913286
RATE_005 = 0.42720608576808774
RATE_025 = -0.62255624891826573
ROOT = 0.11002786443836034


def test_entropy_endpoints_and_peak():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)


def test_entropy_frozen_values():
    assert binary_entropy(0.05) == pytest.approx(H2_005, abs=1e-12)
    assert binary_entropy(0.11) == pytest.approx(H2_011, abs=1e-12)
    assert binary_entropy(0.25) == pytest.approx(H2_025, abs=1e-12)


def test_entropy_symmetry():
    for q in (0.01, 0.1, 0.3, 0.49):
        assert binary_entropy(q) == pytest.approx(binary_entropy(1.0 - q), abs=1e-14)


@pytest.mark.parametrize("bad", [-0.1, 1.1])
def test_entropy_domain(bad):
    with pytest.raises(ValueError):
        binary_entropy(bad)


def test_key_rate_frozen_values():
    assert key_rate(0.0).rate == 1.0
    assert key_rate(0.05).rate == pytest.approx(RATE_005, abs=1e-12)
    assert key_rate(0.25).rate == pytest.approx(RATE_025, abs=1e-12)
    assert key_rate(0.5).rate == pytest.approx(-1.0, abs=1e-12)


def test_key_rate_secure_flag():
    assert key_rate(0.0).secure
    assert key_rate(0.05).secure
    assert not key_rate(0.25).secure
    assert not key_rate(0.5).secure


def test_key_rate_monotone_decreasing():
    rates = [key_rate(q).rate for q in (0.0, 0.05, 0.11, 0.2, 0.3, 0.5)]
    assert all(a > b for a, b in zip(rates, rates[1:]))


@pytest.mark.parametrize("bad", [-0.01, 1.01])
def test_key_rate_domain(bad):
    with pytest.raises(ValueError):
        key_rate(bad)


@pytest.mark.parametrize("qber", [0.51, 0.8, 1.0])
def test_key_rate_clamped_above_half(qber):
    # the raw formula would climb back to +1 ("secure") as qber nears 1
    report = key_rate(qber)
    assert report.rate == pytest.approx(-1.0, abs=1e-12)
    assert not report.secure


def test_threshold_root_value():
    root = threshold_root()
    assert 0.1095 <= root <= 0.1105
    assert root == pytest.approx(ROOT, abs=2e-9)
    assert abs(key_rate(root).rate) <= 1e-5


def test_threshold_is_the_security_boundary():
    root = threshold_root()
    assert key_rate(root - 1e-6).secure
    assert not key_rate(root + 1e-6).secure


def test_threshold_and_key_rate_are_one_rule():
    """q < threshold_root() exactly when key_rate(q) is secure, at every float
    within 10^5 ulps of the threshold and on a 1/1000 grid of [0, 1]."""
    root = threshold_root()
    assert not key_rate(root).secure
    qs = [i / 1000 for i in range(1001)]
    for direction in (0.0, 1.0):
        q = root
        for _ in range(10**5):
            q = math.nextafter(q, direction)
            qs.append(q)
    for q in qs:
        assert (q < root) == key_rate(q).secure, q


def test_threshold_root_is_cached_and_stable():
    assert threshold_root() == threshold_root()


def _interval(lower, upper):
    return ConfidenceInterval(lower, upper)


def test_decide_point_policy():
    ok = decide(QberEstimate(5, 100), _interval(0.01, 0.115),
                DecisionPolicy.POINT_ESTIMATE)
    assert ok.decision is Decision.PROCEED
    assert ok.qber_used == 0.05
    assert ok.threshold == threshold_root()

    bad = decide(QberEstimate(20, 100), _interval(0.13, 0.29),
                 DecisionPolicy.POINT_ESTIMATE)
    assert bad.decision is Decision.ABORT
    assert bad.qber_used == 0.2


def test_decide_upper_policy_is_stricter():
    est = QberEstimate(9, 100)  # point 0.09 below threshold
    wide = _interval(0.04, 0.17)  # but the upper bound is not
    assert decide(est, wide, DecisionPolicy.POINT_ESTIMATE).decision is Decision.PROCEED
    assert decide(est, wide, DecisionPolicy.UPPER_BOUND).decision is Decision.ABORT


def test_decide_default_policy_is_upper_bound():
    est = QberEstimate(9, 100)
    wide = _interval(0.04, 0.17)
    assert decide(est, wide).decision is Decision.ABORT
    assert decide(est, wide).qber_used == 0.17


def test_decide_exactly_at_threshold_aborts():
    root = threshold_root()
    verdict = decide(QberEstimate(1, 100), _interval(root, root))
    assert verdict.decision is Decision.ABORT
