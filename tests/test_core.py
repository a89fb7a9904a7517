import pytest

from bb84sim.core import (
    CIMethod,
    ConfidenceInterval,
    Decision,
    QberEstimate,
    SecurityVerdict,
)


def test_ci_method_names():
    assert CIMethod("wald") is CIMethod.WALD
    assert CIMethod("wilson") is CIMethod.WILSON
    assert CIMethod("clopper-pearson") is CIMethod.CLOPPER_PEARSON
    assert CIMethod("hoeffding") is CIMethod.HOEFFDING


def test_qber_estimate_point():
    assert QberEstimate(3, 12).point_estimate == 0.25
    assert QberEstimate(0, 7).point_estimate == 0.0
    assert QberEstimate(5, 5).point_estimate == 1.0


@pytest.mark.parametrize("k,n", [(0, 0), (1, 0), (-1, 10), (11, 10)])
def test_qber_estimate_validation(k, n):
    with pytest.raises(ValueError):
        QberEstimate(k, n)


def test_confidence_interval_width():
    ci = ConfidenceInterval(0.1, 0.3, 0.95, CIMethod.WALD)
    assert ci.width == pytest.approx(0.2)
    degenerate = ConfidenceInterval(0.4, 0.4, 0.95, CIMethod.WALD)
    assert degenerate.width == 0.0


@pytest.mark.parametrize(
    "lower,upper,conf",
    [
        (0.3, 0.1, 0.95),   # inverted
        (-0.1, 0.5, 0.95),  # below 0
        (0.5, 1.1, 0.95),   # above 1
        (0.1, 0.2, 0.0),    # conf not in (0, 1)
        (0.1, 0.2, 1.0),
    ],
)
def test_confidence_interval_validation(lower, upper, conf):
    with pytest.raises(ValueError):
        ConfidenceInterval(lower, upper, conf, CIMethod.WILSON)


def test_security_verdict_consistency():
    ok = SecurityVerdict(Decision.PROCEED, qber_used=0.05, threshold=0.11)
    assert ok.decision is Decision.PROCEED
    abort = SecurityVerdict(Decision.ABORT, qber_used=0.2, threshold=0.11)
    assert abort.decision is Decision.ABORT
    # exactly at threshold counts as abort
    at = SecurityVerdict(Decision.ABORT, qber_used=0.11, threshold=0.11)
    assert at.qber_used == at.threshold


def test_security_verdict_rejects_contradiction():
    with pytest.raises(ValueError):
        SecurityVerdict(Decision.ABORT, qber_used=0.05, threshold=0.11)
    with pytest.raises(ValueError):
        SecurityVerdict(Decision.PROCEED, qber_used=0.2, threshold=0.11)
    with pytest.raises(ValueError):
        SecurityVerdict(Decision.PROCEED, qber_used=0.11, threshold=0.11)
