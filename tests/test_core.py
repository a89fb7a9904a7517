import pytest

from bb84sim.core import (
    CIMethod,
    ConfidenceInterval,
    Decision,
    QberEstimate,
    SecurityVerdict,
    check_increasing,
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


@pytest.mark.parametrize("values, message", [
    ((), "xs must be non-empty"),
    ((0.1, 0.1), "xs must be strictly increasing"),
    ((1, 3, 2), "xs must be strictly increasing"),
])
def test_check_increasing_names_the_values(values, message):
    with pytest.raises(ValueError, match=message):
        check_increasing("xs", values)


@pytest.mark.parametrize("k,n", [(0, 0), (1, 0), (-1, 10), (11, 10)])
def test_qber_estimate_validation(k, n):
    with pytest.raises(ValueError):
        QberEstimate(k, n)


def test_confidence_interval_width():
    ci = ConfidenceInterval(0.1, 0.3)
    assert ci.width == pytest.approx(0.2)
    degenerate = ConfidenceInterval(0.4, 0.4)
    assert degenerate.width == 0.0


@pytest.mark.parametrize(
    "lower,upper",
    [
        (0.3, 0.1),   # inverted
        (-0.1, 0.5),  # below 0
        (0.5, 1.1),   # above 1
    ],
)
def test_confidence_interval_validation(lower, upper):
    with pytest.raises(ValueError):
        ConfidenceInterval(lower, upper)


def test_security_verdict_consistency():
    """The decision is the one comparison qber_used < threshold."""
    assert SecurityVerdict(qber_used=0.05, threshold=0.11).decision is Decision.PROCEED
    assert SecurityVerdict(qber_used=0.2, threshold=0.11).decision is Decision.ABORT
    # exactly at the threshold counts as abort
    assert SecurityVerdict(qber_used=0.11, threshold=0.11).decision is Decision.ABORT
