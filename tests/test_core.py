import dataclasses
import importlib
import inspect
import pkgutil
import sys

import numpy as np
import pytest

import bb84sim
from bb84sim.core import (
    CIMethod,
    ConfidenceInterval,
    Decision,
    QberEstimate,
    SecurityVerdict,
    bisect_root,
    check_increasing,
)
from bb84sim.harness import AggregateRow
from bb84sim.protocol import ChannelModel, EveStrategy, SessionConfig
from bb84sim.stats import hoeffding_half_width


def test_ci_method_names():
    assert CIMethod("wald") is CIMethod.WALD
    assert CIMethod("wilson") is CIMethod.WILSON
    assert CIMethod("clopper-pearson") is CIMethod.CLOPPER_PEARSON
    assert CIMethod("hoeffding") is CIMethod.HOEFFDING


@pytest.mark.parametrize("root", [0.1, 1e-300, 5e-324, 0.5, 0.3])
def test_bisect_root_finds_the_float_boundary(root):
    seen = []

    def below(p):
        seen.append(p)
        return p < root

    assert bisect_root(below) == root
    assert all(0.0 < p < 1.0 for p in seen)


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


@pytest.mark.parametrize("k,n", [
    (0, 0), (1, 0), (-1, 10), (11, 10),
    # counts are integers: an integral float is refused too
    (2.5, 10), (0, 10.0), (1, 10.5), (3.0, 10), (np.float64(3), 10), (3, np.float64(10)),
])
def test_qber_estimate_validation(k, n):
    with pytest.raises(ValueError):
        QberEstimate(k, n)


@pytest.mark.parametrize("n", [10.5, 10.0, np.float64(10)], ids=["10.5", "10.0", "numpy-10.0"])
def test_hoeffding_half_width_needs_an_integer_count(n):
    with pytest.raises(ValueError, match="compared_n must be an integer"):
        hoeffding_half_width(n, 0.95)
    assert hoeffding_half_width(np.int64(10), 0.95) == hoeffding_half_width(10, 0.95)


# 2**1024 - 2**970 lies halfway between the largest float and 2**1024, so
# float() rounds it up and overflows; one less rounds down to the largest float.
@pytest.mark.parametrize("n", [2**1024 - 2**970, 2**1024, 10**400],
                         ids=["halfway", "2**1024", "10**400"])
def test_a_count_no_float_can_hold_is_refused(n):
    with pytest.raises(ValueError, match="compared_n must fit a float"):
        QberEstimate(1, n)
    with pytest.raises(ValueError, match="compared_n must fit a float"):
        hoeffding_half_width(n, 0.95)


@pytest.mark.parametrize("n", [10**300, int(sys.float_info.max) + 1, 2**1024 - 2**970 - 1],
                         ids=["10**300", "max+1", "halfway-1"])
def test_the_largest_counts_a_float_holds_are_accepted(n):
    assert QberEstimate(1, n).point_estimate == 1 / n
    assert hoeffding_half_width(n, 0.95) >= 0.0


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


def _package_dataclasses():
    """Every dataclass defined in a bb84sim module (`__main__` aside, which
    runs the CLI on import)."""
    classes = set()
    for info in pkgutil.iter_modules(bb84sim.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"bb84sim.{info.name}")
            classes.update(
                obj for obj in vars(module).values()
                if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__)
    return classes


def test_every_dataclass_is_frozen_with_slots():
    classes = _package_dataclasses()
    assert len(classes) >= 16
    for cls in classes:
        assert cls.__dataclass_params__.frozen, cls.__name__
        assert "__slots__" in vars(cls), cls.__name__


@pytest.mark.parametrize("value, field", [
    (QberEstimate(3, 100), "errors_k"),
    (SessionConfig(100, EveStrategy(), ChannelModel()), "seed"),
    (AggregateRow(0.5, 10, 0.125, 0.01, 0.12, 0.13, 0.125), "mean_qber"),
], ids=["QberEstimate", "SessionConfig", "AggregateRow"])
def test_built_values_cannot_be_assigned(value, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))
