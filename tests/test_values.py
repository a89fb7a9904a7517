"""The package's value types behave as frozen slots dataclasses: the same
repr, equality and hash, pickling and copying, the `dataclasses` functions
and the refusal to assign or delete a field. One value of each of the 16
types is built below."""

import copy
import dataclasses
import inspect
import pickle

import numpy as np
import pytest

import bb84sim
from bb84sim import (
    AggregateRow, ChannelModel, ConfidenceInterval, EveStrategy, FiniteSizePoint,
    HistogramResult, KeyRateReport, QberEstimate, SecurityVerdict, SessionConfig,
    SessionResult, SweepConfig, SweepResult, TransmissionLedger, TrialAggregate,
    TrialRow, run_session,
)
from bb84sim.core import Value

INTERVAL = ConfidenceInterval(0.09, 0.11)
AGGREGATE = TrialAggregate(3, 0.1, 0.01, INTERVAL)
ROW = TrialRow(0.5, 0, 7, 1000, 500, 250, 31, 0.124)
POINT = AggregateRow(0.5, 10, 0.125, 0.01, 0.12, 0.13, 0.125)
SESSION = SessionConfig(200, EveStrategy(0.5), ChannelModel(0.1), 0.5, 7)

# Every type but TransmissionLedger, whose equality is identity.
VALUES = [
    QberEstimate(3, 100),
    INTERVAL,
    SecurityVerdict(0.05, 0.11),
    KeyRateReport(0.5),
    SweepConfig((0.0, 0.5), trials_per_f=3, channel=ChannelModel(0.1)),
    ROW,
    POINT,
    SweepResult((POINT,), (ROW,)),
    HistogramResult((0.0, 0.1, 0.2), (3, 2), 0.1, 0.05),
    FiniteSizePoint(1000, AGGREGATE, 0.05),
    ChannelModel(0.1),
    EveStrategy(0.5),
    SESSION,
    SessionResult(None, 100, QberEstimate(3, 50)),
    AGGREGATE,
]
IDS = [type(v).__name__ for v in VALUES]


def _ledger():
    return run_session(SESSION).records


def _fields(value):
    return tuple(getattr(value, f.name) for f in dataclasses.fields(value))


def _plain(value):
    """What `dataclasses.asdict` gives, written out."""
    if isinstance(value, Value):
        return {name: _plain(getattr(value, name)) for name in value.__slots__}
    if isinstance(value, tuple):
        return tuple(map(_plain, value))
    return value


def test_one_value_of_each_type_is_built():
    types = {type(v) for v in VALUES} | {TransmissionLedger}
    assert len(types) == 16
    assert types == {obj for obj in vars(bb84sim).values()
                     if isinstance(obj, type) and issubclass(obj, Value)}
    assert all(issubclass(t, Value) and dataclasses.is_dataclass(t) for t in types)
    assert not dataclasses.is_dataclass(Value)


@pytest.mark.parametrize("value, text", [
    (QberEstimate(3, 100), "QberEstimate(errors_k=3, compared_n=100)"),
    (SweepConfig((0.0, 0.5), trials_per_f=3, channel=ChannelModel(0.1)),
     "SweepConfig(f_values=(0.0, 0.5), trials_per_f=3, n_qubits=50000, "
     "sample_fraction=0.5, channel=ChannelModel(depolarizing_p=0.1), master_seed=42, "
     "confidence=0.95)"),
    (AGGREGATE, "TrialAggregate(trials_m=3, mean_qber=0.1, std_dev=0.01, "
                "ci_of_mean=ConfidenceInterval(lower=0.09, upper=0.11))"),
], ids=["QberEstimate", "SweepConfig", "TrialAggregate"])
def test_repr_names_each_field(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_equal_fields_make_equal_values_and_hashes(value):
    twin = type(value)(*_fields(value))
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    assert value != _fields(value)


def test_ledger_equality_is_identity():
    ledger = _ledger()
    twin = TransmissionLedger(*_fields(ledger))
    assert ledger == ledger
    assert ledger != twin
    assert hash(ledger) == object.__hash__(ledger)
    assert not TransmissionLedger.__dataclass_params__.eq
    with pytest.raises(dataclasses.FrozenInstanceError):
        del ledger.sifted


@pytest.mark.parametrize("round_trip", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_values_pickle_and_copy(round_trip):
    for value in VALUES:
        assert round_trip(value) == value, type(value).__name__
    ledger = _ledger()
    again = round_trip(ledger)
    assert type(again) is TransmissionLedger
    for name in ledger.__slots__:
        assert np.array_equal(getattr(again, name), getattr(ledger, name)), name


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_dataclasses_functions_read_the_fields_and_defaults(value):
    cls = type(value)
    fields = dataclasses.fields(value)
    assert fields == dataclasses.fields(cls)
    assert [(f.name, f.type) for f in fields] == list(cls.__annotations__.items())
    assert [f.name for f in fields] == list(cls.__slots__) == list(cls.__match_args__)
    params = inspect.signature(cls).parameters
    for f in fields:
        expected = params[f.name].default
        assert f.default == (dataclasses.MISSING if expected is inspect.Parameter.empty
                             else expected), f.name
    assert cls.__dataclass_params__.frozen and cls.__dataclass_params__.eq
    assert dataclasses.asdict(value) == _plain(value)
    assert dataclasses.replace(value) == value


def test_replace_revalidates():
    assert dataclasses.replace(QberEstimate(3, 100), errors_k=5) == QberEstimate(5, 100)
    with pytest.raises(ValueError, match="errors_k"):
        dataclasses.replace(QberEstimate(3, 100), errors_k=101)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_fields_cannot_be_deleted_or_assigned(value):
    name = value.__slots__[0]
    before = getattr(value, name)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(value, name)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, before)
    assert getattr(value, name) is before


@pytest.mark.skipif(not hasattr(copy, "replace"), reason="copy.replace is new in 3.13")
def test_copy_replace_revalidates():
    estimate = QberEstimate(3, 100)
    assert copy.replace(estimate, errors_k=5) == QberEstimate(5, 100)
    assert copy.replace(SESSION, seed=8) == SessionConfig(200, EveStrategy(0.5),
                                                          ChannelModel(0.1), 0.5, 8)
    with pytest.raises(ValueError, match="errors_k"):
        copy.replace(estimate, errors_k=101)
    with pytest.raises(ValueError, match="depolarizing_p"):
        copy.replace(ChannelModel(0.1), depolarizing_p=2.0)

