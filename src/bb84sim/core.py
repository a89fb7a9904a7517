"""Shared domain types: interval methods, decisions, estimates, intervals and
verdicts, the bound checks on the quantities they share, and the bisection to
adjacent floats that both the threshold and the exact interval solve with.

Everything here is an immutable value type. Estimates and intervals validate
themselves on construction, and a verdict derives its decision, so any value
that exists is internally consistent. `Value` is the base of every value type.
"""

from __future__ import annotations

import enum
import operator
from typing import Callable, Sequence


class CIMethod(enum.Enum):
    """Binomial confidence-interval method."""

    WALD = "wald"
    WILSON = "wilson"
    CLOPPER_PEARSON = "clopper-pearson"
    HOEFFDING = "hoeffding"

    # Members are singletons, so hash by identity: Enum's own hash runs Python
    # code on every lookup in a dict keyed by method.
    __hash__ = object.__hash__


class Decision(enum.Enum):
    """Outcome of the security check on the estimated error rate."""

    PROCEED = "proceed"
    ABORT = "abort"


def check_probability(name: str, value: float) -> None:
    """Raise ValueError unless value lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def check_increasing(name: str, values: Sequence[float]) -> None:
    """Raise ValueError unless values is non-empty and strictly increasing."""
    if not values:
        raise ValueError(f"{name} must be non-empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing")


def check_confidence(confidence: float) -> None:
    """Raise ValueError unless confidence lies strictly inside (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


# The least integer float() refuses: it lies halfway between the largest
# float and 2**1024, so float() rounds it up and overflows.
_FLOAT_OVERFLOW = 2**1024 - 2**970


# The half-width of the bracket that checks a Clopper-Pearson bound (see
# stats). A bound within it of 0 or 1 has a bracket that leaves [0, 1], where
# the tail is NaN, so that bound is bisected to adjacent floats.
BISECT_TOL = 1e-9


def bisect_root(root_above: Callable[[float], bool]) -> float:
    """The least float in (0, 1] at which the monotone root_above is false
    (taken as false at 1): halve [0, 1], keeping the upper half where
    root_above(mid), until the ends are adjacent floats; return the upper end."""
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if root_above(mid):
            lo = mid
        else:
            hi = mid
    return hi


class _ValueType(type):
    """Makes a class body's annotated fields its `__slots__`, `__match_args__`
    and `__init__` parameters, in order, with the body's defaults. `__init__`
    writes each field through the `__set__` of its slot's member descriptor,
    bound once when the class is made, so no write looks its name up as
    `object.__setattr__` would. It still looks `__post_init__` up at each
    call, so a wrapper set on the class later runs (perfbench's tracer sets
    one to time each validation)."""

    def __new__(mcls, name, bases, namespace):
        names = tuple(namespace.get("__annotations__", ()))
        defaults = {n: namespace.pop(n) for n in names if n in namespace}
        namespace.update(__slots__=names, __match_args__=names)
        if not bases:  # Value itself has no fields and is no dataclass
            return super().__new__(mcls, name, bases, namespace)
        namespace.update(__dataclass_fields__=_DataclassView(),
                         __dataclass_params__=_DataclassView())
        cls = super().__new__(mcls, name, bases, namespace)
        setters = {f"_set_{n}": vars(cls)[n].__set__ for n in names}
        params = "".join(f", {n}={n}" if n in defaults else f", {n}" for n in names)
        body = "".join(f"\n    _set_{n}(self, {n})" for n in names)
        post = "\n    self.__post_init__()" if "__post_init__" in namespace else ""
        exec(f"def __init__(self{params}):{body}{post}", defaults | setters, made := {})
        cls.__init__ = made["__init__"]
        return cls


class _DataclassView:
    """`__dataclass_fields__` or `__dataclass_params__`, made for a value type
    with the other by `dataclasses.make_dataclass` on first read, then kept."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, value, cls):
        from dataclasses import MISSING, field, make_dataclass
        defaults = cls.__init__.__defaults__ or ()
        default = dict(zip(reversed(cls.__slots__), reversed(defaults)))
        view = make_dataclass(cls.__name__, [
            (n, cls.__annotations__[n], field(default=default.get(n, MISSING)))
            for n in cls.__slots__], eq=cls.__eq__ is not object.__eq__, frozen=True)
        cls.__dataclass_fields__ = view.__dataclass_fields__
        cls.__dataclass_params__ = view.__dataclass_params__
        return getattr(cls, self.name)


class Value(metaclass=_ValueType):
    """Base of the value types, written and behaving as frozen slots
    dataclasses but built without `dataclasses` (with `inspect`, a quarter of
    `import bb84sim`). A value is its type and fields, as `__reduce__` gives
    them, for equality, hashing and pickling. Its `__init__` writes the fields
    through their slots' descriptors, past the `__setattr__` that refuses
    every later write, and then calls `__post_init__`, looked up at each call,
    where a class defines one."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        cells = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({cells})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)

    def __replace__(self, /, **changes):  # copy.replace, from Python 3.13
        return type(self)(**{n: getattr(self, n) for n in self.__slots__} | changes)


class QberEstimate(Value):
    """Error count over a compared sample: k mismatches out of n comparisons.

    Both counts are integers, Python's or numpy's, and are kept as the
    Python ints `operator.index` gives, so every interval's bounds are
    floats; a float is refused, even an integral one. At least one bit was
    compared, and no more than a float can hold: every interval takes the
    count as a float. This is the one place that checks a count.
    """

    errors_k: int
    compared_n: int

    def __post_init__(self) -> None:
        k, n = self.errors_k, self.compared_n
        try:
            index_n = operator.index(n)
        except TypeError:
            raise ValueError(f"compared_n must be an integer, got {n!r}") from None
        if not 1 <= index_n < _FLOAT_OVERFLOW:
            raise ValueError(f"compared_n must be positive, got {n}" if index_n < 1
                             else "compared_n must fit a float, about 1.8e308 at most")
        try:
            index_k = operator.index(k)
        except TypeError:
            raise ValueError(f"errors_k must be an integer, got {k!r}") from None
        if not 0 <= index_k <= index_n:
            raise ValueError(f"errors_k must be in [0, compared_n], got k={k}, n={n}")
        if index_k is not k or index_n is not n:  # not a Python int: keep its index
            object.__setattr__(self, "errors_k", index_k)
            object.__setattr__(self, "compared_n", index_n)

    @property
    def point_estimate(self) -> float:
        """The point estimate k/n."""
        return self.errors_k / self.compared_n


class ConfidenceInterval(Value):
    """A [lower, upper] interval for an error rate. The function that builds
    one checks its confidence level; the interval keeps only the bounds."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(
                f"need 0 <= lower <= upper <= 1, got [{self.lower}, {self.upper}]"
            )

    @property
    def width(self) -> float:
        return self.upper - self.lower


class SecurityVerdict(Value):
    """The error rate compared against the abort threshold, and the decision
    that comparison gives."""

    qber_used: float
    threshold: float

    @property
    def decision(self) -> Decision:
        """PROCEED iff qber_used < threshold; exactly at the threshold aborts."""
        return Decision.PROCEED if self.qber_used < self.threshold else Decision.ABORT
