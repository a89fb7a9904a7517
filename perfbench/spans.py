"""In-memory span tracer that instruments bb84sim from the outside.

`Tracer.install` replaces the package's public functions (and every
dataclass `__post_init__`) with thin wrappers wherever the package holds a
reference to them: module globals, including names bound by
`from .x import y`, and module-level dispatch dicts such as
`stats._CI_FUNCTIONS`. `uninstall` puts the originals back. No package file
is edited.

A span is `(id, parent_id, name, start_ns, end_ns, tag)`. The tag is the
session or query id: a `tag_of` function sets it, otherwise a span inherits
its parent's. Spans opened on a worker thread with nothing open on that
thread take as parent the innermost span open on the installing thread,
which is the `run_sweep` that submitted the work.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import sys
import threading
import types
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Iterable, Optional

# (public name in its defining module, span name, tag function)
TRACED = (
    ("cli", "main", None),
    ("cli", "format_trials_csv", None),
    ("cli", "format_aggregate_csv", None),
    ("cli", "format_trials_json", None),
    ("cli", "format_aggregate_json", None),
    ("harness", "run_sweep", None),
    ("harness", "derive_trial_seed", None),
    ("protocol", "run_session", lambda args, kwargs: args[0].seed),
    ("stats", "confidence_interval", None),
    ("stats", "ci_wald", None),
    ("stats", "ci_wilson", None),
    ("stats", "ci_clopper_pearson", None),
    ("stats", "ci_hoeffding", None),
    ("stats", "aggregate_trials", None),
    ("decision", "decide", None),
    ("decision", "key_rate", None),
    ("decision", "threshold_root", None),
)

# Binomial tail evaluations, counted (not spanned) where stats looks them up.
COUNTED = (("stats", "bdtr"), ("stats", "bdtrc"))

VALIDATE_PREFIX = "validate."


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, object]] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[tuple[int, object]] = []
        self._undo: list[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[tuple[int, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, tag_of: Optional[Callable] = None) -> Callable:
        """Return `fn` wrapped so that each call records one span."""

        def traced(*args, **kwargs):
            stack = self._stack()
            outer = stack or self._home_stack
            parent, tag = outer[-1] if outer else (0, None)
            if tag_of is not None:
                tag = tag_of(args, kwargs)
            sid = next(self._ids)
            stack.append((sid, tag))
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, tag))

        traced.__wrapped__ = fn
        return traced

    def _counting(self, name: str, fn: Callable) -> Callable:
        # No lock: the counted functions are only called from the thread that
        # runs the queries, and a lock would add more than the call costs.
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, modules: Iterable[types.ModuleType], old, new) -> None:
        for module in modules:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is old:
                    setattr(module, attr, new)
                    self._undo.append(lambda m=module, a=attr: setattr(m, a, old))
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is old:
                            value[key] = new
                            self._undo.append(
                                lambda d=value, k=key: d.__setitem__(k, old))

    def install(self, package: types.ModuleType) -> None:
        """Instrument every loaded module of `package` (e.g. bb84sim)."""
        prefix = package.__name__ + "."
        modules = [package] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)
        ]
        self._home_stack = self._stack()
        for module_name, func_name, tag_of in TRACED:
            module = sys.modules[prefix + module_name]
            fn = getattr(module, func_name)
            span_name = f"{module_name}.{func_name}"
            self._replace_everywhere(modules, fn, self.wrap(span_name, fn, tag_of))
        for module_name, func_name in COUNTED:
            module = sys.modules[prefix + module_name]
            fn = getattr(module, func_name)
            counted = self._counting(f"{module_name}.{func_name}", fn)
            setattr(module, func_name, counted)
            self._undo.append(lambda m=module, a=func_name, f=fn: setattr(m, a, f))
        for module in modules:
            for cls in vars(module).values():
                if (inspect.isclass(cls) and cls.__module__ == module.__name__
                        and dataclasses.is_dataclass(cls)
                        and "__post_init__" in vars(cls)):
                    original = vars(cls)["__post_init__"]
                    cls.__post_init__ = self.wrap(VALIDATE_PREFIX + cls.__name__, original)
                    self._undo.append(
                        lambda c=cls, f=original: setattr(c, "__post_init__", f))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def durations_ns(self, name: str) -> list[int]:
        return [end - start for _, _, n, start, end, _ in self.spans if n == name]

    def busy_s(self, name: str) -> float:
        return sum(self.durations_ns(name)) / 1e9

    def prefixed_durations_ns(self, prefix: str) -> list[int]:
        return [end - start for _, _, n, start, end, _ in self.spans
                if n.startswith(prefix)]

    def self_s(self, name: str) -> float:
        """Summed self time of every `name` span: its duration minus the part
        of its interval that its direct children cover (children on worker
        threads may overlap, so their union is taken)."""
        children: dict[int, list[tuple[int, int]]] = {}
        for _, parent, _, start, end, _ in self.spans:
            children.setdefault(parent, []).append((start, end))
        total = 0
        for sid, _, n, start, end, _ in self.spans:
            if n != name:
                continue
            covered, reach = 0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total += (end - start) - covered
        return total / 1e9

    def dump(self) -> list[list]:
        return [list(span) for span in sorted(self.spans)]
