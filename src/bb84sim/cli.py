"""Command-line front end.

Subcommands:
  sweep      eavesdropper-fraction sweep; writes per-trial and aggregate files
  trial      one session end to end: QBER, interval, verdict, key rate
  ci         all four binomial intervals for a given (k, n) side by side
  threshold  the security threshold and the key rate at a given QBER

Exit statuses: 0 success; 1 usage error or EmptySampleError; 2 a defect, or
a write that fails although --out passed its checks before the run.

Output formats (frozen; golden tests depend on the exact bytes): `sweep`
writes the two row tuples of `harness.run_sweep` as they are. The columns of
the per-trial file are the fields of `harness.TrialRow`, and those of the
aggregate file the fields of `harness.AggregateRow`, in field order. Floats
are fixed 6-decimal in CSV. JSON rows carry the same columns with the values
rounded to 6 decimals before serialization, so both formats encode the
identical numbers.

The default master seed is 42; the BB84SIM_SEED environment variable
overrides it, and an explicit --seed flag overrides both.

No bb84sim code imports `csv`: CSV is joined and split on commas here.
`json` is imported by `format_json` and `tempfile` by `_sweep_inputs`, so a
CSV sweep, `threshold` and `trial` with a `--ci` other than clopper-pearson
leave `json` unloaded; scipy loads it with `csv` and `dataclasses`. numpy,
scipy and the thread pool are imported where the package runs them (see
protocol, harness and stats). The bb84sim modules are imported here: they
load with the package anyway, and handlers look up `run_session` and
`run_sweep` as module globals.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from functools import cache, partial
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, get_type_hints

from .core import CIMethod, QberEstimate, check_confidence, check_probability
from .decision import DecisionPolicy, decide, key_rate, threshold_root
from .harness import AggregateRow, SweepConfig, TrialRow, run_sweep, sessions_at_once
from .protocol import (
    ChannelModel, EmptySampleError, EveStrategy, SessionConfig, run_session,
)
from .stats import confidence_interval

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

SEED_ENV_VAR = "BB84SIM_SEED"

# Peak allocation of one run_session per qubit, for sessions of 10^5 qubits
# and more. The CLI runs only counts-only sessions, for sweeps and trials:
# tracemalloc reads 14.0-19.0 B at the default sample fraction and
# 16.0-21.01 B as it nears 1 (the sample indices are int64), least at f = 0
# and p = 0, where it skips the most blocks. The charge also covers a
# library session with the ledger, which reads 20.0 B and 22.01 B.
SESSION_BYTES_PER_QUBIT = 23

# Peak allocation of a sweep per per-trial row: run_sweep, then both files
# formatted. Warm (numpy.random and json imported), tracemalloc reads
# 2.12-2.23 kB a row for JSON and 0.38-0.49 kB for CSV at 1,000 qubits on
# 20x50 to 1,000x2 points x trials (test_trial_row_charge_covers_a_sweeps_peak).
TRIAL_ROW_BYTES = 2_400

_CI_CHOICES = tuple(m.value for m in CIMethod)
_POLICY_CHOICES = tuple(p.value for p in DecisionPolicy)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


# ---------------------------------------------------------------------------
# serialization


# Each output file is described by its row type: its fields (`__slots__`), in
# order, are the columns. A float column is written through a float format
# (6-decimal text in CSV, rounded to 6 decimals in JSON); an int column as is.
_JSON_FLOAT = partial(round, ndigits=6)


@cache
def columns(row_type: type) -> tuple[tuple[str, type], ...]:
    """(name, type) of each column of a row type, in file order."""
    hints = get_type_hints(row_type)
    return tuple((name, hints[name]) for name in row_type.__slots__)


def _lines(row_type: type, rows: Iterable, float_format: Callable = _fmt) -> Iterator[list]:
    """The column names, then each row's cells with float columns through
    float_format: one attribute fetch a row and one call a float cell."""
    cols = columns(row_type)
    values = attrgetter(*(name for name, _ in cols))
    float_at = [i for i, (_, kind) in enumerate(cols) if kind is float]
    yield [name for name, _ in cols]
    for row in rows:
        cells = list(values(row))
        for i in float_at:
            cells[i] = float_format(cells[i])
        yield cells


def format_csv(row_type: type, rows: Sequence) -> str:
    """A header of the column names, then one line per row; floats 6-decimal.
    No cell needs quoting: the names are identifiers and the cells numbers."""
    return "".join(",".join(map(str, line)) + "\n" for line in _lines(row_type, rows))


def parse_csv(row_type: type, text: str) -> list:
    """Rows of a file written by format_csv, whose bytes it reproduces: each
    line split on the commas that format_csv joined its cells with."""
    cols = columns(row_type)
    header, *records = text.splitlines() or [""]
    if header.split(",") != [name for name, _ in cols]:
        raise ValueError(f"unexpected {row_type.__name__} CSV header: {header!r}")
    return [row_type(*(kind(cell) for (_, kind), cell in zip(cols, rec.split(","))))
            for rec in records]


def format_json(schema: str, row_type: type, rows: Sequence) -> str:
    """JSON with the CSV's columns; floats are rounded to the CSV's 6 decimals."""
    import json

    lines = _lines(row_type, rows, _JSON_FLOAT)
    names = next(lines)
    payload = {"schema": schema, "columns": names,
               "rows": [dict(zip(names, cells)) for cells in lines]}
    return json.dumps(payload, indent=2) + "\n"


# The sweep's four files by format and row type; perfbench traces these names.
format_trials_csv = partial(format_csv, TrialRow)
format_aggregate_csv = partial(format_csv, AggregateRow)
format_trials_json = partial(format_json, "trials", TrialRow)
format_aggregate_json = partial(format_json, "aggregate", AggregateRow)


# ---------------------------------------------------------------------------
# flag plumbing


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit with status 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_seed(flag_value: Optional[int]) -> int:
    """Explicit --seed wins; else the environment variable; else 42."""
    if flag_value is not None:
        return flag_value
    raw = os.environ.get(SEED_ENV_VAR, "42")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None


def _add_session_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--qubits", type=int, default=50_000,
                   help="transmitted qubits per trial (default 50000)")
    p.add_argument("--sample-fraction", type=float, default=0.5,
                   help="fraction of the sifted key compared publicly (default 0.5)")
    p.add_argument("--seed", type=int, default=None,
                   help=f"master seed (default 42; {SEED_ENV_VAR} overrides the "
                        "default, this flag overrides both)")
    p.add_argument("--depolarizing-p", type=float, default=0.0,
                   help="channel depolarizing probability (default 0.0 = ideal)")
    p.add_argument("--confidence", type=float, default=0.95,
                   help="two-sided confidence level (default 0.95)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bb84sim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser(
        "sweep", help="run trials across a grid of interception fractions")
    p_sweep.add_argument("--f-start", type=float, default=0.0)
    p_sweep.add_argument("--f-end", type=float, default=1.0)
    p_sweep.add_argument("--f-step", type=float, default=0.05)
    p_sweep.add_argument("--trials", type=int, default=50,
                         help="trials per grid point (default 50, minimum 2)")
    _add_session_flags(p_sweep)
    p_sweep.add_argument("--out", default="sweep",
                         help="output file prefix; its directory must take a "
                              "new file (default 'sweep')")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel trial workers, at most one thread per "
                              "CPU; output is identical for any value (default 1)")
    p_sweep.set_defaults(inputs=_sweep_inputs, func=cmd_sweep)

    p_trial = sub.add_parser("trial", help="run a single session end to end")
    p_trial.add_argument("--eve-fraction", type=float, default=0.0,
                         help="interception fraction f (default 0.0)")
    _add_session_flags(p_trial)
    p_trial.add_argument("--ci", choices=_CI_CHOICES,
                         default=CIMethod.CLOPPER_PEARSON.value,
                         help="interval method for the estimate (default clopper-pearson)")
    p_trial.add_argument("--policy", choices=_POLICY_CHOICES,
                         default=DecisionPolicy.UPPER_BOUND.value,
                         help="decide on the point estimate or on the interval's "
                              "upper bound (default upper)")
    p_trial.set_defaults(inputs=_trial_inputs, func=cmd_trial)

    p_ci = sub.add_parser(
        "ci", help="print all four binomial intervals for (k, n)")
    p_ci.add_argument("--k", type=int, required=True, help="observed errors")
    p_ci.add_argument("--n", type=int, required=True, help="compared bits")
    p_ci.add_argument("--confidence", type=float, default=0.95)
    p_ci.set_defaults(inputs=_ci_inputs, func=cmd_ci)

    p_thr = sub.add_parser(
        "threshold", help="security threshold and key rate at a given QBER")
    p_thr.add_argument("--qber", type=float, required=True)
    p_thr.set_defaults(inputs=_threshold_inputs, func=cmd_threshold)

    return parser


# ---------------------------------------------------------------------------
# subcommands


def _f_grid(start: float, end: float, step: float,
            trials: int = 1) -> tuple[float, ...]:
    """start (-0.0 as 0.0), start + step, ... while the value does not pass end.

    The arithmetic is decimal on the flags' shortest float reprs, so 0.3 is
    0.3 with no floating-point crumbs and no value lands past end. Raises
    ValueError, before any value is built, when the grid's per-trial rows,
    `trials` a point, would need more than the host's physical memory.
    """
    from decimal import Decimal  # only sweeps build a grid

    if not step > 0.0:
        raise ValueError(f"--f-step must be positive, got {step}")
    check_probability("--f-start", start)
    check_probability("--f-end", end)
    if end < start:
        raise ValueError("--f-end must not be less than --f-start")
    first, stop, delta = (Decimal(repr(x)) for x in (start, end, step))
    count = int((stop - first) / delta) + 1
    need = count * trials * TRIAL_ROW_BYTES
    _check_memory(need, f"--f-step {step} gives {count} points; at --trials {trials} "
                        f"their per-trial rows need about {need} bytes "
                        f"({TRIAL_ROW_BYTES} B per row)")
    return (start + 0.0,) + tuple(float(first + i * delta) for i in range(1, count))


def _physical_memory() -> Optional[int]:
    """Total physical memory in bytes, or None where sysconf cannot tell."""
    names = getattr(os, "sysconf_names", {})
    if "SC_PAGE_SIZE" not in names or "SC_PHYS_PAGES" not in names:
        return None
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _check_memory(need: int, what: str) -> None:
    """Raise ValueError when `need` bytes exceed the host's physical memory,
    with `what` and then the limit as its message. Where sysconf cannot
    tell, nothing is rejected."""
    limit = _physical_memory()
    if limit is not None and 0 < limit < need:
        raise ValueError(
            f"{what}, more than the {limit} bytes of physical memory on this host")


def _check_sessions(n_qubits: int, sessions: int) -> None:
    """Raise ValueError when `sessions` concurrent sessions of n_qubits each
    would need more than the host's physical memory."""
    need = n_qubits * SESSION_BYTES_PER_QUBIT * sessions
    _check_memory(need, f"--qubits {n_qubits} needs about {need} bytes "
                        f"({SESSION_BYTES_PER_QUBIT} B per qubit, "
                        f"{sessions} session(s) at once)")


# Each subcommand has an inputs function, which turns the parsed flags into
# validated values and raises ValueError on a usage error, and a command
# function, which runs on those values; main maps their errors to exit 1 and 2.


def _sweep_paths(args: argparse.Namespace) -> list[str]:
    return [f"{args.out}_{name}.{args.format}" for name in ("trials", "aggregate")]


def _sweep_inputs(args: argparse.Namespace) -> SweepConfig:
    import tempfile  # only a sweep writes files

    _check_sessions(args.qubits, sessions_at_once(args.workers, args.trials))
    try:  # before any session runs: a file made in --out's directory, closed and gone
        tempfile.TemporaryFile(dir=os.path.dirname(args.out) or ".").close()
    except OSError as exc:
        raise ValueError(f"cannot write to --out {args.out!r}: {exc.strerror}") from None
    for path in _sweep_paths(args):
        if os.path.isdir(path):
            raise ValueError(f"cannot write to {path!r}: it is a directory")
    return SweepConfig(
        f_values=_f_grid(args.f_start, args.f_end, args.f_step, args.trials),
        trials_per_f=args.trials,
        n_qubits=args.qubits,
        sample_fraction=args.sample_fraction,
        channel=ChannelModel.depolarizing(args.depolarizing_p),
        master_seed=_resolve_seed(args.seed),
        confidence=args.confidence,
    )


def cmd_sweep(args: argparse.Namespace, config: SweepConfig) -> int:
    result = run_sweep(config, workers=args.workers)
    formats = ((format_trials_csv, format_aggregate_csv) if args.format == "csv"
               else (format_trials_json, format_aggregate_json))
    paths = _sweep_paths(args)
    opened = []  # a write that fails takes with it every file this run opened
    try:
        for path, format_rows, rows in zip(
                paths, formats, (result.per_trial_rows, result.per_point)):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                opened.append(path)
                fh.write(format_rows(rows))
    except BaseException:
        for path in opened:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise

    # a float column is as wide as a 6-decimal value in [0, 1], an int
    # column as wide as its name
    widths = [max(len(name), 8 if kind is float else 0)
              for name, kind in columns(AggregateRow)]
    for line in _lines(AggregateRow, result.per_point):
        print("  ".join(str(c).rjust(w) for c, w in zip(line, widths)))
    for path in paths:
        print(f"wrote {path}", file=sys.stderr)
    return EXIT_OK


def _trial_inputs(args: argparse.Namespace) -> SessionConfig:
    check_confidence(args.confidence)
    config = SessionConfig(
        n_qubits=args.qubits,
        eve=EveStrategy.intercept_resend(args.eve_fraction),
        channel=ChannelModel.depolarizing(args.depolarizing_p),
        sample_fraction=args.sample_fraction,
        seed=_resolve_seed(args.seed),
    )
    _check_sessions(config.n_qubits, 1)
    return config


def cmd_trial(args: argparse.Namespace, config: SessionConfig) -> int:
    result = run_session(config, ledger=False)
    est = result.estimate
    method = CIMethod(args.ci)
    interval = confidence_interval(est, args.confidence, method)
    verdict = decide(est, interval, DecisionPolicy(args.policy))
    report = key_rate(est.point_estimate)

    print(f"qubits sent    : {config.n_qubits}")
    print(f"sifted count   : {result.sifted_count}")
    print(f"compared n     : {est.compared_n}")
    print(f"errors k       : {est.errors_k}")
    print(f"qber           : {_fmt(est.point_estimate)}")
    print(f"{method.value} {args.confidence} CI : "
          f"[{_fmt(interval.lower)}, {_fmt(interval.upper)}]")
    print(f"policy         : {args.policy}")
    print(f"qber used      : {_fmt(verdict.qber_used)}")
    print(f"threshold      : {_fmt(verdict.threshold)}")
    print(f"decision       : {verdict.decision.name}")
    print(f"key rate       : {_fmt(report.rate)} "
          f"({'secure' if report.secure else 'insecure'})")
    return EXIT_OK


def _ci_inputs(args: argparse.Namespace) -> QberEstimate:
    check_confidence(args.confidence)
    return QberEstimate(errors_k=args.k, compared_n=args.n)


def cmd_ci(args: argparse.Namespace, est: QberEstimate) -> int:
    print(f"k = {args.k}, n = {args.n}, confidence = {args.confidence}")
    print(f"point estimate = {_fmt(est.point_estimate)}")
    for method in CIMethod:
        ci = confidence_interval(est, args.confidence, method)
        print(f"{method.value:<15}  [{_fmt(ci.lower)}, {_fmt(ci.upper)}]"
              f"  width {_fmt(ci.width)}")
    return EXIT_OK


def _threshold_inputs(args: argparse.Namespace) -> float:
    check_probability("--qber", args.qber)  # key_rate's own domain
    return args.qber


def cmd_threshold(args: argparse.Namespace, qber: float) -> int:
    root = threshold_root()
    report = key_rate(qber)
    print(f"threshold q*   : {_fmt(root)}")
    print(f"qber           : {_fmt(qber)}")
    print(f"key rate       : {_fmt(report.rate)}")
    print(f"status         : {'secure' if report.secure else 'insecure'}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        inputs = args.inputs(args)
    except ValueError as exc:
        print(f"bb84sim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, inputs)
    except Exception as exc:
        print(f"bb84sim: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, EmptySampleError) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
