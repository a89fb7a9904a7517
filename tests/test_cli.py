import contextlib
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from bb84sim import cli
from bb84sim.cli import (
    AggregateRow,
    _f_grid,
    columns,
    format_aggregate_csv,
    format_trials_csv,
    main,
    parse_csv,
)
from bb84sim.harness import SweepConfig, SweepResult, TrialRow, run_sweep
from bb84sim.protocol import ChannelModel, EveStrategy, SessionConfig, run_session
from test_stats import _cp_oracle

# written out here, not taken from the package, so a reordered or renamed
# field fails a test
TRIAL_HEADER = "f,trial,seed,n_qubits,sifted_count,compared_n,errors_k,qber"
AGGREGATE_HEADER = "f,trials,mean_qber,std_dev,ci_low,ci_high,theory"

SWEEP_FLAGS = [
    "sweep", "--f-step", "0.5", "--trials", "3", "--qubits", "400",
]


def run_cli(args, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


# ---------------------------------------------------------------------------
# f grid


def test_f_grid_default_has_21_points():
    grid = _f_grid(0.0, 1.0, 0.05)
    assert len(grid) == 21
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    assert grid[6] == 0.3  # no floating-point crumbs after rounding


def test_f_grid_coarse_and_degenerate():
    assert _f_grid(0.0, 1.0, 0.5) == (0.0, 0.5, 1.0)
    assert _f_grid(0.25, 0.25, 0.1) == (0.25,)


@given(
    ends=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2).map(sorted),
    step=st.floats(1e-3, 2.0),
)
@example(ends=[0.0, 0.1], step=0.1000000001)
def test_f_grid_stays_within_its_ends(ends, step):
    start, end = ends
    grid = _f_grid(start, end, step)
    assert grid[0] == start
    assert all(a < b for a, b in zip(grid, grid[1:]))
    assert start <= grid[0] and grid[-1] <= end
    # one step short of end at most; 1e-12 absorbs the float rounding of
    # the decimal grid value and of end - grid[-1]
    assert end - grid[-1] < step + 1e-12


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_1(monkeypatch, tmp_path, capsys):
    for argv in (
        [],
        ["not-a-command"],
        ["sweep", "--trials", "1"],
        ["sweep", "--f-step", "-0.1"],
        ["sweep", "--sample-fraction", "1.5"],
        ["sweep", "--ci", "wald"],
        ["sweep", "--out", "missing/x"],
        ["trial", "--eve-fraction", "2.0"],
        ["trial", "--confidence", "1.5"],
        ["trial", "--ci", "wald", "--confidence", "0"],
        ["ci", "--k", "5", "--n", "2"],
        ["ci", "--k", "1", "--n", "0"],
        ["ci", "--k", "1", "--n", "10", "--confidence", "1.0"],
        ["sweep", "--workers", "0"],
        ["threshold", "--qber", "1.5"],
        ["threshold"],
    ):
        code, _, err = run_cli(argv, monkeypatch, tmp_path, capsys)
        assert code == 1, argv
        assert err.strip(), argv


# Both session paths; at p = 0 the counts-only session skips the channel.
@pytest.mark.parametrize("sample_fraction, p, ledger", [
    pytest.param(0.5, 0.1, True, id="0.5"),
    pytest.param(0.999, 0.1, True, id="0.999"),
    pytest.param(0.5, 0.0, True, id="0.5-p0-ledger"),
    pytest.param(0.999, 0.0, True, id="0.999-p0-ledger"),
    pytest.param(0.5, 0.1, False, id="0.5-counts"),
    pytest.param(0.999, 0.1, False, id="0.999-counts"),
    pytest.param(0.5, 0.0, False, id="0.5-p0-counts"),
    pytest.param(0.999, 0.0, False, id="0.999-p0-counts"),
])
def test_memory_estimate_covers_a_session_peak(sample_fraction, p, ledger):
    n = 10**5
    config = SessionConfig(n, EveStrategy.intercept_resend(0.5),
                           ChannelModel.depolarizing(p), sample_fraction, seed=3)
    run_session(config)  # numpy imports its random module on first use
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run_session(config, ledger=ledger)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= n * cli.SESSION_BYTES_PER_QUBIT


# 2 trials a point is the most a row costs: each trial row also carries half
# an aggregate row.
@pytest.mark.parametrize("points, trials", [(200, 2), (20, 50)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trial_row_charge_covers_a_sweeps_peak(fmt, points, trials):
    formats = ((format_trials_csv, format_aggregate_csv) if fmt == "csv"
               else (cli.format_trials_json, cli.format_aggregate_json))
    config = SweepConfig(tuple(i / points for i in range(points)), trials, 1_000)
    # warm: numpy imports its random module on first use, format_json json
    cli.format_trials_json(run_sweep(SweepConfig((0.5,), 2, 1_000)).per_trial_rows)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = run_sweep(config)
        texts = [format_rows(rows) for format_rows, rows
                 in zip(formats, (result.per_trial_rows, result.per_point))]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(texts)
    assert peak <= points * trials * cli.TRIAL_ROW_BYTES


def _no_session(*args, **kwargs):
    raise AssertionError("a session ran")


@pytest.mark.parametrize("argv, cpus, need", [
    (["trial", "--qubits", "1000"], 8, 1000 * cli.SESSION_BYTES_PER_QUBIT),
    (["sweep", "--qubits", "1000", "--workers", "3"], 3,
     3 * 1000 * cli.SESSION_BYTES_PER_QUBIT),
    # no more sessions run at once than a point has trials
    (["sweep", "--f-step", "0.5", "--trials", "2", "--qubits", "1000", "--workers", "100000"],
     8, 2 * 1000 * cli.SESSION_BYTES_PER_QUBIT),
    # nor than the host has CPUs
    (["sweep", "--qubits", "1000", "--workers", "4"], 2,
     2 * 1000 * cli.SESSION_BYTES_PER_QUBIT),
], ids=["trial", "sweep-3-workers", "sweep-2-trials", "sweep-4-workers-2-cpus"])
def test_session_too_large_for_the_host_is_a_usage_error(
        argv, cpus, need, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(cli, "_physical_memory", lambda: 20_000)
    monkeypatch.setattr(cli, "run_session", _no_session)
    monkeypatch.setattr(cli, "run_sweep", _no_session)
    code, out, err = run_cli(argv, monkeypatch, tmp_path, capsys)
    assert code == 1
    assert out == ""
    assert f"needs about {need} bytes" in err and "20000 bytes" in err
    assert f"{need // (1000 * cli.SESSION_BYTES_PER_QUBIT)} session(s) at once" in err
    assert not list(tmp_path.iterdir())


def test_memory_guard_charges_only_the_sessions_that_run_at_once(
        monkeypatch, tmp_path, capsys):
    """4 workers on 2 CPUs run 2 sessions at once, so a memory that fits
    2 sessions of 1000 qubits (46,000 B) but not 4 lets the sweep run."""
    calls = []

    def stand_in_sweep(config, workers):
        calls.append(workers)
        return SweepResult((), ())

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_physical_memory", lambda: 50_000)
    monkeypatch.setattr(cli, "run_sweep", stand_in_sweep)
    code, _, err = run_cli(
        ["sweep", "--qubits", "1000", "--trials", "4", "--workers", "4", "--f-step", "1"],
        monkeypatch, tmp_path, capsys)
    assert code == 0, err
    assert calls == [4]


def test_memory_check_reads_this_hosts_memory(monkeypatch, tmp_path, capsys):
    # 10^15 qubits is far beyond any host; the check rejects it before
    # run_session could try to allocate
    monkeypatch.setattr(cli, "run_session", _no_session)
    if cli._physical_memory() is None:
        pytest.skip("sysconf does not report physical memory here")
    code, _, err = run_cli(["trial", "--qubits", str(10**15)], monkeypatch, tmp_path, capsys)
    assert code == 1
    assert "physical memory" in err


def test_memory_check_refuses_nothing_where_sysconf_cannot_tell(monkeypatch):
    monkeypatch.setattr(os, "sysconf_names", {}, raising=False)
    assert cli._physical_memory() is None
    cli._check_memory(10**30, "10^30 bytes")


@pytest.mark.parametrize("argv, rows", [
    (["sweep", "--qubits", "100"], 21 * 50),
    (["sweep", "--f-step", "0.5", "--trials", "4", "--qubits", "100"], 3 * 4),
])
def test_grid_too_large_for_the_host_is_a_usage_error(argv, rows, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "_physical_memory", lambda: rows * cli.TRIAL_ROW_BYTES - 1)
    monkeypatch.setattr(cli, "run_sweep", _no_session)
    code, out, err = run_cli(argv, monkeypatch, tmp_path, capsys)
    assert code == 1
    assert out == ""
    assert f"need about {rows * cli.TRIAL_ROW_BYTES} bytes" in err and "--f-step" in err
    assert not list(tmp_path.iterdir())


def test_tiny_f_step_is_rejected_before_the_grid_is_built(monkeypatch, tmp_path, capsys):
    # 10^300 points: building the grid first would never return
    monkeypatch.setattr(cli, "run_sweep", _no_session)
    if cli._physical_memory() is None:
        pytest.skip("sysconf does not report physical memory here")
    start = time.perf_counter()
    code, _, err = run_cli(["sweep", "--f-step", "1e-300"], monkeypatch, tmp_path, capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert f"--f-step 1e-300 gives {10**300 + 1} points" in err


def test_runtime_errors_exit_2(monkeypatch, tmp_path, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("session failed")

    monkeypatch.setattr(cli, "run_session", fail)
    code, _, err = run_cli(["trial", "--qubits", "1000"], monkeypatch, tmp_path, capsys)
    assert code == 2
    assert err == "bb84sim: error: session failed\n"


def test_unwritable_out_is_refused_before_any_session(monkeypatch, tmp_path, capsys):
    # /proc exists on Linux but takes no new file
    if not os.path.isdir("/proc"):
        pytest.skip("no /proc on this host")
    try:
        tempfile.TemporaryFile(dir="/proc").close()
    except OSError:
        pass
    else:
        pytest.skip("/proc takes a new file on this host")

    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    code, out, err = run_cli(
        ["sweep", "--qubits", "2000", "--trials", "20", "--f-step", "0.1",
         "--out", "/proc/x"], monkeypatch, tmp_path, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("bb84sim: error: cannot write to --out '/proc/x': ")
    assert err.count("\n") == 1
    assert not list(tmp_path.iterdir())
    assert not os.path.exists("/proc/x_trials.csv")


def test_output_path_that_is_a_directory_is_refused_before_any_session(
        monkeypatch, tmp_path, capsys):
    # open() would fail on it only after the whole run, with the trials
    # file already written
    (tmp_path / "s_aggregate.csv").mkdir()
    monkeypatch.setattr(cli, "run_sweep", _no_session)
    code, out, err = run_cli(
        ["sweep", "--qubits", "200", "--trials", "2", "--f-step", "0.5", "--out", "s"],
        monkeypatch, tmp_path, capsys)
    assert code == 1
    assert out == ""
    assert err == "bb84sim: error: cannot write to 's_aggregate.csv': it is a directory\n"
    assert [path.name for path in tmp_path.iterdir()] == ["s_aggregate.csv"]


class _FillingFile:
    """A file on a disk that fills after its first ten characters."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[:10])
        self.fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("failure", ["aggregate-open", "trials-write"])
def test_a_write_that_fails_late_leaves_no_output(fmt, failure, monkeypatch, tmp_path, capsys):
    """The disk fills after --out passed its checks: the aggregate file
    cannot be opened, or the trials file takes only part of its text. The
    run exits 2 and removes each file it opened; the aggregate file there
    before the run is left as it was, since this run never opened it."""
    failing, step = failure.split("-")
    (tmp_path / f"s_aggregate.{fmt}").write_text("kept\n")

    def full_disk(path, *args, **kwargs):
        if path != f"s_{failing}.{fmt}":
            return open(path, *args, **kwargs)
        if step == "open":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return _FillingFile(open(path, *args, **kwargs))

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    code, out, err = run_cli(
        ["sweep", "--f-step", "0.5", "--trials", "2", "--qubits", "200", "--out", "s",
         "--format", fmt], monkeypatch, tmp_path, capsys)
    assert code == 2
    assert out == ""
    assert err == f"bb84sim: error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
    assert [path.name for path in tmp_path.iterdir()] == [f"s_aggregate.{fmt}"]
    assert (tmp_path / f"s_aggregate.{fmt}").read_text() == "kept\n"


def test_zero_workers_is_refused_before_any_session(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "run_session", _no_session)
    monkeypatch.setattr(cli, "run_sweep", _no_session)
    code, out, err = run_cli(["sweep", "--workers", "0"], monkeypatch, tmp_path, capsys)
    assert code == 1
    assert out == ""
    assert err == "bb84sim: error: workers must be at least 1, got 0\n"
    assert not list(tmp_path.iterdir())


def test_count_no_float_can_hold_is_a_usage_error(monkeypatch, tmp_path, capsys):
    code, out, err = run_cli(["ci", "--k", "1", "--n", str(2**1024)],
                             monkeypatch, tmp_path, capsys)
    assert code == 1
    assert out == ""
    assert err == "bb84sim: error: compared_n must fit a float, about 1.8e308 at most\n"


def test_unsampleable_session_is_a_usage_error(monkeypatch, tmp_path, capsys):
    # one transmitted qubit can never spare a comparison sample
    code, out, err = run_cli(["trial", "--qubits", "1"], monkeypatch, tmp_path, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("bb84sim: error: no sifted bits to sample")
    assert err.count("\n") == 1 and "increase n_qubits" in err


def test_unsampleable_sweep_fails_alike_for_any_worker_count(monkeypatch, tmp_path, capsys):
    errors = set()
    for workers in ("1", "3"):
        code, out, err = run_cli(
            ["sweep", "--qubits", "5", "--trials", "4", "--f-step", "0.5",
             "--workers", workers], monkeypatch, tmp_path, capsys)
        assert code == 1, workers
        assert out == "" and err.count("bb84sim: error:") == 1, workers
        errors.add(err)
    assert len(errors) == 1
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# the exit-status contract: every invocation ends in a report (0) or one
# usage error line (1), never in 2


def _flag(name, strategy):
    """`--name=value`; the `=` form keeps a value such as -0.0 from reading
    as a flag."""
    return strategy.map(lambda v: [f"--{name.replace('_', '-')}={v}"])


def _maybe(name, strategy):
    """The flag, or nothing, so that its default runs too."""
    return st.one_of(st.just([]), _flag(name, strategy))


def _argv(command, *flags):
    return st.tuples(*flags).map(lambda parts: [command, *sum(parts, [])])


_PROBABILITY = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
_CONFIDENCE = st.one_of(st.sampled_from([5e-324, 1 - 2**-53]),
                        st.floats(5e-324, 1 - 2**-53))
_COUNTS = st.integers(0, 10**19)
# --qubits is always drawn, so no session runs at its default of 50,000
_SESSION_FLAGS = (
    _flag("qubits", st.integers(1, 2_000)),
    _maybe("sample_fraction", st.one_of(st.floats(0.0, 1e-3), st.floats(0.999, 1.0))),
    _maybe("seed", st.integers(-1, 2**64)),
    _maybe("depolarizing_p", _PROBABILITY),
    _maybe("confidence", _CONFIDENCE),
)
_ARGV = st.one_of(
    # a step of at least 0.25 and at most 4 trials keep a sweep to 20 sessions
    _argv("sweep", _maybe("f_start", _PROBABILITY), _maybe("f_end", _PROBABILITY),
          _flag("f_step", st.floats(0.25, 2.0)), _flag("trials", st.integers(2, 4)),
          _maybe("workers", st.integers(1, 8)),
          _maybe("format", st.sampled_from(["csv", "json"])), *_SESSION_FLAGS),
    _argv("trial", _maybe("eve_fraction", _PROBABILITY),
          _maybe("ci", st.sampled_from(cli._CI_CHOICES)),
          _maybe("policy", st.sampled_from(cli._POLICY_CHOICES)), *_SESSION_FLAGS),
    _argv("ci", _flag("k", _COUNTS), _flag("n", _COUNTS), _maybe("confidence", _CONFIDENCE)),
    _argv("threshold", _flag("qber", _PROBABILITY)),
    # what argparse itself refuses: a malformed value, an unknown flag or
    # subcommand, a missing required flag, no argv at all
    st.tuples(st.sampled_from(["sweep", "trial", "ci", "threshold"]),
              st.sampled_from(["--qubits=x", "--workers=2.5", "--bogus", "--ci=foo"])
              ).map(list),
    st.sampled_from([[], ["frobnicate"], ["ci", "--k=1"]]),
)
_SEED_ENV = st.one_of(st.none(), st.integers(0, 2**64 - 1).map(str),
                      st.sampled_from(["", "x", "1.5", "-1", str(2**64)]))


@settings(deadline=None)
@given(argv=_ARGV, seed_env=_SEED_ENV)
@example(argv=["trial", "--qubits=1"], seed_env=None)
@example(argv=["trial", "--qubits=2", "--seed=5"], seed_env=None)
@example(argv=["trial", "--qubits=3", "--sample-fraction=0.1"], seed_env=None)
@example(argv=["sweep", "--qubits=4", "--trials=2", "--f-step=0.5"], seed_env=None)
@example(argv=["ci", "--k=1", f"--n={2**1024}"], seed_env=None)
@example(argv=[], seed_env=None)
@example(argv=["frobnicate"], seed_env=None)
@example(argv=["ci", "--k=1"], seed_env=None)
@example(argv=["trial", "--qubits=x"], seed_env=None)
@example(argv=["sweep", "--workers=2.5"], seed_env=None)
@example(argv=["trial", "--bogus"], seed_env=None)
@example(argv=["trial", "--ci=foo"], seed_env=None)
def test_every_invocation_ends_in_a_report_or_a_usage_error(argv, seed_env):
    out, err = io.StringIO(), io.StringIO()
    with (tempfile.TemporaryDirectory() as out_dir, mock.patch.dict(os.environ),
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        os.environ.pop(cli.SEED_ENV_VAR, None)
        if seed_env is not None:
            os.environ[cli.SEED_ENV_VAR] = seed_env
        if argv[:1] == ["sweep"]:
            argv = [*argv, f"--out={os.path.join(out_dir, 's')}"]
        code = main(argv)
        written = sorted(os.listdir(out_dir))
    # argparse names the subcommand whose flags it refuses
    errors = [line for line in err.getvalue().splitlines()
              if re.match(r"bb84sim( [a-z]+)?: error:", line)]
    assert code in (0, 1), (argv, err.getvalue())
    assert len(errors) == (code == 1), (argv, err.getvalue())
    if argv[:1] == ["sweep"] and code == 0:
        ext = "json" if "--format=json" in argv else "csv"
        assert written == [f"s_aggregate.{ext}", f"s_trials.{ext}"]
    else:
        assert written == []


@pytest.mark.parametrize("argv, status", [
    pytest.param(["threshold", "--qber", "0.05"], 0, id="threshold"),
    pytest.param(["trial", "--qubits", "1"], 1, id="trial-error"),
])
def test_python_m_bb84sim_is_main(argv, status, monkeypatch, tmp_path, capsys):
    """`python -m bb84sim` exits, prints and reports an error as cli.main does."""
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    src = str(Path(cli.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-m", "bb84sim", *argv], cwd=tmp_path, capture_output=True,
        env=dict(os.environ, PYTHONPATH=src), text=True, timeout=120)
    assert proc.returncode == status
    assert proc.stderr.count("bb84sim: error:") == len(proc.stderr.splitlines()) == status
    assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(
        argv, monkeypatch, tmp_path, capsys)


def test_success_exits_0(monkeypatch, tmp_path, capsys):
    code, _, _ = run_cli(["threshold", "--qber", "0.05"], monkeypatch, tmp_path, capsys)
    assert code == 0


# ---------------------------------------------------------------------------
# threshold and ci reports


def test_threshold_report_secure(monkeypatch, tmp_path, capsys):
    code, out, _ = run_cli(["threshold", "--qber", "0.05"], monkeypatch, tmp_path, capsys)
    assert code == 0
    assert "0.110028" in out
    assert "0.427206" in out
    assert "secure" in out


def test_threshold_report_insecure(monkeypatch, tmp_path, capsys):
    code, out, _ = run_cli(["threshold", "--qber", "0.25"], monkeypatch, tmp_path, capsys)
    assert code == 0
    assert "-0.622556" in out
    assert "insecure" in out


def test_threshold_above_one_half_is_insecure(monkeypatch, tmp_path, capsys):
    # key_rate's domain is [0, 1]; above 0.5 the rate is held at -1
    code, out, _ = run_cli(["threshold", "--qber", "0.7"], monkeypatch, tmp_path, capsys)
    assert code == 0
    assert "key rate       : -1.000000\n" in out
    assert "status         : insecure\n" in out


def test_threshold_near_root_rate_is_tiny(monkeypatch, tmp_path, capsys):
    _, out, _ = run_cli(["threshold", "--qber", "0.11"], monkeypatch, tmp_path, capsys)
    rate = float(re.search(r"key rate\s*:\s*(-?\d+\.\d+)", out).group(1))
    assert abs(rate) < 0.001


def test_ci_report_at_zero_errors(monkeypatch, tmp_path, capsys):
    code, out, _ = run_cli(["ci", "--k", "0", "--n", "100"], monkeypatch, tmp_path, capsys)
    assert code == 0
    assert "wald             [0.000000, 0.000000]" in out
    assert "0.036993" in out   # score interval upper bound
    assert "0.036217" in out   # exact interval upper bound
    assert "0.135810" in out   # concentration-bound half-width


def test_ci_report_rounds_the_exact_bound_as_the_oracle_does(monkeypatch, tmp_path, capsys):
    # The exact lower bound is 0.1324035000947, half a unit of the 6th decimal
    # away from a rounding boundary; a bound that is only within 1e-9 of it
    # can print 0.132403.
    _, out, _ = run_cli(["ci", "--k", "23", "--n", "114"], monkeypatch, tmp_path, capsys)
    assert "clopper-pearson  [0.132404, 0.287190]" in out
    lower, upper = _cp_oracle(23, 114)
    assert (f"{lower:.6f}", f"{upper:.6f}") == ("0.132404", "0.287190")


def test_ci_report_brackets_the_midpoint(monkeypatch, tmp_path, capsys):
    _, out, _ = run_cli(["ci", "--k", "50", "--n", "100"], monkeypatch, tmp_path, capsys)
    bounds = re.findall(r"\[(\d\.\d{6}), (\d\.\d{6})\]", out)
    assert len(bounds) == 4
    for lo, hi in bounds:
        assert float(lo) <= 0.5 <= float(hi)


def test_confidence_is_printed_unrounded(monkeypatch, tmp_path, capsys):
    conf = "0.999999999999"  # a :g format would round this to 1
    _, out, _ = run_cli(["ci", "--k", "1", "--n", "10", "--confidence", conf],
                        monkeypatch, tmp_path, capsys)
    assert f"confidence = {conf}\n" in out
    _, out, _ = run_cli(["trial", "--qubits", "200", "--confidence", conf],
                        monkeypatch, tmp_path, capsys)
    assert f"clopper-pearson {conf} CI :" in out


def test_ci_report_large_sample(monkeypatch, tmp_path, capsys):
    _, out, _ = run_cli(["ci", "--k", "6238", "--n", "25000"], monkeypatch, tmp_path, capsys)
    assert "point estimate = 0.249520" in out
    widths = [float(w) for w in re.findall(r"width (\d\.\d{6})", out)]
    assert len(widths) == 4
    assert widths[3] == max(widths)  # the distribution-free bound is widest


@pytest.mark.parametrize("k, n", [("1000", "1000000000000"), ("5", "1000000000000000000")])
def test_ci_report_at_a_huge_sample(k, n, monkeypatch, tmp_path, capsys):
    # both exact bounds lie below BISECT_TOL here, so both are bisected, and
    # each prints as 0 to six decimals
    code, out, _ = run_cli(["ci", "--k", k, "--n", n], monkeypatch, tmp_path, capsys)
    assert code == 0
    assert "clopper-pearson  [0.000000, 0.000000]" in out


# ---------------------------------------------------------------------------
# trial report


def test_trial_clean_run(monkeypatch, tmp_path, capsys):
    code, out, _ = run_cli(
        ["trial", "--eve-fraction", "0", "--qubits", "50000"],
        monkeypatch, tmp_path, capsys,
    )
    assert code == 0
    assert "qber           : 0.000000" in out
    assert "decision       : PROCEED" in out
    assert "key rate       : 1.000000 (secure)" in out


def test_trial_runs_the_counts_only_session(monkeypatch, tmp_path, capsys):
    # the report reads only the counts, so no ledger is built
    calls = []

    def recording_session(config, ledger=True):
        calls.append(ledger)
        return run_session(config, ledger)

    monkeypatch.setattr(cli, "run_session", recording_session)
    code, _, _ = run_cli(["trial", "--qubits", "1000"], monkeypatch, tmp_path, capsys)
    assert code == 0
    assert calls == [False]


def test_trial_under_full_attack(monkeypatch, tmp_path, capsys):
    code, out, _ = run_cli(
        ["trial", "--eve-fraction", "1.0"], monkeypatch, tmp_path, capsys
    )
    assert code == 0
    assert "decision       : ABORT" in out
    assert "insecure" in out


def test_trial_with_qber_above_half_reports_abort(monkeypatch, tmp_path, capsys):
    # a fully depolarized, fully attacked session samples 8 errors in 10
    code, out, _ = run_cli(
        ["trial", "--eve-fraction", "1", "--depolarizing-p", "1",
         "--qubits", "40", "--seed", "1"],
        monkeypatch, tmp_path, capsys,
    )
    assert code == 0
    assert "qber           : 0.800000" in out
    assert "decision       : ABORT" in out
    assert "key rate       : -1.000000 (insecure)" in out


def test_trial_point_policy_flag(monkeypatch, tmp_path, capsys):
    _, out, _ = run_cli(
        ["trial", "--eve-fraction", "0", "--qubits", "2000", "--policy", "point"],
        monkeypatch, tmp_path, capsys,
    )
    assert "policy         : point" in out
    assert "qber used      : 0.000000" in out


def test_trial_is_deterministic(monkeypatch, tmp_path, capsys):
    argv = ["trial", "--eve-fraction", "0.5", "--qubits", "200", "--seed", "11"]
    _, first, _ = run_cli(argv, monkeypatch, tmp_path, capsys)
    _, second, _ = run_cli(argv, monkeypatch, tmp_path, capsys)
    assert first == second


def test_seed_env_var_overrides_default(monkeypatch, tmp_path, capsys):
    argv = ["trial", "--qubits", "1000"]
    monkeypatch.setenv("BB84SIM_SEED", "7")
    _, from_env, _ = run_cli(argv, monkeypatch, tmp_path, capsys)
    monkeypatch.delenv("BB84SIM_SEED")
    _, explicit, _ = run_cli(argv + ["--seed", "7"], monkeypatch, tmp_path, capsys)
    _, default, _ = run_cli(argv, monkeypatch, tmp_path, capsys)
    assert from_env == explicit
    assert from_env != default


def test_seed_flag_beats_env_var(monkeypatch, tmp_path, capsys):
    argv = ["trial", "--qubits", "1000", "--seed", "7"]
    monkeypatch.setenv("BB84SIM_SEED", "9999")
    _, with_env, _ = run_cli(argv, monkeypatch, tmp_path, capsys)
    monkeypatch.delenv("BB84SIM_SEED")
    _, without, _ = run_cli(argv, monkeypatch, tmp_path, capsys)
    assert with_env == without


def test_invalid_seed_env_var_is_a_usage_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("BB84SIM_SEED", "not-a-number")
    code, _, err = run_cli(["trial"], monkeypatch, tmp_path, capsys)
    assert code == 1
    assert "BB84SIM_SEED" in err


# ---------------------------------------------------------------------------
# sweep files


def test_sweep_writes_csv_with_exact_headers(monkeypatch, tmp_path, capsys):
    code, out, _ = run_cli(SWEEP_FLAGS, monkeypatch, tmp_path, capsys)
    assert code == 0
    trials_text = (tmp_path / "sweep_trials.csv").read_text()
    aggregate_text = (tmp_path / "sweep_aggregate.csv").read_text()
    assert trials_text.splitlines()[0] == TRIAL_HEADER
    assert aggregate_text.splitlines()[0] == AGGREGATE_HEADER
    assert len(trials_text.splitlines()) == 1 + 3 * 3
    assert len(aggregate_text.splitlines()) == 1 + 3


def test_sweep_stdout_table_matches_aggregate_file(monkeypatch, tmp_path, capsys):
    _, out, err = run_cli(SWEEP_FLAGS, monkeypatch, tmp_path, capsys)
    lines = out.strip().splitlines()
    assert lines[0].split() == AGGREGATE_HEADER.split(",")
    rows = parse_csv(AggregateRow, (tmp_path / "sweep_aggregate.csv").read_text())
    assert len(lines) == 1 + len(rows)
    for line, row in zip(lines[1:], rows):
        cells = line.split()
        assert float(cells[0]) == row.f
        assert int(cells[1]) == row.trials
        assert float(cells[2]) == row.mean_qber
        assert float(cells[6]) == row.theory
    assert "wrote sweep_trials.csv" in err


# sha256 of each file and of stdout, per run; pinned so that no change to
# the serializers can move an output byte unnoticed
SWEEP_GOLDEN = {
    "csv": (
        ["sweep", "--f-step", "0.25", "--trials", "3", "--qubits", "2000"],
        {
            "sweep_trials.csv": "5d9b6e07d47ad64b8946b0f4b8c3f935c08d6f468c15b16fba8d0da7985bdc1e",
            "sweep_aggregate.csv": "370514cb28a93e90f97fcdfd8edf800e8e32b691feee4369170bd5c978e95488",
            "stdout": "a2f2104e2872ef75d3f59c647b5c20258e1e911fb07d8561a53e740160f4b87c",
        },
    ),
    "json": (
        ["sweep", "--f-step", "0.25", "--trials", "3", "--qubits", "2000",
         "--depolarizing-p", "0.05", "--format", "json"],
        {
            "sweep_trials.json": "1b92417b4f0daf8e014bbd15dfdc8e5f30aebf22dc4644d318bc1e27a20dd6ca",
            "sweep_aggregate.json": "bf67388899aa89d48f99203b6c4db6e1aa63527ccc07ec592061db709d3e90db",
            "stdout": "9a63c6a653ed0caefff84dcc7fb525151b492624b0b7118bb1247b84cf6cde26",
        },
    ),
}


@pytest.mark.parametrize("run", sorted(SWEEP_GOLDEN))
def test_sweep_output_bytes_are_golden(run, monkeypatch, tmp_path, capsys):
    argv, golden = SWEEP_GOLDEN[run]
    code, out, _ = run_cli(argv, monkeypatch, tmp_path, capsys)
    assert code == 0
    digests = {"stdout": hashlib.sha256(out.encode()).hexdigest()}
    for name in golden.keys() - {"stdout"}:
        digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digests == golden


def test_sweep_csv_round_trips_byte_identical(monkeypatch, tmp_path, capsys):
    run_cli(SWEEP_FLAGS + ["--out", "rt"], monkeypatch, tmp_path, capsys)
    trials_text = (tmp_path / "rt_trials.csv").read_text()
    aggregate_text = (tmp_path / "rt_aggregate.csv").read_text()
    assert format_trials_csv(parse_csv(TrialRow, trials_text)) == trials_text
    assert format_aggregate_csv(parse_csv(AggregateRow, aggregate_text)) == aggregate_text


def test_format_csv_writes_the_csv_modules_bytes():
    """format_csv joins cells without the csv module; on a sweep's rows it
    gives the bytes a csv.writer gave, since no cell needs quoting."""
    import csv

    config = SweepConfig(f_values=(0.0, 0.5, 1.0), trials_per_f=3, n_qubits=400)
    result = run_sweep(config, workers=2)
    for row_type, rows in ((TrialRow, result.per_trial_rows),
                           (AggregateRow, result.per_point)):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerows(cli._lines(row_type, rows))
        assert cli.format_csv(row_type, rows) == buf.getvalue()
        assert buf.getvalue().count("\n") == len(rows) + 1


# every int a row can hold and every float a sweep writes, with -0.0
_CELLS = {int: st.integers(0, 2**64), float: st.one_of(st.just(-0.0), st.floats(0.0, 1.0))}


def _table(row_type):
    row = st.builds(row_type, *(_CELLS[kind] for _, kind in columns(row_type)))
    return st.tuples(st.just(row_type), st.lists(row, max_size=5))


@given(table=st.one_of(_table(TrialRow), _table(AggregateRow)))
def test_parse_csv_inverts_format_csv(table):
    row_type, rows = table
    text = cli.format_csv(row_type, rows)
    assert cli.format_csv(row_type, parse_csv(row_type, text)) == text


def test_parse_csv_refuses_a_wrong_header_or_empty_text():
    with pytest.raises(ValueError, match="unexpected TrialRow CSV header: 'f,trials,"):
        parse_csv(TrialRow, AGGREGATE_HEADER + "\n")
    with pytest.raises(ValueError, match="unexpected AggregateRow CSV header: 'trials,f,"):
        parse_csv(AggregateRow, AGGREGATE_HEADER.replace("f,trials", "trials,f") + "\n")
    with pytest.raises(ValueError, match="unexpected AggregateRow CSV header: ''"):
        parse_csv(AggregateRow, "")


def test_parse_csv_reads_crlf_line_ends(tmp_path):
    rows = [AggregateRow(0.5, 3, 0.125, 0.01, 0.1, 0.15, 0.125),
            AggregateRow(1.0, 3, 0.25, 0.0, 0.25, 0.25, 0.25)]
    path = tmp_path / "a.csv"
    path.write_bytes(cli.format_csv(AggregateRow, rows).replace("\n", "\r\n").encode())
    with open(path, encoding="utf-8", newline="") as fh:
        text = fh.read()
    assert text.count("\r\n") == 3
    assert parse_csv(AggregateRow, text) == rows


def test_sweep_repeat_runs_are_byte_identical(monkeypatch, tmp_path, capsys):
    run_cli(SWEEP_FLAGS + ["--out", "a"], monkeypatch, tmp_path, capsys)
    run_cli(SWEEP_FLAGS + ["--out", "b"], monkeypatch, tmp_path, capsys)
    assert (tmp_path / "a_trials.csv").read_bytes() == (tmp_path / "b_trials.csv").read_bytes()
    assert (tmp_path / "a_aggregate.csv").read_bytes() == (tmp_path / "b_aggregate.csv").read_bytes()


def test_sweep_workers_flag_is_invisible_in_output(monkeypatch, tmp_path, capsys):
    run_cli(SWEEP_FLAGS + ["--out", "w1", "--workers", "1"], monkeypatch, tmp_path, capsys)
    run_cli(SWEEP_FLAGS + ["--out", "w4", "--workers", "4"], monkeypatch, tmp_path, capsys)
    assert (tmp_path / "w1_trials.csv").read_bytes() == (tmp_path / "w4_trials.csv").read_bytes()
    assert (tmp_path / "w1_aggregate.csv").read_bytes() == (tmp_path / "w4_aggregate.csv").read_bytes()


def test_sweep_json_matches_csv_numerically(monkeypatch, tmp_path, capsys):
    run_cli(SWEEP_FLAGS + ["--out", "x"], monkeypatch, tmp_path, capsys)
    run_cli(SWEEP_FLAGS + ["--out", "x", "--format", "json"], monkeypatch, tmp_path, capsys)

    for schema, row_type, header in (
        ("trials", TrialRow, TRIAL_HEADER),
        ("aggregate", AggregateRow, AGGREGATE_HEADER),
    ):
        csv_rows = parse_csv(row_type, (tmp_path / f"x_{schema}.csv").read_text())
        json_doc = json.loads((tmp_path / f"x_{schema}.json").read_text())
        assert json_doc["schema"] == schema
        assert json_doc["columns"] == header.split(",")
        assert len(json_doc["rows"]) == len(csv_rows)
        for jrow, crow in zip(json_doc["rows"], csv_rows):
            assert list(jrow) == json_doc["columns"]
            for name, kind in columns(row_type):
                # round(x, 6) == float(f"{x:.6f}"), so the formats agree exactly
                assert type(jrow[name]) is kind
                assert jrow[name] == getattr(crow, name)


def test_sweep_from_negative_zero_writes_zero(monkeypatch, tmp_path, capsys):
    code, _, _ = run_cli(["sweep", "--f-start", "-0.0", "--f-step", "0.5",
                          "--trials", "2", "--qubits", "200", "--out", "z"],
                         monkeypatch, tmp_path, capsys)
    assert code == 0
    for name in ("z_trials.csv", "z_aggregate.csv"):
        first_row = (tmp_path / name).read_text().splitlines()[1]
        assert first_row.startswith("0.000000,"), name
        assert "-0.000000" not in first_row, name


def test_sweep_f_step_produces_expected_rows(monkeypatch, tmp_path, capsys):
    _, out, _ = run_cli(SWEEP_FLAGS, monkeypatch, tmp_path, capsys)
    rows = parse_csv(AggregateRow, (tmp_path / "sweep_aggregate.csv").read_text())
    assert [r.f for r in rows] == [0.0, 0.5, 1.0]


def test_sweep_trials_csv_seeds_are_reproducible(monkeypatch, tmp_path, capsys):
    from bb84sim.harness import derive_trial_seed

    run_cli(SWEEP_FLAGS, monkeypatch, tmp_path, capsys)
    rows = parse_csv(TrialRow, (tmp_path / "sweep_trials.csv").read_text())
    f_index = {0.0: 0, 0.5: 1, 1.0: 2}
    for row in rows:
        assert row.seed == derive_trial_seed(42, f_index[row.f], row.trial)
