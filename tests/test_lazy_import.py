"""Heavy imports wait for the code that uses them. numpy is imported by the
functions that draw or bin, the thread pool only for more than one worker,
`json` and `csv` only by the formats that write them, scipy only when a
Clopper-Pearson interval or a binomial tail is computed and `statistics`
only when a normal quantile is. None of them loads with the package or for
the security threshold, yet every bb84sim module still does.

Each check runs in a fresh interpreter, because this test session has
already imported numpy and scipy (test_stats.py takes its reference values
from scipy.stats).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.special

import bb84sim
from bb84sim import cli

SRC = str(Path(bb84sim.__file__).resolve().parent.parent)

HEAVY = ("numpy", "scipy", "statistics", "concurrent.futures", "json", "csv")

# Each snippet prints its result, then the HEAVY modules it loaded.
LOADED = "print(*sorted(set({heavy!r}) & set(sys.modules)))".format(heavy=HEAVY)

CLI_SNIPPET = """
import sys
from bb84sim import cli
print(cli.main({argv!r}))
""" + LOADED

# `bb84sim ci --k 3 --n 100`, as printed before scipy became a lazy import
CI_3_100 = """\
k = 3, n = 100, confidence = 0.95
point estimate = 0.030000
wald             [0.000000, 0.063434]  width 0.063434
wilson           [0.010255, 0.084519]  width 0.074265
clopper-pearson  [0.006230, 0.085176]  width 0.078946
hoeffding        [0.000000, 0.165810]  width 0.165810
"""

SWEEP_ARGV = ["sweep", "--f-step", "0.5", "--trials", "3", "--qubits", "400",
              "--format", "json", "--out", "s"]


def _run(code, cwd):
    """(stdout up to the line of loaded modules, the set of them) of
    `python -c code` with bb84sim importable."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("BB84SIM_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    *printed, last = proc.stdout.splitlines(keepends=True)
    return "".join(printed), set(last.split())


def test_import_and_threshold_root_load_no_heavy_module(tmp_path):
    code = ("import sys, bb84sim, bb84sim.cli\n"
            "bb84sim.threshold_root()\n") + LOADED
    assert _run(code, tmp_path)[1] == set()


def test_import_loads_every_bb84sim_module(tmp_path):
    # The benchmark relies on this: perfbench/spans.py `Tracer.install` looks
    # up each traced module in sys.modules, and perfbench's `QueryRunner`
    # reads `core`, `stats` and `decision` as attributes of the package.
    # Heavy imports are deferred inside functions, never by module.
    code = ("import sys, bb84sim\n"
            "print(*sorted(n for n in sys.modules if n.startswith('bb84sim.')))\n"
            ) + LOADED
    printed, _ = _run(code, tmp_path)
    assert printed.split() == [f"bb84sim.{name}" for name in
                               ("core", "decision", "harness", "protocol", "stats")]


@pytest.mark.parametrize("argv, unloaded", [
    (["threshold", "--qber", "0.05"], {"scipy", "numpy"}),
    (["sweep", "--f-step", "0.5", "--trials", "2", "--qubits", "200", "--out", "s"],
     {"scipy", "concurrent.futures"}),
    (["trial", "--ci", "wald", "--qubits", "200"], {"scipy"}),
], ids=["threshold", "sweep", "trial-wald"])
def test_commands_without_clopper_pearson_leave_scipy_unloaded(argv, unloaded, tmp_path):
    """Also that `threshold` leaves numpy unloaded and a 1-worker sweep the
    thread pool."""
    printed, loaded = _run(CLI_SNIPPET.format(argv=argv), tmp_path)
    assert printed.splitlines()[-1] == "0"
    assert not unloaded & loaded


def test_ci_loads_scipy_and_prints_the_same_bytes(tmp_path):
    argv = ["ci", "--k", "3", "--n", "100"]
    printed, loaded = _run(CLI_SNIPPET.format(argv=argv), tmp_path)
    assert "scipy" in loaded
    assert printed == CI_3_100 + "0\n"


@pytest.mark.parametrize("tail, a, b, x", [
    ("bdtr", 97, 4, 0.95), ("bdtrc", 4, 97, 0.05),
])
def test_a_binomial_tail_loads_scipy_on_its_first_call(tail, a, b, x, tmp_path):
    """Reading the kernels' names loads nothing; the first call binds betainc."""
    code = ("import sys\nfrom bb84sim import stats\n"
            "stand_in = stats.betainc\n"
            "stats.betaincinv\n"
            "print('scipy' in sys.modules)\n"
            f"print(repr(stats.{tail}(3, 100, 0.05)))\n"
            "print(stats.betainc is stand_in)\n") + LOADED
    printed, loaded = _run(code, tmp_path)
    read_loaded, value, still_stand_in = printed.split()
    assert read_loaded == "False"
    assert "scipy" in loaded
    assert float(value) == float(scipy.special.betainc(a, b, x))
    assert still_stand_in == "False"


def test_two_worker_sweep_writes_the_bytes_of_one_worker(tmp_path, monkeypatch, capsys):
    # In the fresh interpreter numpy is first imported by run_session on the
    # pool's threads.
    pooled, one = tmp_path / "pooled", tmp_path / "one"
    pooled.mkdir()
    one.mkdir()
    printed, loaded = _run(CLI_SNIPPET.format(argv=SWEEP_ARGV + ["--workers", "2"]),
                           pooled)
    assert {"concurrent.futures", "numpy", "json"} <= loaded

    monkeypatch.chdir(one)
    monkeypatch.delenv("BB84SIM_SEED", raising=False)
    assert cli.main(SWEEP_ARGV) == 0
    assert printed == capsys.readouterr().out + "0\n"
    for name in ("s_trials.json", "s_aggregate.json"):
        assert (pooled / name).read_bytes() == (one / name).read_bytes()
