"""scipy is imported only when a Clopper-Pearson interval is computed, and
`statistics` only when a normal quantile is; neither loads with the package
or for the security threshold.

Each check runs in a fresh interpreter, because this test session has
already imported scipy (test_stats.py takes its reference values from
scipy.stats).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bb84sim

SRC = str(Path(bb84sim.__file__).resolve().parent.parent)

CLI_SNIPPET = """
import sys
from bb84sim import cli
status = cli.main({argv!r})
print(status, "scipy" in sys.modules)
"""

# `bb84sim ci --k 3 --n 100`, as printed before scipy became a lazy import
CI_3_100 = """\
k = 3, n = 100, confidence = 0.95
point estimate = 0.030000
wald             [0.000000, 0.063434]  width 0.063434
wilson           [0.010255, 0.084519]  width 0.074265
clopper-pearson  [0.006230, 0.085176]  width 0.078946
hoeffding        [0.000000, 0.165810]  width 0.165810
"""


def _run(code, cwd):
    """stdout of `python -c code` with bb84sim importable, split off its
    last line."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("BB84SIM_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    *printed, last = proc.stdout.splitlines(keepends=True)
    return "".join(printed), last.split()


def test_import_and_threshold_root_leave_scipy_and_statistics_unloaded(tmp_path):
    code = ("import sys, bb84sim, bb84sim.cli\n"
            "bb84sim.threshold_root()\n"
            "print('scipy' in sys.modules, 'statistics' in sys.modules)")
    assert _run(code, tmp_path)[1] == ["False", "False"]


@pytest.mark.parametrize("argv", [
    ["threshold", "--qber", "0.05"],
    ["sweep", "--f-step", "0.5", "--trials", "2", "--qubits", "200", "--out", "s"],
    ["trial", "--ci", "wald", "--qubits", "200"],
], ids=["threshold", "sweep", "trial-wald"])
def test_commands_without_clopper_pearson_leave_scipy_unloaded(argv, tmp_path):
    assert _run(CLI_SNIPPET.format(argv=argv), tmp_path)[1] == ["0", "False"]


def test_ci_loads_scipy_and_prints_the_same_bytes(tmp_path):
    argv = ["ci", "--k", "3", "--n", "100"]
    printed, last = _run(CLI_SNIPPET.format(argv=argv), tmp_path)
    assert last == ["0", "True"]
    assert printed == CI_3_100
