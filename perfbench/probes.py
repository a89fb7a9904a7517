"""Measurements taken in fresh interpreters: set-up time, the import
breakdown from `-X importtime`, and peak allocation of one large session.

Each probe runs `python -c <snippet>` against the checkout's `src/`, waits
for it to exit and reads one JSON line from its stdout.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from yardstick import Yardstick, pinned

PROBE_TIMEOUT_S = 60
YARDSTICKS_PER_SETUP = 6  # before each interpreter; about a tenth of its time

SETUP_SNIPPET = """
import json, time
t0 = time.perf_counter()
import bb84sim, bb84sim.cli
t1 = time.perf_counter()
bb84sim.threshold_root()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "threshold_root_first_s": t2 - t1}))
"""

ALLOC_QUBITS = 1_000_000
ALLOC_SNIPPET = f"""
import json, tracemalloc
from bb84sim import ChannelModel, EveStrategy, SessionConfig, TransmissionLedger, run_session
config = SessionConfig({ALLOC_QUBITS}, EveStrategy.intercept_resend(0.5),
                       ChannelModel.ideal(), 0.5, seed=42)
tracemalloc.start()
base = tracemalloc.get_traced_memory()[0]
tracemalloc.reset_peak()
result = run_session(config)
peak = tracemalloc.get_traced_memory()[1] - base
tracemalloc.stop()
ledger = sum(getattr(result.records, c).nbytes for c in TransmissionLedger.__slots__)
print(json.dumps({{"peak_alloc_bytes": peak, "ledger_bytes": ledger}}))
"""


def _env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("BB84SIM_SEED", None)
    env["PYTHONHASHSEED"] = "0"  # fixed hashing, so allocation counts repeat
    return env


def _run(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=root, env=_env(root), capture_output=True,
        text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )


def setup(root: Path, repeats: int) -> dict[str, float]:
    """Median over `repeats` fresh interpreters (after one warm-up that fills
    the bytecode cache) of: whole process wall time, raw (`setup_raw_s`) and
    scaled to the yardstick's reference speed (`setup_s`), and the first
    `threshold_root()` call."""
    _run(root, ["-c", SETUP_SNIPPET])
    walls, firsts = [], []
    yard = Yardstick(YARDSTICKS_PER_SETUP)
    with pinned():
        for _ in range(repeats):
            reference = yard.run()
            start = time.perf_counter()
            out = _run(root, ["-c", SETUP_SNIPPET])
            walls.append(time.perf_counter() - start)
            yard.pair(walls[-1], reference)
            firsts.append(json.loads(out.stdout.strip().splitlines()[-1])["threshold_root_first_s"])
    return {
        "setup_s": yard.scaled(),
        "setup_raw_s": statistics.median(walls),
        "threshold_root_first_s": statistics.median(firsts),
        "setup_samples": walls,
        "setup_yardstick_samples": yard.samples,
    }


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing bb84sim and its CLI: in total, in numpy and
    scipy (cumulative time of each outermost import; numpy modules that
    scipy pulls in count as scipy), and in bb84sim's own modules (self
    time)."""
    entries = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((int(m[1]), int(m[2]), len(m[3]) // 2, m[4]))

    def rooted(name: str, pkg: str) -> bool:
        return name == pkg or name.startswith(pkg + ".")

    totals = {"numpy": 0, "scipy": 0}
    stack: list[str] = []
    # importtime prints children before parents; walk parents first.
    for _, cumulative, depth, name in reversed(entries):
        del stack[depth:]
        for pkg in totals:
            if rooted(name, pkg) and not any(rooted(a, p) for a in stack for p in totals):
                totals[pkg] += cumulative
        stack.append(name)
    total = sum(c for _, c, d, n in entries if d == 0 and rooted(n, "bb84sim"))
    own = sum(s for s, _, _, n in entries if rooted(n, "bb84sim"))
    return {
        "import.total_s": total / 1e6,
        "import.numpy_s": totals["numpy"] / 1e6,
        "import.scipy_s": totals["scipy"] / 1e6,
        "import.bb84sim_s": own / 1e6,
    }


def importtime(root: Path, repeats: int) -> dict[str, float]:
    runs = [parse_importtime(_run(root, ["-X", "importtime", "-c", "import bb84sim, bb84sim.cli"]).stderr)
            for _ in range(repeats)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def allocation(root: Path) -> dict[str, float]:
    """Bytes per qubit of one 10^6-qubit session at a fixed seed: the
    tracemalloc peak (measured) and the returned ledger's summed nbytes
    (computed from array sizes)."""
    out = json.loads(_run(root, ["-c", ALLOC_SNIPPET]).stdout.strip().splitlines()[-1])
    return {
        "protocol.peak_alloc_bytes_per_qubit": out["peak_alloc_bytes"] / ALLOC_QUBITS,
        "protocol.ledger_bytes_per_qubit": out["ledger_bytes"] / ALLOC_QUBITS,
    }
