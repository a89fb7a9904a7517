"""What the benchmark in perfbench/ needs from the package.

perfbench instruments bb84sim from outside, by name, and builds a session in
a fresh interpreter from a code snippet. A rename or signature change here
would make every traced or probed benchmark run fail, so these checks run
with the package's own tests.
"""

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from collections import Counter
from pathlib import Path

import bb84sim
from bb84sim import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_traced_and_counted_names_resolve():
    spans = _load("spans")
    for module_name, func_name, *_ in (*spans.TRACED, *spans.COUNTED):
        module = importlib.import_module(f"bb84sim.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_the_tracer_sees_every_interval_and_decision_call():
    # the stats.ci.*, stats.clopper_pearson.tail_evals, decision.* and
    # core.validations metrics read these spans and counts; a call that went
    # round the traced names would read 0 there
    spans = _load("spans")
    est = bb84sim.QberEstimate(3, 100)
    bb84sim.threshold_root()  # a cold cache would bisect on the traced key_rate
    with spans.Tracer() as tracer:
        tracer.install(bb84sim)
        intervals = {m: bb84sim.confidence_interval(est, 0.95, m) for m in bb84sim.CIMethod}
        for policy in bb84sim.DecisionPolicy:
            bb84sim.decide(est, intervals[bb84sim.CIMethod.CLOPPER_PEARSON], policy)
        bb84sim.key_rate(est.point_estimate)
    names = Counter(span[2] for span in tracer.spans)
    for method in bb84sim.CIMethod:
        assert names[f"stats.ci_{method.name.lower()}"] == 1, method
    assert names["decision.decide"] == len(bb84sim.DecisionPolicy)
    assert names["decision.key_rate"] == 1
    assert tracer.counts == {"stats.bdtr": 2, "stats.bdtrc": 2}
    assert names["validate.ConfidenceInterval"] == len(bb84sim.CIMethod)


def test_allocation_probe_snippet_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # probes imports its sibling yardstick
    snippet = _load("probes").ALLOC_SNIPPET
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, namespace)
    assert namespace["config"].seed == 42
    assert set(json.loads(out.getvalue())) == {"peak_alloc_bytes", "ledger_bytes"}


def test_interval_queries_read_every_result_attribute(monkeypatch):
    # the interval_queries gate reads the bounds, the verdicts' qber_used,
    # threshold and decision, and the key-rate report's rate and secure
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports its siblings
    workloads = _load("workloads")
    runner = workloads.QueryRunner(bb84sim)
    k, n, conf = workloads.query_batch(7, 0, 200)
    _, _, answers = runner.run_batch(k, n, conf)
    outcome = workloads.Outcome()
    runner.check(k, n, conf, answers, outcome)
    assert outcome.correct, outcome.notes
    assert (outcome.attempted, outcome.failed) == (200, 0)


def test_sweep_writes_through_the_traced_format_names(monkeypatch, tmp_path, capsys):
    # cli.format_s sums the spans of these four names; a sweep that bypassed
    # them would read 0 there
    calls = Counter()
    names = ("format_trials_csv", "format_aggregate_csv",
             "format_trials_json", "format_aggregate_json")
    for name in names:
        original = getattr(cli, name)

        def counted(rows, name=name, original=original):
            calls[name] += 1
            return original(rows)

        monkeypatch.setattr(cli, name, counted)
    monkeypatch.chdir(tmp_path)
    for fmt in ("csv", "json"):
        argv = ["sweep", "--f-step", "0.5", "--trials", "2", "--qubits", "200",
                "--format", fmt]
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert calls == Counter(names)
