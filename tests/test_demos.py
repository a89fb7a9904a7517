"""Every demo runs to completion against the current API and prints a report.

The demos are scripts, not modules of the package, so nothing else would
notice a demo that calls a renamed or deleted name.
"""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "argv", [str(path)])
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
