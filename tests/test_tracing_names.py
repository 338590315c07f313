"""The benchmark's tracer (`perfbench/tracing.py`) looks up each function it
traces by name in its widthlab layer, and a run with tracing on stops at the
first name that is gone."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"widthlab.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"widthlab.{layer} lacks {missing}"
