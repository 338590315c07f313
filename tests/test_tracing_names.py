"""The benchmark (`perfbench/`) reads widthlab by name: its tracer
(`perfbench/tracing.py`) looks up each function it traces in its widthlab
layer, and its workloads and checks read fields off the results.  A run
stops at the first name that is gone, so these tests catch a rename or a
deletion before the benchmark does."""

import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the fields the benchmark reads off each result type: `gamma` in
# `workloads.py`; the John map fields, `restarts_used` and the estimate's
# `pairs` argument in `tracing.py`; the rest in `checks.py`
READ_FIELDS = {
    ("lipschitz", "LipschitzMapSpec"): ["gamma"],
    ("lipschitz", "JohnMap"): ["matrix", "gap", "factor", "converged", "iterations"],
    ("widths", "WidthResult"): ["bracket", "witness", "restarts_used"],
    ("widths", "SubspaceFamily"): ["bases", "assignment", "achieved"],
    ("entropy", "CoverResult"): ["centers", "cardinality", "epsilon", "inner"],
    ("entropy", "PackingResult"): ["points", "cardinality", "epsilon"],
}


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"widthlab.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"widthlab.{layer} lacks {missing}"


@pytest.mark.parametrize("layer, name", sorted(READ_FIELDS))
def test_every_read_field_exists(layer, name):
    cls = getattr(importlib.import_module(f"widthlab.{layer}"), name)
    have = {f.name for f in fields(cls)} | set(dir(cls))
    missing = [f for f in READ_FIELDS[layer, name] if f not in have]
    assert not missing, f"widthlab.{layer}.{name} lacks {missing}"


def test_estimate_lipschitz_takes_pairs_by_name():
    from widthlab.lipschitz import estimate_lipschitz

    pairs = inspect.signature(estimate_lipschitz).parameters.get("pairs")
    assert pairs is not None and pairs.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    assert pairs.default is not inspect.Parameter.empty
