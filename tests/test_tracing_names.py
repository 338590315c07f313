"""The benchmark (`perfbench/`) reads widthlab by name: its tracer
(`perfbench/tracing.py`) looks up each function it traces in its widthlab
layer, its workloads (`perfbench/workloads.py`) call widthlab in fixed
forms, and its checks read fields off the results.  A run stops at the
first name that is gone or call that no longer binds, so these tests catch
a rename, a deletion or a signature change before the benchmark does."""

import importlib
import inspect
import re
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


# every call form of `workloads.py`, as (module, name, positional argument
# count, keyword names); binding checks the shape of a call, not its types
CALL_FORMS = [
    ("widthlab", "NormSpec", 2, ()),
    ("widthlab", "NormSpec", 2, ("p",)),
    ("widthlab", "CompactSetModel.cloud", 2, ("label",)),
    ("widthlab", "CompactSetModel.ksigma", 2, ()),
    ("widthlab", "scale_set", 2, ()),
    ("widthlab", "sup_norm", 1, ()),
    ("widthlab", "entropy_number", 2, ("inner",)),
    ("widthlab", "cover_number", 2, ()),
    ("widthlab", "packing_number", 2, ()),
    ("widthlab", "greedy_cover", 2, ()),
    ("widthlab", "max_packing", 2, ()),
    ("widthlab", "entropy_sandwich", 2, ()),
    ("widthlab", "packing_cover_sandwich", 2, ()),
    ("widthlab", "chebyshev_radius", 1, ()),
    ("widthlab", "linear_width", 2, ("seed",)),
    ("widthlab", "nonlinear_width", 3, ("seed",)),
    ("widthlab", "john_ellipsoid", 1, ("tol",)),
    ("widthlab", "build_phi", 1, ()),
    ("widthlab", "build_psi", 1, ()),
    ("widthlab", "build_theta_xi", 2, ()),
    ("widthlab", "estimate_lipschitz", 1, ("pairs", "seed")),
    ("widthlab", "fixed_width_upper", 2, ()),
    ("widthlab", "check_width_chain", 3, ("seed",)),
    ("widthlab.runner", "parse_config", 1, ()),
    ("widthlab.runner", "build_set", 1, ()),
    ("widthlab.cli", "main", 1, ()),
]
ALIASES = {"wl": "widthlab", "runner": "widthlab.runner", "cli": "widthlab.cli"}


def test_every_workload_call_has_a_form():
    text = (PERFBENCH / "workloads.py").read_text()
    called = {(ALIASES[alias], name)
              for alias, name in re.findall(r"(?<![\w.])(wl|runner|cli)\.([\w.]+)\(", text)}
    assert called == {(module, name) for module, name, _, _ in CALL_FORMS}


@pytest.mark.parametrize("module, name, positional, keywords", CALL_FORMS)
def test_workload_call_forms_bind(module, name, positional, keywords):
    obj = importlib.import_module(module)
    for part in name.split("."):
        obj = getattr(obj, part)
    inspect.signature(obj).bind(*[None] * positional, **dict.fromkeys(keywords))
