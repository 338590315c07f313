import concurrent.futures
import csv
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from widthlab import entropy, harness, lipschitz, widths
from widthlab.cli import main
from widthlab.runner import ConfigError, parse_config, run
from widthlab.spaces import Bracket
from widthlab.widths import nonlinear_width

SMOKE = """
[ks-repro]
kind = ksigma-reproduce
alpha = 1.0
n_values = 1,2,3

[carl-ks]
kind = carl
set = ksigma
alpha = 1.0
r_values = 0.5,1
window = 1,10
lambda = 2.0

[widths-cloud]
kind = nonlinear-width
set = cloud
cloud_points = 7
cloud_dim = 3
n_values = 1
big_n_values = 2
seed = 11

[mterm-random]
kind = mterm
dict_size = 32
n_k = 4
a2 = 2.0
m = 3
count = 20
seed = 5
"""

VIOLATED = """
[carl-fixture]
kind = carl
e_series = 1,1,1,1
d_series = 0,0,0,0
r_values = 1
window = 1,4
"""


@pytest.fixture
def smoke_config(tmp_path):
    p = tmp_path / "smoke.cfg"
    p.write_text(SMOKE)
    return p


def test_parse_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[x]\nkind = entropy\nbogus_key = 1\nseed = 1\n")
    with pytest.raises(ConfigError, match="bogus_key"):
        parse_config(p)


def test_parse_rejects_unknown_kind(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[x]\nkind = nonsense\n")
    with pytest.raises(ConfigError, match="kind"):
        parse_config(p)


def test_parse_requires_seed_for_stochastic(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[x]\nkind = linear-width\nset = cloud\n")
    with pytest.raises(ConfigError, match="seed"):
        parse_config(p)


def test_empty_grid_exit_code(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("[x]\nkind = entropy\nn_values =\nseed = 3\n")
    assert run(p, out_dir=tmp_path / "out") == 1


@pytest.mark.parametrize("jobs", [1, 2])
def test_runtime_error_names_experiment(tmp_path, capsys, jobs):
    p = tmp_path / "wide.cfg"
    p.write_text("[fine]\nkind = ksigma-reproduce\nn_values = 1,2,3\n\n"
                 "[too-wide]\nkind = linear-width\nset = cloud\ncloud_points = 5\n"
                 "cloud_dim = 2\nn_values = 3\nseed = 1\n")
    assert run(p, out_dir=tmp_path / "out", jobs=jobs, quiet=True) == 1
    err = capsys.readouterr().err
    assert "runtime error in experiment [too-wide]" in err
    assert "Traceback (most recent call last)" in err
    assert "n=3 exceeds ambient dimension 2" in err
    # a worker formats its traceback itself: the text reads as the serial one
    assert "_RemoteTraceback" not in err
    assert run(p, out_dir=tmp_path / "out", jobs=1, quiet=True) == 1
    serial = capsys.readouterr().err
    assert re.sub(r"line \d+", "line N", err) == re.sub(r"line \d+", "line N", serial)


def test_nan_radius_names_the_section(tmp_path, capsys):
    # a greedy cover at a NaN radius never covers its own center
    p = tmp_path / "nan.cfg"
    p.write_text("[nan-eps]\nkind = entropy\nset = cloud\ncloud_points = 6\ncloud_dim = 2\n"
                 "n_values = 1\neps_values = nan\nseed = 3\n")
    assert run(p, out_dir=tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert "runtime error in experiment [nan-eps]" in err
    assert "eps must be positive, got nan" in err


def test_config_error_in_a_worker(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[fine]\nkind = ksigma-reproduce\nn_values = 1,2,3\n\n"
                 "[lw]\nkind = linear-width\nset = cloud\ncloud_points = 5\n"
                 "cloud_dim = 2\ncloud_norm = p:two\nn_values = 1\nseed = 1\n")
    assert run(p, out_dir=tmp_path / "out", jobs=2, quiet=True) == 1
    err = capsys.readouterr().err
    assert "config error: [lw] cloud_norm: 'p:two'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("norm", ["p:inf", "p:0.5", "p:two"])
def test_bad_cloud_norm_is_a_config_error(tmp_path, capsys, norm):
    p = tmp_path / "bad.cfg"
    p.write_text("[lw]\nkind = linear-width\nset = cloud\ncloud_points = 5\n"
                 f"cloud_dim = 2\ncloud_norm = {norm}\nn_values = 1\nseed = 1\n")
    assert run(p, out_dir=tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert f"config error: [lw] cloud_norm: {norm!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("section, message", [
    ("kind = entropy\nn_values = 1,x\nseed = 3",
     "[e] n_values: invalid literal for int() with base 10: 'x'"),
    ("kind = entropy\nset = cloud\ncloud_points = six\nseed = 3",
     "[e] cloud_points: invalid literal for int() with base 10: 'six'"),
    ("kind = lipschitz\nscale = big\nseed = 3",
     "[e] scale: could not convert string to float: 'big'"),
    ("kind = lipschitz\npairs = 1e5\nseed = 3",
     "[e] pairs: invalid literal for int() with base 10: '1e5'"),
    ("kind = carl\nwindow = 5,2", "[e] window: must be 'lo,hi' with lo <= hi, got '5,2'"),
    ("kind = carl\nd_series = 1,2", "[e] e_series: required"),
    ("kind = mterm\nseed = x", "[e] seed: invalid literal for int() with base 10: 'x'"),
    ("kind = entropy\nset = cloud\ncloud_points = 0\nseed = 3",
     "[e] cloud_points: must be at least 1, got 0"),
    ("kind = lipschitz\npairs = 0\nseed = 3", "[e] pairs: must be at least 1, got 0"),
    ("kind = mterm\ncount = 0\nseed = 3", "[e] count: must be at least 1, got 0"),
])
def test_bad_option_value_is_a_config_error(tmp_path, capsys, jobs, section, message):
    p = tmp_path / "bad.cfg"
    p.write_text(f"[fine]\nkind = ksigma-reproduce\nn_values = 1,2,3\n\n[e]\n{section}\n")
    assert run(p, out_dir=tmp_path / "out", jobs=jobs, quiet=True) == 1
    err = capsys.readouterr().err
    assert f"config error: {message}\n" in err
    assert "runtime error" not in err and "Traceback" not in err


def test_missing_config_exit_code(tmp_path):
    assert run(tmp_path / "missing.cfg", out_dir=tmp_path / "out") == 1


def test_smoke_run_outputs(smoke_config, tmp_path):
    out = tmp_path / "out"
    code = run(smoke_config, out_dir=out, quiet=True)
    assert code == 0
    csv_text = (out / "results.csv").read_text()
    assert csv_text.splitlines()[0] == (
        "experiment_id,set_label,n,N,quantity,lower,upper,exact,method,runtime_ms,seed"
    )
    assert "inner_entropy_closed_form" in csv_text
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts and all(
        set(v) == {"check", "status", "witness", "window", "details"} for v in verdicts
    )
    assert all(v["status"] in ("holds", "violated", "indeterminate") for v in verdicts)
    assert not any(v["status"] == "violated" for v in verdicts)
    plots = list(out.glob("*.dat"))
    assert plots
    for p in plots:
        first = p.read_text().splitlines()[0]
        assert first.startswith("# fit:")


def test_deterministic_across_jobs(smoke_config, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(smoke_config, out_dir=out1, jobs=1, quiet=True) == 0
    assert run(smoke_config, out_dir=out2, jobs=4, quiet=True) == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "verdicts.json").read_bytes() == (out2 / "verdicts.json").read_bytes()


PROGRESS = re.compile(r"^\[(?P<id>[^\]]+)\] (?P<kind>\S+): \d+ rows, \d+ verdicts \(\d+ ms\)$")


def test_progress_lines_in_config_order(smoke_config, tmp_path, capsys):
    assert run(smoke_config, out_dir=tmp_path / "out", jobs=2) == 0
    lines = capsys.readouterr().err.splitlines()
    matches = [PROGRESS.match(line) for line in lines]
    assert all(matches), lines
    assert [(m["id"], m["kind"]) for m in matches] == [
        (cfg.exp_id, cfg.kind) for cfg in parse_config(smoke_config)]


def test_cli_rejects_jobs_below_one(smoke_config, tmp_path, capsys):
    for jobs in ("0", "-1", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["run", str(smoke_config), "--out", str(tmp_path / "out"), "--jobs", jobs])
        assert exc.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


TWO_SECTIONS = """
[ks-repro]
kind = ksigma-reproduce
alpha = 1.0
n_values = 1,2,3

[mterm-random]
kind = mterm
dict_size = 32
n_k = 4
a2 = 2.0
m = 3
count = 20
seed = 5
"""


def test_workers_are_capped_at_the_section_count(tmp_path, monkeypatch):
    forked = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def map(self, *args, **kwargs):
            out = list(super().map(*args, **kwargs))
            forked.append(len(self._processes))
            return out

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    p = tmp_path / "two.cfg"
    p.write_text(TWO_SECTIONS)
    out1, out8 = tmp_path / "o1", tmp_path / "o8"
    assert run(p, out_dir=out1, jobs=1, quiet=True) == 0
    assert forked == []
    assert run(p, out_dir=out8, jobs=8, quiet=True) == 0
    assert forked == [2]
    for name in ("results.csv", "verdicts.json"):
        assert (out1 / name).read_bytes() == (out8 / name).read_bytes()


def test_import_loads_no_process_pool():
    code = ("import sys, widthlab, widthlab.cli; print([m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent.futures.process'))])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_violated_fixture_exit_code(tmp_path):
    p = tmp_path / "viol.cfg"
    p.write_text(VIOLATED)
    assert run(p, out_dir=tmp_path / "out", quiet=True) == 2


def test_cli_main(smoke_config, tmp_path):
    code = main(["run", str(smoke_config), "--out", str(tmp_path / "cli_out"),
                 "--jobs", "2", "--quiet"])
    assert code == 0
    assert (tmp_path / "cli_out" / "results.csv").exists()


LIPSCHITZ = """
[lip]
kind = lipschitz
set = cloud
cloud_points = 6
cloud_dim = 3
n = 1
big_n = 2
pairs = 500
seed = 4
"""


def _lipschitz_rows(tmp_path, name):
    p = tmp_path / f"{name}.cfg"
    p.write_text(LIPSCHITZ)
    code = run(p, out_dir=tmp_path / name, quiet=True)
    with open(tmp_path / name / "results.csv") as fh:
        rows = {r["quantity"]: r for r in csv.DictReader(fh)}
    verdicts = json.loads((tmp_path / name / "verdicts.json").read_text())
    return code, rows, {v["check"]: v for v in verdicts}


def test_refuted_lipschitz_constant_is_reported(tmp_path, monkeypatch):
    code, rows, verdicts = _lipschitz_rows(tmp_path, "honest")
    assert code == 0
    for name in ("phi", "psi"):
        row = rows[f"lipschitz_{name}"]
        assert row["method"] == "peak-pairs/claimed-constant"
        assert float(row["lower"]) <= float(row["upper"]) < math.inf
        assert verdicts[f"lip:lipschitz-{name}-bound"]["status"] == "holds"

    monkeypatch.setattr(lipschitz, "estimate_lipschitz",
                        lambda spec, pairs, seed: 1.5 * spec.gamma)
    code, rows, verdicts = _lipschitz_rows(tmp_path, "refuted")
    assert code == 2
    for name in ("phi", "psi"):
        row = rows[f"lipschitz_{name}"]
        gamma = float(verdicts[f"lip:lipschitz-{name}-bound"]["witness"]) / 1.5
        assert row["method"] == "peak-pairs/claimed-constant-refuted"
        assert float(row["lower"]) == pytest.approx(1.5 * gamma, rel=1e-12)
        assert float(row["upper"]) == math.inf
        assert row["exact"] == "false"
        assert verdicts[f"lip:lipschitz-{name}-bound"]["status"] == "violated"


def test_lipschitz_section_fits_its_width_witness_once(tmp_path, monkeypatch):
    # the maps' charts and the width-chain verdict share one fit
    calls = []

    def spy(K, n, N, **kwargs):
        calls.append((n, N))
        return nonlinear_width(K, n, N, **kwargs)

    monkeypatch.setattr(widths, "nonlinear_width", spy)
    monkeypatch.setattr(harness, "nonlinear_width", spy)
    code, rows, verdicts = _lipschitz_rows(tmp_path, "spy")
    assert code == 0 and calls == [(1, 2)]
    assert verdicts["lip:width-chain"]["status"] == "holds"


NON_EUCLIDEAN = "".join(f"""
[lw-{tag}]
kind = linear-width
set = cloud
cloud_points = 9
cloud_dim = 3
cloud_norm = {norm}
n_values = 1,2
seed = 3

[lip-{tag}]
kind = lipschitz
set = cloud
cloud_points = 6
cloud_dim = 3
cloud_norm = {norm}
n = 1
big_n = 2
pairs = 500
seed = 4
""" for tag, norm in (("max", "max"), ("l1", "p:1")))


def test_non_euclidean_sections_are_deterministic_across_jobs(tmp_path):
    # at --jobs 2 the distance LPs run inside forked worker processes
    p = tmp_path / "lp.cfg"
    p.write_text(NON_EUCLIDEAN)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert run(p, out_dir=out1, jobs=1, quiet=True) == 0
    assert run(p, out_dir=out2, jobs=2, quiet=True) == 0
    for name in ("results.csv", "verdicts.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    with open(out1 / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["experiment_id"] for r in rows} == {"lw-max", "lw-l1", "lip-max", "lip-l1"}
    # n = d - 1 takes the facets of conv(+-X) in the dual norm
    assert {(r["n"], r["method"]) for r in rows if r["quantity"] == "linear_width"} == {
        ("1", "spectral-norm-equivalence/euclid-fit-evaluated"),
        ("2", "facet-inradius/facet-hyperplane")}


def test_full_suite_decides_every_verdict(tmp_path):
    config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "full_suite.cfg"
    assert run(config, out_dir=tmp_path, quiet=True) == 0
    verdicts = json.loads((tmp_path / "verdicts.json").read_text())
    assert len(verdicts) == 41
    assert [v["check"] for v in verdicts if v["status"] == "indeterminate"] == []
    with open(tmp_path / "results.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["experiment_id"] == "entropy-cloud"]
    counted = [r for r in rows if r["quantity"].startswith(("cover_number", "packing_number"))
               or (r["quantity"] == "inner_entropy" and r["n"] != "0")]
    assert len(counted) == 9
    assert all(r["exact"] == "true" for r in counted)


def test_attained_entropy_verdict_fails_on_a_close_miss(tmp_path, monkeypatch):
    # the nested-cover verdict allows the tail gap, so a value 1e-6 off the
    # attained one still "holds" there; the attained verdict allows 1e-9
    p = tmp_path / "ks.cfg"
    p.write_text("[ks]\nkind = ksigma-reproduce\nn_values = 1,2,3,4,5,6\n")
    assert run(p, out_dir=tmp_path / "held", quiet=True) == 0
    held = json.loads((tmp_path / "held" / "verdicts.json").read_text())
    assert {v["check"]: v["status"] for v in held} == {
        "ks:ksigma-entropy-attained": "holds", "ks:ksigma-entropy-containment": "holds"}
    attained = entropy.ksigma_inner_entropy_attained
    monkeypatch.setattr(entropy, "ksigma_inner_entropy_attained",
                        lambda alpha, n: attained(alpha, n) * (1 + 1e-6))
    assert run(p, out_dir=tmp_path / "missed", quiet=True) == 2
    missed = json.loads((tmp_path / "missed" / "verdicts.json").read_text())
    assert {v["check"]: v["status"] for v in missed} == {
        "ks:ksigma-entropy-attained": "violated", "ks:ksigma-entropy-containment": "holds"}


def test_report_exact_cells_follow_the_bracket_rule(tmp_path):
    # every row, the hand-built m-term row too, flags exact just when its
    # printed sides meet the one rule
    config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "smoke.cfg"
    assert main(["run", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    with open(tmp_path / "results.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["experiment_id"] for r in rows} == {"ks-repro", "carl-ks", "widths-cloud",
                                                  "mterm-random"}
    for r in rows:
        lower, upper = float(r["lower"]), float(r["upper"])
        assert r["exact"] == ("true" if Bracket(lower, upper).exact else "false"), r
    assert {r["exact"] for r in rows} == {"true", "false"}
