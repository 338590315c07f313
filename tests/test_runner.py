import csv
import json
import math
from pathlib import Path

import pytest

from widthlab import lipschitz
from widthlab.cli import main
from widthlab.runner import ConfigError, parse_config, run

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


@pytest.mark.parametrize("norm", ["p:inf", "p:0.5", "p:two"])
def test_bad_cloud_norm_is_a_config_error(tmp_path, capsys, norm):
    p = tmp_path / "bad.cfg"
    p.write_text("[lw]\nkind = linear-width\nset = cloud\ncloud_points = 5\n"
                 f"cloud_dim = 2\ncloud_norm = {norm}\nn_values = 1\nseed = 1\n")
    assert run(p, out_dir=tmp_path / "out", quiet=True) == 1
    err = capsys.readouterr().err
    assert f"config error: [lw] cloud_norm: {norm!r}" in err
    assert "Traceback" not in err


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
        assert row["method"] == "sampled-pairs/claimed-constant"
        assert float(row["lower"]) <= float(row["upper"]) < math.inf
        assert verdicts[f"lip:lipschitz-{name}-bound"]["status"] == "holds"

    monkeypatch.setattr(lipschitz, "estimate_lipschitz",
                        lambda spec, pairs, seed: 1.5 * spec.gamma)
    code, rows, verdicts = _lipschitz_rows(tmp_path, "refuted")
    assert code == 2
    for name in ("phi", "psi"):
        row = rows[f"lipschitz_{name}"]
        gamma = float(verdicts[f"lip:lipschitz-{name}-bound"]["witness"]) / 1.5
        assert row["method"] == "sampled-pairs/claimed-constant-refuted"
        assert float(row["lower"]) == pytest.approx(1.5 * gamma, rel=1e-12)
        assert float(row["upper"]) == math.inf
        assert row["exact"] == "false"
        assert verdicts[f"lip:lipschitz-{name}-bound"]["status"] == "violated"
