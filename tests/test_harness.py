import math

import numpy as np
import pytest

from widthlab.entropy import ksigma_nested_cover_radius
from widthlab.harness import (
    HOLDS,
    INDETERMINATE,
    VIOLATED,
    bracket_leq,
    check_carl,
    check_entropy_from_width,
    check_generalized_carl,
    check_L6_schedule,
    check_lower_bound_theorems,
    check_width_chain,
    entropy_sandwich,
    fit_rate,
    ksigma_entropy_series,
    ksigma_inner_entropy_series,
    ksigma_linear_width_series,
    ksigma_nonlinear_width_series,
    packing_cover_sandwich,
    witness_envelope,
)
from widthlab.spaces import Bracket, CompactSetModel, NormSpec, scale_set, sigma_value
from widthlab.widths import ksigma_nonlinear_width_upper


def const_series(vals):
    return {k: Bracket.exactly(v) for k, v in vals.items()}


def test_bracket_leq_tristate():
    assert bracket_leq(Bracket(0.0, 1.0), Bracket(2.0, 3.0)) == HOLDS
    assert bracket_leq(Bracket(2.5, 3.0), Bracket(0.0, 2.0)) == VIOLATED
    assert bracket_leq(Bracket(0.0, 2.5), Bracket(2.0, 3.0)) == INDETERMINATE


def test_check_carl_trivial():
    zero_e = const_series({k: 0.0 for k in range(1, 6)})
    zero_d = const_series({j: 0.0 for j in range(0, 5)})
    v = check_carl(zero_e, zero_d, r=1.0, window=(1, 5))
    assert v.status == HOLDS and v.witness == 0.0

    ones_e = const_series({k: 1.0 for k in range(1, 6)})
    v = check_carl(ones_e, zero_d, r=1.0, window=(1, 5))
    assert v.status == VIOLATED


def test_check_carl_ksigma():
    e = ksigma_entropy_series(1.0, range(1, 13))
    d = ksigma_linear_width_series(1.0, range(0, 12))
    for r in (0.5, 1.0, 2.0):
        v = check_carl(e, d, r=r, window=(1, 12))
        assert v.status == HOLDS
        assert v.witness is not None and 0 < v.witness < 10


def test_check_carl_witness_stability():
    e = ksigma_entropy_series(1.0, range(1, 13))
    d = ksigma_linear_width_series(1.0, range(0, 12))
    for r in (0.5, 1.0, 2.0):
        c1 = check_carl(e, d, r=r, window=(3, 8)).witness
        c2 = check_carl(e, d, r=r, window=(7, 12)).witness
        assert max(c1, c2) / min(c1, c2) <= 3.0


def test_generalized_carl_lambda_and_power():
    e = ksigma_entropy_series(1.0, range(0, 200))
    d_lam = ksigma_nonlinear_width_series(1.0, ("lambda", 2.0), range(1, 13))
    v = check_generalized_carl(e, d_lam, r=1.0, schedule=("lambda", 2.0), window=(1, 12))
    assert v.status == HOLDS and v.witness > 0

    d_pow = ksigma_nonlinear_width_series(1.0, ("power", 1.0), range(1, 13))
    v = check_generalized_carl(e, d_pow, r=1.0, schedule=("power", 1.0), window=(1, 12))
    assert v.status == HOLDS and v.witness > 0

    zero_e = const_series({k: 0.0 for k in range(0, 20)})
    zero_d = const_series({m: 0.0 for m in range(1, 13)})
    assert check_generalized_carl(zero_e, zero_d, 1.0, ("lambda", 2.0), (1, 12)).status == HOLDS
    pos_e = const_series({k: 1.0 for k in range(0, 20)})
    assert check_generalized_carl(pos_e, zero_d, 1.0, ("lambda", 2.0), (1, 12)).status == VIOLATED


def test_width_chain_two_points():
    v = check_width_chain(CompactSetModel.cloud([[1, 0], [0, 1]]), 1, 2)
    assert v.status == HOLDS
    assert v.witness <= 1e-8


def test_width_chain_random_unit_points():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(8, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    v = check_width_chain(CompactSetModel.cloud(pts), 1, 2, seed=1)
    assert v.status == HOLDS


def test_width_chain_ksigma():
    K = CompactSetModel.ksigma(1.0, truncation=33)
    v = check_width_chain(K, 1, 4, seed=0)
    assert v.status == HOLDS
    # a coordinate-block family certifies the closed-form bound, so the
    # optimized witness cannot be worse
    assert v.witness <= sigma_value(1.0, 5) + 1e-6


def test_width_chain_max_norm():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(6, 2))
    K = CompactSetModel.cloud(pts, norm=NormSpec("max", 2))
    v = check_width_chain(K, 1, 2, seed=2)
    assert v.status == HOLDS


@pytest.mark.parametrize("seed", [205, 210])
def test_width_chain_max_norm_excess_is_indeterminate(monkeypatch, seed):
    # off the euclidean norm the anchors rest on solver tolerances, so an
    # excess proves nothing; on it, an excess is a violation
    from widthlab import harness

    monkeypatch.setattr(harness, "fixed_width_upper", lambda K, spec: 10.0)
    pts = np.random.default_rng(seed).normal(size=(12, 3))
    v = check_width_chain(CompactSetModel.cloud(pts, NormSpec("max", 3)), 1, 2)
    assert v.status == INDETERMINATE
    assert v.witness is not None
    assert check_width_chain(CompactSetModel.cloud(pts), 1, 2).status == VIOLATED


@pytest.mark.parametrize("norm", [NormSpec("max", 3), NormSpec("pnorm", 3, p=1.0)],
                         ids=["max", "l1"])
def test_width_chain_holds_on_random_max_and_l1_clouds(monkeypatch, norm):
    # the fixed width is read at exact anchors here, so it stays at most the
    # witness's largest distance (seeds 205 and 210 exceeded it under the
    # golden-section descents)
    from widthlab import harness

    seen = {}

    def fixed_width(K, spec):
        seen["K"], seen["fw"] = K, inner_fixed_width(K, spec)
        return seen["fw"]

    def width(*args, **kwargs):
        seen["wr"] = inner_width(*args, **kwargs)
        return seen["wr"]

    inner_fixed_width, inner_width = harness.fixed_width_upper, harness.nonlinear_width
    monkeypatch.setattr(harness, "fixed_width_upper", fixed_width)
    monkeypatch.setattr(harness, "nonlinear_width", width)
    rngs = [np.random.default_rng(s) for s in (205, 210)]
    rngs += [np.random.default_rng([s, 315]) for s in range(20)]
    for rng in rngs:
        v = check_width_chain(CompactSetModel.cloud(rng.normal(size=(12, 3)), norm), 1, 2)
        assert v.status == HOLDS, v.details
        assert seen["fw"] <= float(seen["wr"].witness.distances(seen["K"]).max()) + 1e-9


def test_entropy_from_width_trivial_and_small():
    single = CompactSetModel.cloud([[0.2, 0.1]])
    v = check_entropy_from_width(single, 1, 1)
    assert v.status == HOLDS

    half = scale_set(CompactSetModel.cloud([[1.0, 0.0], [0.0, 1.0]]), 0.5)
    v = check_entropy_from_width(half, 1, 1)
    assert v.status == HOLDS


def test_entropy_from_width_ksigma():
    K = scale_set(CompactSetModel.ksigma(1.0, truncation=65).as_cloud(), 0.5)
    v = check_entropy_from_width(K, 2, 2, seed=0)
    assert v.status == HOLDS


def test_l6_schedule():
    w = ksigma_nonlinear_width_series(1.0, ("lambda", 2.0), range(1, 13))
    e = ksigma_entropy_series(1.0, range(0, 200))
    v = check_L6_schedule(w, e, alpha=1.0, beta=0.0, lam=2.0, window=(4, 12))
    assert v.status == HOLDS and v.witness > 0

    zero_w = const_series({m: 0.0 for m in range(1, 13)})
    zero_e = const_series({k: 0.0 for k in range(0, 200)})
    v = check_L6_schedule(zero_w, zero_e, 1.0, 0.0, 2.0, (4, 12))
    assert v.status == HOLDS and v.witness == 0.0

    pos_e = const_series({k: 5.0 for k in range(0, 200)})
    v = check_L6_schedule(zero_w, pos_e, 1.0, 0.0, 2.0, (4, 12))
    assert v.status == VIOLATED

    v = check_L6_schedule(w, e, 1.0, 0.0, 2.0, (2, 12))
    assert v.status == INDETERMINATE


def test_fit_rate_exact_recovery():
    series = {n: Bracket.exactly(3.0 / math.log2(n)) for n in range(2, 13)}
    fit = fit_rate(series, "log-only", (2, 12))
    assert fit.params["alpha"] == pytest.approx(1.0, abs=1e-6)
    assert fit.params["C"] == pytest.approx(3.0, rel=1e-6)
    assert fit.residual < 1e-10

    const = {n: Bracket.exactly(2.0) for n in range(2, 13)}
    fit = fit_rate(const, "poly-log", (2, 12))
    assert fit.params["alpha"] == pytest.approx(0.0, abs=1e-6)
    assert fit.params["beta"] == pytest.approx(0.0, abs=1e-6)

    stretched = {n: Bracket.exactly(1.7 * 2 ** (-0.9 * n**0.5)) for n in range(1, 16)}
    fit = fit_rate(stretched, "stretched-exp", (1, 15))
    assert fit.params["alpha"] == pytest.approx(0.5, abs=1e-3)
    assert fit.params["c"] == pytest.approx(0.9, rel=1e-2)


def test_fit_rate_ksigma_formula_window():
    series = {n: Bracket.exactly(ksigma_nested_cover_radius(1.0, n)) for n in range(1, 13)}
    fit = fit_rate(series, "log-only", (3, 12))
    assert 0.85 <= fit.params["alpha"] <= 1.15


def test_fit_rate_errors():
    zero = {n: Bracket.exactly(0.0) for n in range(2, 10)}
    with pytest.raises(ValueError):
        fit_rate(zero, "log-only", (2, 9))
    small = {n: Bracket.exactly(1.0 / n) for n in range(2, 5)}
    with pytest.raises(ValueError):
        fit_rate(small, "log-only", (2, 4))


def test_lower_bound_band_ksigma():
    e = ksigma_inner_entropy_series(1.0, range(3, 13))
    w = {n: Bracket.exactly(ksigma_nonlinear_width_upper(1.0, n - 1, int(2**n)))
         for n in range(3, 13)}
    v = check_lower_bound_theorems(e, w, alpha=1.0, window=(3, 12), band_cap=4.0)
    assert v.status == HOLDS
    assert v.witness > 0

    zero_e = const_series({n: 0.0 for n in range(3, 13)})
    zero_w = const_series({n: 0.0 for n in range(3, 13)})
    assert check_lower_bound_theorems(zero_e, zero_w, 1.0, (3, 12)).status == HOLDS

    fast_w = {n: Bracket.exactly(2.0 ** (-n)) for n in range(3, 13)}
    slow_e = {n: Bracket.exactly(1.0 / math.log2(n)) for n in range(3, 13)}
    v = check_lower_bound_theorems(slow_e, fast_w, 1.0, (3, 12))
    assert v.status == VIOLATED


def test_witness_envelope_monotone():
    e = ksigma_entropy_series(1.0, range(0, 20))
    d = ksigma_linear_width_series(1.0, range(0, 12))
    windows = [(1, n) for n in range(2, 13)]
    verdicts = witness_envelope(lambda w: check_carl(e, d, 1.0, w), windows)
    witnesses = [v.witness for v in verdicts]
    assert all(a <= b + 1e-15 for a, b in zip(witnesses, witnesses[1:]))
    assert all(v.status == HOLDS for v in verdicts)


def test_sandwich_suites_no_violations():
    rng = np.random.default_rng(33)
    for _ in range(3):
        K = CompactSetModel.cloud(rng.normal(size=(18, 3)))
        for v in packing_cover_sandwich(K, (0.5, 1.0, 2.0)):
            assert v.status != VIOLATED
        for v in entropy_sandwich(K, (0, 1, 2)):
            assert v.status != VIOLATED
    Ks = CompactSetModel.ksigma(1.0, truncation=20)
    for v in packing_cover_sandwich(Ks, (0.5, 0.9, 1.3)):
        assert v.status != VIOLATED
    for v in entropy_sandwich(Ks, (0, 1, 2)):
        assert v.status != VIOLATED
