import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    K = scale_set(CompactSetModel.ksigma(1.0, truncation=65), 0.5)
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


def test_fit_rate_overflow_is_an_unusable_window():
    # four usable points that barely separate poly-log's three columns: the
    # fitted log C is past exp's range, which raised OverflowError before
    series = {n: Bracket(0.0, 0.0) for n in range(15)}
    series.update({11: Bracket(0.0, 1.0699), 12: Bracket(0.0, 0.0262),
                   13: Bracket(0.0, 0.5760), 14: Bracket(4.3309, 4.3309)})
    with pytest.raises(ValueError, match="overflows"):
        fit_rate(series, "poly-log", (6, 14))


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


# ---------------------------------------------------------------------------
# reference forms of the domination checks and the rate fit, one written
# out per check and model with a golden-section exponent search, kept as
# oracles for the shared core and the one least-squares step


def _oracle_get(series, k):
    try:
        return series[k]
    except KeyError:
        raise ValueError(f"series missing index {k}") from None


def _oracle_weighted_max(series, exponent, ks, side):
    vals = []
    for k in ks:
        br = _oracle_get(series, k)
        v = br.upper if side == "upper" else br.lower
        vals.append(float(k) ** exponent * v)
    return max(vals)


def _oracle_verdict(name, lhs_low, lhs_up, rhs_low, rhs_up, window, details):
    from widthlab.harness import Verdict

    if rhs_low > 0:
        return Verdict(name, HOLDS, lhs_up / rhs_low, window, details)
    if lhs_up <= 0:
        return Verdict(name, HOLDS, 0.0, window, details + "; zero-over-zero")
    if rhs_up <= 0 and lhs_low > 0:
        return Verdict(name, VIOLATED, None, window,
                       details + "; positive maximum over certified-zero side")
    return Verdict(name, INDETERMINATE, None, window,
                   details + "; denominator bracket straddles zero")


def oracle_check_carl(e_series, d_series, r, window):
    lo, hi = window
    ks = range(max(lo, 1), hi + 1)
    if not len(list(ks)):
        raise ValueError("empty window")
    lhs_up = _oracle_weighted_max(e_series, r, ks, "upper")
    lhs_low = _oracle_weighted_max(e_series, r, ks, "lower")
    rhs_up = max(float(m) ** r * _oracle_get(d_series, m - 1).upper for m in ks)
    rhs_low = max(float(m) ** r * _oracle_get(d_series, m - 1).lower for m in ks)
    details = f"r={r:g}; weighted maxima LHS<= {lhs_up:.6g}, RHS>= {rhs_low:.6g}"
    return _oracle_verdict("carl", lhs_low, lhs_up, rhs_low, rhs_up, window, details)


def oracle_check_generalized_carl(e_series, d_series, r, schedule, window):
    kind, p = schedule
    lo, hi = window
    ks = list(range(max(lo, 1), hi + 1))
    if not ks:
        raise ValueError("empty window")
    if kind == "lambda":
        e_idx = {k: k for k in ks}
    elif kind == "power":
        e_idx = {k: max(0, math.ceil((p + r) * k * math.log2(k))) for k in ks}
    else:
        raise ValueError(f"unknown schedule {kind!r}")
    lhs_up = max(float(k) ** r * _oracle_get(e_series, e_idx[k]).upper for k in ks)
    lhs_low = max(float(k) ** r * _oracle_get(e_series, e_idx[k]).lower for k in ks)
    rhs_up = max(float(m) ** r * _oracle_get(d_series, m).upper for m in ks)
    rhs_low = max(float(m) ** r * _oracle_get(d_series, m).lower for m in ks)
    name = f"generalized-carl-{kind}"
    details = (f"r={r:g}, {kind}={p:g}; weighted maxima LHS<= {lhs_up:.6g}, "
               f"RHS>= {rhs_low:.6g}")
    return _oracle_verdict(name, lhs_low, lhs_up, rhs_low, rhs_up, window, details)


def oracle_fit_rate(series, model, window):
    from widthlab.harness import RateFit

    lo, hi = window
    ns, mids, weights = [], [], []
    for nn in range(lo, hi + 1):
        br = _oracle_get(series, nn)
        ns.append(nn)
        mids.append(br.mid)
        weights.append(1.0 / (1.0 + br.width / max(abs(br.mid), 1e-300)))
    ns = np.array(ns, dtype=float)
    mids = np.array(mids)
    weights = np.array(weights)
    if np.all(mids == 0):
        raise ValueError("degenerate all-zero series")
    if model in ("log-only", "poly-log"):
        keep = (ns >= 2) & (mids > 0)
        ns, mids, weights = ns[keep], mids[keep], weights[keep]
    if len(ns) < 4:
        raise ValueError("window too small for a fit (need >= 4 usable points)")
    sw = np.sqrt(weights)
    y = np.log(mids)
    if model in ("log-only", "poly-log"):
        x = np.log(np.log2(ns))
        A = (np.column_stack([np.ones_like(x), -x]) if model == "log-only"
             else np.column_stack([np.ones_like(ns), x, -np.log(ns)]))
        coef, *_ = np.linalg.lstsq(A * sw[:, None], y * sw, rcond=None)
        # exp(coef[0]) is no float past log(DBL_MAX): an unusable window
        if coef[0] > math.log(sys.float_info.max):
            raise ValueError("fit coefficient overflows (ill-conditioned window)")
        params = ({"C": math.exp(coef[0]), "alpha": float(coef[1])} if model == "log-only" else
                  {"C": math.exp(coef[0]), "beta": float(coef[1]), "alpha": float(coef[2])})
        resid = y - A @ coef
    else:
        y2 = np.log2(mids)

        def fit_alpha(a):
            A = np.column_stack([np.ones_like(ns), -(ns**a)])
            coef, *_ = np.linalg.lstsq(A * sw[:, None], y2 * sw, rcond=None)
            r = (y2 - A @ coef) * sw
            return float(r @ r), coef

        golden = (math.sqrt(5) - 1) / 2
        a, b = 0.02, 0.98
        c1, c2 = b - golden * (b - a), a + golden * (b - a)
        f1, f2 = fit_alpha(c1)[0], fit_alpha(c2)[0]
        for _ in range(60):
            if f1 <= f2:
                b, c2, f2 = c2, c1, f1
                c1 = b - golden * (b - a)
                f1 = fit_alpha(c1)[0]
            else:
                a, c1, f1 = c1, c2, f2
                c2 = a + golden * (b - a)
                f2 = fit_alpha(c2)[0]
        alpha_hat = c1 if f1 <= f2 else c2
        _, coef = fit_alpha(alpha_hat)
        params = {"C": 2.0 ** coef[0], "c": float(coef[1]), "alpha": float(alpha_hat)}
        A = np.column_stack([np.ones_like(ns), -(ns**alpha_hat)])
        resid = y2 - A @ coef
    residual = math.sqrt(float((resid * sw) @ (resid * sw)) / float(weights.sum()))
    return RateFit(model, params, residual)


def _brackets(sides):
    return {k: Bracket(lo, lo + w) for k, (lo, w) in enumerate(sides)}


_SIDE = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))
# the power schedule reads entropy indices up to ceil(3 * 9 * log2 9) = 86
_E_SIDES = st.lists(st.tuples(_SIDE, _SIDE), min_size=90, max_size=90)
_D_SIDES = st.lists(st.tuples(_SIDE, _SIDE), min_size=10, max_size=10)
# zero series, a certified-zero denominator, and a denominator that straddles
# zero (lower side 0, upper side positive)
_ZERO, _ONES, _STRADDLE = [(0.0, 0.0)] * 90, [(1.0, 0.0)] * 90, [(0.0, 1.0)] * 90


def _same_outcome(new, oracle, *args):
    """new(*args) == oracle(*args), or both raise the same error."""
    try:
        expected = oracle(*args)
    except (ValueError, ArithmeticError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            new(*args)
        return
    assert new(*args) == expected


@settings(max_examples=80, derandomize=True, deadline=None)
@given(e=_E_SIDES, d=_D_SIDES, lo=st.integers(0, 5), span=st.integers(-1, 4),
       r=st.sampled_from([0.5, 1.0, 2.0]), a=st.sampled_from([0.5, 1.0]),
       lam=st.sampled_from([1.5, 2.0]))
@example(e=_ZERO, d=_ZERO[:10], lo=1, span=4, r=1.0, a=1.0, lam=2.0)
@example(e=_ONES, d=_ZERO[:10], lo=1, span=4, r=1.0, a=1.0, lam=2.0)
@example(e=_ONES, d=_STRADDLE[:10], lo=0, span=4, r=0.5, a=0.5, lam=2.0)
@example(e=_STRADDLE, d=_STRADDLE[:10], lo=2, span=3, r=2.0, a=1.0, lam=1.5)
@example(e=_ZERO, d=_STRADDLE[:10], lo=5, span=4, r=2.0, a=1.0, lam=1.5)
@example(e=_ONES, d=_ONES[:10], lo=4, span=-1, r=1.0, a=1.0, lam=2.0)
def test_domination_checks_match_their_oracles(e, d, lo, span, r, a, lam):
    e, d, window = _brackets(e), _brackets(d), (lo, lo + span)
    _same_outcome(check_carl, oracle_check_carl, e, d, r, window)
    for schedule in (("lambda", lam), ("power", a)):
        _same_outcome(check_generalized_carl, oracle_check_generalized_carl,
                      e, d, r, schedule, window)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(sides=st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(1e-6, 5.0)),
                                st.one_of(st.just(0.0), st.floats(0.0, 2.0))),
                      min_size=16, max_size=16),
       lo=st.integers(0, 6), span=st.integers(0, 10))
@example(sides=[(0.0, 0.0)] * 16, lo=2, span=8)
@example(sides=[(0.0, 0.0)] * 4 + [(1.0, 0.5)] * 12, lo=1, span=9)
@example(sides=[(0.0, 0.0)] * 3 + [(0.0, 1.0)] + [(0.0, 0.0)] * 12, lo=0, span=10)
# exp(coef[0]) overflows: a subnormal-scale side, and the poly-log window of
# test_fit_rate_overflow_is_an_unusable_window
@example(sides=[(0.0, 0.0)] * 3 + [(0.0, 1.0)] + [(0.0, 0.0)] * 4 + [(0.0, 1.0)] * 2
         + [(0.0, 2.2250738585072014e-308)] + [(0.0, 0.0)] * 5, lo=0, span=10)
@example(sides=[(0.0, 0.0)] * 11 + [(0.0, 1.0699), (0.0, 0.0262), (0.0, 0.5760), (4.3309, 0.0)]
         + [(0.0, 0.0)], lo=6, span=8)
def test_log_and_poly_log_fits_match_their_oracle_bit_for_bit(sides, lo, span):
    series, window = _brackets(sides), (lo, lo + span)
    for model in ("log-only", "poly-log"):
        _same_outcome(fit_rate, oracle_fit_rate, series, model, window)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(C=st.floats(0.5, 4.0), c=st.floats(0.2, 2.0), a=st.floats(0.1, 0.9),
       rel=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=20, max_size=20),
       lo=st.integers(1, 4), span=st.integers(3, 15))
@example(C=1.7, c=0.9, a=0.5, rel=[0.0] * 20, lo=1, span=14)
def test_stretched_exp_fit_matches_the_golden_section_oracle(C, c, a, rel, lo, span):
    # midpoints on the model, with brackets of random relative widths, so the
    # weights vary and the least-squares optimum in alpha is well determined
    series = {}
    for n in range(lo, lo + span + 1):
        v = C * 2 ** (-c * n**a)
        series[n] = Bracket(v * (1 - rel[n] / 2), v * (1 + rel[n] / 2))
    got = fit_rate(series, "stretched-exp", (lo, lo + span))
    want = oracle_fit_rate(series, "stretched-exp", (lo, lo + span))
    for key in ("C", "c", "alpha"):
        assert abs(got.params[key] - want.params[key]) <= 1e-6 * max(1.0, abs(want.params[key]))
    assert got.residual == pytest.approx(want.residual, abs=1e-6)
