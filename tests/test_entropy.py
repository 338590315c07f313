import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab import entropy, spaces
from widthlab.entropy import (
    PackingResult,
    cover_number,
    entropy_number,
    greedy_cover,
    ksigma_inner_entropy_attained,
    ksigma_inner_entropy_exact,
    ksigma_packing_count,
    max_packing,
    min_cover_exact,
    packing_number,
)
from widthlab.spaces import (
    CompactSetModel,
    NormSpec,
    chebyshev_radius,
    minimum_enclosing_ball,
    scale_set,
    sigma_value,
)


def exhaustive_min_cover(pts, eps, candidates=None):
    """Smallest number of eps-balls (centers from candidates) covering pts."""
    pts = np.asarray(pts, dtype=float)
    cands = pts if candidates is None else np.asarray(candidates, dtype=float)
    D = np.linalg.norm(pts[:, None, :] - cands[None, :, :], axis=2)
    m, c = D.shape
    for k in range(1, m + 1):
        for subset in itertools.combinations(range(c), k):
            if np.all(D[:, subset].min(axis=1) <= eps + 1e-12):
                return k
    return m


def exhaustive_max_packing(pts, eps):
    pts = np.asarray(pts, dtype=float)
    m = len(pts)
    D = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    best = 0
    for k in range(m, 0, -1):
        for subset in itertools.combinations(range(m), k):
            sub = np.ix_(subset, subset)
            vals = D[sub][np.triu_indices(k, 1)]
            if k == 1 or np.all(vals > eps):
                return k
    return best


E12 = CompactSetModel.cloud([[1.0, 0.0], [0.0, 1.0]])
SINGLE = CompactSetModel.cloud([[0.3, -0.7]])


def test_greedy_cover_examples():
    assert greedy_cover(E12, 1.5, inner=True).cardinality == 1
    assert greedy_cover(E12, 1.0, inner=True).cardinality == 2
    assert greedy_cover(SINGLE, 0.01, inner=True).cardinality == 1


def test_greedy_cover_validity_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        K = CompactSetModel.cloud(rng.normal(size=(30, 3)))
        for eps in (0.5, 1.0, 2.0):
            res = greedy_cover(K, eps)
            assert res.validate(K)


def test_min_cover_exact_examples():
    br = min_cover_exact(E12, 1.0, inner=True)
    assert br.exact and br.lower == br.upper == 2.0
    br = min_cover_exact(SINGLE, 0.1, inner=True)
    assert br.exact and br.upper == 1.0


def test_min_cover_vs_exhaustive_random():
    rng = np.random.default_rng(42)
    for _ in range(12):
        pts = rng.normal(size=(rng.integers(3, 9), 2))
        K = CompactSetModel.cloud(pts)
        eps = float(rng.uniform(0.3, 1.5))
        br = min_cover_exact(K, eps, inner=True)
        assert br.exact
        assert br.upper == exhaustive_min_cover(pts, eps)


def test_min_cover_ksigma_truncation():
    # at eps = 1.05 a single ball centered at the zero element covers the whole
    # truncated family (every s_j e_j has norm at most s_1 = 1 <= 1.05)
    K = CompactSetModel.ksigma(alpha=1.0, truncation=40)
    br = min_cover_exact(K, 1.05, inner=True)
    pts = K.as_cloud().points
    assert br.exact
    assert br.upper == exhaustive_min_cover(pts, 1.05) == 1.0
    # the greedy largest-first cover ignores the zero hub; its 2-ball radius
    # threshold is the nested-cover closed form, which exceeds 1.05
    assert greedy_cover(K, 1.05, inner=True).cardinality > 2
    r2 = ksigma_inner_entropy_exact(1.0, 1)
    assert greedy_cover(K, r2 * (1 + 1e-12), inner=True).cardinality == 2


def test_max_packing_examples():
    assert max_packing(E12, 1.0).cardinality == 2
    assert max_packing(E12, 1.5).cardinality == 1
    assert max_packing(SINGLE, 0.7).cardinality == 1


def test_max_packing_vs_exhaustive():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pts = rng.normal(size=(rng.integers(4, 10), 2))
        K = CompactSetModel.cloud(pts)
        eps = float(rng.uniform(0.3, 1.5))
        res = max_packing(K, eps)
        assert res.exact
        assert res.validate(K)
        assert res.cardinality == exhaustive_max_packing(pts, eps)


def test_packing_validate_uses_model_norm():
    pts = [[0.0, 0.0], [1.0, 1.0]]
    res = PackingResult(1.2, np.asarray(pts), 2)
    # 1.0 apart in the max norm, sqrt(2) apart in the euclidean norm
    assert not res.validate(CompactSetModel.cloud(pts, NormSpec("max", 2)))
    assert res.validate(CompactSetModel.cloud(pts))


def test_outer_pool_ball_center_computed_once(monkeypatch):
    pts = np.random.default_rng(17).normal(size=(12, 5))
    assert np.array_equal(CompactSetModel.cloud(pts).ball_center,
                          minimum_enclosing_ball(pts)[0])
    calls = []

    def counting(points, seed=0):
        calls.append(1)
        return minimum_enclosing_ball(points, seed)

    monkeypatch.setattr(spaces, "minimum_enclosing_ball", counting)
    K = CompactSetModel.cloud(pts)
    for n in (1, 2):
        entropy_number(K, n, inner=False)
    cover_number(K, 1.0, inner=False)
    assert len(calls) == 1


def test_entropy_number_examples():
    br = entropy_number(SINGLE, 0, inner=True)
    assert br.lower == br.upper == 0.0
    br = entropy_number(E12, 0, inner=False)
    assert br.upper == pytest.approx(math.sqrt(0.5), abs=1e-6)
    assert br.lower == pytest.approx(math.sqrt(0.5), abs=1e-6)
    assert br.upper == pytest.approx(chebyshev_radius(E12).upper, abs=1e-6)
    br = entropy_number(E12, 1, inner=True)
    assert br.lower == br.upper == 0.0


def test_entropy_monotone_in_n():
    rng = np.random.default_rng(9)
    K = CompactSetModel.cloud(rng.normal(size=(20, 3)))
    prev = None
    for n in range(0, 5):
        br = entropy_number(K, n, inner=True)
        if prev is not None:
            assert br.lower <= prev.upper + 1e-9
            assert br.upper <= prev.upper + 1e-9
        prev = br


def test_entropy_inner_exact_small():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(9, 2))
    K = CompactSetModel.cloud(pts)
    for n in (0, 1, 2):
        br = entropy_number(K, n, inner=True)
        assert br.exact
        # verify threshold against exhaustive cover decisions
        assert exhaustive_min_cover(pts, br.upper + 1e-7) <= 2**n
        if br.lower > 1e-7:
            assert exhaustive_min_cover(pts, br.lower - 1e-7) > 2**n


def test_sandwich_known_inequality():
    rng = np.random.default_rng(17)
    for _ in range(6):
        K = CompactSetModel.cloud(rng.normal(size=(25, 3)))
        for eps in (0.4, 0.8, 1.6):
            p1 = packing_number(K, eps)
            nc = cover_number(K, eps, inner=True)
            p2 = packing_number(K, 2 * eps)
            # certified violation must never occur
            assert not (p1.upper < nc.lower - 1e-9)
            assert not (nc.upper < p2.lower - 1e-9)


def test_innerentropy_sandwich():
    rng = np.random.default_rng(23)
    for _ in range(4):
        K = CompactSetModel.cloud(rng.normal(size=(15, 3)))
        for n in (0, 1, 2):
            e = entropy_number(K, n, inner=False)
            te = entropy_number(K, n, inner=True)
            assert not (e.lower > te.upper + 1e-9)
            assert not (te.lower > 2 * e.upper + 1e-9)


def test_ksigma_closed_forms():
    s2 = sigma_value(1.0, 2)
    s3 = sigma_value(1.0, 3)
    assert ksigma_inner_entropy_exact(1.0, 1) == pytest.approx(math.hypot(s2, s3), rel=1e-12)
    assert ksigma_inner_entropy_exact(1.0, 1) == pytest.approx(1.0998750446514673, abs=1e-9)
    assert ksigma_inner_entropy_exact(1.0, 2) == pytest.approx(0.9214009130183045, abs=1e-9)
    assert sigma_value(1.0, 13) == pytest.approx(0.5, abs=1e-12)
    assert ksigma_inner_entropy_attained(1.0, 1) == pytest.approx(s2, rel=1e-12)


def test_ksigma_entropy_bracket_contains_closed_form():
    for n in (1, 2, 3):
        K = CompactSetModel.ksigma(1.0, truncation=2**n + 8)
        br = entropy_number(K, n, inner=True)
        cf = ksigma_inner_entropy_exact(1.0, n)
        assert br.contains(cf, slack=K.tail_gap + 1e-9)
        # exact search lands on the attained (hub-cover) value
        assert br.exact
        assert br.contains(ksigma_inner_entropy_attained(1.0, n), slack=2e-9)


def test_ksigma_greedy_matches_nested_cover_radius():
    for n in (1, 2, 3, 4):
        K = CompactSetModel.ksigma(1.0, truncation=2**n + 8)
        cf = ksigma_inner_entropy_exact(1.0, n)
        assert greedy_cover(K, cf * (1 + 1e-12), inner=True).cardinality <= 2**n
        assert greedy_cover(K, cf * (1 - 1e-9), inner=True).cardinality > 2**n


def test_ksigma_packing_formula_vs_exhaustive():
    K = CompactSetModel.ksigma(1.0, truncation=12)
    pts = K.as_cloud().points
    for eps in (0.2, 0.5, 0.7, 0.9, 1.1, 1.3):
        assert ksigma_packing_count(K.as_cloud(), eps) == exhaustive_max_packing(pts, eps)
    half = scale_set(K.as_cloud(), 0.5)
    for eps in (0.3, 0.45, 0.6):
        assert ksigma_packing_count(half, eps) == exhaustive_max_packing(half.points, eps)


def test_packing_number_bracket():
    rng = np.random.default_rng(4)
    K = CompactSetModel.cloud(rng.normal(size=(40, 3)))
    br = packing_number(K, 0.8)
    assert br.lower <= br.upper
    assert not br.exact  # above the exhaustive limit
    small = CompactSetModel.cloud(rng.normal(size=(12, 3)))
    assert packing_number(small, 0.8).exact


def brute_inner_entropy(D, n):
    """Least distance d of the spectrum at which 2^n closed d-balls centred at
    set points cover the set (exhaustive over center subsets)."""
    m = len(D)
    k = min(1 << n, m)
    for d in np.unique(D):
        within = D <= d
        if any(within[:, list(c)].any(axis=1).all()
               for c in itertools.combinations(range(m), k)):
            return float(d)


TINY_NORMS = [NormSpec("euclidean", 2), NormSpec("max", 2), NormSpec("pnorm", 2, p=1.5)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4)), min_size=2, max_size=9),
    st.sampled_from(TINY_NORMS),
)
def test_inner_entropy_brackets_hold_brute_force(pts, norm):
    K = CompactSetModel.cloud(pts, norm)
    D = norm.pairwise(K.points)
    for n in range(0, math.ceil(math.log2(len(pts))) + 1):
        value = brute_inner_entropy(D, n)
        exact = entropy_number(K, n, inner=True)
        assert exact.exact and exact.lower == exact.upper == value
        assert entropy_number(K, n, inner=True, exact_limit=0).contains(value)


def test_ball_masks_match_loop():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m, c = rng.integers(1, 90, size=2)
        D = rng.uniform(size=(m, c))
        eps = float(rng.uniform())
        loop = []
        for row in D:
            mask = 0
            for j in range(c):
                if row[j] <= eps:
                    mask |= 1 << j
            loop.append(mask)
        assert entropy._ball_masks(D, eps) == loop


def test_exact_entropy_searches_the_distance_spectrum(monkeypatch):
    calls = []
    bnb = entropy._inner_cover_bnb

    def counting(geom, eps, budget):
        calls.append(eps)
        return bnb(geom, eps, budget)

    monkeypatch.setattr(entropy, "_inner_cover_bnb", counting)
    rng = np.random.default_rng(13)
    for m in (12, 25, 40):
        K = CompactSetModel.cloud(rng.normal(size=(m, 3)))
        distinct = len(np.unique(K.norm.pairwise(K.points)))
        for n in (1, 2, 3):
            calls.clear()
            br = entropy_number(K, n, inner=True)
            assert br.exact and br.upper in K.norm.pairwise(K.points)
            assert len(calls) <= math.ceil(math.log2(distinct)) + 1


def count_pairwise(monkeypatch):
    calls = []
    pairwise = NormSpec.pairwise

    def counting(self, pts, other=None):
        calls.append(other is None)
        return pairwise(self, pts, other)

    monkeypatch.setattr(NormSpec, "pairwise", counting)
    return calls


def test_cover_and_packing_build_one_distance_matrix(monkeypatch):
    calls = count_pairwise(monkeypatch)
    rng = np.random.default_rng(8)
    for m in (12, 30, 60):
        K = CompactSetModel.cloud(rng.normal(size=(m, 3)))
        for fn in (cover_number, packing_number):
            calls.clear()
            fn(K, 0.8)
            assert calls == [True]


def test_min_cover_exact_fails_before_distances(monkeypatch):
    calls = count_pairwise(monkeypatch)
    K = CompactSetModel.cloud(np.random.default_rng(0).normal(size=(501, 2)))
    with pytest.raises(ValueError, match="at most 500 points"):
        min_cover_exact(K, 0.5)
    assert calls == []


def test_sequence_embedding_is_cached(monkeypatch):
    calls = []

    def counting(points, seed=0):
        calls.append(1)
        return minimum_enclosing_ball(points, seed)

    monkeypatch.setattr(spaces, "minimum_enclosing_ball", counting)
    K = CompactSetModel.ksigma(1.0, 24)
    assert K.as_cloud() is K.as_cloud()
    for n in (1, 2, 3):
        entropy_number(K, n, inner=False)
    assert len(calls) == 1
