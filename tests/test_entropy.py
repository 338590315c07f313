import itertools
import math
import tracemalloc
from unittest import mock

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
    ksigma_nested_cover_radius,
    ksigma_packing_count,
    max_packing,
    packing_number,
)
from widthlab.spaces import (
    Bracket,
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
    assert greedy_cover(E12, 1.5).cardinality == 1
    assert greedy_cover(E12, 1.0).cardinality == 2
    assert greedy_cover(SINGLE, 0.01).cardinality == 1


def test_greedy_cover_validity_random():
    rng = np.random.default_rng(0)
    for _ in range(10):
        K = CompactSetModel.cloud(rng.normal(size=(30, 3)))
        for eps in (0.5, 1.0, 2.0):
            res = greedy_cover(K, eps)
            assert res.validate(K)


def test_cover_number_examples():
    br = cover_number(E12, 1.0, inner=True)
    assert br.exact and br.lower == br.upper == 2.0
    br = cover_number(SINGLE, 0.1, inner=True)
    assert br.exact and br.upper == 1.0


def test_min_cover_vs_exhaustive_random():
    rng = np.random.default_rng(42)
    for _ in range(12):
        pts = rng.normal(size=(rng.integers(3, 9), 2))
        K = CompactSetModel.cloud(pts)
        eps = float(rng.uniform(0.3, 1.5))
        br = cover_number(K, eps, inner=True)
        assert br.exact
        assert br.upper == exhaustive_min_cover(pts, eps)


def test_min_cover_ksigma_truncation():
    # at eps = 1.05 a single ball centered at the zero element covers the whole
    # truncated family (every s_j e_j has norm at most s_1 = 1 <= 1.05)
    K = CompactSetModel.ksigma(alpha=1.0, truncation=40)
    br = cover_number(K, 1.05, inner=True)
    pts = K.as_cloud().points
    assert br.exact
    assert br.upper == exhaustive_min_cover(pts, 1.05) == 1.0
    # the greedy largest-first cover ignores the zero hub; its 2-ball radius
    # threshold is the nested-cover closed form, which exceeds 1.05
    assert greedy_cover(K, 1.05).cardinality > 2
    r2 = ksigma_nested_cover_radius(1.0, 1)
    assert greedy_cover(K, r2 * (1 + 1e-12)).cardinality == 2


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

    def counting(points):
        calls.append(1)
        return minimum_enclosing_ball(points)

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


@pytest.mark.parametrize("norm", [NormSpec("euclidean", 4), NormSpec("max", 4),
                                  NormSpec("pnorm", 4, p=1.5)])
def test_zeroth_entropy_numbers_are_closed_forms(norm):
    K = CompactSetModel.cloud(np.random.default_rng([61, 0]).normal(size=(70, 4)), norm)
    assert K.size > entropy.EXACT_POINT_LIMIT
    r = float(np.min(np.max(norm.pairwise(K.points), axis=1)))
    inner = entropy_number(K, 0, inner=True)
    assert inner.exact and inner.lower == inner.upper == r
    assert inner.lower_method == inner.upper_method == "one-center"
    outer = entropy_number(K, 0, inner=False)
    assert outer == chebyshev_radius(K)
    assert outer.exact == (norm.kind != "pnorm")
    assert outer.upper <= inner.upper


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
    assert ksigma_nested_cover_radius(1.0, 1) == pytest.approx(math.hypot(s2, s3), rel=1e-12)
    assert ksigma_nested_cover_radius(1.0, 1) == pytest.approx(1.0998750446514673, abs=1e-9)
    assert ksigma_nested_cover_radius(1.0, 2) == pytest.approx(0.9214009130183045, abs=1e-9)
    assert sigma_value(1.0, 13) == pytest.approx(0.5, abs=1e-12)
    assert ksigma_inner_entropy_attained(1.0, 1) == pytest.approx(s2, rel=1e-12)


def test_ksigma_entropy_bracket_contains_closed_form():
    for n in (1, 2, 3):
        K = CompactSetModel.ksigma(1.0, truncation=2**n + 8)
        br = entropy_number(K, n, inner=True)
        cf = ksigma_nested_cover_radius(1.0, n)
        assert br.contains(cf, slack=K.tail_gap + 1e-9)
        # exact search lands on the attained (hub-cover) value
        assert br.exact
        assert br.contains(ksigma_inner_entropy_attained(1.0, n), slack=2e-9)


def test_ksigma_greedy_matches_nested_cover_radius():
    for n in (1, 2, 3, 4):
        K = CompactSetModel.ksigma(1.0, truncation=2**n + 8)
        cf = ksigma_nested_cover_radius(1.0, n)
        assert greedy_cover(K, cf * (1 + 1e-12)).cardinality <= 2**n
        assert greedy_cover(K, cf * (1 - 1e-9)).cardinality > 2**n


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
    K = CompactSetModel.cloud(rng.normal(size=(70, 3)))
    br = packing_number(K, 0.8)
    assert br.lower <= br.upper
    assert not br.exact  # above the exact point limit
    assert br.lower_method == "greedy-packing"
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
        with mock.patch.object(entropy, "EXACT_POINT_LIMIT", 0):
            assert entropy_number(K, n, inner=True).contains(value)


def set_partitions(items):
    """Every partition of the list items into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1:]


def max_block_radius(P):
    """Chebyshev radius of a planar block in the max norm: half the largest
    coordinate range."""
    return 0.5 * float(np.max(np.ptp(P, axis=0)))


def euclidean_block_radius(P):
    """Radius of the smallest enclosing circle of a planar block: the least
    circle through two or three of its points that contains the block."""
    if len(P) == 1:
        return 0.0
    circles = [(0.5 * (a + b), 0.5 * math.dist(a, b)) for a, b in itertools.combinations(P, 2)]
    for a, b, c in itertools.combinations(P, 3):
        d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
        if d == 0:
            continue
        aa, bb, cc = a @ a, b @ b, c @ c
        center = np.array([aa * (b[1] - c[1]) + bb * (c[1] - a[1]) + cc * (a[1] - b[1]),
                           aa * (c[0] - b[0]) + bb * (a[0] - c[0]) + cc * (b[0] - a[0])]) / d
        circles.append((center, math.dist(center, a)))
    return min(r for center, r in circles
               if np.all(np.linalg.norm(P - center, axis=1) <= r * (1 + 1e-12) + 1e-12))


BLOCK_RADIUS = {"max": max_block_radius, "euclidean": euclidean_block_radius}


def brute_outer(P, block_radius, eps):
    """Fewest outer eps-balls covering P at each radius of eps, and the outer
    e_1 and e_2: minima over the set partitions of P, a block costing its
    Chebyshev radius."""
    radius = {}
    counts = {e: len(P) for e in eps}
    entropy_values = {1: math.inf, 2: math.inf}
    for part in set_partitions(list(range(len(P)))):
        worst = max(radius.setdefault(tuple(sorted(b)), block_radius(P[sorted(b)])) for b in part)
        for e in eps:
            if worst <= e:
                counts[e] = min(counts[e], len(part))
        for n in entropy_values:
            if len(part) <= 2**n:
                entropy_values[n] = min(entropy_values[n], worst)
    return counts, entropy_values


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4)), min_size=1, max_size=7),
    st.sampled_from(sorted(BLOCK_RADIUS)),
    st.floats(0.05, 5),
)
def test_outer_brackets_hold_brute_force(pts, kind, eps):
    K = CompactSetModel.cloud(pts, NormSpec(kind, 2))
    # the count at eps(1 -+ 1e-9) bounds the one at eps whatever the rounding
    lo, hi = eps * (1 - 1e-9), eps * (1 + 1e-9)
    counts, values = brute_outer(K.points, BLOCK_RADIUS[kind], (lo, hi))
    br = cover_number(K, eps, inner=False)
    # counts are integers: exact when the sides meet, as [1, 1] on one point
    assert br.exact == (br.lower == br.upper)
    assert br.lower <= counts[lo] and br.upper >= counts[hi]
    for n, value in values.items():
        assert entropy_number(K, n, inner=False).contains(value, slack=1e-9 * max(1.0, value))


def test_nan_radius_is_rejected():
    K = CompactSetModel.cloud(np.random.default_rng(2).normal(size=(10, 2)))
    seq = CompactSetModel.ksigma(1.0, 8)
    calls = [lambda: greedy_cover(K, math.nan), lambda: max_packing(K, math.nan),
             lambda: cover_number(K, math.nan), lambda: cover_number(K, math.nan, inner=False),
             lambda: packing_number(K, math.nan), lambda: packing_number(seq, math.nan),
             lambda: greedy_cover(K, -1.0), lambda: packing_number(K, 0.0)]
    for call in calls:
        with pytest.raises(ValueError, match="eps must be positive"):
            call()
    # an infinite radius is a radius: one ball covers, one point packs
    assert greedy_cover(K, math.inf).cardinality == 1
    assert cover_number(K, math.inf) == Bracket.exactly(1.0, "branch-bound")
    assert packing_number(K, math.inf).upper == max_packing(K, math.inf).cardinality == 1


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


def reference_greedy_set_cover_count(cover, stop_after=None):
    """The boolean-loop greedy set cover, one masked sum per step."""
    covered = np.zeros(cover.shape[1], dtype=bool)
    count = 0
    while not covered.all():
        gains = (cover & ~covered).sum(axis=1)
        best = int(np.argmax(gains))
        covered |= cover[best]
        count += 1
        if stop_after is not None and count > stop_after:
            return count
    return count


def test_greedy_set_cover_count_matches_boolean_loop():
    rng = np.random.default_rng(37)
    for _ in range(40):
        n_sets, m = rng.integers(1, 200), rng.integers(1, 70)
        cover = rng.uniform(size=(n_sets, m)) < rng.uniform(0.02, 0.5)
        cover[rng.integers(n_sets, size=m), np.arange(m)] = True
        for stop_after in (None, 1, 4):
            assert (entropy._greedy_set_cover_count(cover, stop_after)
                    == reference_greedy_set_cover_count(cover, stop_after))


def reference_max_independent_set(adj, m):
    """Branch and bound pruned by the candidate count alone, no budget."""
    best = []

    def rec(cand, chosen):
        nonlocal best
        if len(chosen) + cand.bit_count() <= len(best):
            return
        if cand == 0:
            best = list(chosen)
            return
        v = max((i for i in range(m) if cand >> i & 1), key=lambda i: (adj[i] & cand).bit_count())
        rec(cand & ~((1 << v) | adj[v]), chosen + [v])
        rec(cand & ~(1 << v), chosen)

    rec((1 << m) - 1, [])
    return best


@pytest.mark.parametrize("norm", TINY_NORMS)
def test_clique_bound_keeps_the_packing_witness(norm):
    rng = np.random.default_rng(41)
    for _ in range(20):
        K = CompactSetModel.cloud(rng.normal(size=(int(rng.integers(2, 21)), 2)), norm)
        D = norm.pairwise(K.points)
        eps = float(rng.uniform(0.2, 0.6)) * D.max()
        adj = [mask & ~(1 << i) for i, mask in enumerate(entropy._ball_masks(D, eps))]
        witness = reference_max_independent_set(adj, K.size)
        res = max_packing(K, eps)
        assert res.exact and np.array_equal(res.points, K.points[witness])


def test_exact_entropy_searches_the_distance_spectrum(monkeypatch):
    calls = []
    bnb = entropy._inner_cover_bnb

    def counting(geom, eps, best):
        calls.append(eps)
        return bnb(geom, eps, best)

    monkeypatch.setattr(entropy, "_inner_cover_bnb", counting)
    rng = np.random.default_rng(13)
    for m in (12, 25, 40, 60):
        K = CompactSetModel.cloud(rng.normal(size=(m, 3)))
        distinct = len(np.unique(K.norm.pairwise(K.points)))
        for n in (1, 2, 3):
            calls.clear()
            br = entropy_number(K, n, inner=True)
            assert br.exact and br.upper in K.norm.pairwise(K.points)
            assert len(calls) <= math.ceil(math.log2(distinct)) + 1


def test_cover_and_packing_build_one_distance_matrix(pairwise_shapes):
    rng = np.random.default_rng(8)
    for m in (12, 30, 60):
        K = CompactSetModel.cloud(rng.normal(size=(m, 3)))
        for fn in (cover_number, packing_number):
            pairwise_shapes.clear()
            fn(K, 0.8)
            assert pairwise_shapes == [(m, m)]


# ---------------------------------------------------------------------------
# distance rows on demand above the exact limit


class FullMatrixGeom:
    """The geometry before rows on demand: one whole distance matrix per
    call, every row and the one-center radius read from it."""

    def __init__(self, K, keep_rows=False):
        cloud = K.as_cloud()
        self.model, self.pts, self.norm = cloud, cloud.points, cloud.norm
        self.m = self.pts.shape[0]
        self.D = cloud.norm.pairwise(self.pts)
        self.norms = np.asarray(cloud.norm.norm(self.pts), dtype=float).reshape(-1)
        self.order = np.lexsort((np.arange(self.m), -self.norms))
        self.small = self.m <= entropy.EXACT_POINT_LIMIT

    def row(self, i):
        return self.D[i]

    def one_center_radius(self):
        return float(np.min(np.max(self.D, axis=1)))


ROW_NORMS = {"euclidean": NormSpec("euclidean", 3), "max": NormSpec("max", 3),
             "l1": NormSpec("pnorm", 3, p=1.0), "l1.5": NormSpec("pnorm", 3, p=1.5)}


def shaped_cloud(shape, m, seed):
    rng = np.random.default_rng([29, m, seed])
    if shape == "duplicates":
        return rng.normal(size=(max(1, m // 3), 3))[rng.integers(0, max(1, m // 3), size=m)]
    if shape == "cospherical":
        # a regular polygon: in the euclidean norm every point's eccentricity
        # is the diameter up to rounding, so the landmark rows prune nothing
        t = 2 * np.pi * np.arange(m) / m
        return np.column_stack([np.cos(t), np.sin(t), np.zeros(m)])
    return rng.normal(size=(m, 3))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(ROW_NORMS)), st.sampled_from(["normal", "duplicates", "cospherical"]),
       st.integers(2, 300), st.integers(0, 2**16))
def test_pruned_one_center_radius_is_the_full_matrix_minimum(kind, shape, m, seed):
    norm = ROW_NORMS[kind]
    K = CompactSetModel.cloud(shaped_cloud(shape, m, seed), norm)
    expected = np.min(np.max(norm.pairwise(K.points), axis=1))
    assert entropy._Geom(K).one_center_radius() == expected
    with mock.patch.object(entropy, "EXACT_POINT_LIMIT", 1):
        geom = entropy._Geom(K)
        assert geom.D is None and geom.one_center_radius() == expected


def all_results(K):
    """Every bracket and witness that the greedy and exact paths return."""
    r = entropy_number(K, 0).upper
    out = [entropy_number(K, n, inner=inner) for n in range(4) for inner in (True, False)]
    for eps in (0.15 * r, 0.5 * r):
        cov, pk = greedy_cover(K, eps), max_packing(K, eps)
        out += [cover_number(K, eps), cover_number(K, eps, inner=False), packing_number(K, eps),
                (cov.cardinality, cov.centers.tobytes()),
                (pk.cardinality, pk.exact, pk.points.tobytes())]
    return out


@pytest.mark.parametrize("kind, m", [("euclidean", 65), ("max", 65), ("l1.5", 65),
                                     ("euclidean", 3000), ("max", 3000), ("l1.5", 1000)])
def test_rows_on_demand_match_the_full_matrix(kind, m):
    K = CompactSetModel.cloud(np.random.default_rng([31, m]).normal(size=(m, 3)), ROW_NORMS[kind])
    with mock.patch.object(entropy, "_Geom", FullMatrixGeom):
        expected = all_results(K)
    assert all_results(K) == expected


@pytest.mark.parametrize("shape", ["normal", "cospherical"])
def test_no_call_above_the_limit_asks_for_more_than_a_block(pairwise_shapes, shape):
    for kind, norm in ROW_NORMS.items():
        K = CompactSetModel.cloud(shaped_cloud(shape, 700, 0), norm)
        r = entropy_number(K, 0).upper
        for n in (1, 2, 3):
            entropy_number(K, n, inner=True)
            entropy_number(K, n, inner=False)
        cover_number(K, 0.3 * r)
        packing_number(K, 0.3 * r)
        greedy_cover(K, 0.3 * r)
        max_packing(K, 0.3 * r)
    assert pairwise_shapes and max(rows for rows, _ in pairwise_shapes) <= spaces._DIAMETER_BLOCK


def test_large_entropy_number_keeps_no_distance_matrix():
    # the whole 3000 x 3000 matrix alone is 68.7 MiB
    K = CompactSetModel.cloud(np.random.default_rng(0).normal(size=(3000, 3)))
    K.norm.pairwise(K.points[:2])  # imports scipy untraced
    tracemalloc.start()
    try:
        br = entropy_number(K, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    with mock.patch.object(entropy, "_Geom", FullMatrixGeom):
        assert entropy_number(K, 3) == br


def _result_key(r):
    if isinstance(r, entropy.CoverResult):
        return r.cardinality, r.centers.tobytes()
    if isinstance(r, PackingResult):
        return r.cardinality, r.exact, r.points.tobytes()
    return r


@pytest.mark.parametrize("fn", [cover_number, packing_number, greedy_cover, max_packing])
def test_single_pass_calls_keep_no_distance_rows(fn):
    # at eps = 1e-6 every point gets a ball of its own, so keeping each row
    # read would add up to the whole 3000 x 3000 matrix (68.7 MiB)
    K = CompactSetModel.cloud(np.random.default_rng(0).normal(size=(3000, 3)))
    K.norm.pairwise(K.points[:2])  # imports scipy untraced
    tracemalloc.start()
    try:
        got = fn(K, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    with mock.patch.object(entropy, "_Geom", FullMatrixGeom):
        assert _result_key(got) == _result_key(fn(K, 1e-6))


def test_sequence_embedding_is_cached(monkeypatch):
    calls = []

    def counting(points):
        calls.append(1)
        return minimum_enclosing_ball(points)

    monkeypatch.setattr(spaces, "minimum_enclosing_ball", counting)
    K = CompactSetModel.ksigma(1.0, 24)
    assert K.as_cloud() is K.as_cloud()
    for n in (1, 2, 3):
        entropy_number(K, n, inner=False)
    assert len(calls) == 1


SUITE_CLOUD = np.random.default_rng([101, 0]).normal(size=(60, 4))


@pytest.mark.parametrize("norm", [NormSpec("max", 4), NormSpec("pnorm", 4, p=1.5)])
def test_outer_entropy_upper_is_at_most_inner(norm):
    # any inner cover is an outer cover, so on clouds within the exact limit
    # the outer upper side never exceeds the exact inner number
    K = CompactSetModel.cloud(np.random.default_rng([61, 0]).normal(size=(60, 4)), norm)
    for n in (1, 2, 3):
        inner = entropy_number(K, n, inner=True)
        outer = entropy_number(K, n, inner=False)
        assert inner.exact and outer.upper <= inner.upper
        assert outer.upper_method in ("greedy|pool", "inner-branch-bound")
        if norm.kind == "pnorm" and n == 1:
            # both read [2.4738, 5.2053] from the same greedy cover before
            assert inner.upper == pytest.approx(3.4415, abs=1e-4)
            assert outer.upper == pytest.approx(3.2193, abs=1e-4)
            assert outer.lower == pytest.approx(2.4738, abs=1e-4)
    K = CompactSetModel.cloud(SUITE_CLOUD)
    inner, outer = entropy_number(K, 1, inner=True), entropy_number(K, 1, inner=False)
    assert outer.upper_method == "inner-branch-bound" and outer.upper == inner.upper


def milp_cover_count(D, eps):
    from scipy.optimize import Bounds, LinearConstraint, milp

    m = len(D)
    res = milp(np.ones(m), constraints=LinearConstraint((D <= eps).astype(float), 1, np.inf),
               integrality=np.ones(m), bounds=Bounds(0, 1), options={"mip_rel_gap": 0})
    assert res.success
    return round(res.fun)


def milp_packing_count(D, eps):
    from scipy.optimize import Bounds, LinearConstraint, milp

    m = len(D)
    i, j = np.nonzero(np.triu(D <= eps, 1))
    A = np.zeros((len(i), m))
    A[np.arange(len(i)), i] = A[np.arange(len(i)), j] = 1
    res = milp(-np.ones(m), constraints=LinearConstraint(A, -np.inf, 1),
               integrality=np.ones(m), bounds=Bounds(0, 1), options={"mip_rel_gap": 0})
    assert res.success
    return round(-res.fun)


@pytest.mark.parametrize("norm, radii", [
    (NormSpec("euclidean", 4), (0.8, 1.4, 2.2)),
    (NormSpec("max", 4), (0.6, 1.05, 1.65)),
    (NormSpec("pnorm", 4, p=1.5), (0.95, 1.65, 2.6)),
])
def test_counts_and_inner_entropy_match_milp(norm, radii):
    K = CompactSetModel.cloud(SUITE_CLOUD, norm)
    D = norm.pairwise(K.points)
    counts = []
    for eps in radii:
        cover, packing = cover_number(K, eps), packing_number(K, eps)
        assert cover.exact and packing.exact
        assert cover.upper == milp_cover_count(D, eps)
        assert packing.upper == milp_packing_count(D, eps)
        counts.append((cover.upper, packing.upper))
    if norm.kind == "euclidean":
        assert counts == [(50, 53), (18, 28), (7, 13)]
    spectrum = np.unique(D)
    for n in (1, 2, 3):
        br = entropy_number(K, n, inner=True)
        assert br.exact
        k = int(np.searchsorted(spectrum, br.upper))
        assert spectrum[k] == br.upper
        assert milp_cover_count(D, spectrum[k]) <= 2**n < milp_cover_count(D, spectrum[k - 1])


def test_exhausted_budget_gives_sound_partial_brackets(monkeypatch):
    K = CompactSetModel.cloud(SUITE_CLOUD)
    eps = 1.4
    cover, packing = cover_number(K, eps).upper, packing_number(K, eps).upper
    inner = {n: entropy_number(K, n, inner=True).upper for n in (1, 2)}
    monkeypatch.setattr(entropy, "_NODE_BUDGET", 3)
    br = cover_number(K, eps)
    assert not br.exact and br.upper_method == "greedy|branch-bound-partial"
    assert br.contains(cover)
    br = cover_number(K, eps, inner=False)
    assert not br.exact and br.upper_method == "greedy|pool"
    assert br.lower <= cover
    br = packing_number(K, eps)
    assert not br.exact and br.lower_method == "greedy-packing|exhaustive-partial"
    assert br.contains(packing)
    res = max_packing(K, eps)
    assert not res.exact and res.validate(K) and res.cardinality <= packing
    for n, value in inner.items():
        br = entropy_number(K, n, inner=True)
        assert not br.exact and br.upper_method == "greedy|branch-bound-partial"
        assert br.contains(value)
        br = entropy_number(K, n, inner=False)
        assert br.upper_method == "greedy|pool|branch-bound-partial"
        assert br.lower <= value


@pytest.mark.parametrize("m", [80, 40], ids=["above-limit", "within-limit"])
@pytest.mark.parametrize("inner", [True, False], ids=["inner", "outer"])
def test_entropy_brackets_are_scale_free(monkeypatch, m, inner):
    # the bisections stop at a width relative to the radii they search, so a
    # dilation by t scales both sides by t and takes no more probes
    probes = []
    bisect = entropy._bisect

    def counting(pred, lo, hi):
        def probe(r):
            probes.append(r)
            return pred(r)

        return bisect(probe, lo, hi)

    monkeypatch.setattr(entropy, "_bisect", counting)
    K = CompactSetModel.cloud(np.random.default_rng(3).normal(size=(80, 3))[:m])
    base = entropy_number(K, 2, inner=inner)
    base_probes = len(probes)
    assert base.upper > 0
    for t in (1e-12, 1e-9, 1e6, 1e12):
        probes.clear()
        br = entropy_number(scale_set(K, t), 2, inner=inner)
        stop = 2 * entropy._TOL * t * base.upper
        assert abs(br.lower - t * base.lower) <= stop
        assert abs(br.upper - t * base.upper) <= stop
        assert br.exact == base.exact
        assert len(probes) <= base_probes


def test_entropy_of_few_distinct_points_is_exactly_zero():
    # 80 points on 3 distinct ones: 4 balls of radius 0 cover them
    P = np.repeat(np.random.default_rng(3).normal(size=(3, 3)), [30, 30, 20], axis=0)
    for K, inner in ((CompactSetModel.cloud(P), True), (CompactSetModel.cloud(P[::2]), False)):
        br = entropy_number(K, 2, inner=inner)
        assert (br.lower, br.upper, br.exact) == (0.0, 0.0, True)


def test_cover_number_packs_only_on_the_fallback_path(monkeypatch):
    calls = []
    packing = entropy._greedy_packing_indices

    def counting(geom, eps, stop_after=None):
        calls.append(eps)
        return packing(geom, eps, stop_after)

    monkeypatch.setattr(entropy, "_greedy_packing_indices", counting)
    K = CompactSetModel.cloud(np.random.default_rng(5).normal(size=(30, 3)))
    assert cover_number(K, 1.0).exact and calls == []
    assert not cover_number(K, 1.0, inner=False).exact and calls == [2.0]
