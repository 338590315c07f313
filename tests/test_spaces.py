import itertools
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from widthlab import spaces
from widthlab.spaces import (
    Bracket,
    CompactSetModel,
    NormSpec,
    chebyshev_radius,
    minimum_enclosing_ball,
    norm_of,
    scale_set,
    sigma_pow2_index,
    sigma_value,
    sup_norm,
)


def grid_meb_radius(pts, span=1.5, steps=41, refinements=12, norm=None):
    """Brute-force minimum enclosing ball radius by nested grid search, in the
    given norm (euclidean by default)."""
    pts = np.asarray(pts, dtype=float)
    norm = norm or NormSpec("euclidean", pts.shape[1])
    center = pts.mean(axis=0)
    width = span
    best = None
    for _ in range(refinements):
        axes = [np.linspace(c - width, c + width, steps) for c in center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(center))
        radii = np.max(norm.norm(grid[:, None, :] - pts[None, :, :]), axis=1)
        k = int(np.argmin(radii))
        center = grid[k]
        best = radii[k]
        width /= 4.0
    return best


def test_norm_of_examples():
    e2 = NormSpec("euclidean", 2)
    assert norm_of([0.0, 0.0], e2) == 0.0
    assert norm_of([3.0, 4.0], e2) == pytest.approx(5.0, abs=1e-12)
    assert norm_of([1.0, 1.0], NormSpec("max", 2)) == pytest.approx(1.0, abs=1e-12)


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        norm_of([1.0, 2.0, 3.0], NormSpec("euclidean", 2))


def test_pnorm_rejects_infinite_exponent():
    with pytest.raises(ValueError, match='kind="max"'):
        NormSpec("pnorm", 2, p=math.inf)
    assert NormSpec("pnorm", 2, p=1.0).norm([3.0, -4.0]) == pytest.approx(7.0, abs=1e-12)


def test_pnorm_rows_are_scaled_before_the_power_sum():
    assert NormSpec("pnorm", 2, p=1.5).norm([0.0, 1e-246]) == 1e-246
    assert NormSpec("pnorm", 2, p=3.0).norm([1e-120, 0.0]) == 1e-120
    with np.errstate(over="raise"):
        assert NormSpec("pnorm", 2, p=3.0).norm([1e120, 0.0]) == 1e120
    rows = np.random.default_rng(29).normal(size=(2000, 4))
    for p in (1.0, 1.5, 3.0):
        space = NormSpec("pnorm", 4, p=p)
        block = space.norm(rows)
        # a row measured alone rounds as it does in a block
        assert [space.norm(x) for x in rows] == block.tolist()
        assert block == pytest.approx(np.sum(np.abs(rows) ** p, axis=1) ** (1 / p), rel=1e-14)


def test_symmetric_facets_give_the_gauge_of_conv_pm_p():
    x = np.random.default_rng(31).normal(size=(200, 3))
    # conv(+-e_i) is the l1 ball, and the 1-d case an interval
    G = spaces._symmetric_facets(np.eye(3))
    assert np.max(x @ G.T, axis=1) == pytest.approx(np.abs(x).sum(axis=1), rel=1e-14)
    assert np.array_equal(spaces._symmetric_facets(np.array([[2.0], [-4.0]])), [[0.25], [-0.25]])
    P = np.random.default_rng(37).normal(size=(9, 3))
    G = spaces._symmetric_facets(P)
    assert np.max(np.vstack([P, -P]) @ G.T) == pytest.approx(1.0, rel=1e-14)
    # flat input has no complete facet list
    assert spaces._symmetric_facets(P * [1.0, 1.0, 0.0]) is None


def test_norm_properties_sampled():
    rng = np.random.default_rng(7)
    for space in (NormSpec("euclidean", 4), NormSpec("pnorm", 4, p=3.0), NormSpec("max", 4)):
        x = rng.normal(size=(10_000, 4))
        y = rng.normal(size=(10_000, 4))
        t = rng.normal(size=10_000)
        nx, ny = space.norm(x), space.norm(y)
        nxy = space.norm(x + y)
        assert np.all(nxy <= nx + ny + 1e-12 * np.maximum(1.0, nx + ny))
        assert np.allclose(space.norm(t[:, None] * x), np.abs(t) * nx, rtol=1e-12, atol=1e-12)
        assert space.norm(np.zeros(4)) == 0.0


def test_sup_norm():
    K = CompactSetModel.ksigma(alpha=1.0, truncation=100)
    assert sup_norm(K) == pytest.approx(1.0, abs=1e-12)
    assert sup_norm(CompactSetModel.cloud([[0.0, 0.0]])) == 0.0
    assert sup_norm(CompactSetModel.cloud([[1, 0], [0, 1]])) == pytest.approx(1.0)


def test_sigma_sequence():
    assert sigma_value(1.0, 1) == pytest.approx(1.0, abs=1e-15)
    assert sigma_value(1.0, 13) == pytest.approx(0.5, abs=1e-12)
    s = [sigma_value(1.0, j) for j in range(1, 60)]
    assert all(a > b for a, b in zip(s, s[1:]))
    for n in (1, 5, 30):
        assert sigma_pow2_index(1.0, n) == pytest.approx(sigma_value(1.0, 2.0**n), rel=1e-12)


def test_ksigma_embedding():
    K = CompactSetModel.ksigma(alpha=1.0, truncation=10)
    C = K.as_cloud()
    assert C.points.shape == (11, 10)
    assert np.allclose(np.linalg.norm(C.points, axis=1)[:-1], K.sigmas())
    assert np.all(C.points[-1] == 0.0)
    assert C.tail_gap == pytest.approx(sigma_value(1.0, 11))


def test_chebyshev_two_points():
    K = CompactSetModel.cloud([[1, 0], [0, 1]])
    br = chebyshev_radius(K)
    oracle = grid_meb_radius(K.points)
    assert br.exact
    assert br.upper == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert br.upper == pytest.approx(oracle, abs=1e-6)


def test_chebyshev_right_triangle():
    K = CompactSetModel.cloud([[0, 0], [2, 0], [0, 2]])
    br = chebyshev_radius(K)
    # circumcenter (1,1) by equidistance
    assert br.exact
    assert br.upper == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_chebyshev_single_point():
    assert chebyshev_radius(CompactSetModel.cloud([[3.0, -1.0]])).upper == 0.0


def test_chebyshev_vs_grid_random():
    rng = np.random.default_rng(11)
    for _ in range(5):
        pts = rng.normal(size=(12, 2))
        _, r, _ = minimum_enclosing_ball(pts)
        assert r == pytest.approx(grid_meb_radius(pts, span=2.0), abs=1e-5)


def test_chebyshev_max_norm_bracket():
    K = CompactSetModel.cloud([[1, 0], [0, 1], [-1, 0]], NormSpec("max", 2))
    br = chebyshev_radius(K)
    # half the largest coordinate range (x spans [-1, 1]); center 0 attains it
    assert br.exact
    assert br.lower == br.upper == 1.0


def test_chebyshev_max_norm_is_half_the_largest_range():
    rng = np.random.default_rng(21)
    for m, d in ((2, 1), (15, 3), (300, 5)):
        P = rng.normal(size=(m, d)) * rng.uniform(0.5, 3.0, size=d)
        K = CompactSetModel.cloud(P, NormSpec("max", d))
        br = chebyshev_radius(K)
        r = float(np.ptp(P, axis=0).max()) / 2
        assert br.exact and br.lower == br.upper == r
        # the coordinate midranges attain it
        mid = 0.5 * (P.min(axis=0) + P.max(axis=0))
        assert np.max(np.abs(P - mid)) == pytest.approx(r, rel=1e-15)


def test_chebyshev_leq_sup_norm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        K = CompactSetModel.cloud(rng.normal(size=(20, 3)))
        assert chebyshev_radius(K).upper <= sup_norm(K) + 1e-9


def circumball_oracle(pts):
    """Smallest circumball of at most d + 1 affinely independent points that
    contains every point: the minimum enclosing ball, by enumeration."""
    pts = np.asarray(pts, dtype=float)
    m, d = pts.shape
    best = math.inf
    for k in range(1, min(m, d + 1) + 1):
        for idx in itertools.combinations(range(m), k):
            S = pts[list(idx)]
            A = S[1:] - S[0]
            if np.linalg.matrix_rank(A, tol=1e-9) < k - 1:
                continue
            lam = np.linalg.solve(A @ A.T, 0.5 * np.sum(A * A, axis=1)) if k > 1 else []
            c = S[0] + A.T @ lam
            r = float(np.linalg.norm(S[0] - c))
            if np.linalg.norm(pts - c, axis=1).max() <= r + 1e-9 * max(1.0, r):
                best = min(best, r)
    return best


def _tiny_cloud(dim, coords):
    return st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=1, max_size=7)


_COORDS = st.one_of(st.integers(-3, 3).map(float), st.floats(-4, 4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda d: _tiny_cloud(d, _COORDS)))
@example([[1.0, 2.0], [1.0, 2.0], [-1.0, 0.0], [-1.0, 0.0]])  # duplicates
@example([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [1.5, 1.5]])  # collinear
@example([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [-1.0, -2.0, -3.0]])
@example([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])  # cospherical square
@example([[math.cos(t), math.sin(t)] for t in np.arange(7) * 2 * math.pi / 7])
@example([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0],
          [0.0, 0.0, 0.5]])  # cospherical coplanar support and an inner point
@example([[s, t, v] for s, t, v in itertools.product((-1.0, 1.0), repeat=3)][:7])
@example([[2.0, -1.0, 0.5]] * 3)
# a support whose circumball holds every point but whose center has a negative
# weight, and one whose circumball misses a point
@example([[3.0, 1.0], [3.0, 2.0], [-3.0, -1.0], [-3.0, 0.0]])
@example([[2.0, -1.0], [2.0, -1.0], [3.0, 3.0], [-1.0, -1.0], [-1.0, -2.0], [-3.0, 2.0],
          [0.0, 3.0]])
def test_enclosing_ball_is_exact_against_circumball_oracle(pts):
    K = CompactSetModel.cloud(pts)
    br = chebyshev_radius(K)
    oracle = circumball_oracle(K.points)
    assert br.exact
    assert br.lower <= oracle * (1 + 1e-9) + 1e-12
    assert oracle <= br.upper * (1 + 1e-9) + 1e-12
    c, r, w = minimum_enclosing_ball(K.points)
    assert np.all(w >= 0) and w.sum() == pytest.approx(1.0, abs=1e-12)
    assert r == np.linalg.norm(K.points - c, axis=1).max()


def coordinate_descent_radius(pts, norm, sweeps=200):
    """The former coordinate-descent minimax center (an upper bound), kept as
    the reference the convex solves must not exceed."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    c = 0.5 * (lo + hi)

    def radius(center):
        return float(np.max(norm.norm(pts - center)))

    best = radius(c)
    for _ in range(sweeps):
        improved = 0.0
        for k in range(pts.shape[1]):
            a, b = lo[k] - best, hi[k] + best
            for _ in range(80):
                m1 = a + (b - a) / 3
                m2 = b - (b - a) / 3
                c[k] = m1
                f1 = radius(c)
                c[k] = m2
                f2 = radius(c)
                if f1 <= f2:
                    b = m2
                else:
                    a = m1
            c[k] = 0.5 * (a + b)
            val = radius(c)
            if val < best - 1e-15:
                improved += best - val
                best = val
        if improved < 1e-13:
            break
    return best


def l1_center_oracle(pts):
    """Exact l1 Chebyshev radius: the LP min t subject to s^T (p_i - c) <= t
    for every point and every sign vector s."""
    from scipy.optimize import linprog

    m, d = pts.shape
    S = np.array(list(itertools.product((-1.0, 1.0), repeat=d)))
    A = np.hstack([-np.tile(S, (m, 1)), -np.ones((m * len(S), 1))])
    b = -(pts @ S.T).ravel()
    # at HiGHS's default feasibility tolerance of 1e-7 the optimum can read
    # below the half-diameter
    res = linprog(np.r_[np.zeros(d), 1.0], A_ub=A, b_ub=b, bounds=(None, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.success
    return float(res.fun)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda d: _tiny_cloud(d, _COORDS)),
       st.sampled_from([1.0, 1.5, 3.0]))
@example([[0.0, 0.0], [0.0, 0.0]], 1.0)
@example([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], 1.5)
# two l1 clouds where the LPs at HiGHS's default feasibility tolerance miss
# the radius 1.0000000596: the oracle's read 1.0000000298, the center's upper
# side 1.0000001192
@example([[0, 0, 0], [0, 1, 0], [0, -1.192092896e-07, 1], [1, 0, 0]], 1.0)
@example([[0, 0, 0], [0, 0, 0], [0, 1, 1.0000001192092896], [0, 0, 2]], 1.0)
def test_pnorm_chebyshev_radius_against_descent_and_l1_oracle(pts, p):
    P = np.array(pts)
    norm = NormSpec("pnorm", P.shape[1], p=p)
    br = chebyshev_radius(CompactSetModel.cloud(P, norm))
    if len(P) > 1:
        assert br.lower_method == "half-diameter" and br.upper_method == "convex-center"
    assert br.lower == 0.5 * float(np.max(norm.pairwise(P)))
    assert br.upper <= coordinate_descent_radius(P, norm) * (1 + 1e-12) + 1e-12
    if p == 1.0:
        assert br.upper == pytest.approx(l1_center_oracle(P), rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_pnorm_chebyshev_radius_against_planar_grid(p):
    rng = np.random.default_rng(41)
    norm = NormSpec("pnorm", 2, p=p)
    for m in (3, 8, 30):
        P = rng.normal(size=(m, 2)) * rng.uniform(0.5, 2.0, size=2)
        br = chebyshev_radius(CompactSetModel.cloud(P, norm))
        grid = grid_meb_radius(P, span=3.0, steps=81, norm=norm)
        # no grid center beats the solver's, and the grid comes close to it
        assert br.lower <= grid and grid - 1e-6 <= br.upper <= grid


def test_enclosing_ball_leaves_the_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("the recursion limit changed")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    P = np.random.default_rng(13).normal(size=(5000, 3))
    c, r, w = minimum_enclosing_ball(P)
    assert r == np.linalg.norm(P - c, axis=1).max()
    assert spaces._dual_radius(P, w) >= r * (1 - 1e-9)


def test_enclosing_ball_without_exact_finish_is_a_bracket(monkeypatch):
    # every circumball fails its check, so the iterate at gap 1e-3 is returned
    monkeypatch.setattr(spaces, "_BALL_TOLS", (1e-3,))
    monkeypatch.setattr(spaces, "_ball_of_boundary", lambda R: (R[0], 0.0, -np.ones(len(R))))
    P = np.random.default_rng(31).normal(size=(200, 3))
    br = chebyshev_radius(CompactSetModel.cloud(P))
    monkeypatch.undo()
    r = minimum_enclosing_ball(P)[1]
    assert not br.exact and br.lower < br.upper
    assert br.lower <= r <= br.upper <= br.lower * (1 + 1e-3)


def test_dual_radius_bounds_the_radius_for_any_weights():
    rng = np.random.default_rng(29)
    P = rng.normal(size=(40, 3)) + 100.0  # far from the origin
    _, r, _ = minimum_enclosing_ball(P)
    for _ in range(50):
        assert spaces._dual_radius(P, rng.dirichlet(np.ones(40))) <= r
    br = chebyshev_radius(CompactSetModel.ksigma(1.0, 24))
    assert br.exact and br.lower_method == "simplex-dual" and br.lower <= br.upper


def test_cloud_rejects_non_finite_coordinates():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="row 1"):
            CompactSetModel.cloud([[0.0, 0.0], [bad, 1.0], [2.0, 0.0]])


def test_import_loads_no_scipy_spatial():
    code = ("import sys, widthlab; "
            "print('scipy.spatial' in sys.modules, 'scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False False"


def test_scale_set():
    K = CompactSetModel.cloud([[1, 0], [0, 1]])
    assert np.allclose(scale_set(K, 2.0).points, 2 * K.points)
    assert np.allclose(scale_set(K, -1.0).points, -K.points)
    assert np.all(scale_set(CompactSetModel.cloud([[1, 1]]), 0.0).points == 0.0)
    with pytest.raises(ValueError):
        scale_set(CompactSetModel.ksigma(1.0, 5), 2.0)


def test_scale_homogeneity_of_sup_norm():
    rng = np.random.default_rng(5)
    K = CompactSetModel.cloud(rng.normal(size=(15, 4)))
    for t in (0.5, 2.0, -3.0):
        assert sup_norm(scale_set(K, t)) == pytest.approx(abs(t) * sup_norm(K), rel=1e-12)


def test_bracket_invariants():
    # sides must satisfy 0 <= lower <= upper (1 + 1e-12) at every scale
    for lower, upper in ((2.0, 1.0), (3e-13, 1e-13), (-1e-300, 1.0), (math.nan, 1.0),
                         (0.0, math.nan), (math.nan, math.nan), (1.0, -1.0), (math.inf, 1.0)):
        with pytest.raises(ValueError):
            Bracket(lower, upper)
    Bracket(1.0 + 1e-13, 1.0)
    # exactness is derived from the sides alone, 1e-9 relative to a finite upper side
    assert Bracket(0.0, 0.0).exact and Bracket(3.0, 3.0).exact
    assert Bracket(1e-3 * (1 - 5e-10), 1e-3).exact
    assert not Bracket(0.0, 5e-10).exact and not Bracket(1e-3 * (1 - 5e-8), 1e-3).exact
    assert not Bracket(2.0, math.inf).exact and not Bracket(math.inf, math.inf).exact
    assert Bracket.exactly(0.25, "tag") == Bracket(0.25, 0.25, "tag", "tag")
    # an exact bracket stays exact under any dilation
    assert Bracket(1e-3 * (1 - 5e-10), 1e-3).scaled(1e6).exact
    b = Bracket(1.0, 2.0)
    assert b.scaled(-2.0).upper == 4.0
    assert b.contains(1.5)
    assert not b.contains(2.5)
    assert b.contains(2.5, slack=0.6)


_SIDE = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SIDE, st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(0.0, 2e-9)),
       st.floats(1e-12, 1e12))
@example(1e-3, 5e-8, 1e6)  # exact at unit scale only while the rule had an absolute floor
@example(1e-3, 5e-10, 1e6)
@example(1.0, 9.99e-10, 1e-12)
@example(0.0, 0.0, 1e12)
def test_bracket_exactness_is_scale_free(upper, rel_gap, t):
    # rounding the sides, here or in the dilation, moves a gap by about 1e-7
    # of itself at 1e-9: that close to the threshold either flag is right
    assume(abs(rel_gap / 1e-9 - 1.0) > 1e-6)
    b = Bracket(upper * (1 - rel_gap), upper)
    assert b.scaled(t).exact == b.exact
    assert b.scaled(t).exact == b.scaled(1.0 / t).exact
    assert not Bracket(upper * (1 - rel_gap) * t, math.inf).exact


def test_pnorm_half_diameter_memory_stays_linear_in_blocks():
    # the whole 2000 x 2000 distance matrix alone is 30.5 MiB
    P = np.random.default_rng(2).normal(size=(2000, 3))
    K = CompactSetModel.cloud(P, NormSpec("pnorm", 3, p=1.0))
    chebyshev_radius(CompactSetModel.cloud(P[:5], K.norm))  # imports the solver untraced
    tracemalloc.start()
    try:
        br = chebyshev_radius(K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert br.lower == 0.5 * float(np.max(K.norm.pairwise(P)))


@pytest.mark.parametrize("p, exact", [(1.0, True), (1.5, False), (3.0, False)])
def test_pnorm_chebyshev_radius_is_exact_when_its_sides_agree(p, exact):
    # l1 sides 6.174339085918781 and 6.174339085918783; at p = 1.5 they are
    # 3.7% apart, at p = 3 0.025%
    P = np.random.default_rng(2).normal(size=(2000, 3))
    br = chebyshev_radius(CompactSetModel.cloud(P, NormSpec("pnorm", 3, p=p)))
    assert br.exact is exact
    assert (br.upper - br.lower <= 1e-9 * br.upper) is exact
