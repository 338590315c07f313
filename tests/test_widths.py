import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthlab import widths
from widthlab.spaces import CompactSetModel, NormSpec, _symmetric_facets, scale_set, sigma_value
from widthlab.widths import (
    _ALTERNATION_STEPS,
    _CLUSTER_RESTARTS,
    _CLUSTER_SWEEPS,
    _DESCENT_STARTS,
    _DESCENT_STEPS,
    _FACET_RANK_LIMIT,
    _SNAP,
    _ClusterCache,
    _euclid_dists,
    _family_value,
    _fit_subspaces,
    _legal_frames,
    _move_descents,
    _orthonormal_extend,
    _subset_seed,
    dist_to_subspace,
    ksigma_nonlinear_width_upper,
    linear_width,
    nonlinear_width,
)


def angle_grid_width(pts, grid=20_001, zooms=4):
    """Brute-force minimax line fit in the plane (nested grid refinement)."""
    pts = np.asarray(pts, dtype=float)

    def sweep(th):
        # |x x u| for u = (cos, sin); sqrt(|x|^2 - (x.u)^2) cancels badly
        # when x is nearly parallel to u
        vals = np.abs(np.outer(pts[:, 0], np.sin(th)) - np.outer(pts[:, 1], np.cos(th))).max(axis=0)
        k = int(np.argmin(vals))
        return th[k], float(vals[k])

    th = np.linspace(0, math.pi, grid)
    center, best = sweep(th)
    width = math.pi / (grid - 1)
    for _ in range(zooms):
        th = np.linspace(center - width, center + width, grid)
        center, best = sweep(th)
        width *= 2.5 / (grid - 1)
    return best


E12 = CompactSetModel.cloud([[1.0, 0.0], [0.0, 1.0]])
E123 = CompactSetModel.cloud(np.eye(3))


def test_dist_examples():
    e2 = NormSpec("euclidean", 2)
    assert dist_to_subspace([1, 0], np.array([[1.0], [0.0]]), e2) == pytest.approx(0, abs=1e-12)
    diag = np.array([[1.0], [1.0]]) / math.sqrt(2)
    assert dist_to_subspace([1, 0], diag, e2) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    e3 = NormSpec("euclidean", 3)
    span12 = np.eye(3)[:, :2]
    assert dist_to_subspace([0, 0, 1], span12, e3) == pytest.approx(1.0, abs=1e-12)


def test_dist_rejects_bad_frame():
    with pytest.raises(ValueError):
        dist_to_subspace([1, 0], np.array([[1.0], [1.0]]), NormSpec("euclidean", 2))


def test_dist_pnorm_never_beats_zero_start():
    rng = np.random.default_rng(1)
    space = NormSpec("max", 3)
    for _ in range(10):
        f = rng.normal(size=3)
        V, _ = np.linalg.qr(rng.normal(size=(3, 2)))
        dv = dist_to_subspace(f, V[:, :2], space)
        assert dv <= space.norm(f) + 1e-12


def coordinate_descent_dist(f, V, space, tol=1e-10):
    """The former ternary coordinate descent on ||f - V c||_p (an upper bound),
    kept as the reference the exact distances must not exceed."""
    if V.shape[1] == 0:
        return float(space.norm(f))
    n = V.shape[1]
    radius = 2.0 * math.sqrt(max(n, 1)) * float(np.linalg.norm(f)) + 1.0

    def value(c):
        return float(space.norm(f - V @ c))

    best_v = math.inf
    for c0 in (np.zeros(n), V.T @ f):
        c = c0.astype(float).copy()
        v = value(c)
        for _ in range(60):
            improved = 0.0
            for k in range(n):
                a, b = c[k] - radius, c[k] + radius
                for _ in range(70):
                    m1 = a + (b - a) / 3
                    m2 = b - (b - a) / 3
                    c[k] = m1
                    f1 = value(c)
                    c[k] = m2
                    f2 = value(c)
                    if f1 <= f2:
                        b = m2
                    else:
                        a = m1
                c[k] = 0.5 * (a + b)
                radius_k = value(c)
                if radius_k < v - 1e-15:
                    improved += v - radius_k
                    v = radius_k
            if improved < tol:
                break
        best_v = min(best_v, v)
    return best_v


def lp_dist(f, V, kind):
    """Exact max-norm or l1 distance from f to span(V), one LP per point."""
    from scipy.optimize import linprog

    d, n = V.shape
    E = np.ones((d, 1)) if kind == "max" else np.eye(d)
    # variables (c, t): minimise sum t subject to -E t <= f - V c <= E t
    res = linprog(np.r_[np.zeros(n), np.ones(E.shape[1])],
                  A_ub=np.block([[-V, -E], [V, -E]]), b_ub=np.r_[-f, f],
                  bounds=[(None, None)] * n + [(0, None)] * E.shape[1], method="highs")
    assert res.success
    return float(res.fun)


SUBSPACE_CASES = st.integers(2, 4).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-4, 4)),
                      min_size=d, max_size=d), min_size=1, max_size=5),
    st.integers(1, d - 1),
    st.integers(0, 2**16)))
DIST_NORMS = [("max", None), ("pnorm", 1.0), ("pnorm", 1.5), ("pnorm", 3.0)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(SUBSPACE_CASES, st.sampled_from(DIST_NORMS))
@example(([[1.0, 2.0], [0.0, 0.0]], 1, 0), ("pnorm", 1.5))  # a point in the span
# rows of very different sizes: the small row's |r|^p underflows unless each
# row is solved over its own largest entry
@example(([[0.0, 1.0], [0.0, 1.4374904821176235e-246]], 1, 0), ("pnorm", 1.5))
def test_exact_distances_against_descent_lp_and_optimality(case, norm):
    pts, n, seed = case
    P = np.array(pts)
    d = P.shape[1]
    V, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, n)))
    space = NormSpec(norm[0], d, p=norm[1])
    dists = widths._dists(P, V, space)
    assert [dist_to_subspace(f, V, space) for f in P] == pytest.approx(dists, rel=1e-9, abs=1e-12)
    for f, dv in zip(P, dists):
        assert dv <= coordinate_descent_dist(f, V, space) * (1 + 1e-12) + 1e-12
    if space.kind == "max" or space.p == 1.0:
        oracle = [lp_dist(f, V, "max" if space.kind == "max" else "l1") for f in P]
        assert dists == pytest.approx(oracle, rel=1e-9, abs=1e-12)
    else:
        # first-order optimality: V^T g = 0 for the residual's dual vector g
        R = P - widths._nearest_coords(P, V, space) @ V.T
        away = space.norm(R) > 1e-9 * max(1.0, float(np.abs(P).max()))
        assert np.abs(space.dual(R[away]) @ V).max(initial=0.0) < 1e-5


def dual_line_dist(P, theta, space):
    """Exact distance of each row of P to the line at angle theta in the plane:
    |w^T x| / |w|_q for the normal w, q the dual exponent of the norm."""
    w = np.stack([-np.sin(theta), np.cos(theta)])
    q = 1.0 if space.kind == "max" else (math.inf if space.p == 1.0 else space.p / (space.p - 1))
    return np.abs(P @ w) / np.linalg.norm(w, ord=q, axis=0)


@pytest.mark.parametrize("norm", DIST_NORMS)
def test_pnorm_linear_width_lower_side_holds_on_an_angle_grid(norm):
    space = NormSpec(norm[0], 2, p=norm[1])
    rng = np.random.default_rng(17)
    grid = 20_000
    theta = np.arange(grid) * math.pi / grid
    for m in (3, 7, 15):
        P = rng.normal(size=(m, 2)) * rng.uniform(0.5, 2.0, size=2)
        res = linear_width(CompactSetModel.cloud(P, space), 1)
        assert res.bracket.lower_method == "facet-inradius"
        assert 0 < res.bracket.lower <= res.bracket.upper
        u = np.array([math.cos(theta[123]), math.sin(theta[123])])[:, None]
        assert dual_line_dist(P, theta[123], space) == pytest.approx(
            widths._dists(P, u, space), rel=1e-9)
        best = min(dual_line_dist(P, theta[s:s + 4096], space).max(axis=0).min()
                   for s in range(0, grid, 4096))
        # in the plane |x|_2 / sqrt2 <= |x|_p <= sqrt2 |x|_2, so each distance
        # is 4 sqrt2 max|x|_2 -Lipschitz in the angle: the optimum lies in
        # [best - slack, best]
        slack = 4 * math.sqrt(2) * float(np.linalg.norm(P, axis=1).max()) * math.pi / (2 * grid)
        assert res.bracket.lower <= best * (1 + 1e-12)
        assert best - slack <= res.bracket.upper


def test_linear_width_examples():
    res = linear_width(E12, 1)
    assert res.bracket.exact
    assert res.bracket.upper == pytest.approx(math.sqrt(0.5), abs=1e-6)
    assert res.bracket.upper == pytest.approx(angle_grid_width(E12.points), abs=1e-6)
    assert linear_width(E12, 2).bracket.upper == pytest.approx(0.0, abs=1e-12)
    assert linear_width(E12, 0).bracket.upper == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        linear_width(E12, 3)


def test_linear_width_vs_angle_grid_random():
    rng = np.random.default_rng(8)
    for _ in range(6):
        pts = rng.normal(size=(rng.integers(3, 12), 2))
        K = CompactSetModel.cloud(pts)
        res = linear_width(K, 1)
        assert res.bracket.upper == pytest.approx(angle_grid_width(pts), abs=1e-6)
        assert res.bracket.lower <= res.bracket.upper + 1e-12


PLANE = st.lists(st.tuples(st.floats(-4, 4), st.floats(-4, 4)), min_size=1, max_size=12)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(PLANE, st.sampled_from(["plain", "duplicate", "antipodal", "origin"]))
@example([(2.0, 1.0)], "plain")
@example([(1.0, 0.0), (0.0, 1.0)], "plain")
@example([(0.5, -2.0), (0.5, -2.0)], "plain")
@example([(1.5, 0.5), (-1.5, -0.5)], "plain")
@example([(0.0, 0.0), (3.0, 1.0)], "plain")
@example([(0.0, 0.0), (0.0, 0.0)], "plain")
@example([(1.0, 0.0), (1.0, 6.960435157200051e-06)], "plain")
def test_planar_facet_line_against_angle_grid(pts, twist):
    P = np.array(pts, dtype=float)
    if twist == "duplicate":
        P = np.vstack([P, P[:1]])
    elif twist == "antipodal":
        P = np.vstack([P, -P[:1]])
    elif twist == "origin":
        P = np.vstack([P, np.zeros((1, 2))])
    [(u, val, _)] = _fit_subspaces([P], 1, [0], 0)
    assert u.shape == (2, 1)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    # the fit runs on the cloud over its largest norm, snapped to a 2^-35
    # grid: each point moves by at most 2^-35.5 of that norm
    scale = float(np.linalg.norm(P, axis=1).max())
    tol = 1e-12 * max(1.0, val) + 2.0**-34 * scale
    assert val == float(np.linalg.norm(P - (P @ u) @ u.T, axis=1).max())
    # no line of the grid beats the optimum, and the coarse grid lies within
    # half a step of it: each distance is |x|-Lipschitz in the angle
    assert val <= angle_grid_width(P) + tol
    grid = 20_001
    slack = float(np.linalg.norm(P, axis=1).max()) * math.pi / (2 * (grid - 1))
    assert val >= angle_grid_width(P, grid=grid, zooms=0) - slack - tol


def test_planar_line_memory_stays_linear_in_blocks():
    P = np.random.default_rng(5).normal(size=(300, 2))
    K = CompactSetModel.cloud(P)
    tracemalloc.start()
    try:
        res = linear_width(K, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.bracket.exact
    assert peak < 64 * 2**20


# the snap moves each side of a codimension-1 fit by at most s = sqrt(d)
# 2^-36 times the largest norm, and the lower side's rounding margin is 1e-10
# of it: a bracket that is not exact is at most about 2.2 s wide (1.9 s seen)
SNAP_WIDTHS = 2.5


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(3, 4), st.integers(0, 2**16),
       st.sampled_from(["plain", "duplicate", "antipodal", "origin", "stretched"]))
@example(3, 26, "plain")  # [0.0331643148, 0.0331643149]: 2.8e-9 relative, 1.3 s wide
@example(3, 44, "origin")  # 8.3e-9 relative, 1.0 s wide; both exact by the old absolute rule
def test_facet_fit_against_refine_and_sampled_directions(d, seed, twist):
    rng = np.random.default_rng([97, d, seed])
    P = rng.normal(size=(int(rng.integers(d, 3 * d + 4)), d))
    if twist == "duplicate":
        P = np.vstack([P, P[:2]])
    elif twist == "antipodal":
        P = np.vstack([P, -P[:2]])
    elif twist == "origin":
        P = np.vstack([P, np.zeros((1, d))])
    elif twist == "stretched":
        P = P * rng.uniform(0.01, 10.0, size=d)
    G = _symmetric_facets(P)
    norms = np.linalg.norm(G, axis=1)
    w = G[int(np.argmax(norms))]
    v = 1.0 / float(norms.max())
    # the facet value is its own hyperplane's value
    assert abs(float(np.abs(P @ w).max()) / float(np.linalg.norm(w)) - v) <= 1e-12 * max(1.0, v)
    # the fit takes it on the cloud over its largest norm, snapped to a
    # 2^-35 grid, with a lower side below the unsnapped value; the bracket is
    # exact, or no wider than the snap allows (SNAP_WIDTHS)
    [(V, val, cert)] = _fit_subspaces([P], d - 1, [seed], 0)
    scale = float(np.linalg.norm(P, axis=1).max())
    assert abs(val - v) <= 2.0**-34 * scale
    assert cert is not None and cert <= v * (1 + 1e-12)
    br = linear_width(CompactSetModel.cloud(P), d - 1, seed=seed).bracket
    assert br.exact or br.width <= SNAP_WIDTHS * math.sqrt(d) * 2.0**-36 * scale
    assert br.upper == val and br.lower >= cert
    assert br.lower <= v * (1 + 1e-12)
    # no refined start and no sampled normal beats it
    refined = min(_refine_one_start(P, d - 1, V0, 50)[1]
                  for V0 in [np.eye(d)[:, :d - 1]]
                  + [np.linalg.qr(rng.normal(size=(d, d - 1)))[0] for _ in range(4)])
    assert v <= refined + 1e-12 * max(1.0, v)
    U = rng.normal(size=(4000, d))
    sampled = float((np.abs(P @ U.T).max(axis=0) / np.linalg.norm(U, axis=1)).min())
    assert v <= sampled + 1e-12 * max(1.0, v)


def test_near_flat_subset_falls_back_to_refine(monkeypatch):
    # a plane of R^3 tilted by about 1e-11: the snapped cloud's third
    # singular value lies above 1e-12 of the first, where the facets Qhull
    # finds for conv(+-X) leave some +-x_i outside, by 2.6e-4 of the gauge;
    # it lies below the snap's noise, so the plane is read at rank 2
    rng = np.random.default_rng(23)
    R, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    flat = (rng.normal(size=(6, 3)) * [1.0, 1.0, 1e-11]) @ R
    C, rank, Vt = _snapped_rank(flat)
    _, S, _ = np.linalg.svd(C)
    assert S[2] > 1e-12 * S[0] and rank == 2
    assert _symmetric_facets(C @ Vt.T) is None
    br = linear_width(CompactSetModel.cloud(flat), 2).bracket
    # the snap's noise, not the width, sizes the bracket: [4.8e-12, 1.6e-11]
    # around a width of 6.6e-12, which the old absolute rule flagged exact
    assert br.upper_method == "exact-path" and not br.exact
    assert Fraction(br.lower) ** 2 <= _exact_inradius_sq(flat) <= Fraction(br.upper) ** 2
    # a subset whose facet list fails its checks is refined
    P = np.vstack([flat, rng.normal(size=(6, 3))])
    monkeypatch.setattr(widths, "_symmetric_facets", lambda Q: None)
    calls = _count_minimax_calls(monkeypatch)
    (_, _, cert), (V, val, cert_other) = _ClusterCache(P, 2, 0).fit_many(
        [tuple(range(6)), tuple(range(6, 12))])
    assert calls == [1]  # the full-rank subset alone is refined
    assert cert == 0.0 and cert_other is None
    assert val == float(_euclid_dists(P[6:], V).max())
    res = linear_width(CompactSetModel.cloud(P[6:]), 2)
    assert res.bracket.upper_method == "minimax-refine" and not res.bracket.exact


@pytest.mark.parametrize("norm", DIST_NORMS)
def test_pnorm_codimension_one_width_is_the_facet_inradius(norm):
    space = NormSpec(norm[0], 3, p=norm[1])
    q = 1.0 if space.kind == "max" else (math.inf if space.p == 1.0 else space.p / (space.p - 1))
    rng = np.random.default_rng([19, DIST_NORMS.index(norm)])
    U = rng.normal(size=(20_000, 3))
    for _ in range(3):
        P = rng.normal(size=(20, 3)) * rng.uniform(0.5, 2.0, size=3)
        K = CompactSetModel.cloud(P, space)
        res = linear_width(K, 2)
        br = res.bracket
        assert br.exact
        assert (br.lower_method, br.upper_method) == ("facet-inradius", "facet-hyperplane")
        assert res.witness.validate(K)
        # x's distance to w^perp is |w . x| / |w|_q: no sampled normal beats the side
        assert br.lower <= float((np.abs(P @ U.T).max(axis=0) / np.linalg.norm(U, ord=q, axis=1)).min())
        # nor does the euclidean fit, measured in the norm
        V = _fit_subspaces([P], 2, [0], 32)[0][0]
        assert br.upper <= float(widths._dists(P, V, space).max()) * (1 + 1e-9)
    flat = P * [1.0, 1.0, 0.0]
    br = linear_width(CompactSetModel.cloud(flat, space), 2).bracket
    assert br.lower_method == "spectral-norm-equivalence"


def test_per_point_spans_are_exact_at_every_scale():
    # m <= N: each point spans a subspace of its own, so the width is 0; the
    # witness frames come from snapped fits and hold their points to the snap
    P = np.random.default_rng(3).normal(size=(3, 3))
    for t in (1e-6, 1.0, 1e6):
        K = CompactSetModel.cloud(P * t)
        for n, N in ((1, 3), (2, 4)):
            res = nonlinear_width(K, n, N)
            assert (res.bracket.lower, res.bracket.upper) == (0.0, 0.0) and res.bracket.exact
            assert res.bracket.upper_method == "per-point-span"
            assert res.witness.validate(K)


def test_enumerated_codimension_one_families_are_exact():
    for t, (m, N) in enumerate([(6, 2), (7, 2), (7, 3)]):
        P = np.random.default_rng([89, t]).normal(size=(m, 2))
        br = nonlinear_width(CompactSetModel.cloud(P), 1, N, seed=t).bracket
        assert br.exact and br.lower_method == "assignment-enumeration-exact"
        # brute force: every labelled assignment, each block's line from the
        # nested angle grid (an upper bound) and from the coarse grid, which
        # lies within slack of the optimum
        fine, coarse = {(): 0.0}, {(): 0.0}
        for k in range(1, m + 1):
            for idx in itertools.combinations(range(m), k):
                fine[idx] = angle_grid_width(P[list(idx)])
                coarse[idx] = angle_grid_width(P[list(idx)], zooms=0)
        slack = float(np.linalg.norm(P, axis=1).max()) * math.pi / (2 * 20_000)
        blocks = [[tuple(i for i in range(m) if a[i] == c) for c in range(N)]
                  for a in itertools.product(range(N), repeat=m)]
        assert br.upper <= min(max(fine[b] for b in bs) for bs in blocks) + 1e-9
        assert br.lower >= min(max(coarse[b] for b in bs) for bs in blocks) - slack - 1e-9
    # in R^3 with n = 2 every subset takes the facets too
    P = np.random.default_rng(91).normal(size=(8, 3))
    exact = nonlinear_width(CompactSetModel.cloud(P), 2, 2, seed=0).bracket
    heuristic = nonlinear_width(CompactSetModel.cloud(P), 2, 2, seed=0, force_heuristic=True).bracket
    assert exact.exact and exact.upper <= heuristic.upper + 1e-12


def test_low_rank_cloud_is_read_above_the_snap_noise():
    # a plane of R^5: the snap's rounding lifts its snapped copy's singular
    # values 3 to 5 to about 1e-11, which read against 1e-12 of the first
    # refined it at rank 5 to [2.4e-16, 9.4e-11]
    rng = np.random.default_rng([41, 1])
    A, B = rng.normal(size=(6, 2)), rng.normal(size=(2, 5))
    X = A @ B
    br = linear_width(CompactSetModel.cloud(X), 2).bracket
    # [0, 6.1e-11]: the snap's noise sizes the upper side, so it is not
    # exact, though the old absolute rule flagged it
    assert br.lower_method == "exact-path" and not br.exact
    # the width is at most h = 1.7e-16, the rounded points' exact distance to
    # B's row space, and the upper side is above it; the lower side, the
    # spectral one, takes off the float SVD's rounding, so it is below h
    h_sq = _exact_row_space_dist_sq(X, B)
    assert h_sq <= Fraction(br.upper) ** 2
    assert br.lower <= math.sqrt(h_sq)


def _exact_inradius_sq(X):
    """The squared inradius of conv(+-X), X of full rank in R^3, in exact
    rational arithmetic: the least squared distance to the origin of a facet
    plane through three of the points +-x_i."""
    pts = [tuple(map(Fraction, x)) for x in X]
    pts += [tuple(-v for v in x) for x in pts]
    best = None
    for a, b, c in itertools.combinations(pts, 3):
        u = [b[i] - a[i] for i in range(3)]
        w = [c[i] - a[i] for i in range(3)]
        normal = [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]]
        h = abs(sum(n * v for n, v in zip(normal, a)))
        if h and all(abs(sum(n * v for n, v in zip(normal, p))) <= h for p in pts):
            dist_sq = h * h / sum(n * n for n in normal)
            best = dist_sq if best is None else min(best, dist_sq)
    return best


def _exact_row_space_dist_sq(X, B):
    """The largest squared distance of the rows of X to the row space of B
    (two rows), in exact rational arithmetic."""
    Bf = [[Fraction(v) for v in row] for row in B]
    (g00, g01), (g10, g11) = [[sum(p * q for p, q in zip(r, t)) for t in Bf] for r in Bf]
    det = g00 * g11 - g01 * g10
    inv = [[g11 / det, -g01 / det], [-g10 / det, g00 / det]]
    out = []
    for x in X:
        xf = [Fraction(v) for v in x]
        bx = [sum(p * q for p, q in zip(r, xf)) for r in Bf]
        out.append(sum(v * v for v in xf) - sum(bx[i] * inv[i][j] * bx[j]
                                                for i in range(2) for j in range(2)))
    return max(out)


def _hull_inradius(X):
    """The inradius of conv(+-X), read from Qhull's facets of the unsnapped points."""
    from scipy.spatial import ConvexHull

    eq = ConvexHull(np.vstack([X, -X])).equations
    return float((-eq[:, -1] / np.linalg.norm(eq[:, :-1], axis=1)).min())


def test_stretched_codimension_one_widths_are_sound_and_exact():
    # each coordinate stretched by 0.01 to 10: the snap moves a point by up
    # to s = sqrt(3) 2^-36 of the largest norm, many times the width's 1e-9
    exact = 0
    for s in range(200):
        rng = np.random.default_rng([97, 3, s])
        X = rng.normal(size=(4, 3)) * rng.uniform(0.01, 10, 3)
        br = linear_width(CompactSetModel.cloud(X), 2).bracket
        assert br.lower <= _hull_inradius(X) <= br.upper * (1 + 1e-12), s
        exact += br.exact
        snap = math.sqrt(3) * 2.0**-36 * float(np.linalg.norm(X, axis=1).max())
        assert br.exact or br.width <= SNAP_WIDTHS * snap, s
    # 155 meet 1e-9 relative; 149 did with the absolute rounding margins
    assert exact >= 149
    # the enumeration's sides, against the nested angle grid's best family
    for s in range(3):
        rng = np.random.default_rng([97, 2, s])
        P = rng.normal(size=(6, 2)) * rng.uniform(0.01, 10, 2)
        br = nonlinear_width(CompactSetModel.cloud(P), 1, 2).bracket
        assert br.lower_method.startswith("assignment-enumeration")
        values = {(): 0.0}
        for k in range(1, 7):
            for idx in itertools.combinations(range(6), k):
                values[idx] = angle_grid_width(P[list(idx)], grid=2001, zooms=6)
        best = min(max(values[tuple(i for i in range(6) if a[i] == c)] for c in range(2))
                   for a in itertools.product(range(2), repeat=6))
        assert br.lower <= best and br.upper <= best + 1e-9


def test_exact_paths_report_no_restarts():
    K = CompactSetModel.cloud(np.random.default_rng(4).normal(size=(10, 3)))
    for n in (2, 3):
        res = linear_width(K, n)
        assert res.bracket.upper_method == "exact-path"
        assert res.restarts_used == 0
    res = linear_width(K, 1, restarts=5)
    assert res.bracket.upper_method == "minimax-refine"
    assert res.restarts_used == 5
    assert linear_width(CompactSetModel.cloud(K.points, NormSpec("max", 3)), 2).restarts_used == 0


def test_linear_width_witness_consistent():
    rng = np.random.default_rng(2)
    K = CompactSetModel.cloud(rng.normal(size=(15, 4)))
    res = linear_width(K, 2)
    assert res.witness.validate(K)
    assert res.witness.achieved == pytest.approx(res.bracket.upper, abs=1e-10)


def test_linear_width_monotone_bracket_consistent():
    rng = np.random.default_rng(4)
    K = CompactSetModel.cloud(rng.normal(size=(20, 5)))
    prev = None
    for n in range(0, 6):
        br = linear_width(K, n).bracket
        if prev is not None:
            assert br.lower <= prev.upper + 1e-9
        prev = br


def test_nonlinear_trivial_and_delegation():
    assert nonlinear_width(E12, 1, 2).bracket.upper == pytest.approx(0.0, abs=1e-12)
    lw = linear_width(E123, 1, seed=3)
    nw = nonlinear_width(E123, 1, 1, seed=3)
    assert nw.bracket.upper == pytest.approx(lw.bracket.upper, abs=1e-12)
    assert nw.bracket.lower == pytest.approx(lw.bracket.lower, abs=1e-12)


def test_nonlinear_three_points():
    res = nonlinear_width(E123, 1, 2)
    assert res.bracket.upper == pytest.approx(math.sqrt(0.5), abs=1e-6)
    assert res.witness.validate(E123)


def test_nonlinear_heuristic_matches_enumeration_small():
    rng = np.random.default_rng(10)
    for trial in range(8):
        pts = rng.normal(size=(6, 3))
        K = CompactSetModel.cloud(pts)
        exact = nonlinear_width(K, 1, 2, seed=trial)
        heur = nonlinear_width(K, 1, 2, seed=trial, force_heuristic=True)
        assert heur.bracket.upper <= exact.bracket.upper + 1e-8
        assert exact.bracket.upper <= heur.bracket.upper + 1e-8


def test_nonlinear_sandwich_with_linear():
    rng = np.random.default_rng(12)
    K = CompactSetModel.cloud(rng.normal(size=(14, 4)))
    n, N = 1, 3
    nl = nonlinear_width(K, n, N, seed=5)
    lw_n = linear_width(K, n, seed=5)
    lw_nN = linear_width(K, min(n * N, 4), seed=5)
    # d_n(K, N) >= d_{nN}(K): one nN-dimensional space contains any N-family
    assert lw_nN.bracket.exact
    assert nl.bracket.upper >= lw_nN.bracket.lower - 1e-12
    assert nl.bracket.upper <= lw_n.bracket.upper + 1e-8


def test_width_guard():
    with pytest.raises(ValueError):
        nonlinear_width(E12, 2, 50_001)


def test_homogeneity_linear():
    rng = np.random.default_rng(21)
    K = CompactSetModel.cloud(rng.normal(size=(12, 3)))
    base = linear_width(K, 2, seed=9)
    for t in (0.5, 2.0, -3.0):
        res = linear_width(scale_set(K, t), 2, seed=9)
        assert res.bracket.upper == pytest.approx(abs(t) * base.bracket.upper, rel=1e-9)
        assert res.bracket.lower == pytest.approx(abs(t) * base.bracket.lower, rel=1e-9)


def test_homogeneity_nonlinear():
    rng = np.random.default_rng(22)
    K = CompactSetModel.cloud(rng.normal(size=(10, 3)))
    base = nonlinear_width(K, 1, 2, seed=4)
    for t in (0.5, 2.0, -3.0):
        res = nonlinear_width(scale_set(K, t), 1, 2, seed=4)
        assert res.bracket.upper == pytest.approx(abs(t) * base.bracket.upper, rel=1e-9)
        assert res.bracket.lower == pytest.approx(abs(t) * base.bracket.lower, rel=1e-9)


def test_ksigma_width_bound_values():
    assert ksigma_nonlinear_width_upper(1.0, 2, 3) == pytest.approx(
        sigma_value(1.0, 7), rel=1e-12
    )
    assert ksigma_nonlinear_width_upper(1.0, 1, 1) == pytest.approx(
        0.8228263240800893, abs=1e-12
    )
    assert ksigma_nonlinear_width_upper(1.0, 4, 3) == pytest.approx(0.5, abs=1e-12)


def test_ksigma_nonlinear_numeric_below_closed_form():
    K = CompactSetModel.ksigma(1.0, truncation=17)
    res = nonlinear_width(K, 1, 4, seed=0)
    assert res.bracket.upper <= ksigma_nonlinear_width_upper(1.0, 1, 4) + 1e-8


def _ref_dists(P, V):
    return np.linalg.norm(P - (P @ V) @ V.T, axis=1)


def _refine_one_start(P, n, V0, sweeps):
    """Per-start minimax refinement, one start at a time (reference loop)."""
    V = V0
    dists = _ref_dists(P, V)
    best_V, best_val = V, float(dists.max())
    tau = best_val
    if tau <= 0:
        return best_V, best_val
    for _ in range(sweeps):
        z = (dists - dists.max()) / max(tau, 1e-300)
        z = np.floor(np.maximum(z, -60.0) * 65536.0) / 65536.0
        w = np.exp(z)
        w /= w.sum()
        C = (P * w[:, None]).T @ P
        _, vecs = np.linalg.eigh(C)
        V = vecs[:, ::-1][:, :n]
        dists = _ref_dists(P, V)
        val = float(dists.max())
        if val < best_val:
            best_V, best_val = V, val
        tau *= 0.7
    return best_V, best_val


def _snapped_rank(P):
    """The cloud over its largest norm on the 2^-35 grid, the rank the fits
    read from it, and its right singular vectors."""
    C = np.round((P / float(np.max(np.linalg.norm(P, axis=1)))) * _SNAP) / _SNAP
    _, S, Vt = np.linalg.svd(C, full_matrices=False)
    return C, int(np.sum(S > math.sqrt(P.size) / _SNAP)), Vt


def _reference_fit(P, n, seed, restarts, sweeps):
    """_fit_subspaces one cloud at a time: the exact paths (n >= rank, and
    the facet hyperplane for n = rank - 1), and the minimax-refine path with
    sequential restarts."""
    m = P.shape[0]
    C, rank, Vt = _snapped_rank(P)
    B = Vt[:rank].T
    Q = C @ B
    G = _symmetric_facets(Q) if n == rank - 1 and rank <= _FACET_RANK_LIMIT else None
    if n >= P.shape[1]:
        V = np.eye(P.shape[1])[:, :n]
    elif n >= rank:
        V = _orthonormal_extend(B, n)
    elif G is not None:
        norms = np.linalg.norm(G, axis=1)
        j = int(np.argmax(norms))
        V = B @ _orthonormal_extend(G[j, :, None] / norms[j], rank)[:, 1:]
    else:
        best_V, best_val = _refine_one_start(Q, n, np.eye(rank)[:, :n], sweeps)
        for r in range(restarts):
            rng = np.random.default_rng([_subset_seed(seed, (m, rank, n)), r])
            Vr, _ = np.linalg.qr(rng.normal(size=(rank, n)))
            Vc, val = _refine_one_start(Q, n, Vr[:, :n], sweeps)
            if val < best_val:
                best_V, best_val = Vc, val
        V = B @ best_V
    return V, float(_ref_dists(P, V).max())


@pytest.mark.parametrize("m, d, n, restarts, sweeps, rank", [
    (60, 6, 1, 32, 50, None),  # the winner's memory layout decides the last ulp here
    (25, 4, 2, 32, 50, None),
    (20, 6, 2, 32, 50, 4),  # rank-deficient
    (25, 4, 2, 0, 50, None),
    (16, 4, 1, _CLUSTER_RESTARTS, _CLUSTER_SWEEPS, None),
])
def test_batched_fit_matches_sequential_restarts(m, d, n, restarts, sweeps, rank):
    # three clouds of one shape: one stacked solve over their starts
    clouds = []
    for trial in range(3):
        rng = np.random.default_rng([31, m, d, trial])
        if rank is None:
            clouds.append(rng.normal(size=(m, d)))
        else:
            clouds.append(rng.normal(size=(m, rank)) @ rng.normal(size=(rank, d)))
    fits = _fit_subspaces(clouds, n, [0, 1, 2], restarts, sweeps)
    for trial, (P, (V, val, cert)) in enumerate(zip(clouds, fits)):
        V_ref, val_ref = _reference_fit(P, n, trial, restarts, sweeps)
        assert cert is None
        assert np.array_equal(V, V_ref)
        assert val == val_ref
        # alone, as linear_width fits it
        V1, val1, cert1 = _fit_subspaces([P], n, [trial], restarts, sweeps)[0]
        assert np.array_equal(V1, V_ref)
        assert val1 == val_ref
        assert cert1 is None


def _count_minimax_calls(monkeypatch):
    """Wrap _minimax_fit; returns the list of stack sizes G of its calls."""
    calls = []
    inner = widths._minimax_fit

    def counted(Q, n, starts, sweeps):
        calls.append(len(Q))
        return inner(Q, n, starts, sweeps)

    monkeypatch.setattr(widths, "_minimax_fit", counted)
    return calls


@pytest.mark.parametrize("n", [1, 2])
def test_fit_many_matches_per_subset_fits(n, monkeypatch):
    rng = np.random.default_rng([41, n])
    P = np.vstack([
        rng.normal(size=(6, 2)) @ rng.normal(size=(2, 5)),  # a plane: rank 2
        rng.normal(size=(6, 3)) @ rng.normal(size=(3, 5)),  # rank 3
        rng.normal(size=(6, 5)),
    ])
    idxs = [tuple(range(6)), tuple(range(3)), (1, 4), (2,), (0, 6), tuple(range(6, 12))]
    for size in (2, 3, 4, 5, 7, 9):
        for _ in range(5):
            idxs.append(tuple(sorted(rng.choice(len(P), size=size, replace=False).tolist())))
    calls = _count_minimax_calls(monkeypatch)
    cache = _ClusterCache(P, n, seed=13)
    fits = cache.fit_many(idxs + idxs[:4])
    assert max(calls) > 1  # subsets of one shape share a stacked solve
    assert len(calls) < len(set(idxs))
    paths = set()
    for idx, (V, val, cert) in zip(idxs + idxs[:4], fits):
        Ps = P[list(idx)]
        V_ref, val_ref = _reference_fit(Ps, n, _subset_seed(13, idx),
                                        _CLUSTER_RESTARTS, _CLUSTER_SWEEPS)
        assert np.array_equal(V, V_ref), idx
        assert val == val_ref, idx
        assert cache.fit_many([idx])[0][0] is V  # cached, not refitted
        rank = _snapped_rank(Ps)[1]
        paths.add("exact" if n >= rank else "facet" if n == rank - 1 else f"refine-{rank}")
        assert (cert is not None) == (n >= rank - 1), idx
    assert {"exact", "facet", "refine-5"} <= paths
    assert ("refine-3" in paths) == (n == 1)


def _subsets_of_sizes(rng, m, sizes, each):
    return [tuple(sorted(rng.choice(m, size=s, replace=False).tolist()))
            for s in sizes for _ in range(each)]


def test_fit_many_reduces_each_subset_size_with_one_svd(monkeypatch):
    rng = np.random.default_rng(61)
    P = rng.normal(size=(14, 4))
    idxs = _subsets_of_sizes(rng, 14, (1, 2, 3, 5, 8), 6)
    sizes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[-2])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    for n in (1, 2):
        sizes.clear()
        _ClusterCache(P, n, seed=3).fit_many(idxs)
        assert sorted(sizes) == [1, 2, 3, 5, 8]  # one stacked SVD per size, not one per subset


@pytest.mark.parametrize("n", [1, 2])
def test_cached_spreads_read_the_whole_cloud_distances(n):
    rng = np.random.default_rng([73, n])
    P = np.vstack([rng.normal(size=(6, 2)) @ rng.normal(size=(2, 4)), rng.normal(size=(8, 4))])
    P[5] = 0.0  # a zero subset takes the zero-scale path
    idxs = _subsets_of_sizes(rng, 14, (1, 2, 3, 4, 6, 9), 4) + [(5,), tuple(range(6))]
    cache = _ClusterCache(P, n, seed=5)
    cache.fit_many(idxs)
    for idx in idxs:
        V = cache.store[idx][0]
        assert cache.spreads[idx] == float(_euclid_dists(P, V)[list(idx)].max()), idx
    assert cache.spreads[(5,)] == 0.0


def test_fit_many_runs_large_batches_in_chunks(monkeypatch):
    rng = np.random.default_rng(59)
    P = rng.normal(size=(40, 30))
    idxs = [tuple(sorted(rng.choice(40, size=25, replace=False).tolist())) for _ in range(12)]
    whole = _ClusterCache(P, 2, 5).fit_many(idxs)
    per_subset = (_CLUSTER_RESTARTS + 1) * 30 * 25
    monkeypatch.setattr(widths, "_BATCH_FLOATS", 4 * per_subset)
    calls = _count_minimax_calls(monkeypatch)
    chunked = _ClusterCache(P, 2, 5).fit_many(idxs)
    assert calls == [4, 4, 4]
    for (V, val, _), (W, wal, _) in zip(whole, chunked):
        assert np.array_equal(V, W) and val == wal


def _labelled_enumeration(cache, m, N):
    """The loop over all N^m labelled assignments, first strict minimum
    wins; also returns every partition that reaches the least value.  The
    subset values come in one batch: the fits themselves are pinned to the
    one-subset reference by test_fit_many_matches_per_subset_fits."""
    subsets = [s for k in range(1, m + 1) for s in itertools.combinations(range(m), k)]
    values = {(): 0.0, **{s: fit[1] for s, fit in zip(subsets, cache.fit_many(subsets))}}
    best_assign, best_val, ties = None, math.inf, set()
    for code in range(N**m):
        a = [code // N**i % N for i in range(m)]
        blocks = [tuple(i for i in range(m) if a[i] == c) for c in range(N)]
        val = max(values[idx] for idx in blocks)
        if val < best_val:
            best_val, best_assign, ties = val, np.array(a), set()
        if val == best_val:
            ties.add(frozenset(blocks) - {()})
    return best_assign, ties


def _tie_cloud(rng, m, d, twist):
    P = rng.normal(size=(m, d))
    if twist == "duplicate":
        P[m // 2:] = P[: m - m // 2]
    elif twist == "antipodal":
        P[m // 2:] = -P[: m - m // 2]
    elif twist == "lattice":
        P = np.round(2 * P) / 2
    return P


@pytest.mark.parametrize("twist", ["plain", "duplicate", "antipodal", "lattice"])
def test_partition_enumeration_matches_labelled_loop(twist):
    ties = 0
    for t, (m, N, d, n) in enumerate([(5, 2, 2, 1), (6, 3, 3, 1), (7, 2, 3, 1),
                                      (8, 3, 4, 2), (9, 3, 3, 1), (9, 2, 4, 2)]):
        rng = np.random.default_rng([43, t, len(twist)])
        P = _tie_cloud(rng, m, d, twist)
        res = nonlinear_width(CompactSetModel.cloud(P), n, N, seed=t)
        assert res.witness.achieved == res.bracket.upper
        assert res.bracket.upper_method.startswith("assignment-enumeration")
        cache = _ClusterCache(P, n, t)
        ref, best_parts = _labelled_enumeration(cache, m, N)
        bases, dists, per_point = _family_value(cache, ref, N)
        assert np.array_equal(res.witness.assignment, ref)
        assert all(np.array_equal(V, W) for V, W in zip(res.witness.bases, _legal_frames(bases, n)))
        assert res.witness.achieved == float(per_point.max())
        ties += len(best_parts) > 1
    assert ties > 0


def _alternate_sequential(cache, starts, N, max_iter=_ALTERNATION_STEPS):
    """Alternation one start at a time, each run to its end in turn."""
    out = []
    for a0 in starts:
        assign = np.asarray(a0, dtype=int).copy()
        best = None
        for _ in range(max_iter):
            bases, dists, per_point = _family_value(cache, assign, N)
            val = float(per_point.max())
            if best is None or val < best[0]:
                best = (val, bases, assign.copy())
            new_assign = np.argmin(dists, axis=1)
            for c in range(N):
                if not np.any(new_assign == c):
                    cur = dists[np.arange(len(new_assign)), new_assign]
                    order = np.lexsort((np.arange(len(cur)), -cur))
                    for cand in order:
                        donor = new_assign[cand]
                        if np.sum(new_assign == donor) > 1:
                            new_assign[cand] = c
                            break
            if np.array_equal(new_assign, assign):
                break
            assign = new_assign
        out.append(best)
    return out


@pytest.mark.parametrize("m, d, n, N, restarts", [
    (16, 4, 1, 2, 32), (14, 4, 1, 3, 32), (18, 5, 2, 2, 8), (30, 3, 1, 4, 6), (12, 3, 1, 2, 32),
])
def test_lockstep_alternation_matches_sequential_starts(m, d, n, N, restarts, monkeypatch):
    for trial in range(2):
        rng = np.random.default_rng([47, m, trial])
        P = _tie_cloud(rng, m, d, "duplicate" if trial else "plain")
        K = CompactSetModel.cloud(P)
        res = nonlinear_width(K, n, N, seed=trial, restarts=restarts, force_heuristic=True)
        with monkeypatch.context() as mp:
            mp.setattr(widths, "_alternate", _alternate_sequential)
            ref = nonlinear_width(K, n, N, seed=trial, restarts=restarts, force_heuristic=True)
        assert res.bracket == ref.bracket
        assert res.restarts_used == ref.restarts_used == restarts + 2
        assert res.witness.assignment.tobytes() == ref.witness.assignment.tobytes()
        assert [V.tobytes() for V in res.witness.bases] == [V.tobytes() for V in ref.witness.bases]
        assert res.witness.achieved == ref.witness.achieved


def test_nine_point_family_search_stacks_its_fits(monkeypatch):
    P = np.random.default_rng(53).normal(size=(9, 3))
    calls = _count_minimax_calls(monkeypatch)
    res = nonlinear_width(CompactSetModel.cloud(P), 1, 3, seed=2)
    assert res.bracket.upper_method.startswith("assignment-enumeration")
    assert 0 < len(calls) <= 9
    assert sum(calls) == sum(math.comb(9, s) for s in range(3, 10))


def _single_move_descent(cache, assign0, N, max_steps=_DESCENT_STEPS):
    """One descent at a time, fitting each trial move's clusters as it is
    walked: the first strict improvement in (point, cluster) order wins."""
    assign = assign0.copy()
    _, _, per_point = _family_value(cache, assign, N)
    val = float(per_point.max())
    m = len(assign)
    for _ in range(max_steps):
        accepted = False
        for i in range(m):
            for c in range(N):
                if c == assign[i]:
                    continue
                trial = assign.copy()
                trial[i] = c
                _, _, pp = _family_value(cache, trial, N)
                v = float(pp.max())
                if v < val - 1e-15:
                    assign, val = trial, v
                    accepted = True
                    break
            if accepted:
                break
        if not accepted:
            break
    return val, assign


def _descent_leaders(results):
    """The descents' starts as the seen-set loop picked them: the first
    distinct assignments of the value-sorted alternation results."""
    seen, leaders = set(), []
    for _, _, a in sorted(results, key=lambda t: t[0]):
        if tuple(a) in seen:
            continue
        seen.add(tuple(a))
        if len(seen) > _DESCENT_STARTS:
            break
        leaders.append(a)
    return leaders


@pytest.mark.parametrize("twist", ["plain", "duplicate", "collinear"])
def test_lockstep_descents_match_sequential_descents(twist, monkeypatch):
    for t, (m, d, n, N) in enumerate([(12, 3, 1, 2), (16, 4, 2, 2), (20, 3, 1, 3),
                                      (14, 4, 2, 3), (28, 3, 1, 2)]):
        assert m * N <= 80
        rng = np.random.default_rng([71, t, len(twist)])
        P = _tie_cloud(rng, m, d, twist if twist != "collinear" else "plain")
        if twist == "collinear":
            P[: m // 2] = np.outer(rng.normal(size=m // 2), P[0])
        K = CompactSetModel.cloud(P)
        runs = []
        alternate = widths._alternate

        def spy(descents):
            def run(cache, starts, N):
                out = descents(cache, starts, N)
                runs.append((starts, out))
                return out
            return run

        def alternate_spy(cache, starts, N):
            runs.append(alternate(cache, starts, N))
            return runs[-1]

        with monkeypatch.context() as mp:
            mp.setattr(widths, "_alternate", alternate_spy)
            mp.setattr(widths, "_move_descents", spy(widths._move_descents))
            res = nonlinear_width(K, n, N, seed=t, restarts=6)
            mp.setattr(widths, "_move_descents", spy(lambda cache, starts, N: [
                _single_move_descent(cache, a, N) for a in starts]))
            ref = nonlinear_width(K, n, N, seed=t, restarts=6)
        results, (starts, lockstep), _, (_, sequential) = runs
        assert [a.tobytes() for a in starts] == [a.tobytes() for a in _descent_leaders(results)]
        for (v, a), (v_ref, a_ref) in zip(lockstep, sequential, strict=True):
            assert v == v_ref and a.tobytes() == a_ref.tobytes()
        assert res.bracket.upper_method == "k-subspaces-alternation+move-descent"
        assert res.bracket == ref.bracket
        assert res.restarts_used == ref.restarts_used == 8
        assert res.witness.assignment.tobytes() == ref.witness.assignment.tobytes()
        assert [V.tobytes() for V in res.witness.bases] == [V.tobytes() for V in ref.witness.bases]


def test_move_descents_fit_each_scan_in_one_batch(monkeypatch):
    # the one-move-at-a-time loop made 140 _minimax_fit calls on this cloud
    P = np.random.default_rng([67, 0]).normal(size=(16, 3))
    calls = _count_minimax_calls(monkeypatch)
    phase = []
    descents = widths._move_descents

    def counted(cache, starts, N):
        before = len(calls)
        out = descents(cache, starts, N)
        phase.append(len(calls) - before)
        return out

    monkeypatch.setattr(widths, "_move_descents", counted)
    res = nonlinear_width(CompactSetModel.cloud(P), 1, 2, seed=0)
    assert res.bracket.upper_method.endswith("+move-descent")
    assert len(phase) == 1 and 0 < phase[0] <= 30
