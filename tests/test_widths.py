import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthlab.spaces import CompactSetModel, NormSpec, scale_set, sigma_value
from widthlab.widths import (
    _CLUSTER_RESTARTS,
    _CLUSTER_SWEEPS,
    _SNAP,
    _exact_line_2d,
    _fit_subspace,
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
def test_exact_line_2d_against_angle_grid(pts, twist):
    P = np.array(pts, dtype=float)
    if twist == "duplicate":
        P = np.vstack([P, P[:1]])
    elif twist == "antipodal":
        P = np.vstack([P, -P[:1]])
    elif twist == "origin":
        P = np.vstack([P, np.zeros((1, 2))])
    u, val = _exact_line_2d(P)
    assert u.shape == (2, 1)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    tol = 1e-12 * max(1.0, val)
    assert val == pytest.approx(float(np.linalg.norm(P - (P @ u) @ u.T, axis=1).max()), abs=tol)
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
    assert nl.bracket.lower >= lw_nN.bracket.lower - 1e-12
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


def _reference_fit(P, n, seed, restarts, sweeps):
    """The minimax-refine path of _fit_subspace with sequential restarts."""
    m = P.shape[0]
    scale = float(np.max(np.linalg.norm(P, axis=1)))
    C = np.round((P / scale) * _SNAP) / _SNAP
    _, S, Vt = np.linalg.svd(C, full_matrices=False)
    rank = int(np.sum(S > max(1e-13, S[0] * 1e-12)))
    B = Vt[:rank].T
    Q = C @ B
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
    for trial in range(3):
        rng = np.random.default_rng([31, m, d, trial])
        if rank is None:
            P = rng.normal(size=(m, d))
        else:
            P = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, d))
        V, val, exact = _fit_subspace(P, n, trial, restarts, sweeps)
        V_ref, val_ref = _reference_fit(P, n, trial, restarts, sweeps)
        assert not exact
        assert np.array_equal(V, V_ref)
        assert val == val_ref
