import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthlab import widths
from widthlab.spaces import CompactSetModel, NormSpec, scale_set, sigma_value
from widthlab.widths import (
    _CLUSTER_RESTARTS,
    _CLUSTER_SWEEPS,
    _SNAP,
    _ClusterCache,
    _exact_line_2d,
    _family_value,
    _fit_subspaces,
    _legal_frames,
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
    """_fit_subspaces one cloud at a time: the exact paths, and the
    minimax-refine path with sequential restarts."""
    m = P.shape[0]
    scale = float(np.max(np.linalg.norm(P, axis=1)))
    C = np.round((P / scale) * _SNAP) / _SNAP
    _, S, Vt = np.linalg.svd(C, full_matrices=False)
    rank = int(np.sum(S > max(1e-13, S[0] * 1e-12)))
    B = Vt[:rank].T
    Q = C @ B
    if n >= rank:
        V = _orthonormal_extend(B, n)
    elif n == 1 and rank == 2:
        V = B @ _exact_line_2d(Q)[0]
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
    for trial, (P, (V, val, exact)) in enumerate(zip(clouds, fits)):
        V_ref, val_ref = _reference_fit(P, n, trial, restarts, sweeps)
        assert not exact
        assert np.array_equal(V, V_ref)
        assert val == val_ref
        # alone, as linear_width fits it
        V1, val1, exact1 = _fit_subspaces([P], n, [trial], restarts, sweeps)[0]
        assert np.array_equal(V1, V_ref)
        assert val1 == val_ref
        assert not exact1


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
    for idx, (V, val, exact) in zip(idxs + idxs[:4], fits):
        Ps = P[list(idx)]
        V_ref, val_ref = _reference_fit(Ps, n, _subset_seed(13, idx),
                                        _CLUSTER_RESTARTS, _CLUSTER_SWEEPS)
        assert np.array_equal(V, V_ref), idx
        assert val == val_ref, idx
        assert cache.fit_many([idx])[0][0] is V  # cached, not refitted
        rank = np.linalg.matrix_rank(Ps)
        paths.add("exact" if n >= rank else "line" if (n, rank) == (1, 2) else f"refine-{rank}")
    assert {"exact", "refine-3", "refine-5"} <= paths
    assert ("line" in paths) == (n == 1)


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
        bases, dists, per_point, _ = _family_value(cache, ref, N)
        assert np.array_equal(res.witness.assignment, ref)
        assert all(np.array_equal(V, W) for V, W in zip(res.witness.bases, _legal_frames(bases, n)))
        assert res.witness.achieved == float(per_point.max())
        ties += len(best_parts) > 1
    assert ties > 0


def _alternate_sequential(cache, starts, N, max_iter=40):
    """Alternation one start at a time, each run to its end in turn."""
    out = []
    for a0 in starts:
        assign = np.asarray(a0, dtype=int).copy()
        best = None
        for _ in range(max_iter):
            bases, dists, per_point, _ = _family_value(cache, assign, N)
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
