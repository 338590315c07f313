"""Minimax subspace fitting: linear widths and N-subspace (nonlinear) widths.

Upper bounds come from seeded heuristics (spectral initialization plus a
softmax-reweighted minimax refinement; alternating fit/assign for subspace
families), lower bounds from the mean-square spectral argument
d_n >= sqrt(sum_{j>n} s_j^2 / m).  Exact paths: rank reduction, a search
over the set partitions of tiny clouds, and the minimax line through 0 in
the plane.  That line is searched over a finite set, the directions u with
u || x_i - x_j, u || x_i + x_j or u || x_i.  Each distance |x_i x u| is
concave in the angle between its zeros, so the minimum of their maximum lies
where two of them cross or one vanishes, and those are the directions above.

A family search fits many point subsets.  Each subset is scaled, snapped and
reduced on its own, and the subsets left to the iterative refinement run it
as one stacked solve per (size, rank) shape, bitwise as they would alone:
all subsets at once for the partition search, and the clusters of every
running start at each step of the alternation.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .spaces import Bracket, CompactSetModel, NormSpec, sigma_value, sup_norm

__all__ = [
    "SubspaceFamily",
    "WidthResult",
    "dist_to_subspace",
    "linear_width",
    "nonlinear_width",
    "ksigma_nonlinear_width_upper",
]

NONLINEAR_GUARD = 10_000
ENUM_POINT_LIMIT = 9
ENUM_FAMILY_LIMIT = 3
# directions scored at once by the planar line search: O(_LINE_BLOCK * m) memory
_LINE_BLOCK = 1024
# starts and sweeps of every cluster fit in the family searches
_CLUSTER_RESTARTS = 2
_CLUSTER_SWEEPS = 20
# a batch of cluster fits runs in chunks of at most this many floats of
# (restarts + 1) * size * dimension, so its memory stays flat in the batch size
_BATCH_FLOATS = 2**17


@dataclass(frozen=True)
class SubspaceFamily:
    """N subspaces given by orthonormal-column bases plus a point assignment."""

    bases: tuple[np.ndarray, ...]
    assignment: np.ndarray
    achieved: float

    def validate(self, K: CompactSetModel, tol: float = 1e-10) -> bool:
        for V in self.bases:
            if V.shape[1] and np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) > tol:
                return False
        cloud = K.as_cloud()
        worst = 0.0
        for i, p in enumerate(cloud.points):
            worst = max(worst, dist_to_subspace(p, self.bases[self.assignment[i]], cloud.norm))
        return abs(worst - self.achieved) <= tol * max(1.0, self.achieved)


@dataclass(frozen=True)
class WidthResult:
    bracket: Bracket
    witness: SubspaceFamily
    restarts_used: int


# ---------------------------------------------------------------------------
# distances


def _check_frame(V: np.ndarray, tol: float = 1e-10):
    if V.ndim != 2:
        raise ValueError("basis must be a 2-d array (columns = frame vectors)")
    if V.shape[1] == 0:
        return
    if np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) > tol:
        raise ValueError("non-orthonormal frame")


def _euclid_dists(P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Distances of the rows of P to span(V); stacks of clouds P (..., m, d)
    and frames V (..., d, n) broadcast to a stack of distance rows."""
    # residual form: stable down to ~1e-16 relative when P lies in the span
    if V.shape[-1] == 0:
        return np.linalg.norm(P, axis=-1)
    R = P - (P @ V) @ V.swapaxes(-1, -2)
    return np.linalg.norm(R, axis=-1)


def _pnorm_dist(f: np.ndarray, V: np.ndarray, space: NormSpec, tol: float = 1e-10) -> float:
    """Convex minimization of ||f - V c||_p over c by coordinate descent."""
    if V.shape[1] == 0:
        return float(space.norm(f))
    n = V.shape[1]
    radius = 2.0 * math.sqrt(max(n, 1)) * float(np.linalg.norm(f)) + 1.0

    def value(c):
        return float(space.norm(f - V @ c))

    best_c, best_v = None, math.inf
    starts = [np.zeros(n), V.T @ f]
    for c0 in starts:
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
        if v < best_v:
            best_v, best_c = v, c
    return best_v


def dist_to_subspace(f: np.ndarray, basis: np.ndarray, space: NormSpec) -> float:
    """Distance from f to the column span of an orthonormal frame."""
    f = np.asarray(f, dtype=float)
    basis = np.asarray(basis, dtype=float)
    _check_frame(basis)
    if space.is_euclidean:
        return float(_euclid_dists(f[None, :], basis)[0])
    return _pnorm_dist(f, basis, space)


def _dists(P: np.ndarray, V: np.ndarray, space: NormSpec) -> np.ndarray:
    if space.is_euclidean:
        return _euclid_dists(P, V)
    return np.array([_pnorm_dist(p, V, space) for p in P])


# ---------------------------------------------------------------------------
# minimax refinement (euclidean)


def _orthonormal_extend(V: np.ndarray, n: int) -> np.ndarray:
    """Pad an orthonormal frame with extra orthonormal columns up to n."""
    d = V.shape[0]
    if V.shape[1] >= n:
        return V[:, :n]
    Q, _ = np.linalg.qr(np.hstack([V, np.eye(d)]))
    return Q[:, :n]


def _minimax_fit(Q: np.ndarray, n: int, starts: np.ndarray, sweeps: int) -> list[np.ndarray]:
    """Softmax-weighted covariance reweighting with an annealed temperature,
    run on a stack of G clouds Q (G, s, r) from R starting frames each,
    starts (G, R, r, n), all as one stacked solve.

    Weights w_i grow with the current distance, so the fitted eigenspace
    drifts toward the worst-approximated points; each start's temperature
    begins at its initial maximal distance and multiplies by 0.7 each sweep.
    The stacked matmul, eigh, exp and row reductions match their 2-d forms
    bitwise, so every start of every cloud follows the same sequence it would
    follow alone.  Returns each cloud's best frame over its starts and sweeps,
    the earliest start winning ties.
    """
    G, R, r, _ = starts.shape
    P = Q[:, None]  # (G, 1, s, r): broadcast over the starts
    dists = _euclid_dists(P, starts)
    tau = dists.max(axis=-1)
    # a start with tau = 0 fits exactly already: no sweep can beat it
    best_val = tau.copy()
    best_vecs = np.empty((G, R, r, r))
    improved = np.zeros((G, R), dtype=bool)
    for _ in range(sweeps):
        z = (dists - dists.max(axis=-1, keepdims=True)) / np.maximum(tau, 1e-300)[..., None]
        # quantizing the exponents keeps the candidate sequence identical
        # under exact rescalings of the input (dilation equivariance)
        z = np.floor(np.maximum(z, -60.0) * 65536.0) / 65536.0
        w = np.exp(z)
        w /= w.sum(axis=-1, keepdims=True)
        C = (P * w[..., None]).swapaxes(-1, -2) @ P
        _, vecs = np.linalg.eigh(C)
        dists = _euclid_dists(P, vecs[..., ::-1][..., :n])
        val = dists.max(axis=-1)
        better = val < best_val
        best_val[better] = val[better]
        best_vecs[better] = vecs[better]
        improved |= better
        tau *= 0.7
    ks = np.argmin(best_val, axis=1)
    # a view, not a contiguous copy: B @ V rounds differently for other
    # strides, and these are the strides a single 2-d eigh gives
    return [best_vecs[g, k][:, ::-1][:, :n] if improved[g, k] else starts[g, k]
            for g, k in enumerate(ks)]


def _exact_line_2d(P: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimax line through 0 for points in R^2: the at most m^2
    directions where two distances |x_i x u| cross or one vanishes (module
    docstring), scored in blocks of _LINE_BLOCK; the first strict minimum wins.
    """
    i, j = np.triu_indices(len(P), 1)
    W = np.concatenate([P, P[i] - P[j], P[i] + P[j]])
    norms = np.hypot(W[:, 0], W[:, 1])
    U = W[norms > 0] / norms[norms > 0, None]
    # an all-zero cloud leaves no direction: any line fits it exactly
    best_u, best_val = np.array([1.0, 0.0]), math.inf if len(U) else 0.0
    for s in range(0, len(U), _LINE_BLOCK):
        B = U[s:s + _LINE_BLOCK]
        vals = np.abs(P[:, :1] * B[:, 1] - P[:, 1:] * B[:, 0]).max(axis=0)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_u, best_val = B[k], float(vals[k])
    return best_u[:, None], best_val


# ---------------------------------------------------------------------------
# subspace fits (shared by linear width and family clustering)


def _subset_seed(seed: int, idx_key: tuple[int, ...]) -> int:
    return zlib.crc32(np.asarray(idx_key, dtype=np.int64).tobytes()) ^ (seed & 0xFFFFFFFF)


_SNAP = 2.0**35


def _fit_subspaces(
    clouds: list[np.ndarray],
    n: int,
    seeds: list[int],
    restarts: int,
    sweeps: int = 50,
) -> list[tuple[np.ndarray, float, bool]]:
    """Best-effort minimax subspace for each cloud; (basis, value, exact_flag).

    Each search runs on a canonical representative of the dilation class:
    points divided by the largest norm and snapped to a 2^-35 grid.  Exactly
    rescaled inputs therefore produce bitwise-identical witnesses, and the
    returned value is re-evaluated on the original points so the upper bound
    stays sound.  The clouds that need the iterative refinement run it as one
    stacked _minimax_fit per (size, rank) shape.
    """
    fits: list = [None] * len(clouds)
    shapes: dict[tuple[int, int], list] = {}
    for i, (P, seed) in enumerate(zip(clouds, seeds)):
        fits[i], job = _fit_direct(P, n, seed, restarts)
        if job is not None:
            B, Q, starts = job
            shapes.setdefault(Q.shape, []).append((i, B, Q, starts))
    for group in shapes.values():
        ids, Bs, Qs, starts = zip(*group)
        frames = _minimax_fit(np.stack(Qs), n, np.stack(starts), sweeps)
        for i, B, V in zip(ids, Bs, frames):
            V = B @ V
            fits[i] = (V, float(_euclid_dists(clouds[i], V).max()), False)
    return fits


def _fit_direct(P: np.ndarray, n: int, seed: int, restarts: int):
    """The per-cloud part of a fit: scale, snap, SVD and rank.  Returns
    ((basis, value, exact), None) from the exact paths, or (None, (B, Q,
    starts)) for the minimax refinement of the coordinates Q = C B inside
    the row space B from the stacked starts (R, rank, n)."""
    m, d = P.shape
    scale = float(np.max(np.linalg.norm(P, axis=1)))

    def done(V, snap_val):
        val = float(_euclid_dists(P, V).max())
        return (V, val, abs(val - scale * snap_val) <= 1e-10 * max(1.0, val)), None

    if scale <= 0.0:
        return done(_orthonormal_extend(np.zeros((d, 0)), n), 0.0)
    C = np.round((P / scale) * _SNAP) / _SNAP

    _, S, Vt = np.linalg.svd(C, full_matrices=False)
    rank = int(np.sum(S > max(1e-13, (S[0] if len(S) else 0.0) * 1e-12)))
    if n >= rank:
        return done(_orthonormal_extend(Vt[:rank].T, n), 0.0)
    # work inside the row space: the optimal subspace can be taken there
    B = Vt[:rank].T  # d x rank
    Q = C @ B  # m x rank coordinates
    if n == 1 and rank == 2:
        u, snap_val = _exact_line_2d(Q)
        return done(B @ u, snap_val)
    stream = _subset_seed(seed, (m, rank, n))
    gauss = [np.random.default_rng([stream, r]).normal(size=(rank, n)) for r in range(restarts)]
    Vr, _ = np.linalg.qr(np.reshape(gauss, (restarts, rank, n)))
    return None, (B, Q, np.concatenate([np.eye(rank)[None, :, :n], Vr]))


def linear_width(
    K: CompactSetModel,
    n: int,
    seed: int = 0,
    restarts: int = 32,
) -> WidthResult:
    """Bracket on the n-dimensional minimax subspace-fitting error.

    Euclidean clouds get both sides (spectral lower, heuristic upper, exact
    paths for n=0, n>=rank, and the planar line); other norms report an
    upper bound only.  The line (n=1) of a rank-2 cloud is the best of the
    directions u || x_i - x_j, x_i + x_j or x_i, which hold every minimum of
    the largest distance (module docstring).
    """
    cloud = K.as_cloud()
    P = cloud.points
    m, d = P.shape
    if n > d:
        raise ValueError(f"n={n} exceeds ambient dimension {d}")
    if n < 0:
        raise ValueError("n must be >= 0")

    euclid = cloud.norm.is_euclidean
    if n == 0:
        v = sup_norm(cloud)
        fam = SubspaceFamily((np.zeros((d, 0)),), np.zeros(m, dtype=int), v)
        return WidthResult(Bracket.exactly(v, "sup-norm"), fam, 0)

    S = np.linalg.svd(P, compute_uv=False)
    tail = S[n:] if n < len(S) else np.zeros(0)
    spectral = math.sqrt(float(np.sum(tail**2)) / m) if euclid else 0.0

    [(V, val, exact)] = _fit_subspaces([P], n, [seed], restarts)
    if not euclid:
        vals = _dists(P, V, cloud.norm)
        val = float(vals.max())
        fam = SubspaceFamily((V,), np.zeros(m, dtype=int), val)
        return WidthResult(
            Bracket(0.0, val, exact=False, lower_method="none-pnorm",
                    upper_method="euclid-fit-evaluated"),
            fam, restarts,
        )

    fam = SubspaceFamily((V,), np.zeros(m, dtype=int), val)
    if exact:
        lower = max(spectral, val - 1e-10 * max(1.0, val))
        br = Bracket(min(lower, val), val, exact=True,
                     lower_method="exact-path", upper_method="exact-path")
    else:
        br = Bracket(min(spectral, val), val, exact=False,
                     lower_method="spectral-mean-square", upper_method="minimax-refine")
    return WidthResult(br, fam, restarts)


# ---------------------------------------------------------------------------
# nonlinear (N-subspace) widths


class _ClusterCache:
    def __init__(self, P: np.ndarray, n: int, seed: int):
        self.P = P
        self.n = n
        self.seed = seed
        # an unused cluster label: a zero placeholder basis, value 0
        self.store: dict[tuple[int, ...], tuple[np.ndarray, float, bool]] = {
            (): (np.zeros((P.shape[1], n)), 0.0, True)}

    def fit_many(self, idxs) -> list[tuple[np.ndarray, float, bool]]:
        """Fits of the point subsets idxs; the uncached ones run as one batch,
        in chunks of _BATCH_FLOATS."""
        new = [idx for idx in dict.fromkeys(idxs) if idx not in self.store]
        floats = (_CLUSTER_RESTARTS + 1) * self.P.shape[1] * max(map(len, new), default=1)
        step = max(1, _BATCH_FLOATS // floats)
        for k in range(0, len(new), step):
            part = new[k:k + step]
            self.store.update(zip(part, _fit_subspaces(
                [self.P[list(idx)] for idx in part], self.n,
                [_subset_seed(self.seed, idx) for idx in part],
                _CLUSTER_RESTARTS, _CLUSTER_SWEEPS)))
        return [self.store[idx] for idx in idxs]


def _clusters(assign: np.ndarray, N: int) -> list[tuple[int, ...]]:
    """The point subset of each cluster label; () for an unused label."""
    return [tuple(np.flatnonzero(assign == c)) for c in range(N)]


def _family_value(cache: _ClusterCache, assign: np.ndarray, N: int):
    """Fit every cluster of an assignment in one batch; returns (bases,
    point-to-basis dists, per-point dists, all fits exact)."""
    fits = cache.fit_many(_clusters(assign, N))
    bases = [V for V, _, _ in fits]
    dists = np.stack([_euclid_dists(cache.P, V) for V in bases], axis=1)
    per_point = dists[np.arange(len(assign)), assign]
    return bases, dists, per_point, all(ex for _, _, ex in fits)


def _legal_frames(bases: list[np.ndarray], n: int) -> tuple[np.ndarray, ...]:
    """Swap the zero placeholder basis of each unused cluster for a legal frame."""
    return tuple(
        V if np.any(np.abs(V) > 0) else _orthonormal_extend(np.zeros((V.shape[0], 0)), n)
        for V in bases
    )


def _single_move_descent(cache: _ClusterCache, assign0: np.ndarray, N: int, max_steps: int = 200):
    """First-improvement descent over single point moves, evaluating the
    refit value.

    Unlike nearest-subspace reassignment, a move is accepted only when the
    full fit/evaluate cycle lowers the family objective, so this escapes the
    non-monotone alternation fixed points on small instances.  The move
    order (point index, then cluster index) is fixed, keeping the descent
    deterministic.
    """
    assign = assign0.copy()
    _, _, per_point, _ = _family_value(cache, assign, N)
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
                _, _, pp, _ = _family_value(cache, trial, N)
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


def _alternate(cache: _ClusterCache, starts: list[np.ndarray], N: int, max_iter: int = 40):
    """Alternating cluster fit / nearest-subspace reassignment from every
    start in lockstep: each step fits the clusters of all running starts in
    one batch.  Each start stops at a fixed point or after max_iter steps
    and yields its best (value, bases, assign)."""
    assigns = [np.asarray(a0, dtype=int).copy() for a0 in starts]
    best: list = [None] * len(starts)
    running = list(range(len(starts)))
    for _ in range(max_iter):
        cache.fit_many([idx for j in running for idx in _clusters(assigns[j], N)])
        still = []
        for j in running:
            assign = assigns[j]
            bases, dists, per_point, _ = _family_value(cache, assign, N)
            val = float(per_point.max())
            if best[j] is None or val < best[j][0]:
                best[j] = (val, bases, assign.copy())
            new_assign = np.argmin(dists, axis=1)  # argmin ties to the lowest index
            # re-seed empty clusters with the currently worst point
            for c in range(N):
                if not np.any(new_assign == c):
                    cur = dists[np.arange(len(new_assign)), new_assign]
                    order = np.lexsort((np.arange(len(cur)), -cur))
                    for cand in order:
                        donor = new_assign[cand]
                        if np.sum(new_assign == donor) > 1:
                            new_assign[cand] = c
                            break
            if not np.array_equal(new_assign, assign):
                assigns[j] = new_assign
                still.append(j)
        running = still
        if not running:
            break
    return best


def _enumerate_partitions(cache: _ClusterCache, m: int, N: int) -> np.ndarray:
    """Exact search over the partitions of the m points into at most N
    clusters: every nonempty subset is fitted in one batch, and a partition
    scores the largest value of its blocks.  Returns the least-value
    assignment, ties going to the smallest labelled code sum_i a_i N^i.

    Each partition is scored once, in its labelling of least code: labels
    numbered by first appearance from the last point down.  These are built
    as digit strings a_{m-1} ... a_0 in lexicographic order, which is code
    order, so the first least value is the one the loop over all N^m
    labelled assignments would keep.
    """
    rows = [[0]]
    for _ in range(m - 1):
        rows = [r + [c] for r in rows for c in range(min(max(r) + 2, N))]
    labels = np.array(rows)[:, ::-1]  # column i is point i's label
    masks = [(labels == c) @ (1 << np.arange(m)) for c in range(N)]

    subsets = [tuple(i for i in range(m) if mask >> i & 1) for mask in range(1, 2**m)]
    table = np.zeros(2**m)  # the empty block scores 0
    table[1:] = [fit[1] for fit in cache.fit_many(subsets)]
    values = np.max([table[mask] for mask in masks], axis=0)
    return labels[int(np.argmin(values))].copy()


def nonlinear_width(
    K: CompactSetModel,
    n: int,
    N: int,
    seed: int = 0,
    restarts: int = 32,
    force_heuristic: bool = False,
) -> WidthResult:
    """Bracket on the minimax error over families of N n-dimensional subspaces
    with per-point subspace choice.

    Upper bound: alternating cluster-fit / reassignment from restarts + 2
    seeded starts run in lockstep, then exact-move descent when m*N <= 80.
    Tiny instances (m <= 9 points, N <= 3) instead fit all 2^m - 1 subsets
    in one batch and score every partition into at most N clusters by its
    largest cluster value; the least value wins, ties going to the smallest
    labelled code sum_i a_i N^i.  Lower bound: the spectral bound at
    dimension n*N, since one nN-dimensional space contains any N-family.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1 (use linear_width for n = 0)")
    if n * N > NONLINEAR_GUARD:
        raise ValueError(f"n*N exceeds the solver guard {NONLINEAR_GUARD}")
    if N == 1:
        return linear_width(K, n, seed=seed, restarts=restarts)

    cloud = K.as_cloud()
    P = cloud.points
    m, d = P.shape
    if n > d:
        raise ValueError(f"n={n} exceeds ambient dimension {d}")
    euclid = cloud.norm.is_euclidean
    if not euclid:
        raise ValueError("nonlinear_width requires a euclidean cloud")

    S = np.linalg.svd(P, compute_uv=False)
    k = n * N
    tail = S[k:] if k < len(S) else np.zeros(0)
    lower = math.sqrt(float(np.sum(tail**2)) / m)

    cache = _ClusterCache(P, n, seed)

    if m <= N:
        assign = np.arange(m, dtype=int)
        bases, dists, per_point, _ = _family_value(cache, assign, N)
        fam = SubspaceFamily(_legal_frames(bases, n), assign, float(per_point.max()))
        return WidthResult(
            Bracket(0.0, fam.achieved, exact=fam.achieved <= 1e-12,
                    lower_method="spectral-nN", upper_method="per-point-span"),
            fam, 0,
        )

    best = None
    restarts_used = 0
    if m <= ENUM_POINT_LIMIT and N <= ENUM_FAMILY_LIMIT and not force_heuristic:
        best_assign = _enumerate_partitions(cache, m, N)
        bases, dists, per_point, exact_all = _family_value(cache, best_assign, N)
        best = (float(per_point.max()), bases, best_assign)
        method = "assignment-enumeration" + ("-exact" if exact_all else "")
    else:
        starts: list[np.ndarray] = [np.zeros(m, dtype=int)]
        norms = np.linalg.norm(P, axis=1)
        order = np.lexsort((np.arange(m), -norms))
        rr = np.empty(m, dtype=int)
        rr[order] = np.arange(m) % N
        starts.append(rr)
        for r in range(restarts):
            rng = np.random.default_rng([seed & 0xFFFFFFFF, r])
            starts.append(rng.integers(0, N, size=m))
        results = _alternate(cache, starts, N)
        restarts_used = len(results)
        for cand in results:
            if best is None or cand[0] < best[0]:
                best = cand
        method = "k-subspaces-alternation"
        if m * N <= 80:
            # polish the leading alternation candidates by exact-move descent
            results.sort(key=lambda t: t[0])
            seen: set[tuple[int, ...]] = set()
            for cand in results:
                key = tuple(cand[2])
                if key in seen:
                    continue
                seen.add(key)
                if len(seen) > 4:
                    break
                v, a = _single_move_descent(cache, cand[2], N)
                if v < best[0]:
                    bases, _, pp, _ = _family_value(cache, a, N)
                    best = (float(pp.max()), bases, a)
            method += "+move-descent"

    val, bases, assign = best
    bases = _legal_frames(bases, n)
    dists = np.stack([_euclid_dists(P, V) for V in bases], axis=1)
    val = float(dists[np.arange(m), assign].max())
    fam = SubspaceFamily(bases, assign, val)
    br = Bracket(min(lower, val), val, exact=False,
                 lower_method="spectral-nN", upper_method=method)
    return WidthResult(br, fam, restarts_used)


def ksigma_nonlinear_width_upper(alpha: float, n: int, N: int) -> float:
    """Closed-form width bound s_{nN+1} for the coordinate sequence family
    (coordinate-block subspaces capture the first nN elements and 0)."""
    if n < 1 or N < 1:
        raise ValueError("n and N must be >= 1")
    return sigma_value(alpha, float(n) * float(N) + 1.0)
