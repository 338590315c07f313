"""Minimax subspace fitting: linear widths and N-subspace (nonlinear) widths.

Upper bounds come from seeded heuristics (spectral initialization plus a
softmax-reweighted minimax refinement; alternating fit/assign for subspace
families), lower bounds from the mean-square spectral argument
d_n >= sqrt(sum_{j>n} s_j^2 / m).  Exact paths: rank reduction, full
assignment enumeration for tiny families, and the minimax line through 0 in
the plane.  That line is searched over a finite set, the directions u with
u || x_i - x_j, u || x_i + x_j or u || x_i.  Each distance |x_i x u| is
concave in the angle between its zeros, so the minimum of their maximum lies
where two of them cross or one vanishes, and those are the directions above.
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
    """Distances of the rows of P to span(V); a stack of frames V (..., d, n)
    gives a stack of distance rows."""
    # residual form: stable down to ~1e-16 relative when P lies in the span
    if V.shape[-1] == 0:
        return np.linalg.norm(P, axis=1)
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


def _minimax_fit(P: np.ndarray, n: int, starts: list[np.ndarray], sweeps: int) -> tuple[np.ndarray, float]:
    """Softmax-weighted covariance reweighting with an annealed temperature,
    run from every starting frame at once as stacked arrays.

    Weights w_i grow with the current distance, so the fitted eigenspace
    drifts toward the worst-approximated points; each start's temperature
    begins at its initial maximal distance and multiplies by 0.7 each sweep.
    The stacked matmul, eigh, exp and row reductions match their 2-d forms
    bitwise, so every start follows the same sequence it would follow alone.
    Returns the best frame over all starts and sweeps, the earliest start
    winning ties.
    """
    R, r = len(starts), P.shape[1]
    dists = np.stack([_euclid_dists(P, V) for V in starts])
    tau = dists.max(axis=1)
    # a start with tau = 0 fits exactly already: no sweep can beat it
    best_val = tau.copy()
    best_vecs = np.empty((R, r, r))
    improved = np.zeros(R, dtype=bool)
    for _ in range(sweeps):
        z = (dists - dists.max(axis=1, keepdims=True)) / np.maximum(tau, 1e-300)[:, None]
        # quantizing the exponents keeps the candidate sequence identical
        # under exact rescalings of the input (dilation equivariance)
        z = np.floor(np.maximum(z, -60.0) * 65536.0) / 65536.0
        w = np.exp(z)
        w /= w.sum(axis=1, keepdims=True)
        C = (P * w[:, :, None]).swapaxes(1, 2) @ P
        _, vecs = np.linalg.eigh(C)
        dists = _euclid_dists(P, vecs[:, :, ::-1][:, :, :n])
        val = dists.max(axis=1)
        better = val < best_val
        best_val[better] = val[better]
        best_vecs[better] = vecs[better]
        improved |= better
        tau *= 0.7
    k = int(np.argmin(best_val))
    if not improved[k]:
        return starts[k], float(best_val[k])
    # a view, not a contiguous copy: B @ V rounds differently for other
    # strides, and these are the strides a single 2-d eigh gives
    return best_vecs[k][:, ::-1][:, :n], float(best_val[k])


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
# single-subspace fits (shared by linear width and family clustering)


def _subset_seed(seed: int, idx_key: tuple[int, ...]) -> int:
    return zlib.crc32(np.asarray(idx_key, dtype=np.int64).tobytes()) ^ (seed & 0xFFFFFFFF)


_SNAP = 2.0**35


def _fit_subspace(
    P: np.ndarray,
    n: int,
    seed: int,
    restarts: int,
    sweeps: int = 50,
) -> tuple[np.ndarray, float, bool]:
    """Best-effort minimax subspace for P; returns (basis, value, exact_flag).

    The search runs on a canonical representative of the dilation class:
    points divided by the largest norm and snapped to a 2^-35 grid.  Exactly
    rescaled inputs therefore produce bitwise-identical witnesses, and the
    returned value is re-evaluated on the original points so the upper bound
    stays sound.
    """
    m, d = P.shape
    scale = float(np.max(np.linalg.norm(P, axis=1)))
    if scale <= 0.0:
        return _orthonormal_extend(np.zeros((d, 0)), n), 0.0, True
    C = np.round((P / scale) * _SNAP) / _SNAP

    U_, S, Vt = np.linalg.svd(C, full_matrices=False)
    rank = int(np.sum(S > max(1e-13, (S[0] if len(S) else 0.0) * 1e-12)))
    if n >= rank:
        V = _orthonormal_extend(Vt[:rank].T, n)
        exact = True
        snap_val = 0.0
    else:
        # work inside the row space: the optimal subspace can be taken there
        B = Vt[:rank].T  # d x rank
        Q = C @ B  # m x rank coordinates
        if n == 1 and rank == 2:
            u, snap_val = _exact_line_2d(Q)
            V, exact = B @ u, True
        else:
            starts = [np.eye(rank)[:, :n]]
            stream = _subset_seed(seed, (m, rank, n))
            for r in range(restarts):
                rng = np.random.default_rng([stream, r])
                Vr, _ = np.linalg.qr(rng.normal(size=(rank, n)))
                starts.append(Vr[:, :n])
            best_V, snap_val = _minimax_fit(Q, n, starts, sweeps)
            V, exact = B @ best_V, False
    val = float(_euclid_dists(P, V).max())
    if exact and abs(val - scale * snap_val) > 1e-10 * max(1.0, val):
        exact = False
    return V, val, exact


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

    V, val, exact = _fit_subspace(P, n, seed, restarts)
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
        self.store: dict[tuple[int, ...], tuple[np.ndarray, float, bool]] = {}

    def fit(self, idx: tuple[int, ...]) -> tuple[np.ndarray, float, bool]:
        if idx not in self.store:
            self.store[idx] = _fit_subspace(
                self.P[list(idx)], self.n, _subset_seed(self.seed, idx),
                _CLUSTER_RESTARTS, _CLUSTER_SWEEPS,
            )
        return self.store[idx]


def _family_value(cache: _ClusterCache, assign: np.ndarray, N: int):
    """Fit every cluster of an assignment; returns (bases, per-point dists)."""
    d = cache.P.shape[1]
    bases = []
    exact_all = True
    for c in range(N):
        idx = tuple(np.flatnonzero(assign == c))
        if not idx:
            bases.append(np.zeros((d, cache.n)))
            continue
        V, _, ex = cache.fit(idx)
        exact_all &= ex
        bases.append(V)
    dists = np.stack([_euclid_dists(cache.P, V) for V in bases], axis=1)
    per_point = dists[np.arange(len(assign)), assign]
    return bases, dists, per_point, exact_all


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


def _alternate(cache: _ClusterCache, assign0: np.ndarray, N: int, max_iter: int = 40):
    assign = assign0.copy()
    best = None  # (value, bases, assign)
    for _ in range(max_iter):
        bases, dists, per_point, _ = _family_value(cache, assign, N)
        val = float(per_point.max())
        if best is None or val < best[0]:
            best = (val, bases, assign.copy())
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
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    return best


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

    Upper bound: alternating cluster-fit / reassignment from seeded starts
    (exact assignment enumeration on tiny instances); lower bound: the
    spectral bound at dimension n*N, since one nN-dimensional space contains
    any N-family.
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
        # exact assignment enumeration with cached cluster fits
        values = {}

        def cluster_val(idx: tuple[int, ...]) -> float:
            if idx not in values:
                values[idx] = cache.fit(idx)[1]
            return values[idx]

        best_assign, best_val = None, math.inf
        for code in range(N**m):
            a, rem = [], code
            for _ in range(m):
                a.append(rem % N)
                rem //= N
            assign = np.array(a, dtype=int)
            val = 0.0
            ok = True
            for c in range(N):
                idx = tuple(np.flatnonzero(assign == c))
                if idx:
                    val = max(val, cluster_val(idx))
                if val >= best_val:
                    ok = False
                    break
            if ok and val < best_val:
                best_val, best_assign = val, assign
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
        results = []
        for a0 in starts:
            cand = _alternate(cache, np.asarray(a0, dtype=int), N)
            restarts_used += 1
            results.append(cand)
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
