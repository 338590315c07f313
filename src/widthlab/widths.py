"""Minimax subspace fitting: linear widths and N-subspace (nonlinear) widths.

Upper bounds come from seeded heuristics (spectral initialization plus a
softmax-reweighted minimax refinement; alternating fit/assign for subspace
families), lower bounds from the mean-square spectral argument
d_n >= sqrt(sum_{j>n} s_j^2 / m), less the SVD's rounding.  Exact paths:
rank reduction, a search over the set partitions of tiny clouds, and
codimension 1: in any norm, min_w max_i |w . x_i| / |w|_q (q the dual
exponent) is the inradius of conv(+-X), the least b_j / |a_j|_q over its
facets a_j . x <= b_j (``spaces._symmetric_facets``), attained by the
hyperplane along that facet.

A family search fits many point subsets, bitwise as each would be fitted
alone: the subsets of one size are scaled, snapped and reduced by one stacked
SVD, and those left to the iterative refinement run it as one stacked solve
per (size, rank) shape.  A batch is all subsets at once for the partition
search, the clusters of every running start at each step of the alternation,
and the trial subsets of every running descent's full scan at each step of
the move descents.  Each batch also measures every new subspace over the
whole cloud in one stacked pass, which gives the spreads the descents read.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .spaces import Bracket, CompactSetModel, NormSpec, _symmetric_facets, sigma_value, sup_norm

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
# codimension-1 fits take hull facets up to this rank (60 points: 13 ms)
_FACET_RANK_LIMIT = 6
# starts and sweeps of every cluster fit in the family searches
_CLUSTER_RESTARTS = 2
_CLUSTER_SWEEPS = 20
# steps of each alternation start and of each move descent, and how many of
# the best distinct alternation results the descents polish
_ALTERNATION_STEPS = 40
_DESCENT_STEPS = 200
_DESCENT_STARTS = 4
# a batch of cluster fits runs in chunks of at most this many floats of
# (restarts + 1) * size * dimension per subset, or of the whole cloud's
# size * dimension if larger, so its memory stays flat in the batch size
_BATCH_FLOATS = 2**17


@dataclass(frozen=True)
class SubspaceFamily:
    """N subspaces given by orthonormal-column bases plus a point assignment."""

    bases: tuple[np.ndarray, ...]
    assignment: np.ndarray
    achieved: float

    def distances(self, K: CompactSetModel) -> np.ndarray:
        """Each point's distance to its subspace in the model's norm, one
        solve per subspace."""
        out = np.zeros(len(K.points))
        for k, V in enumerate(self.bases):
            if (rows := self.assignment == k).any():
                out[rows] = _dists(K.points[rows], V, K.norm)
        return out

    def validate(self, K: CompactSetModel, tol: float = 1e-10) -> bool:
        for V in self.bases:
            if V.shape[1] and np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) > tol:
                return False
        return abs(float(self.distances(K).max()) - self.achieved) <= tol * max(1.0, self.achieved)


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


def _nearest_coords(P: np.ndarray, V: np.ndarray, space: NormSpec) -> np.ndarray:
    """Coordinates C of a nearest point of span(V) to each row of P in a
    non-euclidean norm, in one solve for all rows (they share no variable):
    a HiGHS LP for the max norm and l1, L-BFGS on sum_i |f_i - V c_i|_p from
    the least-squares coordinates for 1 < p < inf.  Each row enters over its
    largest entry, so the tolerances are relative to each row."""
    # imported here, as cdist is: scipy.optimize costs 0.6 s to import
    from scipy.optimize import linprog, minimize
    from scipy.sparse import eye_array, kron

    (m, d), n = P.shape, V.shape[1]
    scale = np.abs(P).max(axis=1, keepdims=True)
    scale[scale == 0.0] = 1.0
    F = P / scale
    if space.kind == "max" or space.p == 1.0:
        # per row, (c_i, t_i) with -E t_i <= f_i - V c_i <= E t_i: one bound (max) or d (l1)
        E = np.ones((d, 1)) if space.kind == "max" else np.eye(d)
        res = linprog(np.tile(np.r_[np.zeros(n), np.ones(E.shape[1])], m),
                      A_ub=kron(eye_array(m), np.block([[-V, -E], [V, -E]]), format="csr"),
                      b_ub=np.hstack([-F, F]).ravel(), bounds=(None, None), method="highs")
        if not res.success:
            raise RuntimeError(f"subspace distance LP failed: {res.message}")
        return res.x.reshape(m, -1)[:, :n] * scale

    def objective(x):
        R = F - x.reshape(m, n) @ V.T
        return float(space.norm(R).sum()), -(space.dual(R) @ V).ravel()

    # no stopping tolerance: it runs until its line search stalls
    res = minimize(objective, (F @ V).ravel(), jac=True, method="L-BFGS-B",
                   options={"ftol": 0.0, "gtol": 0.0})
    return res.x.reshape(m, n) * scale


def _dists(P: np.ndarray, V: np.ndarray, space: NormSpec) -> np.ndarray:
    """Distances of the rows of P to span(V); off the euclidean path each is
    measured in the norm at ``_nearest_coords``, so it is attained whatever
    the solver's tolerance."""
    if space.is_euclidean:
        return _euclid_dists(P, V)
    if V.shape[1] == 0:
        return space.norm(P)
    return space.norm(P - _nearest_coords(P, V, space) @ V.T)


def dist_to_subspace(f: np.ndarray, basis: np.ndarray, space: NormSpec) -> float:
    """Distance from f to the column span of an orthonormal frame."""
    f = np.asarray(f, dtype=float)
    basis = np.asarray(basis, dtype=float)
    _check_frame(basis)
    return float(_dists(f[None, :], basis, space)[0])


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
) -> list[tuple[np.ndarray, float, float | None]]:
    """Best-effort minimax subspace for each cloud; (basis, value, lower),
    lower a certified lower side of the cloud's width on the exact paths
    (see _exact_fit) and None on the refined ones.

    Each search runs on a canonical representative of the dilation class:
    points divided by the largest norm and snapped to a 2^-35 grid.  Exactly
    rescaled inputs therefore produce bitwise-identical witnesses, and the
    returned value is re-evaluated on the original points so the upper bound
    stays sound.  The clouds of one size are scaled, snapped and reduced by
    one stacked SVD; rank and the exact paths are read per cloud, rank above
    sqrt(m d) 2^-35, twice the Frobenius size of the snap's rounding, so that
    the snap does not lift a low-rank cloud to full rank.  A cloud with
    n = rank - 1 whose facet list fails its checks is refined.  The
    clouds left to the iterative refinement get their start frames from one
    stacked QR and run one stacked _minimax_fit per (size, rank) shape, and
    their values come from one stacked distance pass.  Stacked or not, every
    cloud's fit is bitwise the one it gets alone.
    """
    fits: list = [None] * len(clouds)
    sizes: dict[int, list[int]] = {}
    for i, P in enumerate(clouds):
        sizes.setdefault(len(P), []).append(i)
    for ids in sizes.values():
        P = np.stack([clouds[i] for i in ids])
        _, m, d = P.shape
        scales = np.linalg.norm(P, axis=-1).max(axis=-1)
        for i in np.asarray(ids)[scales <= 0.0]:
            fits[i] = _exact_fit(clouds[i], _orthonormal_extend(np.zeros((d, 0)), n), 0.0, 0.0)
        live = np.flatnonzero(scales > 0.0)
        if not len(live):
            continue
        C = np.round((P[live] / scales[live, None, None]) * _SNAP) / _SNAP
        _, S, Vt = np.linalg.svd(C, full_matrices=False)
        ranks = np.sum(S > math.sqrt(m * d) / _SNAP, axis=1).tolist()
        refine: dict[int, list[int]] = {}
        for g, rank in enumerate(ranks):
            i, scale, B = ids[live[g]], float(scales[live[g]]), Vt[g, :rank].T
            # the optimal subspace can be taken inside the row space
            G = _symmetric_facets(C[g] @ B) if n == rank - 1 and rank <= _FACET_RANK_LIMIT else None
            if n >= d:
                # the coordinate frame holds every point: distances are 0.0 exactly
                fits[i] = _exact_fit(clouds[i], np.eye(d)[:, :n], scale, 0.0)
            elif n >= rank:
                fits[i] = _exact_fit(clouds[i], _orthonormal_extend(B, n), scale, 0.0)
            elif G is not None:
                norms = np.linalg.norm(G, axis=1)
                j = int(np.argmax(norms))
                U = _orthonormal_extend(G[j, :, None] / norms[j], rank)[:, 1:]
                fits[i] = _exact_fit(clouds[i], B @ U, scale, 1.0 / float(norms[j]))
            else:
                refine.setdefault(rank, []).append(g)
        for rank, gs in refine.items():
            # work inside the row spaces B = Vt[:rank].T, on the coordinates C B
            Q = C[gs] @ Vt[gs, :rank].swapaxes(-1, -2)
            gauss = [np.random.default_rng([_subset_seed(seeds[ids[live[g]]], (m, rank, n)), r])
                     .normal(size=(rank, n)) for g in gs for r in range(restarts)]
            Vr, _ = np.linalg.qr(np.reshape(gauss, (len(gs) * restarts, rank, n)))
            starts = np.concatenate([np.broadcast_to(np.eye(rank)[:, :n], (len(gs), 1, rank, n)),
                                     Vr.reshape(len(gs), restarts, rank, n)], axis=1)
            frames = _minimax_fit(Q, n, starts, sweeps)
            Vs = [Vt[g, :rank].T @ V for g, V in zip(gs, frames)]
            vals = _euclid_dists(P[live[gs]], np.stack(Vs)).max(axis=-1).tolist()
            for g, V, val in zip(gs, Vs, vals):
                fits[ids[live[g]]] = (V, val, None)
    return fits


def _exact_fit(P: np.ndarray, V: np.ndarray, scale: float, snap_val: float):
    """An exact path's fit (V, value, lower): V's value on the original
    points P, and a certified lower side of their width w(P).

    The snap moves each coordinate of P / scale by at most 2^-36, so each
    point by at most s = sqrt(d) 2^-36 scale, and the width, a min over
    subspaces of a max of distances, by at most s: w(P) >= scale * snap_val
    - s, as snap_val, the snapped cloud's width in its row space, is at most
    its width.  Less a rounding margin of 1e-10 of itself, that is the side,
    so it dilates with the cloud.  A bracket on it is exact when it closes to
    1e-9 relative, which the snap alone can prevent on a cloud whose scale is
    many times its width.
    """
    val = float(_euclid_dists(P, V).max())
    slack = math.sqrt(P.shape[1]) * scale / (2 * _SNAP)
    return V, val, max(0.0, (scale * snap_val - slack) * (1 - 1e-10))


def _spectral_lower(P: np.ndarray, k: int) -> float:
    """sqrt(sum_{j>k} s_j^2 / m) over the singular values s of P, less a
    rounding margin: no k-dimensional subspace lies closer to the rows of P
    in mean square.  Each computed s_j is lowered by max(m, d) eps s_1, the
    float SVD's bound that numpy's matrix_rank also takes, and the sum by
    its own relative error, as in ``spaces._dual_radius``."""
    (m, d), eps = P.shape, np.finfo(float).eps
    S = np.linalg.svd(P, compute_uv=False)
    tail = np.maximum(S[k:] - max(m, d) * eps * S[0], 0.0)
    return math.sqrt(float(np.sum(tail**2)) / m * (1 - 4 * (len(tail) + 1) * eps))


def linear_width(
    K: CompactSetModel,
    n: int,
    seed: int = 0,
    restarts: int = 32,
) -> WidthResult:
    """Bracket on the n-dimensional minimax subspace-fitting error.

    Euclidean clouds get a spectral lower side, a heuristic upper side, and
    exact paths for n=0, n>=rank, and n = rank - 1 up to rank
    _FACET_RANK_LIMIT, where the facets of conv(+-X) give the inradius and
    the hyperplane (module docstring).  Other norms measure the euclidean
    fit's exact distances in the norm, below which lies the spectral side
    times d^min(0, 1/p - 1/2); with n = d - 1 up to the same limit and a
    full-rank cloud, they take the facet hyperplane in the dual norm instead,
    measured in the norm, over the inradius less a rounding margin.
    """
    P = K.points
    m, d = P.shape
    if n > d:
        raise ValueError(f"n={n} exceeds ambient dimension {d}")
    if n < 0:
        raise ValueError("n must be >= 0")

    if n == 0:
        v = sup_norm(K)
        fam = SubspaceFamily((np.zeros((d, 0)),), np.zeros(m, dtype=int), v)
        return WidthResult(Bracket.exactly(v, "sup-norm"), fam, 0)

    spectral = _spectral_lower(P, n)
    if not K.norm.is_euclidean:
        # 1/p, with 1/p = 0 for the max norm
        inv_p = 0.0 if K.norm.kind == "max" else 1.0 / K.norm.p
        G = _symmetric_facets(P) if n == d - 1 and d <= _FACET_RANK_LIMIT else None
        if G is not None:
            # dual exponent q: 1 for the max norm, inf for l1
            norms = np.linalg.norm(G, ord=1.0 / (1.0 - inv_p) if inv_p < 1.0 else math.inf, axis=1)
            j = int(np.argmax(norms))
            V = _orthonormal_extend(G[j, :, None] / np.linalg.norm(G[j]), d)[:, 1:]
            val = float(_dists(P, V, K.norm).max())
            lower = (1 - 1e-10) / float(norms[j])
            if lower <= val:
                return WidthResult(
                    Bracket(lower, val, lower_method="facet-inradius",
                            upper_method="facet-hyperplane"),
                    SubspaceFamily((V,), np.zeros(m, dtype=int), val), 0)
        [(V, _, _)] = _fit_subspaces([P], n, [seed], restarts)
        val = float(_dists(P, V, K.norm).max())
        fam = SubspaceFamily((V,), np.zeros(m, dtype=int), val)
        # |x|_p >= d^min(0, 1/p - 1/2) |x|_2
        lower = spectral * d ** min(0.0, inv_p - 0.5)
        return WidthResult(
            Bracket(min(lower, val), val, lower_method="spectral-norm-equivalence",
                    upper_method="euclid-fit-evaluated"),
            fam, restarts,
        )

    [(V, val, cert)] = _fit_subspaces([P], n, [seed], restarts)

    fam = SubspaceFamily((V,), np.zeros(m, dtype=int), val)
    if cert is not None:
        lower = min(max(spectral, cert), val)
        br = Bracket(lower, val, lower_method="exact-path", upper_method="exact-path")
    else:
        br = Bracket(min(spectral, val), val,
                     lower_method="spectral-mean-square", upper_method="minimax-refine")
    # the exact paths run no restart
    return WidthResult(br, fam, restarts if cert is None else 0)


# ---------------------------------------------------------------------------
# nonlinear (N-subspace) widths


class _ClusterCache:
    def __init__(self, P: np.ndarray, n: int, seed: int):
        self.P = P
        self.n = n
        self.seed = seed
        # an unused cluster label: a zero placeholder basis, value 0
        self.store: dict[tuple[int, ...], tuple[np.ndarray, float, float | None]] = {
            (): (np.zeros((P.shape[1], n)), 0.0, 0.0)}
        self.spreads: dict[tuple[int, ...], float] = {(): 0.0}

    def fit_many(self, idxs) -> list[tuple[np.ndarray, float, float | None]]:
        """Fits of the point subsets idxs; the uncached ones run as one batch,
        in chunks of _BATCH_FLOATS.  Each chunk also fills in ``spreads``:
        the largest distance of a subset's points to its subspace, read from
        one stacked pass over the whole cloud for every basis of the chunk."""
        new = [idx for idx in dict.fromkeys(idxs) if idx not in self.store]
        m, d = self.P.shape
        floats = max((_CLUSTER_RESTARTS + 1) * max(map(len, new), default=1), m) * d
        step = max(1, _BATCH_FLOATS // floats)
        for k in range(0, len(new), step):
            part = new[k:k + step]
            fits = _fit_subspaces([self.P[list(idx)] for idx in part], self.n,
                                  [_subset_seed(self.seed, idx) for idx in part],
                                  _CLUSTER_RESTARTS, _CLUSTER_SWEEPS)
            self.store.update(zip(part, fits))
            dists = _euclid_dists(self.P, np.stack([V for V, _, _ in fits]))
            self.spreads.update((idx, float(row[list(idx)].max())) for idx, row in zip(part, dists))
        return [self.store[idx] for idx in idxs]


def _clusters(assign: np.ndarray, N: int) -> list[tuple[int, ...]]:
    """The point subset of each cluster label; () for an unused label."""
    return [tuple(np.flatnonzero(assign == c)) for c in range(N)]


def _family_value(cache: _ClusterCache, assign: np.ndarray, N: int):
    """Fit every cluster of an assignment in one batch; returns (bases,
    point-to-basis dists, per-point dists)."""
    bases = [V for V, _, _ in cache.fit_many(_clusters(assign, N))]
    dists = _euclid_dists(cache.P, np.stack(bases)).T
    return bases, dists, dists[np.arange(len(assign)), assign]


def _legal_frames(bases: list[np.ndarray], n: int) -> tuple[np.ndarray, ...]:
    """Swap the zero placeholder basis of each unused cluster for a legal frame."""
    return tuple(
        V if np.any(np.abs(V) > 0) else _orthonormal_extend(np.zeros((V.shape[0], 0)), n)
        for V in bases
    )


def _move_descents(cache: _ClusterCache, starts: list[np.ndarray], N: int):
    """First-improvement descents over single point moves from every start,
    in lockstep, evaluating each move by the refit family value.

    Unlike nearest-subspace reassignment, a move is accepted only when the
    full fit/evaluate cycle lowers the family objective, so this escapes the
    non-monotone alternation fixed points on small instances.  Each step fits
    the trial subsets of every running descent's full scan in one batch (for
    a point i of cluster a: cluster a without i, and each other cluster with
    i); each descent then walks its moves in a fixed (point index, cluster
    index) order and takes the first strict improvement.  A descent stops
    when a scan finds none or after _DESCENT_STEPS steps.  Returns each
    start's (value, assign).
    """
    assigns = [np.asarray(a0, dtype=int).copy() for a0 in starts]
    vals = [math.inf] * len(starts)
    running = list(range(len(starts)))
    for _ in range(_DESCENT_STEPS):
        scans = {j: _move_subsets(assigns[j], N) for j in running}
        cache.fit_many([idx for j in running for idx in _clusters(assigns[j], N)]
                       + [idx for j in running for move in scans[j] for idx in move[2:]])
        still = []
        for j in running:
            assign = assigns[j]
            members = _clusters(assign, N)
            spreads = [cache.spreads[idx] for idx in members]
            vals[j] = max(spreads)
            for i, c, drop, add in scans[j]:
                a = assign[i]
                rest = [s for k, s in enumerate(spreads) if k != a and k != c]
                v = max(rest + [cache.spreads[drop], cache.spreads[add]])
                if v < vals[j] - 1e-15:
                    assign[i] = c
                    vals[j] = v
                    still.append(j)
                    break
        running = still
        if not running:
            break
    return list(zip(vals, assigns))


def _move_subsets(assign: np.ndarray, N: int) -> list:
    """Every single point move (i, c) of an assignment in scan order, with
    the two clusters it changes: (i, c, cluster a without i, cluster c with i)."""
    members = _clusters(assign, N)
    return [(i, c, tuple(j for j in members[a] if j != i), tuple(sorted(members[c] + (i,))))
            for i, a in enumerate(assign.tolist()) for c in range(N) if c != a]


def _alternate(cache: _ClusterCache, starts: list[np.ndarray], N: int):
    """Alternating cluster fit / nearest-subspace reassignment from every
    start in lockstep: each step fits the clusters of all running starts in
    one batch.  Each start stops at a fixed point or after
    _ALTERNATION_STEPS steps and yields its best (value, bases, assign)."""
    assigns = [np.asarray(a0, dtype=int).copy() for a0 in starts]
    best: list = [None] * len(starts)
    running = list(range(len(starts)))
    for _ in range(_ALTERNATION_STEPS):
        cache.fit_many([idx for j in running for idx in _clusters(assigns[j], N)])
        still = []
        for j in running:
            assign = assigns[j]
            bases, dists, per_point = _family_value(cache, assign, N)
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


def _enumerate_partitions(cache: _ClusterCache, m: int, N: int) -> tuple[np.ndarray, float | None]:
    """Search over the partitions of the m points into at most N clusters:
    every nonempty subset is fitted in one batch, and a partition scores the
    largest value of its blocks.  Returns the least-value assignment, ties
    going to the smallest labelled code sum_i a_i N^i, and, when every
    subset's fit carries a certified lower side, the least over partitions
    of the largest side of their blocks: a lower side of the width, since an
    optimal family's nearest-subspace partition puts each block within the
    width of one subspace.

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
    fits = cache.fit_many(subsets)

    def scores(column: int) -> np.ndarray:
        table = np.zeros(2**m)  # the empty block scores 0
        table[1:] = [fit[column] for fit in fits]
        return np.max([table[mask] for mask in masks], axis=0)

    best = labels[int(np.argmin(scores(1)))].copy()
    if any(fit[2] is None for fit in fits):
        return best, None
    return best, float(scores(2).min())


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
    seeded starts run in lockstep; when m*N <= 80, single-move descents from
    the _DESCENT_STARTS best distinct results then run in lockstep too, with
    one batch of fits per step for every descent's full scan.
    Tiny instances (m <= 9 points, N <= 3) instead fit all 2^m - 1 subsets
    in one batch and score every partition into at most N clusters by its
    largest cluster value; the least value wins, ties going to the smallest
    labelled code sum_i a_i N^i; when every subset's fit takes an exact path
    (as for n = d - 1 up to rank _FACET_RANK_LIMIT), the partitions' least
    largest certified block side is the lower side, tagged ``-exact`` when
    the bracket is.  Otherwise the lower bound is the spectral bound at
    dimension n*N, since one nN-dimensional space contains any N-family; with
    m <= N points each spans a subspace of its own, and the bracket is [0, 0].
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1 (use linear_width for n = 0)")
    if n * N > NONLINEAR_GUARD:
        raise ValueError(f"n*N exceeds the solver guard {NONLINEAR_GUARD}")
    if N == 1:
        return linear_width(K, n, seed=seed, restarts=restarts)

    P = K.points
    m, d = P.shape
    if n > d:
        raise ValueError(f"n={n} exceeds ambient dimension {d}")
    if not K.norm.is_euclidean:
        raise ValueError("nonlinear_width requires a euclidean cloud")

    lower = _spectral_lower(P, n * N)

    cache = _ClusterCache(P, n, seed)

    best = None
    cert = None
    restarts_used = 0
    if m <= N:
        # each point spans a subspace of its own
        assign = np.arange(m, dtype=int)
        best = (0.0, [V for V, _, _ in cache.fit_many(_clusters(assign, N))], assign)
        method = "per-point-span"
    elif m <= ENUM_POINT_LIMIT and N <= ENUM_FAMILY_LIMIT and not force_heuristic:
        best_assign, cert = _enumerate_partitions(cache, m, N)
        bases, _, per_point = _family_value(cache, best_assign, N)
        best = (float(per_point.max()), bases, best_assign)
        method = "assignment-enumeration"
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
            ranked = dict.fromkeys(tuple(a) for _, _, a in sorted(results, key=lambda t: t[0]))
            leaders = [np.array(a) for a in list(ranked)[:_DESCENT_STARTS]]
            for v, a in _move_descents(cache, leaders, N):
                if v < best[0]:
                    bases, _, pp = _family_value(cache, a, N)
                    best = (float(pp.max()), bases, a)
            method += "+move-descent"

    val, bases, assign = best
    bases = _legal_frames(bases, n)
    dists = np.stack([_euclid_dists(P, V) for V in bases], axis=1)
    val = float(dists[np.arange(m), assign].max())
    fam = SubspaceFamily(bases, assign, val)
    if cert is not None:
        lower = min(max(lower, cert), val)
        method += "-exact" if Bracket(lower, val).exact else ""
        br = Bracket(lower, val, lower_method=method, upper_method=method)
    else:
        # with m <= N each point spans a subspace of its own: the width is 0,
        # whatever the rounding of the frames that hold the points
        br = Bracket(min(lower, val), val if m > N else 0.0, lower_method="spectral-nN",
                     upper_method=method)
    return WidthResult(br, fam, restarts_used)


def ksigma_nonlinear_width_upper(alpha: float, n: int, N: int) -> float:
    """Closed-form width bound s_{nN+1} for the coordinate sequence family
    (coordinate-block subspaces capture the first nN elements and 0)."""
    if n < 1 or N < 1:
        raise ValueError("n and N must be >= 1")
    return sigma_value(alpha, float(n) * float(N) + 1.0)
