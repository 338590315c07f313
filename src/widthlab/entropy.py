"""Covering, packing, and entropy computations with certified brackets.

Covering balls are closed (distance <= eps); packings require strict
separation (> eps).  Upper bounds come from a deterministic greedy cover
(largest-norm-first, ties to the lowest point index); lower bounds come from
packings at doubled radius or, on small instances, from an exact
branch-and-bound set cover.  On those small instances an inner entropy
number is a single pairwise distance, found by a binary search over the
distinct distances and reported as an exact bracket [d, d].  The coordinate
sequence family additionally has closed-form paths.

Each public function builds one distance matrix and hands it to the private
helpers; nothing is cached across calls, so a large cloud's matrix lives only
as long as the call that needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import (
    Bracket,
    CompactSetModel,
    sigma_pow2_index,
    sigma_value,
)

__all__ = [
    "CoverResult",
    "PackingResult",
    "greedy_cover",
    "max_packing",
    "min_cover_exact",
    "cover_number",
    "packing_number",
    "entropy_number",
    "ksigma_inner_entropy_exact",
    "ksigma_inner_entropy_attained",
    "ksigma_packing_count",
]

DEFAULT_NODE_BUDGET = 250_000
EXACT_COVER_POINT_LIMIT = 40
EXHAUSTIVE_PACKING_LIMIT = 25


@dataclass(frozen=True)
class CoverResult:
    epsilon: float
    centers: np.ndarray
    inner: bool
    cardinality: int
    exact: bool = False

    def validate(self, K: CompactSetModel, slack: float = 1e-12) -> bool:
        cloud = K.as_cloud()
        D = cloud.norm.pairwise(cloud.points, self.centers)
        covered = np.all(D.min(axis=1) <= self.epsilon + slack)
        if not self.inner:
            return bool(covered)
        DC = cloud.norm.pairwise(self.centers, cloud.points)
        member = np.all(DC.min(axis=1) <= slack)
        return bool(covered and member)


@dataclass(frozen=True)
class PackingResult:
    epsilon: float
    points: np.ndarray
    cardinality: int
    maximal: bool = True
    exact: bool = False

    def validate(self, K: CompactSetModel, slack: float = 0.0) -> bool:
        """Strict eps-separation of the packing points, in the model's norm."""
        if self.cardinality <= 1:
            return True
        D = K.as_cloud().norm.pairwise(self.points)
        iu = np.triu_indices(self.cardinality, 1)
        return bool(np.all(D[iu] > self.epsilon - slack))


class _Geom:
    """Distances, norms, and greedy order for one cloud, built once per public
    call and handed to the private helpers."""

    def __init__(self, K: CompactSetModel):
        cloud = K.as_cloud()
        self.model = cloud
        self.pts = cloud.points
        self.norm = cloud.norm
        self.m = self.pts.shape[0]
        self.D = cloud.norm.pairwise(self.pts)
        self.norms = np.asarray(cloud.norm.norm(self.pts), dtype=float).reshape(-1)
        # greedy pick order: descending norm, ties to the lowest index
        self.order = np.lexsort((np.arange(self.m), -self.norms))

    def one_center_radius(self) -> float:
        return float(np.min(np.max(self.D, axis=1)))


def _ball_masks(D: np.ndarray, eps: float) -> list[int]:
    """Closed eps-balls as bitmasks: bit j of entry i is set iff D[i, j] <= eps."""
    packed = np.packbits(D <= eps, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bisect(pred, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve [lo, hi] around the switch of a monotone predicate (true moves
    hi down, false moves lo up) until it is at most tol wide."""
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


# ---------------------------------------------------------------------------
# greedy cover / packing


def _greedy_cover_indices(geom: _Geom, eps: float, stop_after: int | None = None):
    """Greedy cover centers (point indices); stops early once count exceeds stop_after."""
    covered = np.zeros(geom.m, dtype=bool)
    centers: list[int] = []
    ptr = 0
    while True:
        while ptr < geom.m and covered[geom.order[ptr]]:
            ptr += 1
        if ptr >= geom.m:
            return centers
        c = int(geom.order[ptr])
        centers.append(c)
        covered |= geom.D[c] <= eps
        if stop_after is not None and len(centers) > stop_after:
            return centers


def greedy_cover(K: CompactSetModel, eps: float, inner: bool = True) -> CoverResult:
    """Deterministic greedy cover: repeatedly center on the uncovered point of
    largest norm.  Centers are always set points, so the result is valid as an
    inner or an outer cover; its cardinality upper-bounds the minimal count.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    geom = _Geom(K)
    idx = _greedy_cover_indices(geom, eps)
    return CoverResult(eps, geom.pts[idx], inner, len(idx), exact=False)


def _greedy_packing_indices(geom: _Geom, eps: float) -> list[int]:
    blocked = np.zeros(geom.m, dtype=bool)
    chosen: list[int] = []
    for i in range(geom.m):
        if not blocked[i]:
            chosen.append(i)
            blocked |= geom.D[i] <= eps
    return chosen


def _max_independent_set(adj: list[int], m: int) -> list[int]:
    """Exact maximum independent set over bitmask adjacency (small m)."""
    best: list[int] = []

    def rec(cand: int, chosen: list[int]):
        nonlocal best
        if len(chosen) + cand.bit_count() <= len(best):
            return
        if cand == 0:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        # branch on the candidate with most conflicts inside cand
        v, vdeg = -1, -1
        c = cand
        while c:
            b = c & -c
            i = b.bit_length() - 1
            deg = (adj[i] & cand).bit_count()
            if deg > vdeg:
                v, vdeg = i, deg
            c ^= b
        rec(cand & ~((1 << v) | adj[v]), chosen + [v])
        rec(cand & ~(1 << v), chosen)

    rec((1 << m) - 1, [])
    return best


def _max_packing(geom: _Geom, eps: float, exhaustive_limit: int) -> PackingResult:
    if eps <= 0:
        raise ValueError("eps must be positive")
    if geom.m > exhaustive_limit:
        idx = _greedy_packing_indices(geom, eps)
        return PackingResult(eps, geom.pts[idx], len(idx), True, exact=False)
    adj = [mask & ~(1 << i) for i, mask in enumerate(_ball_masks(geom.D, eps))]
    idx = _max_independent_set(adj, geom.m)
    return PackingResult(eps, geom.pts[idx], len(idx), True, exact=True)


def max_packing(
    K: CompactSetModel,
    eps: float,
    exhaustive_limit: int = EXHAUSTIVE_PACKING_LIMIT,
) -> PackingResult:
    """Maximal packing by lowest-index-first insertion; exact maximum by
    exhaustive search on clouds up to exhaustive_limit points.
    """
    return _max_packing(_Geom(K), eps, exhaustive_limit)


# ---------------------------------------------------------------------------
# exact set cover (branch and bound over a candidate-center pool)


class _BudgetExhausted(Exception):
    pass


def _bnb_set_cover(sets: list[int], universe: int, budget: int, best: int):
    """Minimum number of sets covering universe, given a cover of size best.
    Returns (count, complete)."""
    m_sets = len(sets)
    # element -> covering set indices
    elems = []
    e = universe
    while e:
        b = e & -e
        elems.append(b.bit_length() - 1)
        e ^= b
    covers_of = {el: [s for s in range(m_sets) if sets[s] >> el & 1] for el in elems}
    if any(not v for v in covers_of.values()):
        raise ValueError("universe element not coverable by any candidate")
    nodes = 0
    max_size = max(s.bit_count() for s in sets) if sets else 1

    def rec(covered: int, count: int):
        nonlocal best, nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExhausted
        remaining = universe & ~covered
        if remaining == 0:
            best = min(best, count)
            return
        if count + math.ceil(remaining.bit_count() / max_size) >= best:
            return
        # most constrained uncovered element
        el, n_opts = -1, None
        e = remaining
        while e:
            b = e & -e
            i = b.bit_length() - 1
            opts = sum(1 for s in covers_of[i] if sets[s] & remaining)
            if n_opts is None or opts < n_opts:
                el, n_opts = i, opts
                if opts == 1:
                    break
            e ^= b
        cands = sorted(
            (s for s in covers_of[el]),
            key=lambda s: -(sets[s] & remaining).bit_count(),
        )
        for s in cands:
            rec(covered | sets[s], count + 1)

    try:
        rec(0, 0)
        return best, True
    except _BudgetExhausted:
        return best, False


def _greedy_set_cover_count(cover: np.ndarray, stop_after: int | None = None) -> int:
    """Classic greedy set cover over a boolean (sets x elements) matrix."""
    m = cover.shape[1]
    covered = np.zeros(m, dtype=bool)
    count = 0
    while not covered.all():
        gains = (cover & ~covered).sum(axis=1)
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise ValueError("pool cannot cover every element")
        covered |= cover[best]
        count += 1
        if stop_after is not None and count > stop_after:
            return count
    return count


def _outer_pool(geom: _Geom, midpoint_limit: int = 80) -> np.ndarray:
    """Candidate outer centers: points, pairwise midpoints, global center.

    Midpoints are skipped above midpoint_limit points (pool size is quadratic).
    """
    pts = geom.pts
    pool = [pts]
    if geom.m <= midpoint_limit:
        i, j = np.triu_indices(geom.m, 1)
        pool.append(0.5 * (pts[i] + pts[j]))
    if geom.norm.is_euclidean:
        pool.append(geom.model.ball_center[None, :])
    return np.vstack(pool)


def _prune_dominated(sets: list[int]) -> list[int]:
    """Drop cover sets that are subsets of another (keeps the first maximal)."""
    kept: list[int] = []
    for s in sorted(sets, key=lambda s: -s.bit_count()):
        if not any(s & ~t == 0 for t in kept):
            kept.append(s)
    return kept


def _inner_cover_bnb(geom: _Geom, eps: float, budget: int):
    """Fewest eps-balls centred at set points, by branch and bound from the
    greedy cover.  Returns (count, complete)."""
    sets = _prune_dominated(_ball_masks(geom.D, eps))
    greedy = len(_greedy_cover_indices(geom, eps))
    return _bnb_set_cover(sets, (1 << geom.m) - 1, budget, greedy)


def _min_cover(geom: _Geom, eps: float, inner: bool, node_budget: int) -> Bracket:
    if eps <= 0:
        raise ValueError("eps must be positive")
    lower = max(len(_greedy_packing_indices(geom, 2 * eps)), 1)
    if inner:
        count, complete = _inner_cover_bnb(geom, eps, node_budget)
        if complete:
            v = float(count)
            return Bracket(v, v, exact=True,
                           lower_method="branch-bound", upper_method="branch-bound")
        return Bracket(float(min(lower, count)), float(count), exact=False,
                       lower_method="packing-2eps", upper_method="greedy|branch-bound-partial")

    upper = len(_greedy_cover_indices(geom, eps))
    Dp = geom.norm.pairwise(_outer_pool(geom), geom.pts)
    upper = min(upper, _greedy_set_cover_count(Dp <= eps))
    count, complete = _bnb_set_cover(
        _prune_dominated(_ball_masks(Dp, eps)), (1 << geom.m) - 1, node_budget, upper
    )
    upper = min(upper, count)
    return Bracket(
        float(min(lower, upper)),
        float(upper),
        exact=False,
        lower_method="packing-2eps",
        upper_method="pool-branch-bound" if complete else "pool-branch-bound-partial",
    )


def min_cover_exact(
    K: CompactSetModel,
    eps: float,
    inner: bool = True,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Bracket:
    """Bracket on the minimal eps-cover cardinality.

    Inner covers (centers restricted to set points) are solved exactly by
    branch-and-bound when the budget allows.  Outer covers optimize over a
    finite candidate pool (points, pairwise midpoints, enclosing-ball center),
    so the result is an upper-bound bracket and is never flagged exact.
    """
    if K.size > 500:
        raise ValueError("min_cover_exact supports clouds with at most 500 points")
    return _min_cover(_Geom(K), eps, inner, node_budget)


# ---------------------------------------------------------------------------
# count brackets at fixed radius (sandwich-suite primitives)


def cover_number(
    K: CompactSetModel,
    eps: float,
    inner: bool = True,
    exact_limit: int = EXACT_COVER_POINT_LIMIT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Bracket:
    """Bracket on the minimal (inner) eps-covering number."""
    geom = _Geom(K)
    if geom.m <= exact_limit:
        return _min_cover(geom, eps, inner, node_budget)
    upper = len(_greedy_cover_indices(geom, eps))
    lower = max(len(_greedy_packing_indices(geom, 2 * eps)), 1)
    return Bracket(float(min(lower, upper)), float(upper), exact=False,
                   lower_method="packing-2eps", upper_method="greedy")


def packing_number(
    K: CompactSetModel,
    eps: float,
    exhaustive_limit: int = EXHAUSTIVE_PACKING_LIMIT,
) -> Bracket:
    """Bracket on the maximal eps-packing cardinality."""
    if K.is_ksigma:
        v = float(ksigma_packing_count(K, eps))
        return Bracket(v, v, exact=True,
                       lower_method="sequence-closed-form",
                       upper_method="sequence-closed-form")
    geom = _Geom(K)
    res = _max_packing(geom, eps, exhaustive_limit)
    if res.exact:
        v = float(res.cardinality)
        return Bracket(v, v, exact=True,
                       lower_method="exhaustive", upper_method="exhaustive")
    upper = max(len(_greedy_cover_indices(geom, eps / 2)), res.cardinality)
    return Bracket(float(res.cardinality), float(upper), exact=False,
                   lower_method="greedy-packing", upper_method="half-radius-cover")


# ---------------------------------------------------------------------------
# entropy numbers


def entropy_number(
    K: CompactSetModel,
    n: int,
    inner: bool = True,
    tol: float = 1e-9,
    exact_limit: int = EXACT_COVER_POINT_LIMIT,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Bracket:
    """Bracket on the n-th (inner) entropy number: the radius threshold at
    which 2^n balls suffice.

    Inner numbers of clouds with at most exact_limit points are a pairwise
    distance: a binary search over the sorted distinct distances, deciding
    each by an exact branch-and-bound cover count, returns it as an exact
    bracket.  Otherwise, or when a count exhausts node_budget, the upper side
    bisects the greedy cover (plus, for outer numbers on small clouds, the
    candidate-pool cover) and the lower side keeps the largest radius at
    which a packing at doubled radius shows that 2^n balls cannot suffice,
    both to width tol.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    geom = _Geom(K)
    target = 1 << n
    if target >= geom.m:
        return Bracket(0.0, 0.0, exact=True,
                       lower_method="ball-per-point", upper_method="ball-per-point")

    hi0 = geom.one_center_radius()
    if inner and geom.m <= exact_limit:
        # one ball on the one-center point covers at hi0, so the threshold is
        # the least distance up to hi0 at which 2^n balls cover
        spectrum = np.unique(geom.D)
        lo, hi = 0, int(np.searchsorted(spectrum, hi0))
        while lo < hi:
            mid = (lo + hi) // 2
            count, complete = _inner_cover_bnb(geom, spectrum[mid], node_budget)
            if not complete:
                break  # fall through to the heuristic path
            if count <= target:
                hi = mid
            else:
                lo = mid + 1
        else:
            d = float(spectrum[hi])
            return Bracket(d, d, exact=True,
                           lower_method="branch-bound", upper_method="branch-bound")

    small_outer = (not inner) and geom.m <= exact_limit
    pool_dists = None
    if small_outer:
        pool_dists = geom.norm.pairwise(_outer_pool(geom), geom.pts)

    def upper_feasible(eps: float) -> bool:
        cnt = len(_greedy_cover_indices(geom, eps, stop_after=target))
        if cnt <= target:
            return True
        if pool_dists is not None:
            return _greedy_set_cover_count(pool_dists <= eps, stop_after=target) <= target
        return False

    # a single greedy ball of diameter radius always covers
    hi = hi0 if upper_feasible(hi0) else float(geom.D.max()) * (1 + 1e-9) + 1e-12
    upper = _bisect(upper_feasible, 0.0, hi, tol)[1]

    def no_certificate(eps: float) -> bool:
        # any 2eps-packing larger than the ball budget rules the radius out
        return len(_greedy_packing_indices(geom, 2 * eps)) <= target

    start = min(tol, upper) * 1e-3
    lower = 0.0 if no_certificate(start) else _bisect(no_certificate, start, upper, tol)[0]
    lower = min(lower, upper)
    return Bracket(lower, upper, exact=False,
                   lower_method="packing-cert",
                   upper_method="greedy" + ("|pool" if small_outer else ""))


# ---------------------------------------------------------------------------
# sequence-family closed forms


def ksigma_inner_entropy_exact(alpha: float, n: int) -> float:
    """Nested-cover radius sqrt(s_{2^n}^2 + s_{2^n+1}^2) of the sequence family.

    This is the radius at which the largest-norm-first greedy cover first
    succeeds with 2^n balls centered at set points.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = sigma_pow2_index(alpha, n)
    b = sigma_value(alpha, 2.0**n + 1.0) if n <= 50 else sigma_pow2_index(alpha, n)
    return math.hypot(a, b)


def ksigma_inner_entropy_attained(alpha: float, n: int) -> float:
    """Optimal inner entropy number s_{2^n} of the zero-inclusive family.

    Attained by centering one ball at 0 (covering every element of norm at
    most s_{2^n}) and one ball at each of the 2^n - 1 largest elements; a
    pigeonhole over {s_1 e_1, ..., s_{2^n} e_{2^n}, 0} shows no smaller
    radius works.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return sigma_pow2_index(alpha, n)


def ksigma_packing_count(K: CompactSetModel, eps: float) -> int:
    """Exact maximal-packing cardinality for a (scaled) sequence-family cloud.

    Distances are hypot(s_i, s_j) between distinct coordinate elements and
    s_j to the zero element; among packings of a given size, the prefix of
    largest elements maximizes the minimal gap, so only prefixes (optionally
    with 0) need to be examined.
    """
    if not K.is_ksigma:
        raise ValueError("requires a sequence-family model")
    if eps <= 0:
        raise ValueError("eps must be positive")
    s = np.abs(K.sigmas())
    J = len(s)
    a = 1
    for k in range(2, J + 1):
        if math.hypot(s[k - 2], s[k - 1]) > eps:
            a = k
        else:
            break
    with_zero = int(np.sum(s > eps)) + 1
    return max(a, with_zero, 1)
