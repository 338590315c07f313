"""Covering, packing, and entropy computations with certified brackets.

Covering balls are closed (distance <= eps); packings require strict
separation (> eps).  Upper bounds come from a deterministic greedy cover
(largest-norm-first, ties to the lowest point index); lower bounds come from
packings at doubled radius.  One rule decides every exact path: on clouds of
at most EXACT_POINT_LIMIT points, bitmask branch and bound gives inner cover
counts, maximum packings and inner entropy numbers, each search stopping
after _NODE_BUDGET nodes.  An inner entropy number there is a single
pairwise distance, found by a binary search over the distinct distances and
reported as an exact bracket [d, d].  Above the limit, or when a search runs
out of nodes, the greedy cover and packing give the bracket.  One rule gives
every outer upper count (`_cover_count`): the greedy cover's, or within the
limit the greedy set cover's over a pool of candidate centers when that is
fewer; like every bracket, an outer count is exact when its sides meet.  The
coordinate sequence family additionally has closed-form paths.

Each public function builds one geometry (`_Geom`) and hands it to the
private helpers; nothing is cached across calls.  Within the limit the
geometry holds the whole distance matrix, which the exact searches read.
Above it the greedy paths read only the rows of the points they pick, and
the one-center radius prunes by landmark rows, so no m x m array is built;
only `entropy_number`, whose threshold searches pick the same points again
and again, keeps the rows it computes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spaces import (
    _DIAMETER_BLOCK,
    Bracket,
    CompactSetModel,
    _diameter,
    chebyshev_radius,
    sigma_pow2_index,
    sigma_value,
)

__all__ = [
    "CoverResult",
    "PackingResult",
    "greedy_cover",
    "max_packing",
    "cover_number",
    "packing_number",
    "entropy_number",
    "ksigma_nested_cover_radius",
    "ksigma_inner_entropy_attained",
    "ksigma_packing_count",
]

EXACT_POINT_LIMIT = 64
_NODE_BUDGET = 250_000
_TOL = 1e-9
# farthest-first rows that bound every eccentricity in one_center_radius
_LANDMARKS = 8


@dataclass(frozen=True)
class CoverResult:
    """A greedy eps-cover.  Its centers are set points, so it is an inner
    cover (`inner` is always True) and hence also an outer one."""

    epsilon: float
    centers: np.ndarray
    cardinality: int

    @property
    def inner(self) -> bool:
        return True

    def validate(self, K: CompactSetModel, slack: float = 1e-12) -> bool:
        """Every point within eps of a center, and every center a set point."""
        cloud = K.as_cloud()
        D = cloud.norm.pairwise(cloud.points, self.centers)
        covered = np.all(D.min(axis=1) <= self.epsilon + slack)
        DC = cloud.norm.pairwise(self.centers, cloud.points)
        member = np.all(DC.min(axis=1) <= slack)
        return bool(covered and member)


@dataclass(frozen=True)
class PackingResult:
    epsilon: float
    points: np.ndarray
    cardinality: int
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
    call and handed to the private helpers.

    The exact searches and the outer candidate pool run only on clouds of at
    most EXACT_POINT_LIMIT points (`small`), and those hold the whole
    distance matrix D.  Larger clouds have D = None and compute the rows that
    the greedy paths ask for (`row`): each once with ``keep_rows``, else on
    every call, so that a single pass holds one row at a time.  A row of a
    block of points equals the same row of the whole matrix bit for bit, so
    every result is the same either way.
    """

    def __init__(self, K: CompactSetModel, keep_rows: bool = False):
        cloud = K.as_cloud()
        self.model = cloud
        self.pts = cloud.points
        self.norm = cloud.norm
        self.m = self.pts.shape[0]
        self.norms = np.asarray(cloud.norm.norm(self.pts), dtype=float).reshape(-1)
        # greedy pick order: descending norm, ties to the lowest index
        self.order = np.lexsort((np.arange(self.m), -self.norms))
        # the exact searches run on clouds of at most EXACT_POINT_LIMIT points
        self.small = self.m <= EXACT_POINT_LIMIT
        self.D = self.norm.pairwise(self.pts) if self.small else None
        self._rows: dict[int, np.ndarray] | None = {} if keep_rows else None

    def row(self, i: int) -> np.ndarray:
        """Distances from point i to every point: row i of D."""
        if self.D is not None:
            return self.D[i]
        if self._rows is None:
            return self.norm.pairwise(self.pts[i:i + 1], self.pts)[0]
        if i not in self._rows:
            self._rows[i] = self.norm.pairwise(self.pts[i:i + 1], self.pts)[0]
        return self._rows[i]

    def one_center_radius(self) -> float:
        """min_i max_j D[i, j], the least eccentricity.

        Without D, the rows of _LANDMARKS farthest-first points, starting at
        the first greedy pick, bound every eccentricity from below: ecc(i) >=
        D[i, c] = D[c, i] for each computed row c (the distances are
        symmetric bit for bit).  Only points whose bound is below the
        best eccentricity found get their rows, the lowest bounds first, in
        blocks doubling up to _DIAMETER_BLOCK rows, and each block raises the
        bounds in turn.  Only stored distances are compared, so the value is
        the full matrix's bit for bit.
        """
        if self.D is not None:
            return float(np.min(np.max(self.D, axis=1)))
        bound = np.zeros(self.m)
        nearest = np.full(self.m, np.inf)
        seen = np.zeros(self.m, dtype=bool)
        best = np.inf
        c = int(self.order[0])
        for _ in range(_LANDMARKS):
            r = self.row(c)
            seen[c] = True
            best = min(best, r.max())
            np.maximum(bound, r, out=bound)
            np.minimum(nearest, r, out=nearest)
            c = int(np.argmax(nearest))
        size = 1
        while (todo := np.flatnonzero(~seen & (bound < best))).size:
            block = todo[np.argsort(bound[todo], kind="stable")[:size]]
            R = self.norm.pairwise(self.pts[block], self.pts)
            seen[block] = True
            best = min(best, R.max(axis=1).min())
            np.maximum(bound, R.max(axis=0), out=bound)
            size = min(2 * size, _DIAMETER_BLOCK)
        return float(best)

    @cached_property
    def pool_D(self) -> np.ndarray:
        """Distances from the candidate outer centers (the points, their
        pairwise midpoints and, in the euclidean norm, the enclosing-ball
        center) to the points; built on first use.  The pool is quadratic in
        m, so only clouds within the limit use it."""
        i, j = np.triu_indices(self.m, 1)
        pool = [self.pts, 0.5 * (self.pts[i] + self.pts[j])]
        if self.norm.is_euclidean:
            pool.append(self.model.ball_center[None, :])
        return self.norm.pairwise(np.vstack(pool), self.pts)


def _check_radius(eps: float) -> None:
    # `not eps > 0` also rejects NaN, which no distance is <= to, so a greedy
    # cover at NaN would never cover its own center
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps!r}")


def _ball_masks(D: np.ndarray, eps: float) -> list[int]:
    """Closed eps-balls as bitmasks: bit j of entry i is set iff D[i, j] <= eps."""
    packed = np.packbits(D <= eps, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _bisect(pred, lo: float, hi: float) -> tuple[float, float]:
    """Halve [lo, hi] around the switch of a monotone predicate (true moves
    hi down, false moves lo up) until it is at most _TOL * hi wide, so the
    probes scale with the radii."""
    for _ in range(200):
        if hi - lo <= _TOL * hi:
            break
        mid = 0.5 * (lo + hi)
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


class _BudgetExhausted(Exception):
    pass


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
        covered |= geom.row(c) <= eps
        if stop_after is not None and len(centers) > stop_after:
            return centers


def greedy_cover(K: CompactSetModel, eps: float) -> CoverResult:
    """Deterministic greedy cover: repeatedly center on the uncovered point of
    largest norm.  Centers are always set points, so the result is valid as an
    inner or an outer cover; its cardinality upper-bounds the minimal count.
    """
    _check_radius(eps)
    geom = _Geom(K)
    idx = _greedy_cover_indices(geom, eps)
    return CoverResult(eps, geom.pts[idx], len(idx))


def _greedy_packing_indices(geom: _Geom, eps: float, stop_after: int | None = None) -> list[int]:
    """Lowest-index-first packing (point indices); stops early once count exceeds stop_after."""
    blocked = np.zeros(geom.m, dtype=bool)
    chosen: list[int] = []
    for i in range(geom.m):
        if not blocked[i]:
            chosen.append(i)
            blocked |= geom.row(i) <= eps
            if stop_after is not None and len(chosen) > stop_after:
                break
    return chosen


def _clique_partition_size(adj: list[int], cand: int) -> int:
    """Number of cliques in a greedy partition of cand over the conflict
    bitmasks; an independent set takes at most one point from each."""
    k = 0
    while cand:
        low = cand & -cand
        cand ^= low
        common = adj[low.bit_length() - 1] & cand
        while common:
            b = common & -common
            cand ^= b
            common &= adj[b.bit_length() - 1]
        k += 1
    return k


def _max_independent_set(adj: list[int], m: int) -> list[int]:
    """Maximum independent set over bitmask adjacency by branch and bound.

    A subtree is pruned only when it cannot beat the incumbent, so the first
    maximum found is the one returned.  Raises _BudgetExhausted after
    _NODE_BUDGET nodes.
    """
    best: list[int] = []
    nodes = 0

    def rec(cand: int, chosen: list[int]):
        nonlocal best, nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise _BudgetExhausted
        if len(chosen) + cand.bit_count() <= len(best):
            return
        if cand == 0:
            best = list(chosen)
            return
        if len(chosen) + _clique_partition_size(adj, cand) <= len(best):
            return
        # branch on the candidate with most conflicts inside cand (lowest first)
        v = max((i for i in range(m) if cand >> i & 1), key=lambda i: (adj[i] & cand).bit_count())
        rec(cand & ~((1 << v) | adj[v]), chosen + [v])
        rec(cand & ~(1 << v), chosen)

    rec((1 << m) - 1, [])
    return best


def _max_packing(geom: _Geom, eps: float) -> PackingResult:
    _check_radius(eps)
    if geom.small:
        adj = [mask & ~(1 << i) for i, mask in enumerate(_ball_masks(geom.D, eps))]
        try:
            idx = _max_independent_set(adj, geom.m)
            return PackingResult(eps, geom.pts[idx], len(idx), exact=True)
        except _BudgetExhausted:
            pass
    idx = _greedy_packing_indices(geom, eps)
    return PackingResult(eps, geom.pts[idx], len(idx))


def max_packing(K: CompactSetModel, eps: float) -> PackingResult:
    """Maximal packing by lowest-index-first insertion; exact maximum by
    branch and bound on clouds of at most EXACT_POINT_LIMIT points, unless
    the search runs out of nodes (then exact is False).
    """
    return _max_packing(_Geom(K), eps)


# ---------------------------------------------------------------------------
# cover counts


def _inner_cover_bnb(geom: _Geom, eps: float, best: int):
    """Fewest eps-balls centred at set points, by branch and bound over the
    ball bitmasks, if fewer than best (the size of a known cover, or a
    threshold to decide).  Returns (count, complete); count stays best when
    no smaller cover turns up."""
    m = geom.m
    # drop balls that are subsets of another (keeps the first maximal one)
    sets: list[int] = []
    for s in sorted(_ball_masks(geom.D, eps), key=lambda s: -s.bit_count()):
        if not any(s & ~t == 0 for t in sets):
            sets.append(s)
    universe = (1 << m) - 1
    covers_of = [[k for k in range(len(sets)) if sets[k] >> el & 1] for el in range(m)]
    # every set covering a remaining element meets the remaining elements, so
    # the most constrained remaining element is the first in (degree, index)
    by_degree = sorted(range(m), key=lambda el: (len(covers_of[el]), el))
    max_size = max(s.bit_count() for s in sets)
    nodes = 0

    def rec(covered: int, count: int):
        nonlocal best, nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise _BudgetExhausted
        remaining = universe & ~covered
        if remaining == 0:
            best = min(best, count)
            return
        if count + math.ceil(remaining.bit_count() / max_size) >= best:
            return
        el = next(i for i in by_degree if remaining >> i & 1)
        for k in sorted(covers_of[el], key=lambda k: -(sets[k] & remaining).bit_count()):
            rec(covered | sets[k], count + 1)

    try:
        rec(0, 0)
        return best, True
    except _BudgetExhausted:
        return best, False


def _greedy_set_cover_count(cover: np.ndarray, stop_after: int | None = None) -> int:
    """Classic greedy set cover over a boolean (sets x elements) matrix; each
    step's gains are one float32 matrix-vector product (exact counts)."""
    A = cover.astype(np.float32)
    uncovered = np.ones(cover.shape[1], dtype=np.float32)
    count = 0
    while uncovered.any():
        gains = A @ uncovered
        best = int(np.argmax(gains))
        if gains[best] == 0:
            raise ValueError("pool cannot cover every element")
        uncovered[cover[best]] = 0
        count += 1
        if stop_after is not None and count > stop_after:
            return count
    return count


def _cover_count(geom: _Geom, eps: float, inner: bool, stop_after: int | None = None) -> int:
    """Size of a known eps-cover: the greedy cover's, or for an outer cover
    of a cloud within the limit the greedy set cover's over the candidate
    pool (`_Geom.pool_D`) when that is fewer.  With stop_after, a count above
    it only says that the covers found need more than stop_after balls."""
    count = len(_greedy_cover_indices(geom, eps, stop_after))
    if inner or not geom.small or (stop_after is not None and count <= stop_after):
        return count
    return min(count, _greedy_set_cover_count(geom.pool_D <= eps, stop_after))


def _cover_method(geom: _Geom, inner: bool) -> str:
    """Upper-side tag of `_cover_count`."""
    return "greedy" if inner or not geom.small else "greedy|pool"


def cover_number(K: CompactSetModel, eps: float, inner: bool = True) -> Bracket:
    """Bracket on the minimal (inner) eps-covering number.

    The lower side is a greedy packing at doubled radius.  Inner counts of
    clouds with at most EXACT_POINT_LIMIT points are exact by branch and
    bound, unless the search runs out of nodes.  Otherwise the upper side is
    `_cover_count`: the greedy cover, or for outer covers within the limit
    the candidate-pool greedy set cover when that is fewer (`greedy|pool`).
    An outer count is exact only when the packing meets it, as [1, 1].
    """
    _check_radius(eps)
    geom = _Geom(K)
    upper = _cover_count(geom, eps, inner)
    method = _cover_method(geom, inner)
    if inner and geom.small:
        upper, complete = _inner_cover_bnb(geom, eps, upper)
        if complete:
            v = float(upper)
            return Bracket(v, v, lower_method="branch-bound", upper_method="branch-bound")
        method += "|branch-bound-partial"
    lower = max(len(_greedy_packing_indices(geom, 2 * eps)), 1)
    return Bracket(float(min(lower, upper)), float(upper),
                   lower_method="packing-2eps", upper_method=method)


def min_cover_exact(K: CompactSetModel, eps: float, inner: bool = True) -> Bracket:
    """Former name of `cover_number`, kept while `perfbench/tracing.py` still
    traces it; not exported."""
    return cover_number(K, eps, inner)


def packing_number(K: CompactSetModel, eps: float) -> Bracket:
    """Bracket on the maximal eps-packing cardinality."""
    if K.is_ksigma:
        v = float(ksigma_packing_count(K, eps))
        return Bracket(v, v, lower_method="sequence-closed-form",
                       upper_method="sequence-closed-form")
    geom = _Geom(K)
    res = _max_packing(geom, eps)
    if res.exact:
        v = float(res.cardinality)
        return Bracket(v, v, lower_method="exhaustive", upper_method="exhaustive")
    upper = max(len(_greedy_cover_indices(geom, eps / 2)), res.cardinality)
    lower_method = "greedy-packing" + ("|exhaustive-partial" if geom.small else "")
    return Bracket(float(res.cardinality), float(upper),
                   lower_method=lower_method, upper_method="half-radius-cover")


# ---------------------------------------------------------------------------
# entropy numbers


def _inner_entropy_search(geom: _Geom, target: int, hi0: float) -> float | None:
    """Least pairwise distance at which target balls centred at set points
    cover, or None when a count runs out of nodes.

    One ball on the one-center point covers at hi0, so the binary search over
    the sorted distinct distances stops there.  Each probe only asks whether
    target balls suffice: the greedy cover answers yes, or branch and bound
    looks for a cover of at most target balls.
    """
    spectrum = np.unique(geom.D)
    lo, hi = 0, int(np.searchsorted(spectrum, hi0))
    while lo < hi:
        mid = (lo + hi) // 2
        eps = spectrum[mid]
        if len(_greedy_cover_indices(geom, eps, stop_after=target)) <= target:
            hi = mid
            continue
        count, complete = _inner_cover_bnb(geom, eps, target + 1)
        if not complete:
            return None
        if count <= target:
            hi = mid
        else:
            lo = mid + 1
    return float(spectrum[hi])


def entropy_number(K: CompactSetModel, n: int, inner: bool = True) -> Bracket:
    """Bracket on the n-th (inner) entropy number: the radius threshold at
    which 2^n balls suffice.

    The inner e_0 is the one-center radius min_i max_j d(x_i, x_j), and the
    outer one the Chebyshev radius (`chebyshev_radius`), exact for
    euclidean and max-norm clouds and for l_p clouds whose two sides agree.
    Other inner numbers of clouds with at most EXACT_POINT_LIMIT points are
    a pairwise distance: a binary search over the sorted distinct distances,
    deciding each by a branch-and-bound cover count, returns it as an exact
    bracket.  Otherwise, or when a count runs out of nodes, the upper side
    bisects `_cover_count`, the rule `cover_number` uses (the greedy cover,
    and for outer numbers within the limit the candidate-pool greedy set
    cover), and the lower side keeps the largest radius at which a packing at
    doubled radius shows that 2^n balls cannot suffice, both to 1e-9 relative;
    the bracket is exact when they agree to 1e-9 (``Bracket``), as [0, 0] on
    at most 2^n distinct points.  Any inner cover is an outer cover, so an
    outer upper side within the limit is at most the exact inner number
    (tagged `inner-branch-bound` when that is lower).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    geom = _Geom(K, keep_rows=True)
    target = 1 << n
    if target >= geom.m:
        return Bracket(0.0, 0.0, lower_method="ball-per-point", upper_method="ball-per-point")

    hi0 = geom.one_center_radius()
    if n == 0 and inner:
        return Bracket(hi0, hi0, lower_method="one-center", upper_method="one-center")
    if n == 0:
        return chebyshev_radius(geom.model)
    exact = _inner_entropy_search(geom, target, hi0) if geom.small else None
    if inner and exact is not None:
        return Bracket(exact, exact, lower_method="branch-bound", upper_method="branch-bound")

    def upper_feasible(eps: float) -> bool:
        return _cover_count(geom, eps, inner, stop_after=target) <= target

    if upper_feasible(0.0):
        hi = 0.0  # at most 2^n distinct points
    elif upper_feasible(hi0):
        hi = hi0
    else:
        # a single greedy ball of diameter radius always covers
        hi = _diameter(geom.pts, geom.norm) * (1 + 1e-9)
    upper = _bisect(upper_feasible, 0.0, hi)[1]

    def no_certificate(eps: float) -> bool:
        # any 2eps-packing larger than the ball budget rules the radius out
        return len(_greedy_packing_indices(geom, 2 * eps, stop_after=target)) <= target

    start = upper * _TOL * 1e-3
    lower = 0.0 if no_certificate(start) else _bisect(no_certificate, start, upper)[0]
    upper_method = _cover_method(geom, inner)
    if geom.small and exact is None:
        upper_method += "|branch-bound-partial"
    elif exact is not None and exact < upper:
        upper, upper_method = exact, "inner-branch-bound"
    return Bracket(min(lower, upper), upper, lower_method="packing-cert", upper_method=upper_method)


# ---------------------------------------------------------------------------
# sequence-family closed forms


def ksigma_nested_cover_radius(alpha: float, n: int) -> float:
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
    _check_radius(eps)
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
