"""Normed-space models, finite point-set containers, and elementary exact geometry.

Everything downstream (covering numbers, widths, Lipschitz maps) works on two
set models: an explicit finite point cloud in a normed R^d, or the analytic
sequence family ``{s_j e_j} U {0}`` with s_j = 1/[log2 log2 (j+3)]^alpha,
truncated at a caller-chosen index J.  All operations here are pure functions
on immutable inputs.  One away-step simplex ascent (``_away_step_simplex``)
solves the euclidean enclosing ball here and the John ellipsoid in lipschitz.
The enclosing ball of an l_p cloud comes from a small convex solve: an LP on
sign-vector cuts for l1, an epigraph SLSQP for 1 < p < inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

__all__ = [
    "NormSpec",
    "Bracket",
    "CompactSetModel",
    "sigma_value",
    "sigma_pow2_index",
    "norm_of",
    "sup_norm",
    "chebyshev_radius",
    "scale_set",
    "minimum_enclosing_ball",
]

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class NormSpec:
    """A norm on R^dim: euclidean, an l_p norm with 1 <= p < inf, or max-norm."""

    kind: str  # "euclidean" | "pnorm" | "max"
    dim: int
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "pnorm", "max"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == "pnorm":
            if self.p is None or not (1.0 <= self.p < math.inf):
                raise ValueError(
                    'pnorm requires an exponent 1 <= p < inf; use kind="max" for p = inf')

    @property
    def is_euclidean(self) -> bool:
        return self.kind == "euclidean" or (self.kind == "pnorm" and self.p == 2.0)

    def norm(self, x: np.ndarray) -> float | np.ndarray:
        """Norm of a vector, or row-wise norms of a 2-d array."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"vector dimension {x.shape[-1]} != space dimension {self.dim}")
        if self.kind == "euclidean":
            return np.linalg.norm(x, axis=-1) if x.ndim > 1 else float(np.linalg.norm(x))
        if self.kind == "max":
            v = np.max(np.abs(x), axis=-1)
            return v if x.ndim > 1 else float(v)
        # each row over its largest entry, so the power sum neither underflows
        # nor overflows; a 1-d x runs as one row, so its root rounds as a row's
        a = np.abs(np.atleast_2d(x))
        top = a.max(axis=-1)
        v = top * np.sum((a / np.where(top > 0.0, top, 1.0)[..., None]) ** self.p, axis=-1) ** (1.0 / self.p)
        return v if x.ndim > 1 else float(v[0])

    def dual(self, x: np.ndarray) -> np.ndarray:
        """Dual vectors g of the rows of x under an l_p norm: g^T x = |x|_p and
        |g|_q <= 1; the norm's gradient at x != 0, or the signs for p = 1."""
        return np.sign(x) * (np.abs(x) / np.maximum(self.norm(x), 1e-300)[..., None]) ** (self.p - 1)

    def pairwise(self, pts: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
        """Distance matrix between rows of pts (and other, if given)."""
        from scipy.spatial.distance import cdist  # here, so that importing widthlab loads no scipy

        other = pts if other is None else other
        if self.kind == "euclidean":
            return cdist(pts, other, metric="euclidean")
        if self.kind == "max":
            return cdist(pts, other, metric="chebyshev")
        return cdist(pts, other, metric="minkowski", p=self.p)


def euclidean(dim: int) -> NormSpec:
    return NormSpec("euclidean", dim)


def norm_of(x: np.ndarray, space: NormSpec) -> float:
    """Norm of x in the given space; raises on dimension mismatch."""
    return float(space.norm(np.asarray(x, dtype=float)))


def _symmetric_facets(P: np.ndarray) -> np.ndarray | None:
    """Gauge rows a_j / b_j of the facets a_j . x <= b_j of conv(+-P), P of
    full rank, from one unjoggled Qhull call (+-1/max|P| in 1-d).  None when
    Qhull fails or the list, which lower sides rest on, may be incomplete: a
    ridge lacks a second facet, or a +-p_i breaks a row by more than 1e-9."""
    if P.shape[1] == 1:
        return np.array([[1.0], [-1.0]]) / np.max(np.abs(P))
    from scipy.spatial import ConvexHull, QhullError  # here: importing widthlab loads no scipy

    X = np.vstack([P, -P])
    try:
        hull = ConvexHull(X)
    except QhullError:
        return None
    G = hull.equations[:, :-1] / -hull.equations[:, -1:]  # a_j . x + c_j <= 0, b_j = -c_j
    complete = not (hull.neighbors < 0).any() and (X @ G.T).max() <= 1.0 + 1e-9
    return G if complete else None


# ---------------------------------------------------------------------------
# certified brackets


@dataclass(frozen=True)
class Bracket:
    """A certified [lower, upper] interval for a nonnegative quantity.

    Its sides satisfy 0 <= lower <= upper (1 + 1e-12); the method tags record
    how each side was certified.  It is ``exact`` when the sides agree to
    1e-9 relative to a finite upper side, a rule without a unit: [0, 0] is
    exact, [x, inf] never is, and a dilation keeps the flag.
    """

    lower: float
    upper: float
    lower_method: str = ""
    upper_method: str = ""

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper * (1 + 1e-12):
            raise ValueError(f"bracket sides [{self.lower}, {self.upper}] are not "
                             "0 <= lower <= upper")

    @property
    def exact(self) -> bool:
        return math.isfinite(self.upper) and self.upper - self.lower <= 1e-9 * self.upper

    @property
    def width(self) -> float:
        return self.upper - self.lower

    @property
    def mid(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= value <= self.upper + slack

    def scaled(self, t: float) -> "Bracket":
        t = abs(t)
        return replace(self, lower=self.lower * t, upper=self.upper * t)

    @staticmethod
    def exactly(value: float, method: str = "closed-form") -> "Bracket":
        return Bracket(value, value, lower_method=method, upper_method=method)


# ---------------------------------------------------------------------------
# the slowly-decaying coordinate sequence family


def sigma_value(alpha: float, j: float) -> float:
    """s_j = 1/[log2 log2 (j+3)]^alpha, accepting real j >= 1."""
    if j < 1:
        raise ValueError("index must be >= 1")
    return math.log2(math.log2(j + 3.0)) ** (-alpha)


def sigma_pow2_index(alpha: float, n: int) -> float:
    """s_{2^n}, computed without forming 2^n (stable for large n)."""
    # log2(2^n + 3) = n + log2(1 + 3*2^-n)
    inner = n + math.log1p(3.0 * 2.0 ** (-n)) / _LN2
    return math.log2(inner) ** (-alpha)


# ---------------------------------------------------------------------------
# compact set models


@dataclass(frozen=True)
class CompactSetModel:
    """A finite point cloud, or the truncated coordinate sequence family.

    The sequence variant keeps its analytic parameters so closed-form paths
    stay available after embedding into a cloud; ``tail_gap`` records the
    norm of the first dropped element (the retained point 0 is within that
    distance of every dropped point).
    """

    kind: str  # "cloud" | "ksigma"
    label: str
    points: np.ndarray | None = None
    norm: NormSpec | None = None
    alpha: float | None = None
    truncation: int | None = None
    sigma_scale: float = 1.0

    @staticmethod
    def cloud(points, norm: NormSpec | None = None, label: str = "cloud") -> "CompactSetModel":
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.size == 0:
            raise ValueError("cloud must be nonempty")
        if norm is None:
            norm = euclidean(pts.shape[1])
        if pts.shape[1] != norm.dim:
            raise ValueError("point dimension does not match norm dimension")
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            raise ValueError(f"cloud row {bad[0]} has a non-finite coordinate: {pts[bad[0]]}")
        pts = pts.copy()
        pts.flags.writeable = False
        return CompactSetModel(kind="cloud", label=label, points=pts, norm=norm)

    @staticmethod
    def ksigma(alpha: float, truncation: int, label: str | None = None) -> "CompactSetModel":
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if truncation < 1:
            raise ValueError("truncation must be >= 1")
        label = label or f"ksigma(alpha={alpha:g},J={truncation})"
        return CompactSetModel(
            kind="ksigma", label=label, alpha=alpha, truncation=truncation
        )

    # -- shared views ------------------------------------------------------

    @property
    def is_ksigma(self) -> bool:
        return self.kind == "ksigma" or (self.kind == "cloud" and self.alpha is not None)

    def sigmas(self) -> np.ndarray:
        """The retained sequence values s_1..s_J (scaled, for scaled embeddings)."""
        if not self.is_ksigma:
            raise ValueError("not a sequence-family model")
        J = self.truncation
        return self.sigma_scale * np.array(
            [sigma_value(self.alpha, j) for j in range(1, J + 1)]
        )

    @property
    def tail_gap(self) -> float:
        """Norm bound on dropped points; 0 for plain clouds."""
        if not self.is_ksigma:
            return 0.0
        return abs(self.sigma_scale) * sigma_value(self.alpha, self.truncation + 1)

    def as_cloud(self) -> "CompactSetModel":
        """Embed the sequence family as s_j e_j (j = 1..J) plus 0 in R^J."""
        return self if self.kind == "cloud" else self._embedding

    @cached_property
    def _embedding(self) -> "CompactSetModel":
        """The sequence family's cloud, built once per model so that per-model
        caches such as ``ball_center`` carry across calls."""
        J = self.truncation
        pts = np.zeros((J + 1, J))
        s = self.sigmas()
        pts[np.arange(J), np.arange(J)] = s
        pts.flags.writeable = False
        return CompactSetModel(
            kind="cloud",
            label=self.label,
            points=pts,
            norm=euclidean(J),
            alpha=self.alpha,
            truncation=self.truncation,
            sigma_scale=self.sigma_scale,
        )

    @property
    def size(self) -> int:
        return self.as_cloud().points.shape[0]

    @cached_property
    def ball_center(self) -> np.ndarray:
        """Center of the euclidean minimum enclosing ball of the points,
        computed once per model (read-only)."""
        c, _, _ = minimum_enclosing_ball(self.as_cloud().points)
        c.flags.writeable = False
        return c


def sup_norm(K: CompactSetModel) -> float:
    """sup of the norm over the set; s_1 (scaled) for the sequence family."""
    if K.kind == "ksigma":
        return abs(K.sigma_scale) * sigma_value(K.alpha, 1)
    return float(np.max(K.norm.norm(K.points)))


def scale_set(K: CompactSetModel, t: float) -> CompactSetModel:
    """Pointwise dilation t*K of a cloud (used by homogeneity checks)."""
    if K.kind != "cloud":
        raise ValueError("scale_set requires the cloud variant; embed first")
    pts = K.points * t
    pts.flags.writeable = False
    return replace(
        K,
        points=pts,
        label=f"{K.label}*{t:g}",
        sigma_scale=K.sigma_scale * t if K.alpha is not None else 1.0,
    )


# ---------------------------------------------------------------------------
# the weight simplex: enclosing ball (here) and John ellipsoid (lipschitz)

_SIMPLEX_MAX_ITER = 100_000
# gaps at which the enclosing-ball ascent tries its exact finish, in turn
_BALL_TOLS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14)


def _away_step_simplex(u: np.ndarray, scores, steps, tol: float):
    """Frank-Wolfe ascent with away steps on the simplex weights u, in place.

    ``scores(u)`` gives scores g and their u-weighted mean, the level;
    ``steps(g_j, g_k, level)`` the toward step to the largest score j and the
    away step from the least score k on the support (inf: a drop step).  Each
    pass takes the one whose score lies further from the level, until
    g_j <= level (1 + tol).  Returns ``(u, iterations, converged)``."""
    for it in range(1, _SIMPLEX_MAX_ITER + 1):
        g, level = scores(u)
        j = int(np.argmax(g))
        if g[j] <= level * (1.0 + tol):
            return u, it, True
        support = np.flatnonzero(u)
        k = int(support[np.argmin(g[support])])
        toward, away = steps(float(g[j]), float(g[k]), level)
        if g[j] - level >= level - g[k]:
            u *= 1.0 - toward
            u[j] += toward
        elif away >= u[k] / (1.0 - u[k]):  # drop step: k leaves the support
            u /= 1.0 - u[k]
            u[k] = 0.0
        else:
            u *= 1.0 + away
            u[k] -= away
    return u, _SIMPLEX_MAX_ITER, False


def _ball_of_boundary(R: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Circumball of the rows of R in their affine hull: center, radius and
    the center's barycentric weights on the rows."""
    A = R[1:] - R[0]
    b = 0.5 * np.einsum("ij,ij->i", A, A)
    # center = R[0] + A^T lam with A A^T lam = b (least squares handles degeneracy)
    lam, *_ = np.linalg.lstsq(A @ A.T, b, rcond=None)
    c = R[0] + A.T @ lam
    return c, float(np.linalg.norm(c - R[0])), np.concatenate(([1.0 - lam.sum()], lam))


def minimum_enclosing_ball(points: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Euclidean minimum enclosing ball: ``(center, radius, weights)``.

    Weights u on the simplex bound the radius below: no ball containing P is
    smaller than sqrt(Phi(u)), Phi(u) = sum_i u_i |p_i - u^T P|^2.  The
    away-step ascent on Phi (Yildirim 2008) starts at the first point.
    At each gap in ``_BALL_TOLS`` it tries an exact finish: the circumball of
    its support, then of the support with one point exchanged for the point
    farthest from that circumball's center.  The first that contains every
    point, with a center of non-negative barycentric weights, is the minimum
    ball, and those weights certify it.  Past the last gap the iterate
    itself is returned.  The radius is measured from the returned center.
    """
    P = np.atleast_2d(np.asarray(points, dtype=float))

    def scores(u):
        g = np.sum((P - u @ P) ** 2, axis=1)
        return g, float(u @ g)

    def steps(gj, gk, phi):
        return (gj - phi) / (2.0 * gj), (phi - gk) / (2.0 * gk) if gk > 0 else math.inf

    u = np.zeros(len(P))
    u[0] = 1.0
    for tol in _BALL_TOLS:
        trials = [np.flatnonzero(_away_step_simplex(u, scores, steps, tol)[0])]
        for S in trials:
            c, r, w = _ball_of_boundary(P[S])
            dist = np.linalg.norm(P - c, axis=1)
            if w.min() >= -1e-12 and dist.max() <= r * (1.0 + 1e-12):
                u = np.zeros(len(P))
                u[S] = np.maximum(w, 0.0)
                return c, float(dist.max()), u
            if len(trials) == 1:  # the support failed: queue its exchanges
                far = int(np.argmax(dist))
                trials += [np.union1d(np.delete(S, i), far) for i in range(len(S))]
    c = u @ P
    return c, float(np.linalg.norm(P - c, axis=1).max()), u


def _dual_radius(P: np.ndarray, w: np.ndarray) -> float:
    """sqrt(Phi(w)) less a rounding margin, for any weights w >= 0: no ball
    containing the rows of P has a smaller radius."""
    (m, d), eps = P.shape, np.finfo(float).eps
    w = w / w.sum()
    phi = float(w @ np.sum((P - w @ P) ** 2, axis=1))
    # the sums' relative error, and the rounded center w^T P, which only raises phi
    return math.sqrt(max(0.0, phi * (1 - 4 * (m + d) * eps) - d * (m * eps * np.abs(P).max()) ** 2))


def _pnorm_center(P: np.ndarray, norm: NormSpec) -> np.ndarray:
    """A center of least largest l_p distance to the rows of P, p != 2, in
    their bounding box (clipping to it moves no point farther).  l1: the LP
    min t subject to s^T (p_i - c) <= t over the sign vectors s, cut on the
    residual signs of every row farther than t until no new cut appears.
    1 < p < inf: SLSQP on the epigraph, whose constraint gradients are the
    residuals' dual vectors.  Both start at the coordinate midranges and run
    on P over its largest entry, so their tolerances are relative."""
    # imported here, as cdist is: scipy.optimize costs 0.6 s to import
    from scipy.optimize import linprog, minimize

    scale = float(np.abs(P).max()) or 1.0
    F = P / scale
    m, d = F.shape
    lo, hi = F.min(axis=0), F.max(axis=0)
    box, c = list(zip(lo, hi)) + [(None, None)], 0.5 * (lo + hi)
    if norm.p == 1.0:
        cuts, far = {}, np.arange(m)
        while True:
            new = {(i, s.tobytes()): (s, F[i] @ s) for i, s in zip(far, norm.dual(F[far] - c))}
            if new.keys() <= cuts.keys():
                return c * scale
            cuts.update(new)
            S, b = map(np.array, zip(*cuts.values()))
            # s^T (f_i - c) <= t as -s^T c - t <= -s^T f_i; HiGHS's default
            # feasibility tolerance of 1e-7 lets t fall below the optimum
            res = linprog(np.r_[np.zeros(d), 1.0], A_ub=np.hstack([-S, -np.ones((len(S), 1))]),
                          b_ub=-b, bounds=box, method="highs",
                          options={"primal_feasibility_tolerance": 1e-10,
                                   "dual_feasibility_tolerance": 1e-10})
            if not res.success:
                raise RuntimeError(f"l1 center LP failed: {res.message}")
            c, t = res.x[:d], res.x[d]
            far = np.flatnonzero(norm.norm(F - c) > t)
    res = minimize(lambda x: x[d], np.r_[c, np.max(norm.norm(F - c))],
                   jac=lambda x: np.r_[np.zeros(d), 1.0], method="SLSQP", bounds=box,
                   constraints={"type": "ineq", "fun": lambda x: x[d] - norm.norm(F - x[:d]),
                                "jac": lambda x: np.hstack([norm.dual(F - x[:d]), np.ones((m, 1))])},
                   options={"ftol": 1e-15})
    return res.x[:d] * scale


# rows of a distance matrix taken at once where every distance is read
# without keeping the matrix: O(_DIAMETER_BLOCK * m) memory
_DIAMETER_BLOCK = 256


def _diameter(pts: np.ndarray, norm: NormSpec) -> float:
    """Largest distance between rows of pts, over blocks of _DIAMETER_BLOCK
    rows of the distance matrix."""
    return max(float(np.max(norm.pairwise(pts[s:s + _DIAMETER_BLOCK], pts)))
               for s in range(0, len(pts), _DIAMETER_BLOCK))


def chebyshev_radius(K: CompactSetModel) -> Bracket:
    """Radius of the smallest enclosing ball, center ranging over the ambient space.

    Exact for euclidean clouds and for the max norm, where it is half the
    largest coordinate range (the center sits at the coordinate midranges).
    l_p clouds pair the half-diameter (``_diameter``) with the radius
    measured from the center of a convex solve (``_pnorm_center``); like the
    euclidean sides, they make an exact bracket when they agree (``Bracket``).
    """
    K = K.as_cloud()
    pts = K.points
    if pts.shape[0] == 1:
        return Bracket.exactly(0.0, "single-point")
    if K.norm.is_euclidean:
        _, upper, w = minimum_enclosing_ball(pts)
        lower = _dual_radius(pts, w)
        return Bracket(lower, upper, lower_method="simplex-dual", upper_method="enclosing-center")
    if K.norm.kind == "max":
        r = float(np.ptp(pts, axis=0).max()) / 2
        return Bracket(r, r, lower_method="half-diameter", upper_method="midrange-center")
    lower = 0.5 * _diameter(pts, K.norm)
    upper = max(float(np.max(K.norm.norm(pts - _pnorm_center(pts, K.norm)))), lower)
    return Bracket(lower, upper, lower_method="half-diameter", upper_method="convex-center")
