"""Normed-space models, finite point-set containers, and elementary exact geometry.

Everything downstream (covering numbers, widths, Lipschitz maps) works on two
set models: an explicit finite point cloud in a normed R^d, or the analytic
sequence family ``{s_j e_j} U {0}`` with s_j = 1/[log2 log2 (j+3)]^alpha,
truncated at a caller-chosen index J.  All operations here are pure functions
on immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist

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
    """A norm on R^dim: euclidean, an l_p norm with 1 < p < inf, or max-norm."""

    kind: str  # "euclidean" | "pnorm" | "max"
    dim: int
    p: float | None = None

    def __post_init__(self):
        if self.kind not in ("euclidean", "pnorm", "max"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == "pnorm":
            if self.p is None or not (self.p >= 1.0):
                raise ValueError("pnorm requires exponent p >= 1")

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
        else:
            v = np.sum(np.abs(x) ** self.p, axis=-1) ** (1.0 / self.p)
        return v if x.ndim > 1 else float(v)

    def dist(self, x: np.ndarray, y: np.ndarray) -> float:
        return self.norm(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))

    def pairwise(self, pts: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
        """Distance matrix between rows of pts (and other, if given)."""
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


# ---------------------------------------------------------------------------
# certified brackets


@dataclass(frozen=True)
class Bracket:
    """A certified [lower, upper] interval for a nonnegative quantity.

    ``exact`` asserts the two sides agree to 1e-9 relative; the method tags
    record how each side was certified.
    """

    lower: float
    upper: float
    exact: bool = False
    lower_method: str = ""
    upper_method: str = ""

    def __post_init__(self):
        if self.lower < 0 and self.lower > -1e-12:
            object.__setattr__(self, "lower", 0.0)
        if self.lower < 0 or self.upper < 0:
            raise ValueError("bracket sides must be nonnegative")
        if self.lower > self.upper + 1e-12 * max(1.0, self.upper):
            raise ValueError(f"inverted bracket [{self.lower}, {self.upper}]")
        if self.exact and self.upper - self.lower > 1e-9 * max(1.0, self.upper):
            raise ValueError("exact bracket wider than 1e-9 relative")

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
        return Bracket(value, value, exact=True, lower_method=method, upper_method=method)


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
        c, _ = minimum_enclosing_ball(self.as_cloud().points)
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
# minimum enclosing ball (exact, euclidean)


def _ball_of_boundary(R: list[np.ndarray]) -> tuple[np.ndarray, float]:
    """Smallest ball with all points of R on its boundary (affine-hull circumball)."""
    if not R:
        return np.zeros(0), -1.0
    a0 = R[0]
    if len(R) == 1:
        return a0.copy(), 0.0
    A = np.array([r - a0 for r in R[1:]])
    b = 0.5 * np.einsum("ij,ij->i", A, A)
    # center = a0 + A^T lam with A A^T lam = b (least squares handles degeneracy)
    lam, *_ = np.linalg.lstsq(A @ A.T, b, rcond=None)
    c = a0 + A.T @ lam
    return c, float(np.linalg.norm(c - a0))


def minimum_enclosing_ball(points: np.ndarray, seed: int = 0) -> tuple[np.ndarray, float]:
    """Exact euclidean minimum enclosing ball (Welzl, move-to-front).

    Deterministic: the insertion order is a fixed seeded shuffle.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    m, d = pts.shape
    order = np.random.default_rng(seed).permutation(m)
    pts = [pts[i] for i in order]

    def mtf(P: list[np.ndarray], R: list[np.ndarray]) -> tuple[np.ndarray, float]:
        if not P or len(R) == d + 1:
            return _ball_of_boundary(R)
        c, r = mtf(P[1:], R)
        p = P[0]
        if r >= 0 and np.linalg.norm(p - c) <= r * (1 + 1e-12) + 1e-14:
            return c, r
        return mtf(P[1:], R + [p])

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 4 * m + 100))
    try:
        c, r = mtf(pts, [])
    finally:
        sys.setrecursionlimit(old)
    # tighten radius to the realized maximum (guards fp drift in the recursion)
    r = float(np.max(np.linalg.norm(np.asarray(points, dtype=float) - c, axis=1)))
    return c, r


def _chebyshev_descent(pts: np.ndarray, norm: NormSpec, sweeps: int = 200) -> tuple[np.ndarray, float]:
    """Coordinate-descent minimax center for non-euclidean norms (upper bound)."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    c = 0.5 * (lo + hi)

    def radius(center):
        return float(np.max(norm.norm(pts - center)))

    best = radius(c)
    for _ in range(sweeps):
        improved = 0.0
        for k in range(pts.shape[1]):
            a, b = lo[k] - best, hi[k] + best
            # ternary search on the convex 1-d slice
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
    return c, best


def chebyshev_radius(K: CompactSetModel) -> Bracket:
    """Radius of the smallest enclosing ball, center ranging over the ambient space.

    Exact for euclidean clouds and for the max norm, where it is half the
    largest coordinate range (the center sits at the coordinate midranges);
    other norms get a descent upper bound paired with the half-diameter lower
    bound.
    """
    K = K.as_cloud()
    if K.kind != "cloud":
        raise ValueError("chebyshev_radius requires a cloud model")
    pts = K.points
    if pts.shape[0] == 1:
        return Bracket.exactly(0.0, "single-point")
    if K.norm.is_euclidean:
        _, r = minimum_enclosing_ball(pts)
        return Bracket(r, r, exact=True, lower_method="meb-welzl", upper_method="meb-welzl")
    if K.norm.kind == "max":
        r = float(np.ptp(pts, axis=0).max()) / 2
        return Bracket(r, r, exact=True,
                       lower_method="half-diameter", upper_method="midrange-center")
    _, upper = _chebyshev_descent(pts, K.norm)
    lower = 0.5 * float(np.max(K.norm.pairwise(pts)))
    upper = max(upper, lower)
    return Bracket(lower, upper, exact=False,
                   lower_method="half-diameter", upper_method="coord-descent")
