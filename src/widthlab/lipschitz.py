"""Explicit Lipschitz mappings whose images approximate a compact set.

One map type, ``LipschitzMapSpec``: (x, y), x in the euclidean unit ball
B_2(R^n) and y in a cube, normed by the max of the factor norms, goes to
coef * w_j(y) * A_j x, with j the cell of y and w a partition of unity over
N charts A_j: N hats of slope N on one interval coordinate, or 2^ell bumps
of slope 2 on the unit subcubes of [-1,1]^ell, ell = ceil(log2 N), the
charts zero-padded to 2^ell.  The claimed Lipschitz constant is
coef * M * (slope + 1), M bounding the chart norms.  Euclidean isometry
charts give phi and psi (coef 1, M 1: N+1 and 3); other ambient norms take
John-ellipsoid charts scaled by M (sqrt(n), or n^|1/2-1/p| for l_p), and
coef 2 reaches approximants of norm up to 2: theta and xi (2M(N+1), 6M).

The map's Lipschitz constant is coef * (slope + 1) * max_j ||A_j||, charts
normed from B_2 into the ambient ball, and pairs at the weight peaks attain
it: `estimate_lipschitz` reads one per chart (`_peak_pairs`).

The fixed width of a map, the largest distance from a set point to its
image, is read at chart anchors: the nearest point of each chart's span in
the ambient norm, pulled radially into the domain ball.  It is exact on
euclidean isometry charts, wherever no pull is needed, and on the max-norm
John charts of a set of sup-norm at most 1; otherwise an upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .spaces import CompactSetModel, NormSpec, _away_step_simplex, _symmetric_facets
from .widths import _nearest_coords

__all__ = [
    "HatSystem",
    "CubeBumpSystem",
    "JohnMap",
    "LipschitzMapSpec",
    "john_ellipsoid",
    "build_phi",
    "build_psi",
    "build_theta_xi",
    "estimate_lipschitz",
    "fixed_width_upper",
]


# ---------------------------------------------------------------------------
# partition-of-unity systems: on the rows x extra_dim block y, locate(y) is
# each row's cell j and value(j, y) its weight, which has Lipschitz constant
# slope in the max norm and is one at peak(j)


@dataclass(frozen=True)
class HatSystem:
    """N piecewise-linear hats on [-1,1]: hat j peaks at the center of
    [a_j, a_{j+1}], a_j = 2j/N - 1, vanishes at every breakpoint, slope N.
    A flat y is read as the one-column block."""

    N: int
    extra_dim = 1

    @property
    def slope(self) -> float:
        return float(self.N)

    @property
    def centers(self) -> np.ndarray:
        return (2.0 * np.arange(self.N) + 1.0) / self.N - 1.0

    def locate(self, y: np.ndarray) -> np.ndarray:
        t = np.asarray(y, dtype=float).reshape(-1)
        return np.clip(np.floor((t + 1.0) * self.N / 2.0).astype(int), 0, self.N - 1)

    def value(self, j: np.ndarray, y: np.ndarray) -> np.ndarray:
        t = np.asarray(y, dtype=float).reshape(-1)
        return np.maximum(0.0, 1.0 - self.N * np.abs(t - self.centers[j]))

    def peak(self, j: int) -> np.ndarray:
        return self.centers[j : j + 1]


@dataclass(frozen=True)
class CubeBumpSystem:
    """2^ell bumps, one per unit subcube of [-1,1]^ell; bump j is
    2*(1/2 - ||c_j - y||_inf)_+ with c_j the cube center (bit pattern of j),
    slope 2."""

    ell: int
    slope = 2.0

    @property
    def extra_dim(self) -> int:
        return self.ell

    @property
    def count(self) -> int:
        return 1 << self.ell

    @property
    def centers(self) -> np.ndarray:
        idx = np.arange(self.count)
        bits = (idx[:, None] >> np.arange(self.ell)[None, :]) & 1
        return np.where(bits == 1, 0.5, -0.5)

    def locate(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        bits = (y >= 0.0).astype(int)
        return (bits << np.arange(self.ell)[None, :]).sum(axis=1)

    def value(self, j: np.ndarray, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        c = self.centers[j]
        return 2.0 * np.maximum(0.0, 0.5 - np.max(np.abs(c - y), axis=1))

    def peak(self, j: int) -> np.ndarray:
        return self.centers[j]


# ---------------------------------------------------------------------------
# John ellipsoids


@dataclass(frozen=True)
class JohnMap:
    """Linear map with phi(B_2) inside the target ball and the ball inside
    factor * phi(B_2)."""

    matrix: np.ndarray  # n x n
    factor: float
    gap: float
    iterations: int
    converged: bool
    ball_kind: str
    ball_data: object = None

    def gauge(self, x: np.ndarray) -> float:
        """Minkowski gauge of the target ball at x."""
        x = np.asarray(x, dtype=float)
        if self.ball_kind in ("euclidean", "max", "pnorm"):
            return NormSpec(self.ball_kind, len(x), self.ball_data).norm(x)
        if self.ball_kind == "facets":
            return float(np.max(np.abs(self.ball_data @ x)))
        if self.ball_kind == "vertices":
            return float(np.max(self._vertex_facets @ x))
        raise ValueError(f"unknown ball kind {self.ball_kind}")

    @cached_property
    def _vertex_facets(self) -> np.ndarray:
        """Rows a_j / b_j for the facets a_j . x <= b_j of conv(+-V), so that
        the gauge is max_j a_j . x / b_j; computed once per map.

        The facet count grows quickly with the vertex count in high
        dimension.  Random +-V in d = 8 gave 256 facets from 8 vertices
        (1 ms), 5,246 from 19 (24 ms) and 30,328 from 40 (0.4 s); in d = 4,
        152 facets from 40 vertices.  john_ellipsoid caps d at 8, not the
        vertex count, so far larger vertex lists cost accordingly."""
        if (G := _symmetric_facets(self.ball_data)) is None:
            raise ValueError("conv(+-V) has no complete facet list: the vertices are (nearly) flat")
        return G


def _maxdet_weights(Q: np.ndarray, tol: float):
    """Max det M s.t. q_i^T M q_i <= 1, by Khachiyan's ascent with away steps
    (Todd and Yildirim 2007) on the weights u of V(u) = sum_i u_i q_i q_i^T.

    The scores are kappa_i = q_i^T V(u)^-1 q_i, whose u-weighted mean is n.
    The optimality gap reported is max_i q_i^T M q_i - 1 at M = (n V(u))^-1.
    """
    m, n = Q.shape

    def scores(u):
        return np.einsum("ij,ij->i", Q @ np.linalg.inv(Q.T @ (u[:, None] * Q)), Q), n

    def steps(kj, kk, n):
        # an away vertex with kappa <= 1 gets the drop step; the line-search
        # formula is negative there
        return (kj - n) / (n * (kj - 1.0)), (n - kk) / (n * (kk - 1.0)) if kk > 1.0 else math.inf

    u, it, conv = _away_step_simplex(np.full(m, 1.0 / m), scores, steps, tol)
    M = np.linalg.inv(n * (Q.T @ (u[:, None] * Q)))
    M = 0.5 * (M + M.T)
    # the u-weighted mean of q_i^T M q_i is 1, so the gap is >= 0 up to rounding
    gap = max(0.0, float(np.max(np.einsum("ij,ij->i", Q @ M, Q)) - 1.0))
    return M, gap, it, conv


def _sqrtm_psd(M: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(M)
    return (V * np.sqrt(np.maximum(w, 0.0))) @ V.T


def john_ellipsoid(ball, dim: int | None = None, tol: float = 5e-9) -> JohnMap:
    """Maximum-volume inscribed ellipsoid map for a symmetric convex body.

    ball: "euclidean" | "max" | ("p", p) | ("vertices", V) | ("facets", A).
    Norm balls use the l_p closed form; euclidean is p = 2 and max is
    p = inf, both giving the unit ball, and ("p", inf) is the max ball.
    Polytopes run the away-step Khachiyan ascent on their vertex (or
    facet-normal) list until its gap is at most ``tol``, for at most
    ``spaces._SIMPLEX_MAX_ITER`` iterations; ``converged`` says which.
    """
    if isinstance(ball, str):
        kind, data = ball, None
    else:
        kind, data = ball[0], ball[1]
    if kind in ("euclidean", "max", "p"):
        if dim is None:
            raise ValueError("dim required for norm-ball inputs")
        p = {"euclidean": 2.0, "max": math.inf}.get(kind) or float(data)
        if p < 1:
            raise ValueError("p must be >= 1")
        r = min(1.0, float(dim) ** (0.5 - 1.0 / p))
        kind = "max" if p == math.inf else "pnorm" if kind == "p" else kind
        return JohnMap(r * np.eye(dim), float(dim) ** abs(0.5 - 1.0 / p), 0.0, 0, True, kind,
                       p if kind == "pnorm" else None)
    if kind not in ("vertices", "facets"):
        raise ValueError(f"unknown ball spec {ball!r}")
    arr = np.atleast_2d(np.asarray(data, dtype=float))
    n = arr.shape[1]
    if n > 8 or (dim is not None and dim > 8):
        raise ValueError("polytope path supports dimension <= 8")
    if np.linalg.matrix_rank(arr) < n:
        raise ValueError("polytope input does not span the space")
    M, gap, it, conv = _maxdet_weights(arr, tol)
    # for vertices M is the enclosing-ellipsoid shape; the inscribed map
    # shrinks it by sqrt(n)
    phi = _sqrtm_psd(M) if kind == "facets" else _sqrtm_psd(np.linalg.inv(M)) / math.sqrt(n)
    return JohnMap(phi, math.sqrt(n), gap, it, conv, kind, arr)


def john_sandwich_sampled(jm: JohnMap, samples: int = 1000, seed: int = 0):
    """Sampled verification of phi(B_2) inside the ball inside factor*phi(B_2).

    Returns (worst inner gauge, worst polar ratio / factor); both should be
    at most 1 up to tolerance.
    """
    n = jm.matrix.shape[0]
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(samples, n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    inner = max(jm.gauge(jm.matrix @ u) for u in U)
    inv = np.linalg.inv(jm.matrix)
    worst_polar = 0.0
    for u in U:
        g = jm.gauge(u)
        if not math.isfinite(g) or g <= 0:
            continue
        v = u / g  # boundary point of the ball
        worst_polar = max(worst_polar, float(np.linalg.norm(inv @ v)))
    return float(inner), worst_polar / jm.factor


# ---------------------------------------------------------------------------
# map specifications


@dataclass(frozen=True)
class LipschitzMapSpec:
    """A concrete Lipschitz map from a product domain ball into R^d.

    Evaluation: coef * w_j(y) * (charts[j] @ x), where x is the first n
    coordinates of a domain point, y the weights' extra-coordinate block and
    j = weights.locate(y).  ``gamma`` is the claimed Lipschitz constant,
    coef * M * (weights.slope + 1) as built (M bounds the chart norms), and
    |t| times that after ``scaled(t)``.
    """

    n: int
    charts: tuple[np.ndarray, ...]
    weights: HatSystem | CubeBumpSystem
    ambient: NormSpec
    gamma: float
    coef: float

    @property
    def domain_dim(self) -> int:
        return self.n + self.weights.extra_dim

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if z.shape[1] != self.domain_dim:
            raise ValueError(
                f"domain point has dimension {z.shape[1]}, expected {self.domain_dim}"
            )
        x, y = z[:, : self.n], z[:, self.n:]
        d = self.charts[0].shape[0]
        out = np.zeros((z.shape[0], d))
        j = self.weights.locate(y)
        w = self.weights.value(j, y)
        for jj in np.unique(j):
            mask = j == jj
            A = self.charts[jj]
            out[mask] = w[mask, None] * (x[mask] @ A.T)
        return out * self.coef

    def anchor(self, f: np.ndarray, j: int) -> np.ndarray:
        """Domain point whose image is the chart-j anchor of f (see
        ``_anchors``)."""
        return self._anchors(np.asarray(f, dtype=float)[None, :], j)[0]

    def _anchors(self, F: np.ndarray, j: int) -> np.ndarray:
        """Domain points, one per row of F, at chart j's peak: the
        coordinates of the nearest point of span(coef * A_j) in the ambient
        norm (least squares for the euclidean norm, one
        ``widths._nearest_coords`` solve for all rows otherwise), pulled
        radially into the unit ball.
        The anchor's image is the nearest point of c * A_j(B_2), c = coef,
        when no pull is needed, and on euclidean isometry charts, where
        |f - cUy|^2 = |f - UU^T f|^2 + |U^T f - cy|^2."""
        F = np.asarray(F, dtype=float)
        d = self.charts[j].shape[0]
        if F.shape[1] != d:
            raise ValueError(f"set points have dimension {F.shape[1]}, "
                             f"the map's image has dimension {d}")
        A = self.charts[j] * self.coef
        if not np.any(np.abs(A) > 0):
            X = np.zeros((len(F), self.n))
        elif self.ambient.is_euclidean:
            X = np.array([np.linalg.lstsq(A, f, rcond=None)[0] for f in F])
        else:
            X = _nearest_coords(F, A, self.ambient)
        for x in X:
            nx = float(np.linalg.norm(x))
            if nx > 1.0:
                x /= nx
        return np.hstack([X, np.tile(self.weights.peak(j), (len(F), 1))])

    def scaled(self, t: float) -> "LipschitzMapSpec":
        """Output dilation by t (the claimed constant scales with |t|)."""
        return replace(self, coef=self.coef * t, gamma=self.gamma * abs(t))


def _hat_and_bump_maps(charts, ambient: NormSpec, coef: float, M: float):
    """The hat map over the N charts and the cube-bump map over them
    zero-padded to 2^ell, ell = max(1, ceil(log2 N)); each claims the
    constant coef * M * (slope + 1)."""
    d, n = charts[0].shape
    N = len(charts)
    ell = max(1, math.ceil(math.log2(N)))
    padded = (*charts, *[np.zeros((d, n))] * ((1 << ell) - N))
    return tuple(LipschitzMapSpec(n, cs, w, ambient, coef * M * (w.slope + 1.0), coef)
                 for cs, w in ((tuple(charts), HatSystem(N)), (padded, CubeBumpSystem(ell))))


def _check_charts(bases, ambient: NormSpec | None):
    bases = [np.asarray(B, dtype=float) for B in bases]
    if not bases:
        raise ValueError("empty subspace family")
    d, n = bases[0].shape
    for B in bases:
        if B.shape != (d, n):
            raise ValueError("charts must share a common shape")
        if np.max(np.abs(B.T @ B - np.eye(n))) > 1e-10:
            raise ValueError("non-orthonormal chart")
    if ambient is not None and ambient.dim != d:
        raise ValueError("ambient dimension mismatch")
    return bases


def _isometry_maps(bases, ambient: NormSpec | None):
    """The hat and cube-bump maps over isometry charts (coef 1, M 1)."""
    bases = _check_charts(bases, ambient)
    ambient = ambient or NormSpec("euclidean", bases[0].shape[0])
    if not ambient.is_euclidean:
        raise ValueError("isometry charts need a euclidean ambient norm")
    return _hat_and_bump_maps(bases, ambient, 1.0, 1.0)


def build_phi(bases, ambient: NormSpec | None = None) -> LipschitzMapSpec:
    """Hat-system map over isometry charts (euclidean ambient); claimed
    constant N+1."""
    return _isometry_maps(bases, ambient)[0]


def build_psi(bases, ambient: NormSpec | None = None) -> LipschitzMapSpec:
    """Cube-bump map over isometry charts, zero-padded to 2^ell charts;
    claimed constant 3 independent of the family size."""
    return _isometry_maps(bases, ambient)[1]


def _john_charts(bases, ambient: NormSpec):
    """John-ellipsoid chart matrices M * U_j phi_j for a non-euclidean ambient."""
    n = bases[0].shape[1]
    M = math.sqrt(n) if ambient.kind == "max" else float(n) ** abs(0.5 - 1.0 / ambient.p)
    charts = []
    for U in bases:
        if ambient.kind == "max":
            phi = john_ellipsoid(("facets", U), tol=1e-10).matrix
        else:
            # supporting-hyperplane discretization of {c : ||U c||_p <= 1}
            # by 8192 sampled directions
            rng = np.random.default_rng(0)
            V = rng.normal(size=(8192, n))
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            A = ambient.dual(V @ U.T) @ U
            phi = john_ellipsoid(("facets", A), tol=1e-10).matrix
            # shrink until the sampled gauge is inside the true ball
            img = V @ (U @ phi).T
            worst = float(np.max(ambient.norm(img.reshape(-1, U.shape[0]))))
            if worst > 1.0:
                phi = phi / (worst * (1 + 1e-12))
        charts.append(U @ (M * phi))
    return charts, M


def build_theta_xi(bases, ambient: NormSpec):
    """Hat and cube-bump maps over John-ellipsoid charts for a general norm
    (isometry charts, M = 1, for a euclidean one); claimed constants
    2M(N+1) and 6M, the dilation by 2 reaching approximants of norm up to
    twice the set bound.
    """
    bases = _check_charts(bases, ambient)
    if ambient.is_euclidean:
        charts, M = [U.copy() for U in bases], 1.0
    else:
        charts, M = _john_charts(bases, ambient)
    return _hat_and_bump_maps(charts, ambient, 2.0, M)


# ---------------------------------------------------------------------------
# Lipschitz constants from peak pairs

# the weight step h of a peak pair, whose ratio falls short of
# coef * (slope + 1) * ||A_j u_j|| by the factor 1 - slope * h / (slope + 1)
_PEAK_STEP = 2.0 ** -22


def _sample_ball(rng, count: int, n: int) -> np.ndarray:
    g = rng.normal(size=(count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.uniform(size=(count, 1)) ** (1.0 / n)
    return g * r


def _sample_domain(spec: LipschitzMapSpec, rng, count: int) -> np.ndarray:
    x = _sample_ball(rng, count, spec.n)
    y = rng.uniform(-1.0, 1.0, size=(count, spec.weights.extra_dim))
    return np.hstack([x, y])


def _peak_pairs(spec: LipschitzMapSpec) -> tuple[list, list]:
    """One domain pair per nonzero chart j, h = _PEAK_STEP apart: (u, p_j)
    and ((1 - h) u, p_j + h e_1) at the weight peak p_j, whose ratio is
    coef * ((slope + 1) - slope * h) * ||A_j u||.  u is a unit vector that
    A_j stretches most: its largest row for the max norm (exact), else its
    top right singular vector (exact for euclidean, a lower bound for l_p)."""
    h = _PEAK_STEP
    e1 = np.eye(spec.weights.extra_dim)[0]
    U, V = [], []
    for j, A in enumerate(spec.charts):
        if not np.any(A):
            continue
        if spec.ambient.kind == "max":
            u = A[np.argmax(np.linalg.norm(A, axis=1))]
            u = u / np.linalg.norm(u)
        else:
            u = np.linalg.svd(A)[2][0]
        U.append(np.r_[u, spec.weights.peak(j)])
        V.append(np.r_[(1.0 - h) * u, spec.weights.peak(j) + h * e1])
    return U, V


def estimate_lipschitz(spec: LipschitzMapSpec, pairs: int = 100_000, seed: int = 0) -> float:
    """Largest ratio ||F(u)-F(v)|| / ||u-v|| over the peak pairs
    (`_peak_pairs`) and ``pairs`` uniform domain pairs: a lower bound on the
    map's constant coef * (slope + 1) * max_j ||A_j||, and within a factor
    1 - 2^-22 of it wherever the peak pairs find each ||A_j||."""
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    rng = np.random.default_rng(seed)
    peak_u, peak_v = _peak_pairs(spec)
    U = np.vstack([*peak_u, _sample_domain(spec, rng, pairs)])
    V = np.vstack([*peak_v, _sample_domain(spec, rng, pairs)])
    dom = np.maximum(
        np.linalg.norm(U[:, : spec.n] - V[:, : spec.n], axis=1),
        np.max(np.abs(U[:, spec.n:] - V[:, spec.n:]), axis=1),
    )
    ok = dom > 1e-15
    FU = spec.evaluate(U[ok])
    FV = spec.evaluate(V[ok])
    num = np.asarray(spec.ambient.norm(FU - FV), dtype=float).reshape(-1)
    return float(np.max(num / dom[ok])) if np.any(ok) else 0.0


# ---------------------------------------------------------------------------
# fixed widths


def fixed_width_upper(K: CompactSetModel, spec: LipschitzMapSpec) -> float:
    """The largest, over set points f, of the least distance from f to a
    chart anchor's image (``LipschitzMapSpec._anchors``), in the ambient norm.

    Each hat or bump weight sweeps [0, 1], so the map's image is the union
    over charts j of coef * A_j(B_2), and a point's distance to it is the
    least over charts of its distance to one of them.
    The value is the fixed width of the map when every anchor is the nearest
    point of its chart's image: on euclidean isometry charts, on any chart
    whose anchor needs no radial pull, and on the max-norm John charts of a
    set of sup-norm at most 1 (John's theorem puts every nearest point of
    the span inside the image).  Otherwise it is an upper bound on it."""
    F = K.points
    best = np.full(len(F), math.inf)
    for j in range(len(spec.charts)):
        for i, z in enumerate(spec._anchors(F, j)):
            best[i] = min(best[i], float(spec.ambient.norm(F[i] - spec.evaluate(z)[0])))
    return float(np.max(best, initial=0.0))
