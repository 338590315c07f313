"""Explicit Lipschitz mappings whose images approximate a compact set.

Two domain geometries are used, both products with the euclidean unit ball
B_2(R^n) and normed by the max of the factor norms:

* hat maps: one extra interval coordinate carrying N piecewise-linear hats
  of slope N (one per subinterval of [-1,1]); claimed constant N+1;
* cube-bump maps: ell = ceil(log2 N) extra coordinates carrying 2^ell
  bump functions of slope 2 on the unit subcubes of [-1,1]^ell; claimed
  constant 3 independent of N.

For non-euclidean ambient norms the isometry charts are replaced by
John-ellipsoid charts scaled by M (sqrt(n), or n^|1/2-1/p| for l_p), the
output dilated by 2 to reach approximants of norm up to 2; claimed
constants 2M(N+1) and 6M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .spaces import CompactSetModel, NormSpec, _away_step_simplex

__all__ = [
    "HatSystem",
    "CubeBumpSystem",
    "IsometryChart",
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
# partition-of-unity systems


@dataclass(frozen=True)
class HatSystem:
    """N piecewise-linear hats on [-1,1]: hat j peaks at the center of
    [a_j, a_{j+1}], a_j = 2j/N - 1, vanishes at every breakpoint, slope N."""

    N: int

    @property
    def breakpoints(self) -> np.ndarray:
        return 2.0 * np.arange(self.N + 1) / self.N - 1.0

    @property
    def centers(self) -> np.ndarray:
        return (2.0 * np.arange(self.N) + 1.0) / self.N - 1.0

    def locate(self, t: np.ndarray) -> np.ndarray:
        j = np.floor((np.asarray(t) + 1.0) * self.N / 2.0).astype(int)
        return np.clip(j, 0, self.N - 1)

    def value(self, j: np.ndarray, t: np.ndarray) -> np.ndarray:
        c = self.centers[j]
        return np.maximum(0.0, 1.0 - self.N * np.abs(np.asarray(t) - c))


@dataclass(frozen=True)
class CubeBumpSystem:
    """2^ell bumps, one per unit subcube of [-1,1]^ell; bump j is
    2*(1/2 - ||c_j - y||_inf)_+ with c_j the cube center (bit pattern of j)."""

    ell: int

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


@dataclass(frozen=True)
class IsometryChart:
    """Coordinates -> subspace element through an orthonormal basis."""

    basis: np.ndarray  # d x n, orthonormal columns

    def map(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.basis.T


# ---------------------------------------------------------------------------
# John ellipsoids


@dataclass(frozen=True)
class JohnMap:
    """Linear map with phi(B_2) inside the target ball and the ball inside
    factor * phi(B_2)."""

    matrix: np.ndarray  # n x n
    factor: float
    shape: np.ndarray  # ellipsoid shape Q with phi(B_2) = {x: x^T Q x <= 1}
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
        V = self.ball_data
        if V.shape[1] == 1:
            return np.array([[1.0], [-1.0]]) / np.max(np.abs(V))
        from scipy.spatial import ConvexHull

        eq = ConvexHull(np.vstack([V, -V])).equations  # a_j . x + c_j <= 0
        return eq[:, :-1] / -eq[:, -1:]


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
    p = inf, both giving the unit ball.  Polytopes run the away-step
    Khachiyan ascent on their vertex (or facet-normal) list until its gap is
    at most ``tol``, for at most ``spaces._SIMPLEX_MAX_ITER`` iterations;
    ``converged`` says which.
    """
    if isinstance(ball, str):
        kind, data = ball, None
    else:
        kind, data = ball[0], ball[1]
    if kind in ("euclidean", "max", "p", "pnorm"):
        if dim is None:
            raise ValueError("dim required for norm-ball inputs")
        p = {"euclidean": 2.0, "max": math.inf}.get(kind) or float(data)
        if p < 1:
            raise ValueError("p must be >= 1")
        r = min(1.0, float(dim) ** (0.5 - 1.0 / p))
        kind = "pnorm" if kind == "p" else kind
        return JohnMap(r * np.eye(dim), float(dim) ** abs(0.5 - 1.0 / p), np.eye(dim) / r**2,
                       0.0, 0, True, kind, p if kind == "pnorm" else None)
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
    return JohnMap(phi, math.sqrt(n), np.linalg.inv(phi @ phi.T), gap, it, conv, kind, arr)


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

    Evaluation: scale * outer_coef * sum_j w_j(extra) * (chart_j @ x) with
    w_j the hat or bump weights.  ``gamma`` is the claimed Lipschitz
    constant of the scaled map.
    """

    kind: str  # "phi" | "psi" | "theta" | "xi"
    n: int
    charts: tuple[np.ndarray, ...]
    hats: HatSystem | None
    bumps: CubeBumpSystem | None
    ambient: NormSpec
    gamma: float
    outer_coef: float = 1.0
    scale: float = 1.0
    chart_factor: float = 1.0  # M in the claimed constants

    @property
    def extra_dim(self) -> int:
        return 1 if self.hats is not None else self.bumps.ell

    @property
    def domain_dim(self) -> int:
        return self.n + self.extra_dim

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=float))
        if z.shape[1] != self.domain_dim:
            raise ValueError(
                f"domain point has dimension {z.shape[1]}, expected {self.domain_dim}"
            )
        x, y = z[:, : self.n], z[:, self.n:]
        d = self.charts[0].shape[0]
        out = np.zeros((z.shape[0], d))
        if self.hats is not None:
            j = self.hats.locate(y[:, 0])
            w = self.hats.value(j, y[:, 0])
        else:
            j = self.bumps.locate(y)
            w = self.bumps.value(j, y)
        for jj in np.unique(j):
            mask = j == jj
            A = self.charts[jj]
            out[mask] = w[mask, None] * (x[mask] @ A.T)
        return out * (self.outer_coef * self.scale)

    def peak_coordinate(self, j: int) -> np.ndarray:
        """The extra-coordinate value where chart j has weight one."""
        if self.hats is not None:
            return np.array([self.hats.centers[j]])
        return self.bumps.centers[j]

    def anchor(self, f: np.ndarray, j: int) -> np.ndarray:
        """Domain point whose image is the chart-j approximant of f (clipped
        into the ball)."""
        f = np.asarray(f, dtype=float)
        A = self.charts[j] * (self.outer_coef * self.scale)
        if not np.any(np.abs(A) > 0):
            x = np.zeros(self.n)
        else:
            x, *_ = np.linalg.lstsq(A, f, rcond=None)
            nx = float(np.linalg.norm(x))
            if nx > 1.0:
                x = x / nx
        return np.concatenate([x, self.peak_coordinate(j)])

    def scaled(self, t: float) -> "LipschitzMapSpec":
        """Output dilation by t (the claimed constant scales with |t|)."""
        return replace(self, scale=self.scale * t, gamma=self.gamma * abs(t))


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
    return bases, d, n


def build_phi(bases, ambient: NormSpec | None = None) -> LipschitzMapSpec:
    """Hat-system map over isometry charts (euclidean ambient); claimed
    constant N+1."""
    bases, d, n = _check_charts(bases, ambient)
    ambient = ambient or NormSpec("euclidean", d)
    if not ambient.is_euclidean:
        raise ValueError("isometry charts need a euclidean ambient norm")
    N = len(bases)
    return LipschitzMapSpec(
        kind="phi", n=n, charts=tuple(bases), hats=HatSystem(N), bumps=None,
        ambient=ambient, gamma=float(N + 1),
    )


def build_psi(bases, ambient: NormSpec | None = None) -> LipschitzMapSpec:
    """Cube-bump map over isometry charts, zero-padded to 2^ell charts;
    claimed constant 3 independent of the family size."""
    bases, d, n = _check_charts(bases, ambient)
    ambient = ambient or NormSpec("euclidean", d)
    if not ambient.is_euclidean:
        raise ValueError("isometry charts need a euclidean ambient norm")
    N = len(bases)
    ell = max(1, math.ceil(math.log2(N)))
    padded = list(bases) + [np.zeros((d, n))] * ((1 << ell) - N)
    return LipschitzMapSpec(
        kind="psi", n=n, charts=tuple(padded), hats=None, bumps=CubeBumpSystem(ell),
        ambient=ambient, gamma=3.0,
    )


def _john_charts(bases, ambient: NormSpec, directions: int = 8192):
    """John-ellipsoid chart matrices M * U_j phi_j for a non-euclidean ambient."""
    d, n = bases[0].shape
    if ambient.kind == "max":
        M = math.sqrt(n)
    else:
        M = float(n) ** abs(0.5 - 1.0 / ambient.p)
    charts = []
    for U in bases:
        if ambient.kind == "max":
            phi = john_ellipsoid(("facets", U), tol=1e-10).matrix
        else:
            # supporting-hyperplane discretization of {c : ||U c||_p <= 1}
            rng = np.random.default_rng(0)
            V = rng.normal(size=(directions, n))
            V /= np.linalg.norm(V, axis=1, keepdims=True)
            Z = V @ U.T
            zn = np.asarray(ambient.norm(Z), dtype=float).reshape(-1)
            Zb = Z / zn[:, None]
            G = np.sign(Zb) * np.abs(Zb) ** (ambient.p - 1.0)
            A = G @ U
            phi = john_ellipsoid(("facets", A), tol=1e-10).matrix
            # shrink until the sampled gauge is inside the true ball
            img = V @ (U @ phi).T
            worst = float(np.max(ambient.norm(img.reshape(-1, U.shape[0]))))
            if worst > 1.0:
                phi = phi / (worst * (1 + 1e-12))
        charts.append(U @ (M * phi))
    return charts, M


def build_theta_xi(bases, ambient: NormSpec):
    """Hat and cube-bump maps over John-ellipsoid charts for a general norm;
    claimed constants 2M(N+1) and 6M, the dilation by 2 reaching approximants
    of norm up to twice the set bound.
    """
    bases, d, n = _check_charts(bases, ambient)
    if ambient.is_euclidean:
        charts, M = [U.copy() for U in bases], 1.0
    else:
        charts, M = _john_charts(bases, ambient)
    N = len(bases)
    theta = LipschitzMapSpec(
        kind="theta", n=n, charts=tuple(charts), hats=HatSystem(N), bumps=None,
        ambient=ambient, gamma=2.0 * M * (N + 1), outer_coef=2.0, chart_factor=M,
    )
    ell = max(1, math.ceil(math.log2(N)))
    padded = list(charts) + [np.zeros((d, n))] * ((1 << ell) - N)
    xi = LipschitzMapSpec(
        kind="xi", n=n, charts=tuple(padded), hats=None, bumps=CubeBumpSystem(ell),
        ambient=ambient, gamma=6.0 * M, outer_coef=2.0, chart_factor=M,
    )
    return theta, xi


# ---------------------------------------------------------------------------
# sampled Lipschitz constants


def _sample_ball(rng, count: int, n: int) -> np.ndarray:
    g = rng.normal(size=(count, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.uniform(size=(count, 1)) ** (1.0 / n)
    return g * r


def _sample_domain(spec: LipschitzMapSpec, rng, count: int) -> np.ndarray:
    x = _sample_ball(rng, count, spec.n)
    y = rng.uniform(-1.0, 1.0, size=(count, spec.extra_dim))
    return np.hstack([x, y])


def _adversarial_pairs(spec: LipschitzMapSpec, rng, per_site: int = 24):
    """Pairs hugging the slope regions: straddling each breakpoint / cube
    face within 1e-3, and same-side pairs inside the steep segments."""
    us, vs = [], []
    xs = _sample_ball(rng, per_site, spec.n)
    xs[0] = 0.0
    xs[0][0] = 1.0  # a unit-norm chart input realizes the full slope
    if spec.hats is not None:
        hs = spec.hats
        sites = np.concatenate([hs.breakpoints, hs.centers])
        for site in sites:
            d1 = rng.uniform(1e-6, 1e-3, size=per_site)
            d2 = rng.uniform(1e-6, 1e-3, size=per_site)
            t1 = np.clip(site - d1, -1.0, 1.0)
            t2 = np.clip(site + d2, -1.0, 1.0)
            us.append(np.column_stack([xs, t1]))
            vs.append(np.column_stack([xs, t2]))
        # same-side slope pairs inside each interval
        h = 1.0 / hs.N
        for j in range(hs.N):
            a = hs.breakpoints[j]
            t1 = a + 0.2 * h + rng.uniform(0, 0.1 * h, size=per_site)
            t2 = t1 + rng.uniform(0.1 * h, 0.3 * h, size=per_site)
            us.append(np.column_stack([xs, t1]))
            vs.append(np.column_stack([xs, np.minimum(t2, a + h)]))
    else:
        ell = spec.bumps.ell
        for k in range(ell):
            for plane in (-1.0, 0.0, 1.0):
                y = rng.uniform(-1.0, 1.0, size=(per_site, ell))
                y1, y2 = y.copy(), y.copy()
                y1[:, k] = np.clip(plane - rng.uniform(1e-6, 1e-3, per_site), -1, 1)
                y2[:, k] = np.clip(plane + rng.uniform(1e-6, 1e-3, per_site), -1, 1)
                us.append(np.hstack([xs, y1]))
                vs.append(np.hstack([xs, y2]))
        # radial pairs inside one cube: toward/away from the center
        centers = spec.bumps.centers
        for j in range(min(len(centers), 8)):
            c = centers[j]
            off = rng.uniform(-0.2, 0.2, size=(per_site, ell))
            us.append(np.hstack([xs, c + off]))
            vs.append(np.hstack([xs, c + off * rng.uniform(0.2, 0.8, size=(per_site, 1))]))
    return np.vstack(us), np.vstack(vs)


def estimate_lipschitz(spec: LipschitzMapSpec, pairs: int = 100_000, seed: int = 0) -> float:
    """Max sampled ratio ||F(u)-F(v)|| / ||u-v|| over uniform, local, and
    adversarial domain pairs; a lower estimate of the true constant."""
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    rng = np.random.default_rng(seed)
    ua, va = _adversarial_pairs(spec, rng)
    n_adv = len(ua)
    n_uni = max(pairs - n_adv, 16)
    u1 = _sample_domain(spec, rng, n_uni)
    v1 = _sample_domain(spec, rng, n_uni // 2)
    # local perturbations of the first half, fresh points for the rest
    pert = rng.normal(scale=1e-3, size=(n_uni - n_uni // 2, spec.domain_dim))
    v2 = u1[n_uni // 2:] + pert
    x, y = v2[:, : spec.n], v2[:, spec.n:]
    nx = np.linalg.norm(x, axis=1, keepdims=True)
    x = np.where(nx > 1.0, x / nx, x)
    v2 = np.hstack([x, np.clip(y, -1.0, 1.0)])
    U = np.vstack([ua, u1])
    V = np.vstack([va, np.vstack([v1, v2])])
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
# fixed-width upper bounds


def _coordinate_descent(spec: LipschitzMapSpec, f: np.ndarray, z0: np.ndarray,
                        line_searches: int = 200) -> tuple[float, np.ndarray]:
    z = z0.copy()

    def val(zz):
        return float(np.asarray(spec.ambient.norm(f - spec.evaluate(zz)[0])))

    best = val(z)
    used = 0
    n = spec.n
    while used < line_searches:
        improved = 0.0
        for k in range(spec.domain_dim):
            if used >= line_searches:
                break
            used += 1
            if k < n:
                others = float(np.sum(z[:n] ** 2) - z[k] ** 2)
                r = math.sqrt(max(0.0, 1.0 - others))
                a, b = -r, r
            else:
                a, b = -1.0, 1.0
            phi = (math.sqrt(5) - 1) / 2
            c1, c2 = b - phi * (b - a), a + phi * (b - a)
            zk = z[k]
            z[k] = c1
            f1 = val(z)
            z[k] = c2
            f2 = val(z)
            for _ in range(40):
                if f1 <= f2:
                    b, c2, f2 = c2, c1, f1
                    c1 = b - phi * (b - a)
                    z[k] = c1
                    f1 = val(z)
                else:
                    a, c1, f1 = c1, c2, f2
                    c2 = a + phi * (b - a)
                    z[k] = c2
                    f2 = val(z)
            z[k] = c1 if f1 <= f2 else c2
            cand = min(f1, f2)
            if cand < best - 1e-15:
                improved += best - cand
                best = cand
            else:
                z[k] = zk
        if improved < 1e-12:
            break
    return best, z


def fixed_width_upper(K: CompactSetModel, spec: LipschitzMapSpec,
                      line_searches: int = 200) -> float:
    """sup over set points of the (locally optimized) distance to the map
    image: chart-anchor warm starts plus coordinate descent in the domain
    ball.  An upper bound on the fixed-width of the map."""
    cloud = K.as_cloud()
    worst = 0.0
    for f in cloud.points:
        best_val, best_z = math.inf, None
        for j in range(len(spec.charts)):
            z = spec.anchor(f, j)
            v = float(np.asarray(spec.ambient.norm(f - spec.evaluate(z)[0])))
            if v < best_val:
                best_val, best_z = v, z
        v, _ = _coordinate_descent(spec, f, best_z, line_searches)
        worst = max(worst, min(v, best_val))
    return worst
