"""Reference computations and correctness checks for the benchmark.

Nothing in this module imports widthlab.  Distances, brute-force counts,
sequence closed forms, spectral bounds, grid searches and linear programs
are recomputed from their definitions, so a wrong bracket from the program
cannot also serve as the reference it is checked against.  Every check
returns a list of failure messages; an empty list means the check passed.
Brackets and witnesses are read by attribute (``lower``, ``upper``,
``exact``, ``centers``, ``points``, ...), so the tests can hand in plain
stand-ins.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

REL = 1e-9
CHUNK = 256


# ---------------------------------------------------------------------------
# distances


def norm_rows(X: np.ndarray, kind: str, p: float | None = None) -> np.ndarray:
    """Norms along the last axis: euclidean, max, or l_p."""
    A = np.abs(np.asarray(X, dtype=float))
    if kind == "euclidean" or (kind == "pnorm" and p == 2.0):
        return np.sqrt(np.sum(A * A, axis=-1))
    if kind == "max":
        return np.max(A, axis=-1)
    return np.sum(A**p, axis=-1) ** (1.0 / p)


def dist_matrix(A: np.ndarray, B: np.ndarray, kind: str, p: float | None = None) -> np.ndarray:
    """All distances between rows of A and rows of B, in row chunks."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    out = np.empty((len(A), len(B)))
    for s in range(0, len(A), CHUNK):
        out[s:s + CHUNK] = norm_rows(A[s:s + CHUNK, None, :] - B[None, :, :], kind, p)
    return out


def diameter(P: np.ndarray, kind: str, p: float | None = None) -> float:
    P = np.asarray(P, dtype=float)
    best = 0.0
    for s in range(0, len(P), CHUNK):
        best = max(best, float(dist_matrix(P[s:s + CHUNK], P, kind, p).max()))
    return best


# ---------------------------------------------------------------------------
# brute force on small clouds (bitmask enumeration)


def _ball_masks(D: np.ndarray, eps: float) -> list[int]:
    return [sum(1 << j for j in np.flatnonzero(row <= eps)) for row in D]


def brute_cover_count(D: np.ndarray, eps: float) -> int:
    """Fewest closed eps-balls centred at set points that cover the set."""
    m = len(D)
    masks = _ball_masks(D, eps)
    return next(k for k in range(1, m + 1) if _covers_with(masks, k, (1 << m) - 1))


def brute_packing_count(D: np.ndarray, eps: float) -> int:
    """Largest subset whose pairwise distances all exceed eps."""
    m = len(D)
    conflict = [mask & ~(1 << i) for i, mask in enumerate(_ball_masks(D, eps))]
    best = 1
    for subset in range(1, 1 << m):
        size = subset.bit_count()
        if size <= best:
            continue
        s = subset
        ok = True
        while s:
            low = s & -s
            if conflict[low.bit_length() - 1] & subset:
                ok = False
                break
            s ^= low
        if ok:
            best = size
    return best


def _covers_with(masks: list[int], k: int, full: int) -> bool:
    for combo in itertools.combinations(masks, k):
        acc = 0
        for b in combo:
            acc |= b
        if acc == full:
            return True
    return False


def brute_inner_entropy(D: np.ndarray, n: int) -> float:
    """Smallest radius at which 2^n balls centred at set points cover the
    set; it is 0 or one of the pairwise distances.  Costs C(m, 2^n) unions
    per probed radius."""
    m = len(D)
    k = min(1 << n, m)
    radii = np.unique(np.concatenate([[0.0], D.ravel()]))
    lo, hi = 0, len(radii) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _covers_with(_ball_masks(D, radii[mid]), k, (1 << m) - 1):
            hi = mid
        else:
            lo = mid + 1
    return float(radii[lo])


# ---------------------------------------------------------------------------
# the coordinate sequence family


def sigma(alpha: float, j: float) -> float:
    """s_j = 1/[log2 log2 (j+3)]^alpha."""
    return 1.0 / math.log2(math.log2(j + 3.0)) ** alpha


def ksigma_points(alpha: float, J: int) -> np.ndarray:
    """s_j e_j for j = 1..J plus the origin, as rows in R^J."""
    pts = np.zeros((J + 1, J))
    pts[np.arange(J), np.arange(J)] = [sigma(alpha, j) for j in range(1, J + 1)]
    return pts


# ---------------------------------------------------------------------------
# subspace geometry


def spectral_lower(P: np.ndarray, k: int) -> float:
    """Mean-square bound sqrt(sum_{j>k} s_j^2 / m) on the minimax distance
    to any k-dimensional subspace."""
    S = np.linalg.svd(np.asarray(P, dtype=float), compute_uv=False)
    return math.sqrt(float(np.sum(S[k:] ** 2)) / len(P))


def projection_residuals(P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Rows of P minus their orthogonal projections onto span(V)."""
    Q, _ = np.linalg.qr(np.asarray(V, dtype=float))
    return P - (P @ Q) @ Q.T


def planar_line_grid(P: np.ndarray, grid: int = 200_000) -> tuple[float, float]:
    """Minimax distance from planar points to a line through 0, on a dense
    angle grid; returns (grid minimum, bound on its excess over the optimum)."""
    P = np.asarray(P, dtype=float)
    sq = np.einsum("ij,ij->i", P, P)
    best = math.inf
    for s in range(0, grid, 4096):
        th = np.arange(s, min(s + 4096, grid)) * (math.pi / grid)
        proj = P @ np.stack([np.cos(th), np.sin(th)])
        best = min(best, float(np.sqrt(np.maximum(sq[:, None] - proj**2, 0.0)).max(axis=0).min()))
    # each point's distance is |x|-Lipschitz in the angle
    return best, math.sqrt(float(sq.max())) * math.pi / grid


def lp_subspace_distance(f: np.ndarray, V: np.ndarray, kind: str) -> float:
    """Exact l_1 or l_inf distance from f to span(V), as a linear program."""
    from scipy.optimize import linprog

    d, n = V.shape
    if kind == "max":
        # variables (c, t): minimise t subject to -t <= f - V c <= t
        cost = np.r_[np.zeros(n), 1.0]
        A = np.block([[-V, -np.ones((d, 1))], [V, -np.ones((d, 1))]])
        b = np.r_[-f, f]
    else:
        # variables (c, s): minimise sum s subject to -s <= f - V c <= s
        cost = np.r_[np.zeros(n), np.ones(d)]
        A = np.block([[-V, -np.eye(d)], [V, -np.eye(d)]])
        b = np.r_[-f, f]
    res = linprog(cost, A_ub=A, b_ub=b, bounds=[(None, None)] * n + [(0, None)] * (len(cost) - n),
                  method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


# ---------------------------------------------------------------------------
# checks


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def bracket_shape(br, what: str) -> list[str]:
    """A bracket must be ordered, and flagged exact only when closed."""
    out = []
    if not br.lower <= br.upper * (1 + 1e-12) + 1e-15:
        out.append(f"{what}: inverted bracket [{br.lower}, {br.upper}]")
    if br.exact and not _close(br.lower, br.upper):
        out.append(f"{what}: flagged exact but [{br.lower}, {br.upper}] is open")
    return out


def contains(br, value: float, what: str, slack: float = 0.0) -> list[str]:
    tol = slack + REL * max(1.0, abs(value))
    if br.lower - tol <= value <= br.upper + tol:
        return bracket_shape(br, what)
    return [f"{what}: reference {value!r} outside [{br.lower!r}, {br.upper!r}]"]


def check_outer_entropy(br, inner_value: float, what: str) -> list[str]:
    """Outer entropy numbers lie in [inner/2, inner]; the bracket must meet it."""
    tol = REL * max(1.0, inner_value)
    if br.lower > inner_value + tol or br.upper < inner_value / 2 - tol:
        return [f"{what}: [{br.lower!r}, {br.upper!r}] misses "
                f"[{inner_value / 2!r}, {inner_value!r}]"]
    return bracket_shape(br, what)


def check_cover_witness(cover, P: np.ndarray, kind: str, p: float | None, what: str) -> list[str]:
    """Every point within eps of a centre; inner covers centre on set points."""
    C = np.atleast_2d(np.asarray(cover.centers, dtype=float))
    out = []
    if len(C) != cover.cardinality:
        out.append(f"{what}: {len(C)} centres but cardinality {cover.cardinality}")
    tol = 1e-12 * max(1.0, cover.epsilon)
    if dist_matrix(P, C, kind, p).min(axis=1).max() > cover.epsilon + tol:
        out.append(f"{what}: a point lies farther than eps={cover.epsilon!r} from every centre")
    if cover.inner and dist_matrix(C, P, kind, p).min(axis=1).max() > 1e-12:
        out.append(f"{what}: an inner-cover centre is not a set point")
    return out


def check_packing_witness(packing, kind: str, p: float | None, what: str) -> list[str]:
    """Pairwise distances of the packing strictly exceed eps."""
    Q = np.atleast_2d(np.asarray(packing.points, dtype=float))
    out = []
    if len(Q) != packing.cardinality:
        out.append(f"{what}: {len(Q)} points but cardinality {packing.cardinality}")
    if len(Q) > 1:
        D = dist_matrix(Q, Q, kind, p)
        if D[np.triu_indices(len(Q), 1)].min() <= packing.epsilon:
            out.append(f"{what}: two packing points within eps={packing.epsilon!r}")
    return out


def greedy_cover_size(P: np.ndarray, r: float, kind: str, p: float | None, limit: int) -> int:
    """Balls of radius r, centred on the uncovered point of largest norm
    (ties to the lowest index), until all points are covered; stops once
    more than ``limit`` are needed."""
    order = np.lexsort((np.arange(len(P)), -norm_rows(P, kind, p)))
    covered = np.zeros(len(P), dtype=bool)
    size = 0
    for i in order:
        if not covered[i]:
            size += 1
            if size > limit:
                break
            covered |= norm_rows(P - P[i], kind, p) <= r
    return size


def check_entropy_upper_witness(br, P: np.ndarray, n: int, kind: str, p: float | None,
                                what: str) -> list[str]:
    """The upper side of an inner entropy bracket needs a cover by 2^n balls
    centred on set points.  Build one at that radius in the largest-norm-first
    order, the cover the program's greedy upper side rests on."""
    size = greedy_cover_size(P, br.upper * (1 + 1e-12), kind, p, 1 << n)
    if size > 1 << n:
        return [f"{what}: no cover by {1 << n} balls at the upper side {br.upper!r}"]
    return []


def greedy_packing_size(P: np.ndarray, r: float, kind: str, p: float | None) -> int:
    """Size of the lowest-index-first packing with separation > r."""
    blocked = np.zeros(len(P), dtype=bool)
    size = 0
    for i in range(len(P)):
        if not blocked[i]:
            size += 1
            blocked |= norm_rows(P - P[i], kind, p) <= r
    return size


def check_entropy_lower_cert(br, P: np.ndarray, n: int, kind: str, p: float | None,
                             what: str) -> list[str]:
    """A positive lower side needs a 2r-packing with more than 2^n points at
    every radius r below it; rebuild one just below the claimed side."""
    if br.lower <= 0:
        return []
    r = br.lower * (1 - 1e-7)
    size = greedy_packing_size(P, 2 * r, kind, p)
    if size <= 1 << n:
        return [f"{what}: lower side {br.lower!r} has no certificate "
                f"(2r-packing of {size} <= {1 << n} points)"]
    return []


def check_spectral(br, P: np.ndarray, k: int, what: str) -> list[str]:
    """The upper side is a witness, so it cannot beat the spectral bound; a
    bracket that is not exact rests its lower side on that bound alone."""
    spec = spectral_lower(P, k)
    tol = REL * max(1.0, spec)
    out = bracket_shape(br, what)
    if br.upper < spec - tol:
        out.append(f"{what}: upper {br.upper!r} below the spectral bound {spec!r}")
    if not br.exact and br.lower > spec + tol:
        out.append(f"{what}: lower {br.lower!r} above the spectral bound {spec!r}")
    return out


def check_planar_line(br, P: np.ndarray, what: str) -> list[str]:
    """The optimum lies in [grid - err, grid]: the lower side may not pass the
    grid value, the upper side may not undercut the optimum, and an exact
    bracket may not sit above a line the grid found."""
    val, err = planar_line_grid(P)
    tol = REL * max(1.0, val)
    if (br.lower > val + tol or br.upper < val - err - tol
            or (br.exact and br.upper > val + tol)):
        return [f"{what}: [{br.lower!r}, {br.upper!r}] vs grid optimum {val!r} (-{err:.1e})"]
    return bracket_shape(br, what)


def check_family_euclidean(result, P: np.ndarray, what: str) -> list[str]:
    """Recompute the witness value by projecting each point on its subspace."""
    fam = result.witness
    out = []
    for V in fam.bases:
        if V.shape[1] and np.abs(V.T @ V - np.eye(V.shape[1])).max() > 1e-10:
            out.append(f"{what}: a witness basis is not orthonormal")
    worst = max(float(np.linalg.norm(projection_residuals(P[i:i + 1], fam.bases[a])))
                for i, a in enumerate(fam.assignment))
    if not _close(worst, fam.achieved):
        out.append(f"{what}: witness value {fam.achieved!r}, recomputed {worst!r}")
    if not _close(result.bracket.upper, worst):
        out.append(f"{what}: upper {result.bracket.upper!r} is not the witness value {worst!r}")
    return out


def check_family_lp(result, P: np.ndarray, kind: str, p: float | None, what: str) -> list[str]:
    """Non-euclidean witness: at least the exact LP distance of every point
    (it is an upper side), at most the norm of the orthogonal residual."""
    fam = result.witness
    V = fam.bases[0]
    exact = max(lp_subspace_distance(f, V, kind) for f in P)
    residual = float(norm_rows(projection_residuals(P, V), kind, p).max())
    out = []
    if fam.achieved < exact - 1e-9 * max(1.0, exact):
        out.append(f"{what}: witness value {fam.achieved!r} below the LP distance {exact!r}")
    if fam.achieved > residual + 1e-9 * max(1.0, residual):
        out.append(f"{what}: witness value {fam.achieved!r} above the projection residual {residual!r}")
    if result.bracket.upper < exact - 1e-9 * max(1.0, exact):
        out.append(f"{what}: upper {result.bracket.upper!r} below the LP distance {exact!r}")
    return out + bracket_shape(result.bracket, what)


def check_homogeneity(br_scaled, br, t: float, what: str) -> list[str]:
    out = []
    for side in ("lower", "upper"):
        got, want = getattr(br_scaled, side), abs(t) * getattr(br, side)
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            out.append(f"{what}: {side} {got!r} != |t| * {getattr(br, side)!r} (t={t})")
    return out


def check_lipschitz(estimate: float, gamma: float, what: str) -> list[str]:
    if estimate <= gamma + 1e-9:
        return []
    return [f"{what}: sampled constant {estimate!r} exceeds the claimed {gamma!r}"]


def check_fixed_width(fixed: float, width_upper: float, what: str) -> list[str]:
    if fixed <= width_upper + 1e-6:
        return []
    return [f"{what}: fixed-width value {fixed!r} exceeds the width upper bound {width_upper!r}"]


def check_enclosing_radius(br, P: np.ndarray, kind: str, p: float | None, what: str) -> list[str]:
    """Half the diameter bounds the radius below; for euclidean clouds the
    centroid radius and Jung's theorem bound it above, and for the max norm
    the radius is half the largest coordinate range."""
    if kind == "max":
        return contains(br, float(np.ptp(P, axis=0).max()) / 2, what)
    half_diam = diameter(P, kind, p) / 2
    d = P.shape[1]
    upper = min(float(norm_rows(P - P.mean(axis=0), kind, p).max()),
                2 * half_diam * math.sqrt(d / (2 * (d + 1))))
    tol = REL * max(1.0, upper)
    if br.lower < half_diam - tol or br.upper > upper + tol:
        return [f"{what}: [{br.lower!r}, {br.upper!r}] outside [{half_diam!r}, {upper!r}]"]
    return bracket_shape(br, what)


def check_john_facets(jm, A: np.ndarray, tol: float, what: str) -> list[str]:
    """phi(B_2) inside {x : |A x|_inf <= 1} up to the optimality gap the map
    reports: every row of A phi has norm at most sqrt(1 + gap)."""
    out = _john_gap(jm, tol, what)
    worst = float(np.linalg.norm(A @ jm.matrix, axis=1).max())
    if worst > math.sqrt(1 + jm.gap) + 1e-9:
        out.append(f"{what}: ellipsoid leaves the polytope by more than the gap ({worst!r})")
    return out


def check_john_vertices(jm, V: np.ndarray, tol: float, what: str) -> list[str]:
    """conv(+-V) inside factor * phi(B_2), and phi(B_2) inside conv(+-V), up
    to the optimality gap the map reports."""
    from scipy.spatial import ConvexHull

    out = _john_gap(jm, tol, what)
    slack = math.sqrt(1 + jm.gap) + 1e-9
    outer = float(np.linalg.norm(np.linalg.solve(jm.matrix, V.T), axis=0).max())
    if outer > jm.factor * slack:
        out.append(f"{what}: a vertex lies outside factor*ellipsoid ({outer!r} > {jm.factor!r})")
    hull = ConvexHull(np.vstack([V, -V]))
    normals, offsets = hull.equations[:, :-1], -hull.equations[:, -1]
    if np.any(np.linalg.norm(normals @ jm.matrix, axis=1) > offsets * slack):
        out.append(f"{what}: ellipsoid leaves the polytope by more than the gap")
    return out


def _john_gap(jm, tol: float, what: str) -> list[str]:
    if jm.converged and not 0 <= jm.gap <= tol * (1 + 1e-6):
        return [f"{what}: converged with gap {jm.gap!r} outside [0, tol={tol}]"]
    return []


def verdicts_not_violated(verdicts, what: str) -> list[str]:
    return [f"{what}: verdict {v.check} violated ({v.details})"
            for v in verdicts if v.status == "violated"]
