"""Inequality verification engine over certified brackets.

Every checker returns a tri-state verdict: "violated" only when an
inequality fails on certified sides (a certified lower bound exceeding a
certified upper bound); overlapping brackets yield "indeterminate".
Asymptotic statements are checked as finite-window constant witnesses: the
smallest (or largest) constant making the inequality hold over the window,
always computed from the conservative bracket sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import cover_number, entropy_number, packing_number
from .lipschitz import build_psi, build_theta_xi, fixed_width_upper
from .spaces import Bracket, CompactSetModel, scale_set, sup_norm
from .widths import nonlinear_width

__all__ = [
    "Verdict",
    "RateFit",
    "check_carl",
    "check_generalized_carl",
    "check_width_chain",
    "check_entropy_from_width",
    "check_L6_schedule",
    "check_lower_bound_theorems",
    "fit_rate",
    "bracket_leq",
    "witness_envelope",
    "packing_cover_sandwich",
    "packing_cover_sandwich_verdicts",
    "entropy_sandwich",
    "entropy_sandwich_verdicts",
    "ksigma_entropy_series",
    "ksigma_inner_entropy_series",
    "ksigma_linear_width_series",
    "ksigma_nonlinear_width_series",
]

HOLDS = "holds"
VIOLATED = "violated"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class Verdict:
    check: str
    status: str
    witness: float | None
    window: tuple[int, int]
    details: str


@dataclass(frozen=True)
class RateFit:
    model: str
    params: dict
    residual: float


def bracket_leq(lhs: Bracket, rhs: Bracket, tol: float = 1e-9) -> str:
    """Tri-state comparison lhs <= rhs on certified sides."""
    if lhs.upper <= rhs.lower + tol:
        return HOLDS
    if lhs.lower > rhs.upper + tol:
        return VIOLATED
    return INDETERMINATE


def witness_envelope(check, windows) -> list[Verdict]:
    """Run a window-parameterized check over nested windows, reporting the
    conservative running maximum of the constant witness (a domination
    constant valid for a window stays valid for every earlier one, so the
    reported constant never decreases as the window grows)."""
    out = []
    running = None
    for w in windows:
        v = check(w)
        if v.witness is not None:
            running = v.witness if running is None else max(running, v.witness)
            if running > v.witness:
                v = Verdict(v.check, v.status, running, v.window,
                            v.details + "; envelope over nested windows")
        out.append(v)
    return out


def _series_get(series, k: int) -> Bracket:
    if callable(series):
        return series(k)
    try:
        return series[k]
    except KeyError:
        raise ValueError(f"series missing index {k}") from None


# ---------------------------------------------------------------------------
# closed-form series for the coordinate sequence family


def ksigma_inner_entropy_series(alpha: float, indices) -> dict[int, Bracket]:
    """Exact inner entropy values s_{2^k} (zero-hub covers attain them)."""
    from .entropy import ksigma_inner_entropy_attained

    return {
        k: Bracket.exactly(ksigma_inner_entropy_attained(alpha, k), "hub-cover")
        for k in indices
    }


def ksigma_entropy_series(alpha: float, indices) -> dict[int, Bracket]:
    """Outer entropy brackets [s_{2^k}/2, s_{2^k}] via the inner/outer halving."""
    from .entropy import ksigma_inner_entropy_attained

    out = {}
    for k in indices:
        v = ksigma_inner_entropy_attained(alpha, k)
        out[k] = Bracket(v / 2, v, exact=False,
                         lower_method="inner-halving", upper_method="hub-cover")
    return out


def ksigma_linear_width_series(alpha: float, dims) -> dict[int, Bracket]:
    """Coordinate-span width bounds d_j <= s_{j+1}, used as the reference
    width sequence (consequence-direction checks)."""
    from .spaces import sigma_value

    return {
        j: Bracket.exactly(sigma_value(alpha, j + 1.0), "coordinate-span-bound")
        for j in dims
    }


def ksigma_nonlinear_width_series(alpha: float, schedule, ms) -> dict[int, Bracket]:
    """Block-coordinate width bounds for d_{m-1}(K, N(m)) with N(m) from the
    schedule ("lambda", lam) -> lam^m or ("power", a) -> m^(a m)."""
    from .spaces import sigma_value

    kind, p = schedule
    out = {}
    for m in ms:
        if m == 1:
            v = sigma_value(alpha, 1.0)
        else:
            if kind == "lambda":
                N = float(p) ** m
            elif kind == "power":
                N = float(m) ** (p * m)
            else:
                raise ValueError(f"unknown schedule {kind!r}")
            v = sigma_value(alpha, (m - 1.0) * N + 1.0)
        out[m] = Bracket.exactly(v, "block-coordinate-bound")
    return out


# ---------------------------------------------------------------------------
# weighted-maximum domination checks


def _weighted_max(series, exponent: float, ks, side: str) -> float:
    vals = []
    for k in ks:
        br = _series_get(series, k)
        v = br.upper if side == "upper" else br.lower
        vals.append(float(k) ** exponent * v)
    return max(vals)


def _domination_verdict(name, lhs_low, lhs_up, rhs_low, rhs_up, window, details):
    if rhs_low > 0:
        return Verdict(name, HOLDS, lhs_up / rhs_low, window, details)
    if lhs_up <= 0:
        return Verdict(name, HOLDS, 0.0, window, details + "; zero-over-zero")
    if rhs_up <= 0 and lhs_low > 0:
        return Verdict(name, VIOLATED, None, window,
                       details + "; positive maximum over certified-zero side")
    return Verdict(name, INDETERMINATE, None, window,
                   details + "; denominator bracket straddles zero")


def check_carl(e_series, d_series, r: float, window: tuple[int, int]) -> Verdict:
    """Minimal C with max_k k^r e_k <= C max_m m^r d_{m-1} over the window.

    e is indexed by the entropy order k, d by subspace dimension (m-1).
    """
    lo, hi = window
    ks = range(max(lo, 1), hi + 1)
    if not len(list(ks)):
        raise ValueError("empty window")
    lhs_up = _weighted_max(e_series, r, ks, "upper")
    lhs_low = _weighted_max(e_series, r, ks, "lower")
    rhs_up = max(float(m) ** r * _series_get(d_series, m - 1).upper for m in ks)
    rhs_low = max(float(m) ** r * _series_get(d_series, m - 1).lower for m in ks)
    details = f"r={r:g}; weighted maxima LHS<= {lhs_up:.6g}, RHS>= {rhs_low:.6g}"
    return _domination_verdict("carl", lhs_low, lhs_up, rhs_low, rhs_up, window, details)


def check_generalized_carl(e_series, d_series, r: float, schedule,
                           window: tuple[int, int]) -> Verdict:
    """Carl-type domination against nonlinear width sequences.

    schedule ("lambda", lam): plain entropy index k against d_{m-1}(K, lam^m);
    schedule ("power", a): entropy index ceil((a+r) k log2 k) against
    d_{m-1}(K, m^(a m)).
    """
    kind, p = schedule
    lo, hi = window
    ks = list(range(max(lo, 1), hi + 1))
    if not ks:
        raise ValueError("empty window")
    if kind == "lambda":
        e_idx = {k: k for k in ks}
    elif kind == "power":
        e_idx = {k: max(0, math.ceil((p + r) * k * math.log2(k))) for k in ks}
    else:
        raise ValueError(f"unknown schedule {kind!r}")
    lhs_up = max(float(k) ** r * _series_get(e_series, e_idx[k]).upper for k in ks)
    lhs_low = max(float(k) ** r * _series_get(e_series, e_idx[k]).lower for k in ks)
    rhs_up = max(float(m) ** r * _series_get(d_series, m).upper for m in ks)
    rhs_low = max(float(m) ** r * _series_get(d_series, m).lower for m in ks)
    name = f"generalized-carl-{kind}"
    details = (f"r={r:g}, {kind}={p:g}; weighted maxima LHS<= {lhs_up:.6g}, "
               f"RHS>= {rhs_low:.6g}")
    return _domination_verdict(name, lhs_low, lhs_up, rhs_low, rhs_up, window, details)


# ---------------------------------------------------------------------------
# witness-level width chain


def check_width_chain(K: CompactSetModel, n: int, N: int, seed: int = 0,
                      tol: float = 1e-6) -> Verdict:
    """Builds the bump-system map from the N-subspace witness and verifies
    that its fixed-width upper bound does not exceed the width upper bound
    (the chart anchors realize every assignment distance).  On non-euclidean
    clouds both sides come from descent heuristics, so an excess is
    indeterminate rather than a violation."""
    cloud = K.as_cloud()
    s = sup_norm(cloud)
    window = (n, N)
    if s == 0:
        return Verdict("width-chain", HOLDS, 0.0, window, "degenerate zero set")
    scaled = scale_set(cloud, 1.0 / s)
    euclid = cloud.norm.is_euclidean
    try:
        if euclid:
            wr = nonlinear_width(scaled, n, N, seed=seed)
            target = wr.bracket.upper
            bases = wr.witness.bases
        else:
            helper = CompactSetModel.cloud(scaled.points, label=scaled.label)
            wr = nonlinear_width(helper, n, N, seed=seed)
            bases = wr.witness.bases
            from .widths import dist_to_subspace

            target = max(
                dist_to_subspace(p, bases[wr.witness.assignment[i]], cloud.norm)
                for i, p in enumerate(scaled.points)
            )
    except ValueError as exc:
        return Verdict("width-chain", INDETERMINATE, None, window, f"solver guard: {exc}")
    if euclid:
        spec = build_psi(bases, scaled.norm)
    else:
        spec = build_theta_xi(bases, scaled.norm)[1]
    fw = fixed_width_upper(scaled, spec)
    details = f"fixed-width {fw * s:.6g} vs width upper {target * s:.6g} (normalized set)"
    if fw <= target + tol:
        return Verdict("width-chain", HOLDS, fw * s, window, details)
    if not euclid:
        # both sides are descent upper bounds here, so a larger fixed width
        # proves nothing against the width
        return Verdict("width-chain", INDETERMINATE, fw * s, window, details)
    return Verdict("width-chain", VIOLATED, fw * s, window, details)


# ---------------------------------------------------------------------------
# entropy from width (packing route)


def check_entropy_from_width(K: CompactSetModel, n: int, N: int, seed: int = 0) -> Verdict:
    """Packing route from a width bound to an entropy bound: with eps just
    above the N-subspace width and mu the exact 3eps-packing size, the
    ceil(log2 mu)-th inner entropy number must be at most 3eps."""
    cloud = K.as_cloud()
    window = (n, N)
    # the norm supremum bounds the enclosing-ball radius (center 0 is admissible)
    rad_upper = sup_norm(cloud)
    applied_scale = 1.0
    if rad_upper >= 1.0:
        applied_scale = 0.9 / rad_upper
        cloud = scale_set(cloud, applied_scale)
    try:
        wr = nonlinear_width(cloud, n, N, seed=seed)
    except ValueError as exc:
        return Verdict("entropy-from-width", INDETERMINATE, None, window,
                       f"solver guard: {exc}")
    eps = wr.bracket.upper * (1 + 1e-9) + 1e-15
    if eps >= 1.0:
        extra = 0.5 / eps
        applied_scale *= extra
        cloud = scale_set(cloud, extra)
        eps *= extra
    mu_br = packing_number(cloud, 3 * eps)
    if not mu_br.exact:
        return Verdict("entropy-from-width", INDETERMINATE, None, window,
                       "packing not exact at requested scale")
    mu = int(round(mu_br.upper))
    m_ent = max(0, math.ceil(math.log2(mu))) if mu > 1 else 0
    te = entropy_number(cloud, m_ent, inner=True)
    c_implied = eps * (mu / N) ** (1.0 / n)
    details = (f"scale={applied_scale:.6g}, eps={eps:.6g}, mu={mu}, "
               f"entropy index {m_ent}, inner entropy upper {te.upper:.6g}")
    if te.upper <= 3 * eps + 1e-12:
        return Verdict("entropy-from-width", HOLDS, c_implied, window, details)
    if te.lower > 3 * eps + 1e-12:
        return Verdict("entropy-from-width", VIOLATED, c_implied, window, details)
    return Verdict("entropy-from-width", INDETERMINATE, c_implied, window, details)


# ---------------------------------------------------------------------------
# schedule checks and rate fits


def check_L6_schedule(width_series, e_series, alpha: float, beta: float,
                      lam: float, window: tuple[int, int]) -> Verdict:
    """Entropy-from-width index schedule m = ceil(2 alpha n log2 n): reports
    the minimal C with e_m <= C (log2 m)^(alpha+beta) / m^alpha on certified
    sides over the window."""
    lo, hi = window
    if lo < 4:
        return Verdict("l6-schedule", INDETERMINATE, None, window,
                       "window too small (needs n >= 4)")
    ns = list(range(lo, hi + 1))
    c0 = max(_series_get(width_series, nn).upper * nn**alpha / math.log2(nn) ** beta
             for nn in ns)
    e_upper = {}
    e_lower = {}
    for nn in ns:
        m = math.ceil(2 * alpha * nn * math.log2(nn))
        br = _series_get(e_series, m)
        bound = math.log2(m) ** (alpha + beta) / m**alpha
        e_upper[nn] = br.upper / bound
        e_lower[nn] = br.lower / bound
    C = max(e_upper.values())
    binding = max(e_upper, key=lambda nn: e_upper[nn])
    details = (f"alpha={alpha:g}, beta={beta:g}, lambda={lam:g}; hypothesis "
               f"constant c0={c0:.6g}; binding n={binding}")
    if c0 <= 0:
        if any(v > 0 for v in e_lower.values()):
            return Verdict("l6-schedule", VIOLATED, None, window,
                           details + "; zero width series with positive entropy")
        return Verdict("l6-schedule", HOLDS, 0.0, window, details)
    return Verdict("l6-schedule", HOLDS, C, window, details)


def fit_rate(series, model: str, window: tuple[int, int]) -> RateFit:
    """Weighted least squares on the model's linearizing transform.

    Models: poly-log C (log2 n)^beta / n^alpha, log-only C / (log2 n)^alpha,
    stretched-exp C 2^(-c n^alpha).  Bracket midpoints are fitted; relative
    bracket widths downweight uncertain entries.  Indices with log2 n = 0
    are excluded where the transform needs them.
    """
    lo, hi = window
    ns, mids, weights = [], [], []
    for nn in range(lo, hi + 1):
        br = _series_get(series, nn)
        ns.append(nn)
        mids.append(br.mid)
        weights.append(1.0 / (1.0 + br.width / max(abs(br.mid), 1e-300)))
    ns = np.array(ns, dtype=float)
    mids = np.array(mids)
    weights = np.array(weights)
    if np.all(mids == 0):
        raise ValueError("degenerate all-zero series")
    if model in ("log-only", "poly-log"):
        keep = (ns >= 2) & (mids > 0)
        ns, mids, weights = ns[keep], mids[keep], weights[keep]
    if len(ns) < 4:
        raise ValueError("window too small for a fit (need >= 4 usable points)")
    sw = np.sqrt(weights)
    y = np.log(mids)
    if model == "log-only":
        x = np.log(np.log2(ns))
        A = np.column_stack([np.ones_like(x), -x])
        coef, *_ = np.linalg.lstsq(A * sw[:, None], y * sw, rcond=None)
        params = {"C": math.exp(coef[0]), "alpha": float(coef[1])}
        resid = y - A @ coef
    elif model == "poly-log":
        A = np.column_stack([np.ones_like(ns), np.log(np.log2(ns)), -np.log(ns)])
        coef, *_ = np.linalg.lstsq(A * sw[:, None], y * sw, rcond=None)
        params = {"C": math.exp(coef[0]), "beta": float(coef[1]), "alpha": float(coef[2])}
        resid = y - A @ coef
    elif model == "stretched-exp":
        if np.any(mids <= 0):
            raise ValueError("stretched-exp fit needs positive series values")
        y2 = np.log2(mids)

        def fit_alpha(a):
            A = np.column_stack([np.ones_like(ns), -(ns**a)])
            coef, *_ = np.linalg.lstsq(A * sw[:, None], y2 * sw, rcond=None)
            r = (y2 - A @ coef) * sw
            return float(r @ r), coef

        golden = (math.sqrt(5) - 1) / 2
        a, b = 0.02, 0.98
        c1, c2 = b - golden * (b - a), a + golden * (b - a)
        f1, f2 = fit_alpha(c1)[0], fit_alpha(c2)[0]
        for _ in range(60):
            if f1 <= f2:
                b, c2, f2 = c2, c1, f1
                c1 = b - golden * (b - a)
                f1 = fit_alpha(c1)[0]
            else:
                a, c1, f1 = c1, c2, f2
                c2 = a + golden * (b - a)
                f2 = fit_alpha(c2)[0]
        alpha_hat = c1 if f1 <= f2 else c2
        _, coef = fit_alpha(alpha_hat)
        params = {"C": 2.0 ** coef[0], "c": float(coef[1]), "alpha": float(alpha_hat)}
        A = np.column_stack([np.ones_like(ns), -(ns**alpha_hat)])
        resid = y2 - A @ coef
    else:
        raise ValueError(f"unknown model {model!r}")
    residual = math.sqrt(float((resid * sw) @ (resid * sw)) / float(weights.sum()))
    return RateFit(model, params, residual)


def check_lower_bound_theorems(e_series, w_series, alpha: float,
                               window: tuple[int, int], band_cap: float = 4.0) -> Verdict:
    """Largest C'' with width >= C''/(log2 n)^alpha on certified sides, plus
    a two-sided agreement band between the entropy-scale series and the
    width series (max ratio / min ratio <= band_cap)."""
    lo, hi = window
    ns = list(range(max(lo, 2), hi + 1))
    if not ns:
        raise ValueError("empty window")
    e_up = [_series_get(e_series, nn).upper for nn in ns]
    e_lo = [_series_get(e_series, nn).lower for nn in ns]
    w_up = [_series_get(w_series, nn).upper for nn in ns]
    w_lo = [_series_get(w_series, nn).lower for nn in ns]
    if max(e_up) == 0 and max(w_up) == 0:
        return Verdict("lower-bound-band", HOLDS, 0.0, window,
                       "degenerate zero series; band vacuous")
    cpp = min(wl * math.log2(nn) ** alpha for wl, nn in zip(w_lo, ns))
    if min(w_lo) <= 0:
        if min(w_up) <= 0 and min(e_lo) > 0:
            return Verdict("lower-bound-band", VIOLATED, None, window,
                           "certified zero width with positive entropy")
        return Verdict("lower-bound-band", INDETERMINATE, None, window,
                       "width series not certified positive")
    band_hi = max(eu / wl for eu, wl in zip(e_up, w_lo))
    band_lo = min(el / wu for el, wu in zip(e_lo, w_up))
    cert_hi = max(el / wu for el, wu in zip(e_lo, w_up))
    cert_lo = min(eu / wl for eu, wl in zip(e_up, w_lo))
    details = (f"C''={cpp:.6g}; conservative band "
               f"[{band_lo:.6g}, {band_hi:.6g}]")
    if band_lo > 0 and band_hi / band_lo <= band_cap:
        return Verdict("lower-bound-band", HOLDS, cpp, window, details)
    if cert_lo > 0 and cert_hi / cert_lo > band_cap:
        return Verdict("lower-bound-band", VIOLATED, cpp, window, details)
    if band_lo <= 0:
        return Verdict("lower-bound-band", VIOLATED if cert_hi == math.inf else INDETERMINATE,
                       cpp, window, details)
    return Verdict("lower-bound-band", INDETERMINATE, cpp, window, details)


# ---------------------------------------------------------------------------
# sandwich suites


def packing_cover_sandwich_verdicts(eps: float, p_eps: Bracket, cover: Bracket,
                                    p_2eps: Bracket) -> list[Verdict]:
    """P_eps >= N_eps >= P_2eps on the brackets of one radius."""
    return [
        Verdict("packing-cover-sandwich", bracket_leq(cover, p_eps), None, (0, 0),
                f"eps={eps:g}: inner cover <= packing"),
        Verdict("packing-cover-sandwich", bracket_leq(p_2eps, cover), None, (0, 0),
                f"eps={eps:g}: doubled packing <= inner cover"),
    ]


def entropy_sandwich_verdicts(n: int, outer: Bracket, inner: Bracket) -> list[Verdict]:
    """e_n <= inner e_n <= 2 e_n on the brackets of one order."""
    doubled = Bracket(2 * outer.lower, 2 * outer.upper, exact=False,
                      lower_method=outer.lower_method, upper_method=outer.upper_method)
    return [
        Verdict("entropy-sandwich", bracket_leq(outer, inner), None, (n, n),
                f"n={n}: outer <= inner"),
        Verdict("entropy-sandwich", bracket_leq(inner, doubled), None, (n, n),
                f"n={n}: inner <= doubled outer"),
    ]


def packing_cover_sandwich(K: CompactSetModel, eps_list) -> list[Verdict]:
    """P_eps >= N_eps >= P_2eps on count brackets, tri-state per radius."""
    return [v for eps in eps_list
            for v in packing_cover_sandwich_verdicts(
                eps, packing_number(K, eps), cover_number(K, eps, inner=True),
                packing_number(K, 2 * eps))]


def entropy_sandwich(K: CompactSetModel, n_list) -> list[Verdict]:
    """e_n <= inner e_n <= 2 e_n on entropy brackets, tri-state per order."""
    return [v for n in n_list
            for v in entropy_sandwich_verdicts(
                n, entropy_number(K, n, inner=False), entropy_number(K, n, inner=True))]
