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
from functools import partial

import numpy as np

from .entropy import cover_number, entropy_number, ksigma_inner_entropy_attained, packing_number
from .lipschitz import build_psi, build_theta_xi, fixed_width_upper
from .spaces import Bracket, CompactSetModel, scale_set, sigma_value, sup_norm
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
    try:
        return series[k]
    except KeyError:
        raise ValueError(f"series missing index {k}") from None


# ---------------------------------------------------------------------------
# closed-form series for the coordinate sequence family


def ksigma_inner_entropy_series(alpha: float, indices) -> dict[int, Bracket]:
    """Exact inner entropy values s_{2^k} (zero-hub covers attain them)."""
    return {
        k: Bracket.exactly(ksigma_inner_entropy_attained(alpha, k), "hub-cover")
        for k in indices
    }


def ksigma_entropy_series(alpha: float, indices) -> dict[int, Bracket]:
    """Outer entropy brackets [s_{2^k}/2, s_{2^k}] via the inner/outer halving."""
    out = {}
    for k in indices:
        v = ksigma_inner_entropy_attained(alpha, k)
        out[k] = Bracket(v / 2, v, lower_method="inner-halving", upper_method="hub-cover")
    return out


def ksigma_linear_width_series(alpha: float, dims) -> dict[int, Bracket]:
    """Coordinate-span width bounds d_j <= s_{j+1}, used as the reference
    width sequence (consequence-direction checks)."""
    return {
        j: Bracket.exactly(sigma_value(alpha, j + 1.0), "coordinate-span-bound")
        for j in dims
    }


def ksigma_nonlinear_width_series(alpha: float, schedule, ms) -> dict[int, Bracket]:
    """Block-coordinate width bounds for d_{m-1}(K, N(m)) with N(m) from the
    schedule ("lambda", lam) -> lam^m or ("power", a) -> m^(a m)."""
    kind, p = schedule
    out = {}
    for m in ms:
        if kind == "lambda":
            N = float(p) ** m
        elif kind == "power":
            N = float(m) ** (p * m)
        else:
            raise ValueError(f"unknown schedule {kind!r}")
        out[m] = Bracket.exactly(sigma_value(alpha, (m - 1.0) * N + 1.0),
                                 "block-coordinate-bound")
    return out


# ---------------------------------------------------------------------------
# weighted-maximum domination checks


def _domination(name: str, label: str, e_series, e_index, d_series, d_index,
                r: float, window: tuple[int, int]) -> Verdict:
    """Minimal C with max_k k^r e_{e_index(k)} <= C max_m m^r d_{d_index(m)}
    over the window, on certified sides: the upper LHS over the lower RHS."""
    lo, hi = window
    ks = range(max(lo, 1), hi + 1)
    if not ks:
        raise ValueError("empty window")

    def weighted_maxima(series, index):
        terms = [(float(k) ** r, _series_get(series, index(k))) for k in ks]
        return max(w * br.upper for w, br in terms), max(w * br.lower for w, br in terms)

    lhs_up, lhs_low = weighted_maxima(e_series, e_index)
    rhs_up, rhs_low = weighted_maxima(d_series, d_index)
    details = f"{label}; weighted maxima LHS<= {lhs_up:.6g}, RHS>= {rhs_low:.6g}"
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
    return _domination("carl", f"r={r:g}", e_series, lambda k: k,
                       d_series, lambda m: m - 1, r, window)


def check_generalized_carl(e_series, d_series, r: float, schedule,
                           window: tuple[int, int]) -> Verdict:
    """Carl-type domination against nonlinear width sequences.

    schedule ("lambda", lam): plain entropy index k against d_{m-1}(K, lam^m);
    schedule ("power", a): entropy index ceil((a+r) k log2 k) against
    d_{m-1}(K, m^(a m)).
    """
    kind, p = schedule
    if kind not in ("lambda", "power"):
        raise ValueError(f"unknown schedule {kind!r}")

    def e_index(k):
        return k if kind == "lambda" else max(0, math.ceil((p + r) * k * math.log2(k)))

    return _domination(f"generalized-carl-{kind}", f"r={r:g}, {kind}={p:g}",
                       e_series, e_index, d_series, lambda m: m, r, window)


# ---------------------------------------------------------------------------
# witness-level width chain


def _fit_width_chain(K: CompactSetModel, n: int, N: int, seed: int):
    """The width chain's fit: (s, scaled, wr) with s the sup-norm of K,
    scaled the cloud of K over s (K's cloud itself when s is 0) and wr the
    N-subspace width fit of scaled's points in the euclidean norm."""
    cloud = K.as_cloud()
    s = sup_norm(cloud)
    scaled = scale_set(cloud, 1.0 / s) if s else cloud
    return s, scaled, nonlinear_width(CompactSetModel.cloud(scaled.points, label=scaled.label),
                                      n, N, seed=seed)


def _width_chain_verdict(s: float, scaled: CompactSetModel, wr, window: tuple[int, int]) -> Verdict:
    """The width chain's verdict on a fit from `_fit_width_chain`."""
    if s == 0:
        return Verdict("width-chain", HOLDS, 0.0, window, "degenerate zero set")
    euclid = scaled.norm.is_euclidean
    # off the euclidean norm the witness is fitted in it and measured in the cloud's
    target = wr.bracket.upper if euclid else float(wr.witness.distances(scaled).max())
    bases = wr.witness.bases
    spec = build_psi(bases, scaled.norm) if euclid else build_theta_xi(bases, scaled.norm)[1]
    fw = fixed_width_upper(scaled, spec)
    details = f"fixed-width {fw * s:.6g} vs width upper {target * s:.6g} (normalized set)"
    if fw <= target + 1e-6:
        return Verdict("width-chain", HOLDS, fw * s, window, details)
    if not euclid:
        # the anchors here are solver and sampled-chart approximations, so
        # an excess over the witness's distances proves nothing
        return Verdict("width-chain", INDETERMINATE, fw * s, window, details)
    return Verdict("width-chain", VIOLATED, fw * s, window, details)


def check_width_chain(K: CompactSetModel, n: int, N: int, seed: int = 0) -> Verdict:
    """Builds the bump-system map from the N-subspace witness and verifies
    that its fixed-width upper bound does not exceed the width upper bound
    (the chart anchors realize every assignment distance).  On non-euclidean
    clouds an excess is indeterminate rather than a violation: there the
    anchors rest on LP and L-BFGS tolerances, sampled l_p charts and radial
    pulls (``fixed_width_upper``)."""
    try:
        s, scaled, wr = _fit_width_chain(K, n, N, seed)
    except ValueError as exc:
        return Verdict("width-chain", INDETERMINATE, None, (n, N), f"solver guard: {exc}")
    return _width_chain_verdict(s, scaled, wr, (n, N))


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
    return Verdict("entropy-from-width", bracket_leq(te, Bracket.exactly(3 * eps), tol=1e-12),
                   c_implied, window, details)


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

    def wls(A, y):
        """Weighted least squares: coefficients and weighted residuals."""
        coef, *_ = np.linalg.lstsq(A * sw[:, None], y * sw, rcond=None)
        return coef, (y - A @ coef) * sw

    if model == "log-only":
        A = np.column_stack([np.ones_like(ns), -np.log(np.log2(ns))])
        coef, resid = wls(A, np.log(mids))
        exp, params = math.exp, {"alpha": float(coef[1])}
    elif model == "poly-log":
        A = np.column_stack([np.ones_like(ns), np.log(np.log2(ns)), -np.log(ns)])
        coef, resid = wls(A, np.log(mids))
        exp, params = math.exp, {"beta": float(coef[1]), "alpha": float(coef[2])}
    elif model == "stretched-exp":
        if np.any(mids <= 0):
            raise ValueError("stretched-exp fit needs positive series values")
        from scipy.optimize import minimize_scalar

        def stretched(a):
            return wls(np.column_stack([np.ones_like(ns), -(ns**a)]), np.log2(mids))

        def sse(a):
            resid = stretched(a)[1]
            return float(resid @ resid)

        alpha_hat = float(minimize_scalar(sse, bounds=(0.02, 0.98), method="bounded",
                                          options={"xatol": 1e-10}).x)
        coef, resid = stretched(alpha_hat)
        exp, params = partial(math.pow, 2.0), {"c": float(coef[1]), "alpha": alpha_hat}
    else:
        raise ValueError(f"unknown model {model!r}")
    try:
        params = {"C": exp(coef[0]), **params}
    except OverflowError:
        # an ill-conditioned window can fit a log C past the float range
        raise ValueError("fit coefficient overflows (ill-conditioned window)") from None
    residual = math.sqrt(float(resid @ resid) / float(weights.sum()))
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
    doubled = outer.scaled(2.0)
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
