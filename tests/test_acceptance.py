"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from widthlab import entropy
from widthlab.entropy import (
    entropy_number,
    ksigma_nested_cover_radius,
    max_packing,
)
from widthlab.harness import (
    HOLDS,
    VIOLATED,
    check_carl,
    check_entropy_from_width,
    check_generalized_carl,
    check_lower_bound_theorems,
    check_width_chain,
    entropy_sandwich,
    fit_rate,
    ksigma_entropy_series,
    ksigma_inner_entropy_series,
    ksigma_linear_width_series,
    ksigma_nonlinear_width_series,
    packing_cover_sandwich,
)
from widthlab.lipschitz import (
    build_phi,
    build_psi,
    build_theta_xi,
    estimate_lipschitz,
    fixed_width_upper,
    john_ellipsoid,
    john_sandwich_sampled,
)
from widthlab.mterm import STIRLING_BASE, VPOperator, best_m_term, check_sigma_chain
from widthlab.runner import run
from widthlab.spaces import Bracket, CompactSetModel, NormSpec, scale_set, sigma_value
from widthlab.widths import ksigma_nonlinear_width_upper, linear_width, nonlinear_width

SQ2 = math.sqrt(0.5)


def _finish(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}{detail}"
    print(line)
    assert ok, line


def _ortho_frames(d, dims, seed):
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    out, col = [], 0
    for n in dims:
        out.append(Q[:, col:col + n])
        col += n
    return out


def test_acceptance_01_ksigma_entropy_reproduction():
    t0 = time.time()
    ok, msgs = True, []
    for n in range(1, 11):
        K = CompactSetModel.ksigma(1.0, truncation=2**n + 8)
        cf = ksigma_nested_cover_radius(1.0, n)
        br = entropy_number(K, n, inner=True)
        if not br.contains(cf, slack=K.tail_gap + 1e-9):
            ok = False
            msgs.append(f"containment failed at n={n}")
        if n <= 5 and not br.exact:
            ok = False
            msgs.append(f"branch-and-bound not exact at n={n}")
        with mock.patch.object(entropy, "EXACT_POINT_LIMIT", 0):
            greedy = entropy_number(K, n, inner=True)
        if abs(greedy.upper - cf) > 2e-9:
            ok = False
            msgs.append(f"greedy threshold off at n={n}: {greedy.upper} vs {cf}")
    elapsed = time.time() - t0
    if elapsed >= 60:
        ok = False
        msgs.append(f"runtime {elapsed:.1f}s >= 60s")
    _finish(1, "sequence-family inner entropy reproduction (n=1..10)",
            ok, f" [{elapsed:.1f}s]" + ("; " + "; ".join(msgs) if msgs else ""))


def test_acceptance_02_sandwich_suites():
    t0 = time.time()
    violations = 0
    checked = 0
    for i in range(50):
        rng = np.random.default_rng([2024, i])
        m = int(rng.integers(50, 201))
        d = int(rng.integers(2, 7))
        K = CompactSetModel.cloud(rng.normal(size=(m, d)),
                                  label=f"suite-cloud-{i}")
        for v in packing_cover_sandwich(K, (0.5, 1.0, 2.0)):
            checked += 1
            violations += v.status == VIOLATED
        for v in entropy_sandwich(K, (0, 1, 2)):
            checked += 1
            violations += v.status == VIOLATED
    for J in (20, 33):
        K = CompactSetModel.ksigma(1.0, truncation=J)
        for v in packing_cover_sandwich(K, (0.5, 0.9, 1.3)):
            checked += 1
            violations += v.status == VIOLATED
        for v in entropy_sandwich(K, (0, 1, 2, 3)):
            checked += 1
            violations += v.status == VIOLATED
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 120
    _finish(2, "packing/cover and inner/outer entropy sandwiches",
            ok, f" [{checked} comparisons, {violations} violated, {elapsed:.1f}s]")


def _oracle_line_width(pts):
    """Independent planar minimax-line oracle (nested angle grids)."""
    pts = np.asarray(pts, dtype=float)
    sq = np.einsum("ij,ij->i", pts, pts)

    def sweep(th):
        U = np.stack([np.cos(th), np.sin(th)], axis=1)
        proj = pts @ U.T
        vals = np.sqrt(np.maximum(sq[:, None] - proj**2, 0)).max(axis=0)
        k = int(np.argmin(vals))
        return th[k], float(vals[k])

    center, best = sweep(np.linspace(0, math.pi, 20001))
    width = math.pi / 20000
    for _ in range(5):
        center, best = sweep(np.linspace(center - width, center + width, 4001))
        width /= 800
    return best


def _oracle_partition_width(pts, N):
    """Independent enumeration oracle for 1-d subspace families: every
    assignment, clusters fitted by the planar oracle inside their own span."""
    pts = np.asarray(pts, dtype=float)
    m = len(pts)
    best = math.inf
    for assign in itertools.product(range(N), repeat=m):
        worst = 0.0
        for c in range(N):
            idx = [i for i in range(m) if assign[i] == c]
            if not idx:
                continue
            sub = pts[idx]
            U, S, Vt = np.linalg.svd(sub, full_matrices=False)
            rank = int(np.sum(S > 1e-12))
            if rank <= 1:
                continue
            coords = sub @ Vt[:rank].T
            if rank == 2:
                worst = max(worst, _oracle_line_width(coords))
            else:
                worst = math.inf
        best = min(best, worst)
    return best


def test_acceptance_03_width_oracles():
    e12 = CompactSetModel.cloud([[1.0, 0.0], [0.0, 1.0]])
    r1 = linear_width(e12, 1)
    oracle1 = _oracle_line_width(e12.points)
    ok = abs(r1.bracket.upper - SQ2) <= 1e-6 and abs(r1.bracket.upper - oracle1) <= 1e-6

    e123 = CompactSetModel.cloud(np.eye(3))
    r2 = nonlinear_width(e123, 1, 2)
    oracle2 = _oracle_partition_width(e123.points, 2)
    ok &= abs(r2.bracket.upper - SQ2) <= 1e-6 and abs(r2.bracket.upper - oracle2) <= 1e-6

    mismatches = 0
    for seed in range(100):
        rng = np.random.default_rng([777, seed])
        m = int(rng.integers(3, 7))
        d = int(rng.integers(2, 4))
        K = CompactSetModel.cloud(rng.normal(size=(m, d)))
        for (n, N) in ((1, 2), (1, 3), (2, 2)):
            if n >= d:
                continue
            ex = nonlinear_width(K, n, N, seed=seed)
            he = nonlinear_width(K, n, N, seed=seed, force_heuristic=True)
            if abs(he.bracket.upper - ex.bracket.upper) > 1e-8:
                mismatches += 1
    ok &= mismatches == 0
    _finish(3, "width values against brute-force oracles",
            ok, f" [d1 {r1.bracket.upper:.7f}, (1,2)-width {r2.bracket.upper:.7f}, "
                f"{mismatches} heuristic/enumeration mismatches]")


def test_acceptance_04_homogeneity():
    rng = np.random.default_rng(404)
    K = CompactSetModel.cloud(rng.normal(size=(12, 3)))
    lw = linear_width(K, 2, seed=4)
    lw3 = linear_width(K, 3, seed=4)  # n = d: [0, 0]
    nw = nonlinear_width(K, 1, 2, seed=4)
    frames = _ortho_frames(3, [1, 1], 40)
    spec = build_phi(frames)
    Kf = CompactSetModel.cloud(rng.normal(size=(6, 3)) * 0.4)
    fw = fixed_width_upper(Kf, spec)
    ok = True
    details = []
    for t in (0.5, 2.0, -3.0, 1e-6, 1e6):
        lw_t = linear_width(scale_set(K, t), 2, seed=4)
        lw3_t = linear_width(scale_set(K, t), 3, seed=4)
        nw_t = nonlinear_width(scale_set(K, t), 1, 2, seed=4)
        fw_t = fixed_width_upper(scale_set(Kf, t), spec.scaled(t))
        for got, want, tag in (
            (lw_t.bracket.upper, abs(t) * lw.bracket.upper, "lw.upper"),
            (lw_t.bracket.lower, abs(t) * lw.bracket.lower, "lw.lower"),
            (lw3_t.bracket.upper, abs(t) * lw3.bracket.upper, "lw3.upper"),
            (nw_t.bracket.upper, abs(t) * nw.bracket.upper, "nw.upper"),
            (nw_t.bracket.lower, abs(t) * nw.bracket.lower, "nw.lower"),
            (fw_t, abs(t) * fw, "fixed-width"),
        ):
            if abs(got - want) > 1e-9 * abs(want):
                ok = False
                details.append(f"{tag}@t={t}")
        # exactness has no unit: a dilation keeps every flag
        for got, want, tag in ((lw_t, lw, "lw"), (lw3_t, lw3, "lw3"), (nw_t, nw, "nw")):
            if got.bracket.exact != want.bracket.exact:
                ok = False
                details.append(f"{tag}.exact@t={t}")
    _finish(4, "homogeneity of width brackets and fixed-width values",
            ok, f" [t in {{0.5, 2, -3, 1e-6, 1e6}}]" + ("; " + ",".join(details) if details else ""))


def test_acceptance_05_lipschitz_constants():
    t0 = time.time()
    ok, msgs = True, []
    for (n, N) in ((2, 4), (3, 8)):
        frames = _ortho_frames(max(8, n * N), [n] * N, seed=50 + n)
        est = estimate_lipschitz(build_phi(frames), pairs=100_000, seed=5)
        if not (0.8 * N <= est <= N + 1 + 1e-9):
            ok = False
            msgs.append(f"phi(n={n},N={N}) est {est:.4f} outside [0.8N, N+1]")
    for N in (4, 8):
        frames = _ortho_frames(2 * N, [2] * N, seed=60 + N)
        est = estimate_lipschitz(build_psi(frames), pairs=100_000, seed=6)
        if est > 3.0 + 1e-9:
            ok = False
            msgs.append(f"psi(N={N}) est {est:.4f} > 3")
    for d, n, N in ((2, 1, 2), (4, 2, 2)):
        amb = NormSpec("max", d)
        frames = _ortho_frames(d, [n] * N, seed=70 + d)
        theta, xi = build_theta_xi(frames, amb)
        est_t = estimate_lipschitz(theta, pairs=100_000, seed=7)
        est_x = estimate_lipschitz(xi, pairs=100_000, seed=8)
        M = math.sqrt(n)
        if est_t > 2 * M * (N + 1) + 1e-9:
            ok = False
            msgs.append(f"theta(d={d}) est {est_t:.4f} > 2M(N+1)")
        if est_x > 6 * M + 1e-9:
            ok = False
            msgs.append(f"xi(d={d}) est {est_x:.4f} > 6M")
    elapsed = time.time() - t0
    if elapsed >= 60:
        ok = False
        msgs.append(f"runtime {elapsed:.1f}s >= 60s")
    _finish(5, "peak-pair Lipschitz estimates within claimed bounds",
            ok, f" [{elapsed:.1f}s]" + ("; " + "; ".join(msgs) if msgs else ""))


def test_acceptance_06_witness_chain():
    violations = 0
    runs = 0
    for (J, n, N) in ((17, 1, 2), (33, 1, 4)):
        v = check_width_chain(CompactSetModel.ksigma(1.0, truncation=J), n, N, seed=0)
        runs += 1
        violations += v.status != HOLDS
    for i in range(20):
        rng = np.random.default_rng([606, i])
        m = int(rng.integers(5, 12))
        d = int(rng.integers(2, 5))
        K = CompactSetModel.cloud(rng.normal(size=(m, d)))
        n = 1 if d == 2 else int(rng.integers(1, 3))
        v = check_width_chain(K, n, 2, seed=i)
        runs += 1
        violations += v.status != HOLDS
    _finish(6, "fixed-width of the witness map never exceeds the width upper bound",
            violations == 0, f" [{runs} runs, {violations} failures]")


def test_acceptance_07_john_sandwich():
    ok, msgs = True, []
    for d in (2, 3, 4, 5):
        shapes = {
            "cube": john_ellipsoid("max", d, tol=5e-9),
            "cross-polytope": john_ellipsoid(("vertices", np.eye(d)), tol=5e-9),
            "euclidean-ball": john_ellipsoid("euclidean", d),
        }
        for name, jm in shapes.items():
            if jm.gap > 1e-8:
                ok = False
                msgs.append(f"{name} d={d}: gap {jm.gap:.2e}")
            inner, polar = john_sandwich_sampled(jm, samples=1000, seed=17)
            if inner > 1 + 1e-6 or polar > 1 + 1e-6:
                ok = False
                msgs.append(f"{name} d={d}: sandwich {inner:.8f}/{polar:.8f}")
    _finish(7, "inscribed-ellipsoid sandwich for cube/cross-polytope/ball (d<=5)",
            ok, "; " + "; ".join(msgs) if msgs else "")


def test_acceptance_08_entropy_from_width():
    failures = []
    K = scale_set(CompactSetModel.ksigma(1.0, truncation=65), 0.5)
    v = check_entropy_from_width(K, 2, 2, seed=0)
    if v.status != HOLDS:
        failures.append(f"sequence family: {v.status}")
    for i in range(10):
        rng = np.random.default_rng([808, i])
        m = int(rng.integers(6, 21))
        d = int(rng.integers(2, 5))
        K = CompactSetModel.cloud(rng.normal(size=(m, d)), label=f"efw-{i}")
        v = check_entropy_from_width(K, 1, 2, seed=i)
        if v.status != HOLDS:
            failures.append(f"cloud {i}: {v.status} ({v.details})")
    _finish(8, "entropy-from-width packing route holds on certified sides",
            not failures, "; " + "; ".join(failures) if failures else "")


def test_acceptance_09_carl_checks():
    e = ksigma_entropy_series(1.0, range(0, 200))
    d = ksigma_linear_width_series(1.0, range(0, 12))
    ok, msgs = True, []
    for r in (0.5, 1.0, 2.0):
        v = check_carl(e, d, r, window=(1, 12))
        if v.status != HOLDS:
            ok = False
            msgs.append(f"carl r={r}: {v.status}")
        c1 = check_carl(e, d, r, window=(3, 8)).witness
        c2 = check_carl(e, d, r, window=(7, 12)).witness
        if max(c1, c2) / min(c1, c2) > 3.0:
            ok = False
            msgs.append(f"carl r={r}: witness unstable {c1:.4g} vs {c2:.4g}")
    d_lam = ksigma_nonlinear_width_series(1.0, ("lambda", 2.0), range(1, 13))
    v = check_generalized_carl(e, d_lam, 1.0, ("lambda", 2.0), (1, 12))
    if v.status != HOLDS:
        ok = False
        msgs.append(f"generalized lambda: {v.status}")
    max_idx = math.ceil(2.0 * 12 * math.log2(12)) + 1
    e_big = ksigma_entropy_series(1.0, range(0, max_idx + 1))
    d_pow = ksigma_nonlinear_width_series(1.0, ("power", 1.0), range(1, 13))
    v = check_generalized_carl(e_big, d_pow, 1.0, ("power", 1.0), (1, 12))
    if v.status != HOLDS:
        ok = False
        msgs.append(f"generalized power: {v.status}")
    _finish(9, "Carl-type dominations with stable constant witnesses",
            ok, "; " + "; ".join(msgs) if msgs else "")


def test_acceptance_10_two_sided_band_and_rate():
    e = {n: Bracket.exactly(ksigma_nested_cover_radius(1.0, n)) for n in range(3, 13)}
    w = {n: Bracket.exactly(sigma_value(1.0, (n - 1) * 2.0**n + 1.0)) for n in range(3, 13)}
    v = check_lower_bound_theorems(e, w, alpha=1.0, window=(3, 12), band_cap=4.0)
    ratios = [e[n].mid / w[n].mid for n in range(3, 13)]
    band = max(ratios) / min(ratios)
    fit = fit_rate(e, "log-only", (3, 12))
    alpha_hat = fit.params["alpha"]
    ok = v.status == HOLDS and band <= 4.0 and 0.85 <= alpha_hat <= 1.15
    _finish(10, "two-sided entropy/width agreement and rate recovery",
            ok, f" [band {band:.3f} <= 4, alpha_hat {alpha_hat:.4f}]")


def test_acceptance_11_mterm():
    rng = np.random.default_rng(1111)
    worst = 0.0
    for _ in range(1000):
        J = int(rng.integers(4, 13))
        m = int(rng.integers(0, min(4, J) + 1))
        f = rng.normal(size=J)
        got = best_m_term(f, m)
        best = math.inf
        for keep in itertools.combinations(range(J), m):
            mask = np.ones(J, dtype=bool)
            mask[list(keep)] = False
            best = min(best, float(np.linalg.norm(f[mask])))
        worst = max(worst, abs(got - best))
    ok = worst <= 1e-12
    V = VPOperator(n_k=8, A2=2.0)
    chain_fail = 0
    for _ in range(100):
        members = rng.normal(size=(int(rng.integers(1, 6)), 64))
        if check_sigma_chain(members, V, 4).status != HOLDS:
            chain_fail += 1
    ok &= chain_fail == 0
    binom_ok = True
    for n_k in (4, 8, 16):
        cutoff = int(2.0 * n_k)
        for m in range(2, cutoff):
            if math.comb(cutoff, m) > (2.0 * STIRLING_BASE * n_k / m) ** m:
                binom_ok = False
    ok &= binom_ok
    _finish(11, "m-term thresholding, smoothing chain, and count witness",
            ok, f" [worst brute-force gap {worst:.2e}, {chain_fail} chain failures, "
                f"binomial witness {'ok' if binom_ok else 'violated'}]")


def test_acceptance_12_determinism_and_runtime(tmp_path):
    config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "full_suite.cfg"
    t0 = time.time()
    out1 = tmp_path / "run1"
    code1 = run(config, out_dir=out1, jobs=1, quiet=True)
    t_run = time.time() - t0
    out2 = tmp_path / "run2"
    code2 = run(config, out_dir=out2, jobs=4, quiet=True)
    same_csv = (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    same_json = (out1 / "verdicts.json").read_bytes() == (out2 / "verdicts.json").read_bytes()
    ok = code1 == 0 and code2 == 0 and same_csv and same_json and t_run < 300
    _finish(12, "byte-identical reports across jobs settings; suite runtime",
            ok, f" [exit {code1}/{code2}, csv-identical {same_csv}, "
                f"json-identical {same_json}, {t_run:.1f}s < 300s]")
