import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from widthlab.lipschitz import (
    CubeBumpSystem,
    HatSystem,
    LipschitzMapSpec,
    _hat_and_bump_maps,
    build_phi,
    build_psi,
    build_theta_xi,
    estimate_lipschitz,
    fixed_width_upper,
    john_ellipsoid,
    john_sandwich_sampled,
)
from widthlab.spaces import CompactSetModel, NormSpec, scale_set
from widthlab.widths import dist_to_subspace


def spans(*cols):
    out = []
    for c in cols:
        v = np.zeros((3, 1))
        v[c, 0] = 1.0
        out.append(v)
    return out


def hat_breakpoints(N):
    """The N + 1 ends a_j = 2j/N - 1 of the hat cells."""
    return 2.0 * np.arange(N + 1) / N - 1.0


def test_hat_system_geometry():
    hs = HatSystem(4)
    assert np.allclose(hs.centers, [-0.75, -0.25, 0.25, 0.75])
    j = hs.locate(hs.centers)
    assert np.allclose(hs.value(j, hs.centers), 1.0)
    jb = hs.locate(hat_breakpoints(4)[:-1])
    assert np.allclose(hs.value(jb, hat_breakpoints(4)[:-1]), 0.0)


def test_cube_bumps_geometry():
    cb = CubeBumpSystem(3)
    assert cb.count == 8
    j = cb.locate(cb.centers)
    assert np.array_equal(j, np.arange(8))
    assert np.allclose(cb.value(j, cb.centers), 1.0)
    # bump slope bound
    rng = np.random.default_rng(0)
    y1 = rng.uniform(-1, 1, size=(500, 3))
    y2 = rng.uniform(-1, 1, size=(500, 3))
    for jj in range(8):
        a = cb.value(np.full(500, jj), y1)
        b = cb.value(np.full(500, jj), y2)
        assert np.all(np.abs(a - b) <= 2 * np.max(np.abs(y1 - y2), axis=1) + 1e-12)


def test_phi_anchor_and_breakpoints():
    U1 = np.array([[1.0], [0.0]])
    U2 = np.array([[0.0], [1.0]])
    spec = build_phi([U1, U2])
    c0 = spec.weights.centers[0]
    out = spec.evaluate(np.array([[1.0, c0]]))[0]
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)
    for a in hat_breakpoints(spec.weights.N):
        out = spec.evaluate(np.array([[0.7, a]]))[0]
        assert np.allclose(out, 0.0, atol=1e-12)


def test_phi_sampled_constant_bounds():
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.normal(size=(5, 4)))
    bases = [Q[:, [0]], Q[:, [1]], Q[:, [2]], Q[:, [3]]]
    spec = build_phi(bases)
    est = estimate_lipschitz(spec, pairs=20_000, seed=7)
    assert est <= spec.gamma + 1e-9
    assert est >= 0.8 * 4


def test_psi_anchor_zero_boundary_and_constant():
    rng = np.random.default_rng(2)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    bases = [Q[:, [2 * i, 2 * i + 1]] for i in range(3)]
    spec = build_psi(bases)
    assert len(spec.charts) == 4  # padded to 2^ell
    # anchors reproduce chart elements
    f = 0.6 * Q[:, 0] + 0.3 * Q[:, 1]
    z = spec.anchor(f, 0)
    assert np.allclose(spec.evaluate(z)[0], f, atol=1e-10)
    # all bumps vanish on the facial grid
    z = np.concatenate([[0.5, 0.5], np.zeros(spec.weights.ell)])
    assert np.allclose(spec.evaluate(z)[0], 0.0, atol=1e-12)
    est = estimate_lipschitz(spec, pairs=20_000, seed=8)
    assert est <= 3.0 + 1e-9


def test_constant_map_estimate_zero():
    spec = LipschitzMapSpec(
        n=1, charts=(np.zeros((2, 1)), np.zeros((2, 1))), weights=HatSystem(2),
        ambient=NormSpec("euclidean", 2), gamma=0.0, coef=1.0,
    )
    assert estimate_lipschitz(spec, pairs=2000, seed=1) == 0.0


# ---------------------------------------------------------------------------
# Lipschitz constants from peak pairs


def sampler_estimate(spec, pairs, seed):
    """The randomized estimate that the peak pairs replace: uniform pairs,
    1e-3 perturbations of half of them, and pairs straddling each hat
    breakpoint or cube face (or moving within one cell) within 1e-3."""
    from widthlab.lipschitz import _sample_ball, _sample_domain

    rng = np.random.default_rng(seed)
    per_site, us, vs = 24, [], []
    xs = _sample_ball(rng, per_site, spec.n)
    xs[0] = 0.0
    xs[0][0] = 1.0
    hs = spec.weights
    if isinstance(hs, HatSystem):
        for site in np.concatenate([hat_breakpoints(hs.N), hs.centers]):
            t1 = np.clip(site - rng.uniform(1e-6, 1e-3, size=per_site), -1.0, 1.0)
            t2 = np.clip(site + rng.uniform(1e-6, 1e-3, size=per_site), -1.0, 1.0)
            us.append(np.column_stack([xs, t1]))
            vs.append(np.column_stack([xs, t2]))
        h = 1.0 / hs.N
        for j in range(hs.N):
            a = hat_breakpoints(hs.N)[j]
            t1 = a + 0.2 * h + rng.uniform(0, 0.1 * h, size=per_site)
            t2 = t1 + rng.uniform(0.1 * h, 0.3 * h, size=per_site)
            us.append(np.column_stack([xs, t1]))
            vs.append(np.column_stack([xs, np.minimum(t2, a + h)]))
    else:
        ell = hs.ell
        for k in range(ell):
            for plane in (-1.0, 0.0, 1.0):
                y = rng.uniform(-1.0, 1.0, size=(per_site, ell))
                y1, y2 = y.copy(), y.copy()
                y1[:, k] = np.clip(plane - rng.uniform(1e-6, 1e-3, per_site), -1, 1)
                y2[:, k] = np.clip(plane + rng.uniform(1e-6, 1e-3, per_site), -1, 1)
                us.append(np.hstack([xs, y1]))
                vs.append(np.hstack([xs, y2]))
        for c in hs.centers[:8]:
            off = rng.uniform(-0.2, 0.2, size=(per_site, ell))
            us.append(np.hstack([xs, c + off]))
            vs.append(np.hstack([xs, c + off * rng.uniform(0.2, 0.8, size=(per_site, 1))]))
    ua, va = np.vstack(us), np.vstack(vs)
    n_uni = max(pairs - len(ua), 16)
    u1 = _sample_domain(spec, rng, n_uni)
    v1 = _sample_domain(spec, rng, n_uni // 2)
    v2 = u1[n_uni // 2:] + rng.normal(scale=1e-3, size=(n_uni - n_uni // 2, spec.domain_dim))
    x, y = v2[:, : spec.n], v2[:, spec.n:]
    nx = np.linalg.norm(x, axis=1, keepdims=True)
    v2 = np.hstack([np.where(nx > 1.0, x / nx, x), np.clip(y, -1.0, 1.0)])
    U, V = np.vstack([ua, u1]), np.vstack([va, v1, v2])
    dom = np.maximum(np.linalg.norm(U[:, : spec.n] - V[:, : spec.n], axis=1),
                     np.max(np.abs(U[:, spec.n:] - V[:, spec.n:]), axis=1))
    ok = dom > 1e-15
    num = np.asarray(spec.ambient.norm(spec.evaluate(U[ok]) - spec.evaluate(V[ok])), dtype=float)
    return float(np.max(num.reshape(-1) / dom[ok]))


def _peak_pair_maps(N, n):
    """phi and psi, and theta and xi in the euclidean and max norms (and in
    l1 and l1.5 for n = 1, whose John charts build fast only there), over N
    random n-dimensional charts in R^4."""
    rng = np.random.default_rng([47, N, n])
    bases = [np.linalg.qr(rng.normal(size=(4, n)))[0] for _ in range(N)]
    norms = [NormSpec("euclidean", 4), NormSpec("max", 4)]
    if n == 1:
        norms += [NormSpec("pnorm", 4, p=1.0), NormSpec("pnorm", 4, p=1.5)]
    return [build_phi(bases), build_psi(bases)] + [
        spec for norm in norms for spec in build_theta_xi(bases, norm)]


@pytest.mark.parametrize("N", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2])
def test_peak_pairs_reach_the_claimed_constant(N, n):
    # the peak pair's ratio is gamma * (1 - slope * 2^-22 / (slope + 1))
    for spec in _peak_pair_maps(N, n):
        est = estimate_lipschitz(spec, pairs=2000, seed=N)
        assert spec.gamma * (1 - 1e-6) <= est <= spec.gamma + 1e-9, (spec.weights, spec.ambient)
        assert est >= sampler_estimate(spec, pairs=2000, seed=N)


def test_peak_pairs_refute_an_understated_constant():
    # charts of norm 1.5 under a constant claimed for norm 1
    for spec in (build_phi(spans(0, 1)), build_psi(spans(0, 1, 2))):
        wide = replace(spec, charts=tuple(1.5 * A for A in spec.charts))
        assert estimate_lipschitz(wide, pairs=1) == pytest.approx(1.5 * spec.gamma, rel=1e-6)
        assert estimate_lipschitz(wide, pairs=1) > wide.gamma + 1e-9


def test_john_examples():
    jm = john_ellipsoid("max", 2)
    assert np.allclose(jm.matrix, np.eye(2), atol=1e-7)
    assert jm.gap <= 1e-8
    jm = john_ellipsoid(("vertices", np.eye(2)))
    assert np.allclose(jm.matrix, np.eye(2) / math.sqrt(2), atol=1e-7)
    jm = john_ellipsoid("euclidean", 3)
    assert np.allclose(jm.matrix, np.eye(3))
    jm = john_ellipsoid(("p", 1.0), 2)
    assert np.allclose(jm.matrix, np.eye(2) / math.sqrt(2), atol=1e-12)
    # p = inf is the max ball, whose gauge is the max norm
    jm, ref = john_ellipsoid(("p", math.inf), 3), john_ellipsoid("max", 3)
    assert jm.ball_kind == "max" and jm.ball_data is None
    assert np.array_equal(jm.matrix, ref.matrix) and jm.factor == ref.factor == math.sqrt(3)
    assert jm.gauge(np.array([0.5, -2.0, 1.0])) == 2.0


def test_john_sandwich_random_polytopes():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        V = rng.normal(size=(3 * d, d))
        jm = john_ellipsoid(("vertices", V))
        inner, polar = john_sandwich_sampled(jm, samples=300, seed=1)
        assert inner <= 1.0 + 1e-6
        assert polar <= 1.0 + 1e-6
        A = rng.normal(size=(3 * d, d))
        jm = john_ellipsoid(("facets", A))
        inner, polar = john_sandwich_sampled(jm, samples=300, seed=2)
        assert inner <= 1.0 + 1e-6
        assert polar <= 1.0 + 1e-6


def test_john_polytopes_converge_at_the_default_tol():
    rng = np.random.default_rng(8)
    for d in range(2, 9):
        for kind in ("vertices", "facets"):
            X = rng.normal(size=(3 * d + 4, d))
            jm = john_ellipsoid((kind, X))
            assert jm.converged, (kind, d, jm.iterations)
            assert 0 <= jm.gap <= 5e-9 * (1 + 1e-6)
    jm = john_ellipsoid("max", 5)
    assert np.array_equal(jm.matrix, np.eye(5)) and jm.factor == math.sqrt(5)


def _lp_gauge(V, x):
    """Gauge of conv(+-V) at x: the least sum of lambda >= 0 with
    [V; -V]^T lambda = x, one linear program."""
    from scipy.optimize import linprog

    W = np.vstack([V, -V]).T
    res = linprog(np.ones(W.shape[1]), A_eq=W, b_eq=x, bounds=(0, None), method="highs")
    assert res.success
    return float(res.fun)


def test_vertex_gauge_matches_the_lp():
    rng = np.random.default_rng(19)
    polytopes = [np.eye(d) for d in range(2, 6)]
    polytopes += [rng.normal(size=(2 * d + 3, d)) for d in range(2, 9)]
    for V in polytopes:
        jm = john_ellipsoid(("vertices", V))
        d = V.shape[1]
        X = np.vstack([rng.normal(size=(12, d)), V[:3], 0.5 * (V[0] - V[1])])
        for x in X:
            ref = _lp_gauge(V, x)
            assert jm.gauge(x) == pytest.approx(ref, rel=1e-9, abs=1e-12), (d, x)
    jm = john_ellipsoid(("vertices", np.array([[1.0], [-2.0], [0.5]])))
    assert jm.gauge(np.array([-3.0])) == 1.5


def test_john_rejects_degenerate():
    with pytest.raises(ValueError):
        john_ellipsoid(("vertices", np.array([[1.0, 0.0], [2.0, 0.0]])))


def test_map_spec_fields():
    assert [f.name for f in fields(LipschitzMapSpec)] == [
        "n", "charts", "weights", "ambient", "gamma", "coef"]


@pytest.mark.parametrize("N", range(1, 10))
def test_builders_claim_coef_m_slope_plus_one(N):
    # coef * M * (slope + 1) is, bit for bit, each map's constant as the
    # paper writes it
    charts = [np.linalg.qr(np.random.default_rng([N, j]).normal(size=(4, 2)))[0]
              for j in range(N)]
    phi, psi = build_phi(charts), build_psi(charts)
    assert (phi.gamma, psi.gamma) == (float(N + 1), 3.0)
    assert (phi.coef, psi.coef) == (1.0, 1.0)
    assert len(psi.charts) == 2 ** max(1, math.ceil(math.log2(N)))
    theta, xi = build_theta_xi(charts, NormSpec("euclidean", 4))
    assert (theta.gamma, xi.gamma) == (2.0 * (N + 1), 6.0)
    for M in (1.0, math.sqrt(2), math.sqrt(3), 2 ** (1 / 6)):
        theta, xi = _hat_and_bump_maps(charts, NormSpec("max", 4), 2.0, M)
        assert theta.gamma == 2.0 * M * (N + 1)
        assert xi.gamma == 6.0 * M
        assert (theta.coef, xi.coef) == (2.0, 2.0)
        assert len(theta.charts) == N and len(xi.charts) == len(psi.charts)
        assert all(A is B is C for A, B, C in zip(charts, theta.charts, xi.charts))
        assert not any(np.any(A) for A in xi.charts[N:])


def test_theta_xi_euclidean_reduces_to_scaled_hats():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 3)))
    bases = [Q[:, [0]], Q[:, [1]], Q[:, [2]]]
    theta, xi = build_theta_xi(bases, NormSpec("euclidean", 4))
    assert theta.gamma == pytest.approx(2 * (3 + 1))
    assert xi.gamma == pytest.approx(6.0)
    est = estimate_lipschitz(theta, pairs=20_000, seed=4)
    assert est <= theta.gamma + 1e-9
    for a in hat_breakpoints(theta.weights.N):
        z = np.array([0.3, a])
        assert np.allclose(theta.evaluate(z)[0], 0.0, atol=1e-12)
    with pytest.raises(ValueError):
        theta.evaluate(np.array([0.3, 0.2, 0.1, 0.0]))


def test_theta_xi_max_norm_constants():
    rng = np.random.default_rng(6)
    amb = NormSpec("max", 2)
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
    bases = [Q[:, [0]], Q[:, [1]]]
    theta, xi = build_theta_xi(bases, amb)
    assert theta.gamma == pytest.approx(2 * math.sqrt(1) * 3)
    est_t = estimate_lipschitz(theta, pairs=20_000, seed=9)
    est_x = estimate_lipschitz(xi, pairs=20_000, seed=9)
    assert est_t <= theta.gamma + 1e-9
    assert est_x <= xi.gamma + 1e-9
    # anchors still reach approximants of norm up to 2
    f = 1.9 * Q[:, 0] / float(amb.norm(Q[:, 0]))
    z = theta.anchor(f, 0)
    assert float(amb.norm(f - theta.evaluate(z)[0])) <= 1e-9


def test_fixed_width_examples():
    spec = build_phi([np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])])
    K = CompactSetModel.cloud([[1, 0], [0, 1]])
    assert fixed_width_upper(K, spec) <= 1e-8
    K0 = CompactSetModel.cloud([[0.0, 0.0]])
    assert fixed_width_upper(K0, spec) <= 1e-12
    spec3 = build_phi(spans(0, 1))
    K3 = CompactSetModel.cloud([[0, 0, 1.0]])
    val = fixed_width_upper(K3, spec3)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_fixed_width_homogeneity():
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.normal(size=(3, 2)))
    spec = build_phi([Q[:, [0]], Q[:, [1]]])
    K = CompactSetModel.cloud(rng.normal(size=(6, 3)) * 0.4)
    base = fixed_width_upper(K, spec)
    for t in (0.5, 2.0, -3.0):
        val = fixed_width_upper(scale_set(K, t), spec.scaled(t))
        assert val == pytest.approx(abs(t) * base, rel=1e-9, abs=1e-12)
    est = estimate_lipschitz(spec, pairs=5000, seed=3)
    for t in (0.5, 2.0, -3.0):
        assert estimate_lipschitz(spec.scaled(t), pairs=5000, seed=3) == pytest.approx(
            abs(t) * est, rel=1e-9
        )


# ---------------------------------------------------------------------------
# fixed widths from chart anchors


def _chart_distances(F, spec):
    """The distance from each row of F to the nearest chart span of spec, in
    its ambient norm, one point at a time: a lower bound on the distance to
    the map's image, which every chart image lies in."""
    out = []
    for f in F:
        ds = []
        for A in spec.charts:
            if not np.any(A):
                ds.append(float(spec.ambient.norm(f)))
            else:
                ds.append(dist_to_subspace(f, np.linalg.qr(A)[0], spec.ambient))
        out.append(min(ds))
    return np.array(out)


def _fitted_specs(n):
    """phi and psi (euclidean), theta and xi (max, l1.5 and l3) over a fitted
    two-subspace family of a fixed 8-point cloud in R^4.  The l_p maps keep
    the isometry charts: their John charts take about 23 s each to build for
    n = 2 (8192 facets), and the real l1.5 charts have a test of their own."""
    from widthlab.widths import nonlinear_width

    P = np.random.default_rng([83, n]).normal(size=(8, 4))
    K = CompactSetModel.cloud(P / np.linalg.norm(P, axis=1).max())
    bases = nonlinear_width(K, n, 2, seed=n).witness.bases
    specs = [build_phi(bases), build_psi(bases), *build_theta_xi(bases, NormSpec("max", 4))]
    for p in (1.5, 3.0):
        specs += [replace(s, ambient=NormSpec("pnorm", 4, p=p))
                  for s in build_theta_xi(bases, NormSpec("euclidean", 4))]
    return K, specs


@pytest.mark.parametrize("n", [1, 2])
def test_fixed_width_is_the_largest_chart_span_distance(n):
    # the cloud lies in the euclidean unit ball, so every anchor of these
    # maps is the nearest point of its chart's span: no pull is needed
    K, specs = _fitted_specs(n)
    F = K.as_cloud().points
    for spec in specs:
        want = float(_chart_distances(F, spec).max())
        assert fixed_width_upper(K, spec) == pytest.approx(want, rel=1e-12), (
            spec.weights, spec.ambient)


# the charts of build_theta_xi(bases, NormSpec("pnorm", 4, p=1.5))[1] for the
# family nonlinear_width(K, 2, 3, seed=2, restarts=4) fits to the cloud of
# test_fixed_width_on_sampled_l15_john_charts, written out
# because their three John solves take about 70 s
_XI_L15_CHARTS = [
    [["-0x1.0316b2f5a287ep-2", "0x1.cee54fc024994p-2"],
     ["-0x1.950deb03796a3p-1", "-0x1.19d55584b9b81p-1"],
     ["-0x1.dfde15ffc9193p-2", "0x1.4b5806551ea60p-2"],
     ["0x1.647f505b9f287p-4", "-0x1.b69a3069daacep-2"]],
    [["-0x1.0a5e5433a63d8p-1", "-0x1.70d8429bd84e8p-3"],
     ["-0x1.3249a4235d5d9p-1", "-0x1.8e4ba1f4c96cbp-2"],
     ["-0x1.e3a697224979ap-3", "0x1.81322cd4eda50p-2"],
     ["-0x1.5a72a8669ca03p-2", "0x1.6c3c17d01562ep-1"]],
    [["0x1.fb534ab638706p-4", "-0x1.c2c86b84b143cp-3"],
     ["-0x1.f6db253a5b249p-3", "-0x1.24fb0c5c90dd9p-2"],
     ["0x1.ca652a047e84ap-4", "0x1.a25ec18aaad95p-1"],
     ["0x1.e039bfd729deap-1", "-0x1.690bd34bf211ep-3"]],
]


def test_fixed_width_on_sampled_l15_john_charts():
    rng = np.random.default_rng([2, 6])
    m, d, N = int(rng.integers(8, 16)), int(rng.integers(3, 5)), int(rng.integers(2, 4))
    assert (m, d, N) == (9, 4, 3)
    P = rng.normal(size=(m, d))
    K = CompactSetModel.cloud(P / np.linalg.norm(P, axis=1).max())
    charts = [np.array([[float.fromhex(x) for x in row] for row in C]) for C in _XI_L15_CHARTS]
    xi = LipschitzMapSpec(n=2, charts=(*charts, np.zeros((4, 2))), weights=CubeBumpSystem(2),
                          ambient=NormSpec("pnorm", 4, p=1.5), gamma=6.734772289856238, coef=2.0)
    got = fixed_width_upper(K, xi)
    # 200 golden-section coordinate descents from the least-squares anchors
    # read 0.091896748684701 here
    assert got <= 0.091896748684701
    assert got == pytest.approx(float(_chart_distances(K.as_cloud().points, xi).max()),
                                rel=1e-12)


def test_fixed_width_and_anchor_reject_a_dimension_mismatch():
    spec = build_phi(spans(0, 1))
    with pytest.raises(ValueError, match="dimension 2.*dimension 3"):
        fixed_width_upper(CompactSetModel.cloud(np.ones((2, 2))), spec)
    with pytest.raises(ValueError, match="dimension 2.*dimension 3"):
        spec.anchor(np.ones(2), 0)


def _unit_cloud(seed, m, d):
    P = np.random.default_rng(seed).normal(size=(m, d))
    return P / np.linalg.norm(P, axis=1).max()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(2, 5), st.integers(1, 4),
       st.sampled_from([0.5, 1.0, 3.0]), st.sampled_from([build_phi, build_psi]))
def test_euclidean_fixed_width_is_exact(seed, m, d, N, t, build):
    # for an isometry chart U and s = 1, the distance from f to U(B_2) is
    # sqrt(|f - UU^T f|^2 + max(0, |U^T f| - 1)^2); t = 3 makes many
    # anchors need the radial pull
    rng = np.random.default_rng([seed, 1])
    n = int(rng.integers(1, d))
    spec = build([np.linalg.qr(rng.normal(size=(d, n)))[0] for _ in range(N)])
    F = t * _unit_cloud(seed, m, d)
    want = max(
        min(math.sqrt(float(np.sum((f - U @ (U.T @ f)) ** 2))
                      + max(0.0, float(np.linalg.norm(U.T @ f)) - 1.0) ** 2)
            for U in spec.charts)
        for f in F)
    assert fixed_width_upper(CompactSetModel.cloud(F), spec) == pytest.approx(want, rel=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 4), st.integers(2, 3))
@example(205, 12, 3, 2)  # the max-norm width chains that 200 golden-section
@example(210, 12, 3, 2)  # descents left above the witness distance
def test_max_norm_fixed_width_is_below_sampled_distances(seed, m, d, N):
    # the set and family of check_width_chain(cloud in the max norm, 1, N)
    from widthlab.lipschitz import _sample_domain
    from widthlab.widths import nonlinear_width

    P = np.random.default_rng(seed).normal(size=(m, d))
    P /= np.abs(P).max()
    bases = nonlinear_width(CompactSetModel.cloud(P), 1, N).witness.bases
    xi = build_theta_xi(bases, NormSpec("max", d))[1]
    images = xi.evaluate(_sample_domain(xi, np.random.default_rng(seed), 2000))
    for f in P:
        got = fixed_width_upper(CompactSetModel.cloud([f], NormSpec("max", d)), xi)
        assert got <= float(np.min(xi.ambient.norm(f - images))) + 1e-9
