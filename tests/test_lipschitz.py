import math

import numpy as np
import pytest

from widthlab.lipschitz import (
    CubeBumpSystem,
    HatSystem,
    IsometryChart,
    LipschitzMapSpec,
    build_phi,
    build_psi,
    build_theta_xi,
    estimate_lipschitz,
    fixed_width_upper,
    john_ellipsoid,
    john_sandwich_sampled,
)
from widthlab.spaces import CompactSetModel, NormSpec, scale_set


def spans(*cols):
    out = []
    for c in cols:
        v = np.zeros((3, 1))
        v[c, 0] = 1.0
        out.append(v)
    return out


def test_hat_system_geometry():
    hs = HatSystem(4)
    assert np.allclose(hs.breakpoints, [-1, -0.5, 0, 0.5, 1])
    j = hs.locate(hs.centers)
    assert np.allclose(hs.value(j, hs.centers), 1.0)
    jb = hs.locate(hs.breakpoints[:-1])
    assert np.allclose(hs.value(jb, hs.breakpoints[:-1]), 0.0)


def test_isometry_chart():
    rng = np.random.default_rng(4)
    Q, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    chart = IsometryChart(Q)
    x = rng.normal(size=(20, 2))
    out = chart.map(x)
    assert np.allclose(np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1),
                       atol=1e-10)


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
    c0 = spec.hats.centers[0]
    out = spec.evaluate(np.array([[1.0, c0]]))[0]
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)
    for a in spec.hats.breakpoints:
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
    z = np.concatenate([[0.5, 0.5], np.zeros(spec.bumps.ell)])
    assert np.allclose(spec.evaluate(z)[0], 0.0, atol=1e-12)
    est = estimate_lipschitz(spec, pairs=20_000, seed=8)
    assert est <= 3.0 + 1e-9


def test_constant_map_estimate_zero():
    spec = LipschitzMapSpec(
        kind="phi", n=1, charts=(np.zeros((2, 1)), np.zeros((2, 1))),
        hats=HatSystem(2), bumps=None, ambient=NormSpec("euclidean", 2),
        gamma=0.0,
    )
    assert estimate_lipschitz(spec, pairs=2000, seed=1) == 0.0


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


def test_john_rejects_degenerate():
    with pytest.raises(ValueError):
        john_ellipsoid(("vertices", np.array([[1.0, 0.0], [2.0, 0.0]])))


def test_theta_xi_euclidean_reduces_to_scaled_hats():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(4, 3)))
    bases = [Q[:, [0]], Q[:, [1]], Q[:, [2]]]
    theta, xi = build_theta_xi(bases, NormSpec("euclidean", 4))
    assert theta.gamma == pytest.approx(2 * (3 + 1))
    assert xi.gamma == pytest.approx(6.0)
    est = estimate_lipschitz(theta, pairs=20_000, seed=4)
    assert est <= theta.gamma + 1e-9
    for a in theta.hats.breakpoints:
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
    base = fixed_width_upper(K, spec, line_searches=60)
    for t in (0.5, 2.0, -3.0):
        val = fixed_width_upper(scale_set(K, t), spec.scaled(t), line_searches=60)
        assert val == pytest.approx(abs(t) * base, rel=1e-9, abs=1e-12)
    est = estimate_lipschitz(spec, pairs=5000, seed=3)
    for t in (0.5, 2.0, -3.0):
        assert estimate_lipschitz(spec.scaled(t), pairs=5000, seed=3) == pytest.approx(
            abs(t) * est, rel=1e-9
        )
