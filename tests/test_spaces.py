import math

import numpy as np
import pytest

from widthlab.spaces import (
    Bracket,
    CompactSetModel,
    NormSpec,
    chebyshev_radius,
    minimum_enclosing_ball,
    norm_of,
    scale_set,
    sigma_pow2_index,
    sigma_value,
    sup_norm,
)


def grid_meb_radius(pts, span=1.5, steps=41, refinements=12):
    """Brute-force minimum enclosing ball radius by nested grid search."""
    pts = np.asarray(pts, dtype=float)
    center = pts.mean(axis=0)
    width = span
    best = None
    for _ in range(refinements):
        axes = [np.linspace(c - width, c + width, steps) for c in center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(center))
        radii = np.max(
            np.linalg.norm(grid[:, None, :] - pts[None, :, :], axis=2), axis=1
        )
        k = int(np.argmin(radii))
        center = grid[k]
        best = radii[k]
        width /= 4.0
    return best


def test_norm_of_examples():
    e2 = NormSpec("euclidean", 2)
    assert norm_of([0.0, 0.0], e2) == 0.0
    assert norm_of([3.0, 4.0], e2) == pytest.approx(5.0, abs=1e-12)
    assert norm_of([1.0, 1.0], NormSpec("max", 2)) == pytest.approx(1.0, abs=1e-12)


def test_norm_dimension_mismatch():
    with pytest.raises(ValueError):
        norm_of([1.0, 2.0, 3.0], NormSpec("euclidean", 2))


def test_norm_properties_sampled():
    rng = np.random.default_rng(7)
    for space in (NormSpec("euclidean", 4), NormSpec("pnorm", 4, p=3.0), NormSpec("max", 4)):
        x = rng.normal(size=(10_000, 4))
        y = rng.normal(size=(10_000, 4))
        t = rng.normal(size=10_000)
        nx, ny = space.norm(x), space.norm(y)
        nxy = space.norm(x + y)
        assert np.all(nxy <= nx + ny + 1e-12 * np.maximum(1.0, nx + ny))
        assert np.allclose(space.norm(t[:, None] * x), np.abs(t) * nx, rtol=1e-12, atol=1e-12)
        assert space.norm(np.zeros(4)) == 0.0


def test_sup_norm():
    K = CompactSetModel.ksigma(alpha=1.0, truncation=100)
    assert sup_norm(K) == pytest.approx(1.0, abs=1e-12)
    assert sup_norm(CompactSetModel.cloud([[0.0, 0.0]])) == 0.0
    assert sup_norm(CompactSetModel.cloud([[1, 0], [0, 1]])) == pytest.approx(1.0)


def test_sigma_sequence():
    assert sigma_value(1.0, 1) == pytest.approx(1.0, abs=1e-15)
    assert sigma_value(1.0, 13) == pytest.approx(0.5, abs=1e-12)
    s = [sigma_value(1.0, j) for j in range(1, 60)]
    assert all(a > b for a, b in zip(s, s[1:]))
    for n in (1, 5, 30):
        assert sigma_pow2_index(1.0, n) == pytest.approx(sigma_value(1.0, 2.0**n), rel=1e-12)


def test_ksigma_embedding():
    K = CompactSetModel.ksigma(alpha=1.0, truncation=10)
    C = K.as_cloud()
    assert C.points.shape == (11, 10)
    assert np.allclose(np.linalg.norm(C.points, axis=1)[:-1], K.sigmas())
    assert np.all(C.points[-1] == 0.0)
    assert C.tail_gap == pytest.approx(sigma_value(1.0, 11))


def test_chebyshev_two_points():
    K = CompactSetModel.cloud([[1, 0], [0, 1]])
    br = chebyshev_radius(K)
    oracle = grid_meb_radius(K.points)
    assert br.exact
    assert br.upper == pytest.approx(math.sqrt(0.5), abs=1e-9)
    assert br.upper == pytest.approx(oracle, abs=1e-6)


def test_chebyshev_right_triangle():
    K = CompactSetModel.cloud([[0, 0], [2, 0], [0, 2]])
    br = chebyshev_radius(K)
    # circumcenter (1,1) by equidistance
    assert br.exact
    assert br.upper == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_chebyshev_single_point():
    assert chebyshev_radius(CompactSetModel.cloud([[3.0, -1.0]])).upper == 0.0


def test_chebyshev_vs_grid_random():
    rng = np.random.default_rng(11)
    for _ in range(5):
        pts = rng.normal(size=(12, 2))
        _, r = minimum_enclosing_ball(pts)
        assert r == pytest.approx(grid_meb_radius(pts, span=2.0), abs=1e-5)


def test_chebyshev_max_norm_bracket():
    K = CompactSetModel.cloud([[1, 0], [0, 1], [-1, 0]], NormSpec("max", 2))
    br = chebyshev_radius(K)
    # half the largest coordinate range (x spans [-1, 1]); center 0 attains it
    assert br.exact
    assert br.lower == br.upper == 1.0


def test_chebyshev_max_norm_is_half_the_largest_range():
    rng = np.random.default_rng(21)
    for m, d in ((2, 1), (15, 3), (300, 5)):
        P = rng.normal(size=(m, d)) * rng.uniform(0.5, 3.0, size=d)
        K = CompactSetModel.cloud(P, NormSpec("max", d))
        br = chebyshev_radius(K)
        r = float(np.ptp(P, axis=0).max()) / 2
        assert br.exact and br.lower == br.upper == r
        # the coordinate midranges attain it
        mid = 0.5 * (P.min(axis=0) + P.max(axis=0))
        assert np.max(np.abs(P - mid)) == pytest.approx(r, rel=1e-15)


def test_chebyshev_leq_sup_norm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        K = CompactSetModel.cloud(rng.normal(size=(20, 3)))
        assert chebyshev_radius(K).upper <= sup_norm(K) + 1e-9


def test_scale_set():
    K = CompactSetModel.cloud([[1, 0], [0, 1]])
    assert np.allclose(scale_set(K, 2.0).points, 2 * K.points)
    assert np.allclose(scale_set(K, -1.0).points, -K.points)
    assert np.all(scale_set(CompactSetModel.cloud([[1, 1]]), 0.0).points == 0.0)
    with pytest.raises(ValueError):
        scale_set(CompactSetModel.ksigma(1.0, 5), 2.0)


def test_scale_homogeneity_of_sup_norm():
    rng = np.random.default_rng(5)
    K = CompactSetModel.cloud(rng.normal(size=(15, 4)))
    for t in (0.5, 2.0, -3.0):
        assert sup_norm(scale_set(K, t)) == pytest.approx(abs(t) * sup_norm(K), rel=1e-12)


def test_bracket_invariants():
    with pytest.raises(ValueError):
        Bracket(2.0, 1.0)
    with pytest.raises(ValueError):
        Bracket(0.0, 1.0, exact=True)
    b = Bracket(1.0, 2.0)
    assert b.scaled(-2.0).upper == 4.0
    assert b.contains(1.5)
    assert not b.contains(2.5)
    assert b.contains(2.5, slack=0.6)
