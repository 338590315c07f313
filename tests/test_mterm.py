import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthlab.harness import HOLDS, VIOLATED
from widthlab.mterm import (
    STIRLING_BASE,
    VPOperator,
    best_m_term,
    best_tail,
    check_sigma_chain,
    vp_apply,
)


def brute_force_m_term(f, m):
    f = np.asarray(f, dtype=float)
    J = len(f)
    best = math.inf
    for keep in itertools.combinations(range(J), m):
        mask = np.ones(J, dtype=bool)
        mask[list(keep)] = False
        best = min(best, float(np.linalg.norm(f[mask])))
    return best


def test_best_tail_examples():
    assert best_tail([3, 2, 1, 0.5], 2) == pytest.approx(math.sqrt(1.25), abs=1e-12)
    assert best_tail([3, 2, 1, 0.5], 4) == 0.0
    assert best_tail([1, 0, 0], 0) == pytest.approx(1.0)


def test_best_m_term_examples():
    assert best_m_term([3, 2, 1, 0.5], 2) == pytest.approx(math.sqrt(1.25), abs=1e-12)
    assert best_m_term([0.5, 3, 1, 2], 2) == pytest.approx(math.sqrt(1.25), abs=1e-12)
    f = [0.3, -1.2, 0.8]
    assert best_m_term(f, 0) == pytest.approx(np.linalg.norm(f))


def test_m_term_beats_tail():
    rng = np.random.default_rng(0)
    for _ in range(200):
        f = rng.normal(size=10)
        m = int(rng.integers(0, 11))
        assert best_m_term(f, m) <= best_tail(f, m) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=4, max_size=12),
    st.integers(0, 4),
)
def test_m_term_matches_brute_force(coeffs, m):
    f = np.array(coeffs)
    m = min(m, len(f))
    assert best_m_term(f, m) == pytest.approx(brute_force_m_term(f, m), abs=1e-12)


def test_vp_apply_examples():
    V = VPOperator(n_k=2, A2=2.0)
    f = np.array([1.0, 1.0, 1.0, 1.0])
    assert np.allclose(vp_apply(V, f), [1.0, 1.0, 0.5, 0.0])
    low = np.array([0.3, -0.7, 0.0, 0.0])
    assert np.allclose(vp_apply(V, low), low)
    high = np.array([0.0, 0.0, 0.0, 0.0, 2.0, -1.0])
    assert np.allclose(vp_apply(V, high), 0.0)


def test_vp_norm_bound_and_smoothing():
    rng = np.random.default_rng(1)
    V = VPOperator(n_k=4, A2=2.5)
    for _ in range(100):
        f = rng.normal(size=16)
        g = vp_apply(V, f)
        assert np.linalg.norm(g) <= np.linalg.norm(f) + 1e-12
        # approximation property of the smoothed representative
        assert np.linalg.norm(f - g) <= (1 + V.A3) * best_tail(f, V.n_k) + 1e-12


def test_sigma_chain_trivial_sparse():
    V = VPOperator(n_k=4, A2=2.0)
    f = np.zeros(16)
    f[0] = 1.0
    v = check_sigma_chain(f, V, m=3)
    assert v.status == HOLDS


def test_sigma_chain_random_sets():
    rng = np.random.default_rng(7)
    V = VPOperator(n_k=8, A2=2.0)
    for _ in range(100):
        members = rng.normal(size=(rng.integers(1, 6), 64))
        v = check_sigma_chain(members, V, m=4)
        assert v.status == HOLDS
    members = np.random.default_rng(2).normal(size=(4, 8))
    assert check_sigma_chain(members, VPOperator(n_k=2, A2=2.0), m=2).status == HOLDS


def test_sigma_chain_binomial_witness():
    assert math.comb(16, 4) == 1820
    assert math.comb(16, 4) <= (STIRLING_BASE * 16 / 4) ** 4
    for nk in (4, 8, 16):
        for m in (2, 3, 5):
            if m < 2 * nk:
                assert math.comb(2 * nk, m) <= (2.0 * STIRLING_BASE * nk / m) ** m


def test_sigma_chain_precondition():
    V = VPOperator(n_k=4, A2=2.0)
    with pytest.raises(ValueError):
        check_sigma_chain(np.ones(16), V, m=1)
    with pytest.raises(ValueError):
        check_sigma_chain(np.ones(16), V, m=8)
