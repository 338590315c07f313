"""Fast tests of the benchmark's own code: every correctness check accepts a
right answer and rejects a deliberately wrong bracket or witness, and the
metric names and units agree with BENCHMARK.json.

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np
import pytest

import checks as ck
import tracing
from worker import unit_of

RNG = np.random.default_rng(7)
P8 = RNG.normal(size=(8, 2))
D8 = ck.dist_matrix(P8, P8, "euclidean")


def br(lower, upper, exact=False):
    return NS(lower=lower, upper=upper, exact=exact)


def test_distances_follow_the_norm():
    x = np.array([[0.0, 0.0]])
    y = np.array([[3.0, -4.0]])
    assert ck.dist_matrix(x, y, "euclidean")[0, 0] == 5.0
    assert ck.dist_matrix(x, y, "max")[0, 0] == 4.0
    assert math.isclose(ck.dist_matrix(x, y, "pnorm", 1.0)[0, 0], 7.0)


def test_bracket_shape_rejects_inverted_and_false_exact():
    assert ck.bracket_shape(br(1.0, 1.0, True), "ok") == []
    assert ck.bracket_shape(br(2.0, 1.0), "inverted")
    assert ck.bracket_shape(br(1.0, 1.1, True), "false exact")


def test_brute_force_cover_count_in_bracket():
    eps = float(np.median(D8))
    count = ck.brute_cover_count(D8, eps)
    assert ck.contains(br(count, count, True), count, "right") == []
    assert ck.contains(br(count + 1, count + 2), count, "too high")
    assert ck.contains(br(1, count - 1), count, "too low") or count == 1


def test_brute_force_packing_count_in_bracket():
    eps = float(np.median(D8))
    best = ck.brute_packing_count(D8, eps)
    assert best >= 2
    assert ck.contains(br(best, best, True), best, "right") == []
    assert ck.contains(br(best + 1, best + 1, True), best, "wrong")


def test_brute_force_counts_on_a_line():
    pts = np.arange(5.0)[:, None]
    D = ck.dist_matrix(pts, pts, "euclidean")
    assert ck.brute_cover_count(D, 1.0) == 2   # centres 1 and 3 (or 4)
    assert ck.brute_packing_count(D, 1.0) == 3  # 0, 2, 4
    assert ck.brute_inner_entropy(D, 1) == 1.0


def test_inner_and_outer_entropy_checks():
    inner = ck.brute_inner_entropy(D8, 1)
    assert ck.contains(br(inner, inner, True), inner, "right") == []
    assert ck.contains(br(inner * 1.01, inner * 1.02), inner, "shifted")
    assert ck.check_outer_entropy(br(inner / 2, inner), inner, "right") == []
    assert ck.check_outer_entropy(br(inner * 1.1, inner * 1.2), inner, "above inner")
    assert ck.check_outer_entropy(br(0.0, inner * 0.4), inner, "below half")


def test_cover_witness_is_checked_in_the_model_norm():
    pts = np.array([[0.0, 0.0], [1.0, 1.0]])
    cover = NS(epsilon=1.2, centers=pts[:1], cardinality=1, inner=True)
    assert ck.check_cover_witness(cover, pts, "max", None, "max norm") == []
    assert ck.check_cover_witness(cover, pts, "euclidean", None, "euclidean")
    off_set = NS(epsilon=1.2, centers=np.array([[0.5, 0.5]]), cardinality=1, inner=True)
    assert ck.check_cover_witness(off_set, pts, "max", None, "centre off the set")
    miscount = NS(epsilon=1.2, centers=pts[:1], cardinality=2, inner=True)
    assert ck.check_cover_witness(miscount, pts, "max", None, "cardinality")


def test_packing_witness_is_checked_in_the_model_norm():
    # 1.0 apart in the max norm, 1.41 in the euclidean norm
    packing = NS(epsilon=1.2, points=np.array([[0.0, 0.0], [1.0, 1.0]]), cardinality=2)
    assert ck.check_packing_witness(packing, "euclidean", None, "euclidean") == []
    assert ck.check_packing_witness(packing, "max", None, "max norm")


def test_entropy_sides_need_a_cover_and_a_packing():
    pts = np.arange(9.0)[:, None]
    # largest-norm-first, two balls cover 0..8 from radius 4 on (centres 8
    # and 3); below radius 2 three points are pairwise more than 2r apart
    assert ck.check_entropy_upper_witness(br(1.9, 4.0), pts, 1, "euclidean", None, "right") == []
    assert ck.check_entropy_upper_witness(br(1.9, 3.5), pts, 1, "euclidean", None, "too low")
    assert ck.check_entropy_lower_cert(br(1.9, 2.0), pts, 1, "euclidean", None, "right") == []
    assert ck.check_entropy_lower_cert(br(2.5, 3.0), pts, 1, "euclidean", None, "too high")


def test_sequence_closed_form():
    alpha, J, n = 1.0, 11, 2
    assert ck.sigma(1.0, 1) == 1.0
    value = ck.sigma(alpha, 2**n)
    Q = ck.ksigma_points(alpha, J)
    assert ck.brute_inner_entropy(ck.dist_matrix(Q, Q, "euclidean"), n) == pytest.approx(value)
    tail = ck.sigma(alpha, J + 1)
    assert ck.contains(br(value, value, True), value, "right", slack=tail) == []
    assert ck.contains(br(value + 1.01 * tail, value + 2 * tail), value, "wrong", slack=tail)


def test_spectral_lower_bound_check():
    P = RNG.normal(size=(20, 4))
    spec = ck.spectral_lower(P, 1)
    assert ck.check_spectral(br(spec, 2 * spec), P, 1, "right") == []
    assert ck.check_spectral(br(0.5 * spec, 0.9 * spec), P, 1, "upper below")
    assert ck.check_spectral(br(1.5 * spec, 2 * spec), P, 1, "lower above")


def test_planar_line_check():
    P = RNG.normal(size=(15, 2))
    val, err = ck.planar_line_grid(P)
    assert err < 1e-3
    assert ck.check_planar_line(br(val, val, True), P, "right") == []
    assert ck.check_planar_line(br(0.9 * val, 0.9 * val, True), P, "below the optimum")
    assert ck.check_planar_line(br(1.1 * val, 1.1 * val, True), P, "above the grid")


def _family(P, V, achieved, upper):
    witness = NS(bases=(V,), assignment=np.zeros(len(P), dtype=int), achieved=achieved)
    return NS(witness=witness, bracket=br(0.0, upper))


def test_family_value_recomputed_by_projection():
    P = RNG.normal(size=(10, 3))
    V = np.linalg.qr(RNG.normal(size=(3, 1)))[0]
    true = float(np.linalg.norm(ck.projection_residuals(P, V), axis=1).max())
    assert ck.check_family_euclidean(_family(P, V, true, true), P, "right") == []
    assert ck.check_family_euclidean(_family(P, V, 0.9 * true, 0.9 * true), P, "wrong value")
    assert ck.check_family_euclidean(_family(P, 2 * V, true, true), P, "not orthonormal")


def test_family_value_against_the_lp_distance():
    P = RNG.normal(size=(6, 3))
    V = np.linalg.qr(RNG.normal(size=(3, 1)))[0]
    exact = max(ck.lp_subspace_distance(f, V, "max") for f in P)
    resid = float(ck.norm_rows(ck.projection_residuals(P, V), "max").max())
    assert exact <= resid + 1e-12
    assert ck.check_family_lp(_family(P, V, resid, resid), P, "max", None, "right") == []
    assert ck.check_family_lp(_family(P, V, 0.9 * exact, 0.9 * exact), P, "max", None, "below LP")


def test_lipschitz_fixed_width_and_homogeneity_checks():
    assert ck.check_lipschitz(2.9, 3.0, "right") == []
    assert ck.check_lipschitz(3.1, 3.0, "over")
    assert ck.check_fixed_width(0.5, 0.5, "right") == []
    assert ck.check_fixed_width(0.6, 0.5, "over")
    assert ck.check_homogeneity(br(1.0, 3.0), br(0.5, 1.5), -2.0, "right") == []
    assert ck.check_homogeneity(br(1.0, 3.0 + 1e-6), br(0.5, 1.5), -2.0, "off by 1e-6")


def test_enclosing_radius_checks():
    P = RNG.normal(size=(30, 3))
    half = ck.diameter(P, "euclidean") / 2
    assert ck.check_enclosing_radius(br(half, half, True), P, "euclidean", None,
                                     "half diameter") == []
    assert ck.check_enclosing_radius(br(half * 0.9, half * 0.9, True), P, "euclidean", None,
                                     "below half diameter")
    closed = float(np.ptp(P, axis=0).max()) / 2
    assert ck.check_enclosing_radius(br(closed, closed, True), P, "max", None, "right") == []
    assert ck.check_enclosing_radius(br(1.1 * closed, 1.2 * closed), P, "max", None, "wrong")


def test_john_checks():
    A = RNG.normal(size=(8, 3))
    # the largest ball inside {|A x|_inf <= 1} has radius 1 / max row norm
    phi = np.eye(3) / np.linalg.norm(A, axis=1).max()
    good = NS(matrix=phi, gap=0.0, converged=True, factor=math.sqrt(3))
    assert ck.check_john_facets(good, A, 1e-3, "inscribed ball") == []
    assert ck.check_john_facets(NS(**{**vars(good), "matrix": 1.1 * phi}), A, 1e-3, "too big")
    assert ck.check_john_facets(NS(**{**vars(good), "gap": 0.1}), A, 1e-3, "gap over tol")
    V = np.eye(2)
    jm = NS(matrix=np.eye(2) / math.sqrt(2), gap=0.0, converged=True, factor=math.sqrt(2))
    assert ck.check_john_vertices(jm, V, 1e-3, "right") == []
    assert ck.check_john_vertices(NS(**{**vars(jm), "matrix": np.eye(2)}), V, 1e-3, "too big")
    assert ck.check_john_vertices(NS(**{**vars(jm), "matrix": np.eye(2) / 4}), V, 1e-3,
                                  "vertex outside")


def test_violated_verdicts_are_reported():
    v = [NS(check="c", status="holds", details=""), NS(check="d", status="violated", details="")]
    assert len(ck.verdicts_not_violated(v, "x")) == 1


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "harness.entropy_sandwich", "parent": None, "round": 0, "start": 0.0, "end": 1.0,
         "decided": 2},
        {"name": "entropy.entropy_number", "parent": 0, "round": 0, "start": 0.1, "end": 0.7,
         "brackets": [(0.5, 1.0, False)]},
        {"name": "spaces.minimum_enclosing_ball", "parent": 1, "round": 0, "start": 0.2, "end": 0.4},
    ]
    m = tracing.round_metrics(spans, 0)
    assert m["harness.self_s"] == pytest.approx(0.4)
    assert m["entropy.self_s"] == pytest.approx(0.4)
    assert m["spaces.self_s"] == pytest.approx(0.2)
    assert m["harness.sandwich_s"] == pytest.approx(1.0)
    assert m["entropy.entropy_number_s"] == pytest.approx(0.6)
    assert m["entropy.bracket_rel_width"] == pytest.approx(0.5)
    assert m["harness.verdicts_decided"] == 2
    assert m["spaces.calls"] == 1


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    per_layer = set(tracing.round_metrics([], 0))
    per_layer |= set(tracing.runner_metrics("", 0.0, tracing.suite_sections(), False))
    per_layer |= {"trace.wall_s", "spaces.import_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert unit_of(m["name"]) == m["unit"], m["name"]

