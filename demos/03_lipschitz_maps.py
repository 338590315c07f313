#!/usr/bin/env python3
"""Explicit Lipschitz maps whose images track a subspace family.

Builds the hat-system map (claimed constant N+1), the cube-bump map
(claimed constant 3), and the John-chart variants for a max-norm ambient,
then compares their peak-pair Lipschitz estimates against the claims and evaluates the
fixed-width of the witness map.
"""

import numpy as np

from widthlab import (
    CompactSetModel,
    NormSpec,
    build_phi,
    build_psi,
    build_theta_xi,
    estimate_lipschitz,
    fixed_width_upper,
    john_ellipsoid,
    nonlinear_width,
)

rng = np.random.default_rng(11)

# Four orthogonal line charts in R^8.
Q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
bases = [Q[:, [i]] for i in range(4)]

phi = build_phi(bases)
psi = build_psi(bases)
print("hat map:   claimed", phi.gamma, " estimated",
      round(estimate_lipschitz(phi, pairs=50_000, seed=1), 9))
print("bump map:  claimed", psi.gamma, " estimated",
      round(estimate_lipschitz(psi, pairs=50_000, seed=1), 9))

# John charts for a max-norm ambient: the inscribed ellipsoid of each
# induced chart ball, dilated by sqrt(n).
amb = NormSpec("max", 2)
Q2, _ = np.linalg.qr(rng.normal(size=(2, 2)))
theta, xi = build_theta_xi([Q2[:, [0]], Q2[:, [1]]], amb)
print("max-norm theta: claimed", theta.gamma, " estimated",
      round(estimate_lipschitz(theta, pairs=50_000, seed=2), 9))
print("max-norm xi:    claimed", xi.gamma, " estimated",
      round(estimate_lipschitz(xi, pairs=50_000, seed=2), 9))

# Inscribed-ellipsoid sandwich for the cross-polytope.
jm = john_ellipsoid(("vertices", np.eye(3)))
print("\ncross-polytope inscribed map (should be I/sqrt(3)):")
print(np.round(jm.matrix, 6), " gap", jm.gap)

# Witness-level chain: the bump map built from a width witness approximates
# the set at least as well as the witness family does.
K = CompactSetModel.cloud(rng.normal(size=(10, 3)))
from widthlab import scale_set, sup_norm

Ks = scale_set(K, 1.0 / sup_norm(K))
res = nonlinear_width(Ks, 1, 2, seed=5)
spec = build_psi(res.witness.bases)
fw = fixed_width_upper(Ks, spec)
print(f"\nfixed-width of witness map {fw:.6f} <= width upper "
      f"{res.bracket.upper:.6f}: {fw <= res.bracket.upper + 1e-6}")
