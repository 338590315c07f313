#!/usr/bin/env python3
"""Set models and certified covering/packing/entropy brackets.

Walks through the set model, a finite cloud, and the slowly decaying
coordinate sequence family built as one, then computes covers, packings, and entropy
numbers with their certificates.
"""

import numpy as np

from widthlab import (
    CompactSetModel,
    chebyshev_radius,
    cover_number,
    entropy_number,
    greedy_cover,
    ksigma_inner_entropy_attained,
    ksigma_nested_cover_radius,
    max_packing,
    packing_number,
    sup_norm,
)

rng = np.random.default_rng(7)

# A random cloud in R^3.  Every quantity downstream returns a certified
# [lower, upper] bracket rather than a point estimate.
K = CompactSetModel.cloud(rng.normal(size=(40, 3)), label="demo-cloud")
print(f"set: {K.label}, {K.size} points, sup-norm {sup_norm(K):.4f}")
print(f"enclosing-ball radius: {chebyshev_radius(K).upper:.6f} (exact)")

# Greedy covers give upper bounds; packings at doubled radius give lower
# bounds; small instances are closed exactly by branch and bound.
for eps in (1.0, 2.0):
    cov = greedy_cover(K, eps)
    pack = max_packing(K, eps)
    nc = cover_number(K, eps, inner=True)
    pn = packing_number(K, eps)
    print(f"eps={eps:.1f}: greedy cover {cov.cardinality:3d} balls | "
          f"min cover in [{nc.lower:.0f}, {nc.upper:.0f}]"
          f"{' exact' if nc.exact else ''} | packing {pack.cardinality:3d}"
          f" (bracket [{pn.lower:.0f}, {pn.upper:.0f}])")

# Entropy numbers: the radius at which 2^n balls suffice.
print("\nentropy numbers (inner/outer):")
for n in range(4):
    te = entropy_number(K, n, inner=True)
    e = entropy_number(K, n, inner=False)
    print(f"  n={n}: inner [{te.lower:.4f}, {te.upper:.4f}] "
          f"outer [{e.lower:.4f}, {e.upper:.4f}]")

# The sequence family s_j = 1/[log2 log2 (j+3)]^alpha has closed forms.
# The greedy largest-first cover reproduces the nested-cover radius
# sqrt(s_{2^n}^2 + s_{2^n+1}^2); the optimal cover routes the tail through
# the zero element and attains s_{2^n}.
print("\nsequence family (alpha=1):")
for n in (1, 2, 3):
    K_seq = CompactSetModel.ksigma(1.0, truncation=2**n + 8)
    br = entropy_number(K_seq, n, inner=True)
    nested = ksigma_nested_cover_radius(1.0, n)
    hub = ksigma_inner_entropy_attained(1.0, n)
    print(f"  n={n}: numeric [{br.lower:.6f}, {br.upper:.6f}] "
          f"hub-cover {hub:.6f} nested-cover {nested:.6f} "
          f"(tail gap {K_seq.tail_gap:.4f})")
