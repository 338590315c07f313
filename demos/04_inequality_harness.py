#!/usr/bin/env python3
"""The inequality harness: tri-state verdicts over certified brackets.

Runs the weighted-maximum domination checks, the packing route from width
bounds to entropy bounds, rate fits, and the two-sided agreement band on
closed-form series of the coordinate sequence family.
"""

import numpy as np

from widthlab import (
    Bracket,
    CompactSetModel,
    check_carl,
    check_entropy_from_width,
    check_generalized_carl,
    check_lower_bound_theorems,
    entropy_sandwich,
    fit_rate,
    ksigma_entropy_series,
    ksigma_linear_width_series,
    ksigma_nested_cover_radius,
    ksigma_nonlinear_width_series,
    packing_cover_sandwich,
    scale_set,
)

# Closed-form series for alpha = 1.
e = ksigma_entropy_series(1.0, range(0, 20))
d = ksigma_linear_width_series(1.0, range(0, 12))

print("weighted-maximum dominations (window [1,12]):")
for r in (0.5, 1.0, 2.0):
    v = check_carl(e, d, r, window=(1, 12))
    print(f"  r={r}: {v.status}, witness C={v.witness:.4f}")

d_lam = ksigma_nonlinear_width_series(1.0, ("lambda", 2.0), range(1, 13))
v = check_generalized_carl(e, d_lam, 1.0, ("lambda", 2.0), (1, 12))
print(f"  lambda-schedule: {v.status}, witness C={v.witness:.4f}")

# Entropy-from-width packing route on a rescaled sequence family.
K = scale_set(CompactSetModel.ksigma(1.0, truncation=65), 0.5)
v = check_entropy_from_width(K, 2, 2, seed=0)
print(f"\nentropy-from-width: {v.status} ({v.details})")

# Rate fit: the nested-cover radii decay like 1/log2(n) over a finite window.
series = {n: Bracket.exactly(ksigma_nested_cover_radius(1.0, n)) for n in range(3, 13)}
fit = fit_rate(series, "log-only", (3, 12))
print(f"\nrate fit on the closed form: alpha_hat = {fit.params['alpha']:.4f}, "
      f"residual {fit.residual:.2e}")

# Two-sided band between the entropy scale and the width-bound scale.
from widthlab import sigma_value

w = {n: Bracket.exactly(sigma_value(1.0, (n - 1) * 2.0**n + 1)) for n in range(3, 13)}
v = check_lower_bound_theorems(series, w, alpha=1.0, window=(3, 12), band_cap=4.0)
print(f"two-sided band: {v.status} ({v.details})")

# Sandwich suites never certify a violation on honest brackets.
rng = np.random.default_rng(1)
K = CompactSetModel.cloud(rng.normal(size=(30, 3)))
verdicts = packing_cover_sandwich(K, (0.8, 1.5)) + entropy_sandwich(K, (0, 1, 2))
statuses = [v.status for v in verdicts]
print(f"\nsandwich suite on a random cloud: {statuses.count('holds')} holds, "
      f"{statuses.count('indeterminate')} indeterminate, "
      f"{statuses.count('violated')} violated")
