"""Best n-term tails, m-term thresholding, and multiplier smoothing operators
over the leading block of an orthonormal system.

Coefficient vectors represent expansions in the first J elements of an
orthonormal system, so every error below is the euclidean norm of dropped
coefficients and thresholding is optimal for the m-term problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harness import HOLDS, VIOLATED, Verdict

__all__ = [
    "VPOperator",
    "best_tail",
    "best_m_term",
    "vp_apply",
    "check_sigma_chain",
    "STIRLING_BASE",
]

# witness base for the binomial bound C(M, m) <= (base * M / m)^m
STIRLING_BASE = math.e


@dataclass(frozen=True)
class VPOperator:
    """Multiplier operator: identity through n_k, linear taper to zero at
    A2*n_k.  Multipliers in [0,1] keep the operator norm at A3 = 1 on an
    orthonormal system."""

    n_k: int
    A2: float

    def __post_init__(self):
        if self.n_k < 1:
            raise ValueError("n_k must be >= 1")
        if self.A2 <= 1:
            raise ValueError("A2 must exceed 1")

    @property
    def A3(self) -> float:
        return 1.0

    @property
    def cutoff(self) -> int:
        return math.floor(self.A2 * self.n_k)

    def multipliers(self, J: int) -> np.ndarray:
        j = np.arange(1, J + 1, dtype=float)
        hi = self.A2 * self.n_k
        alpha = (hi - j) / (hi - self.n_k)
        return np.clip(np.where(j <= self.n_k, 1.0, alpha), 0.0, 1.0)


def best_tail(f: np.ndarray, n: int) -> float:
    """Error of the best approximation from the first n elements: the
    euclidean norm of coefficients beyond index n."""
    f = np.asarray(f, dtype=float)
    if not 0 <= n <= f.shape[-1]:
        raise ValueError("n out of range")
    return float(np.linalg.norm(f[n:]))


def best_m_term(f: np.ndarray, m: int) -> float:
    """Error after keeping the m largest-magnitude coefficients (ties keep
    the lower index); optimal in an orthonormal system."""
    f = np.asarray(f, dtype=float)
    if not 0 <= m <= f.shape[-1]:
        raise ValueError("m out of range")
    if m == 0:
        return float(np.linalg.norm(f))
    order = np.lexsort((np.arange(f.shape[-1]), -np.abs(f)))
    drop = order[m:]
    return float(np.linalg.norm(f[drop]))


def _block_m_term(f: np.ndarray, m: int, block: int) -> float:
    """m-term error with terms restricted to the first ``block`` indices."""
    f = np.asarray(f, dtype=float)
    block = min(block, f.shape[-1])
    head, tail = f[:block], f[block:]
    kept = best_m_term(head, min(m, block))
    return math.hypot(kept, float(np.linalg.norm(tail)))


def vp_apply(V: VPOperator, f: np.ndarray) -> np.ndarray:
    """Coordinatewise multiplier application; norm never increases."""
    f = np.asarray(f, dtype=float)
    return f * V.multipliers(f.shape[-1])


def check_sigma_chain(members: np.ndarray, V: VPOperator, m: int,
                      tol: float = 1e-12) -> Verdict:
    """Exact two-sided check of the smoothing chain on a coefficient set:

    block-restricted m-term error <= (1 + 2 A3) max{tail error at n_k,
    unrestricted m-term error}, together with the binomial count bound
    C(cutoff, m) <= (A2 * e * n_k / m)^m.
    """
    members = np.atleast_2d(np.asarray(members, dtype=float))
    if not 1 < m < V.A2 * V.n_k:
        raise ValueError("need 1 < m < A2 * n_k")
    lhs = max(_block_m_term(f, m, V.cutoff) for f in members)
    tail_sup = max(best_tail(f, V.n_k) for f in members)
    mterm_sup = max(best_m_term(f, m) for f in members)
    rhs = (1 + 2 * V.A3) * max(tail_sup, mterm_sup)
    count = math.comb(V.cutoff, m)
    count_bound = (V.A2 * STIRLING_BASE * V.n_k / m) ** m
    details = (f"m={m}, n_k={V.n_k}, A2={V.A2:g}: block m-term {lhs:.6g} vs "
               f"(1+2A3) max(tail, m-term) {rhs:.6g}; C({V.cutoff},{m})={count} "
               f"vs witness bound {count_bound:.6g}")
    ok = lhs <= rhs + tol * max(1.0, rhs) and count <= count_bound
    return Verdict("m-term-chain", HOLDS if ok else VIOLATED,
                   rhs, (m, V.cutoff), details)
