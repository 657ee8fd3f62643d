"""Symmetric-tensor matrix coefficients.

Under the unnormalized convention

    <a_1 (.) ... (.) a_n, b_1 (.) ... (.) b_n> = perm(<a_i, b_j>),

the coefficient of a symmetric power V^(.)n on product vectors is the
permanent of the Gram matrix of pairwise coefficients.  The permanent is
evaluated by Ryser's inclusion-exclusion formula with Gray-code updates,
cost 2^n * n.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .correlate import CorrelationResult, perturbation_bound
from .errors import ResourceError

MAX_PERMANENT_SIZE = 20


def permanent(matrix: Sequence[Sequence[complex]]) -> complex:
    n = len(matrix)
    if n == 0:
        return 1 + 0j
    if any(len(row) != n for row in matrix):
        raise ValueError("permanent needs a square matrix")
    if n > MAX_PERMANENT_SIZE:
        raise ResourceError(f"permanent of order {n} > {MAX_PERMANENT_SIZE} (cost 2^n n)")
    rows = [[complex(x) for x in row] for row in matrix]
    col_sums = [0j] * n
    total = 0j
    subset = 0
    sign = 1
    for g in range(1, 1 << n):
        bit = (g ^ (g >> 1)) ^ subset  # Gray code: the single flipped column
        subset ^= bit
        j = bit.bit_length() - 1
        if subset & bit:
            for i in range(n):
                col_sums[i] += rows[i][j]
        else:
            for i in range(n):
                col_sums[i] -= rows[i][j]
        prod = complex(1, 0)
        for s in col_sums:
            prod *= s
        k = bin(subset).count("1")
        total += (-1) ** (n - k) * prod
    return total


def sym_tensor_correlate(gram: Sequence[Sequence[CorrelationResult]]) -> CorrelationResult:
    """Permanent of a Gram matrix of correlation results; the bound is
    perm(|V| + E) - perm(|V|), the permanent being multilinear in its rows."""
    value = permanent([[r.value for r in row] for row in gram])
    magnitudes = [np.array([abs(r.value) for r in row]) for row in gram]
    bounds = [np.array([r.error_bound for r in row]) for row in gram]
    bound = perturbation_bound(lambda rows: permanent(rows).real, magnitudes, bounds)
    stage_used = max((r.stage_used for row in gram for r in row), default=0)
    return CorrelationResult(value=value, error_bound=bound, stage_used=stage_used)
