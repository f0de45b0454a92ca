"""Factor weights from Saaty pairwise-comparison matrices.

``derive_weights`` extracts the principal eigenvector of a positive
reciprocal matrix by power iteration and reports the standard consistency
diagnostics (lambda_max, CI, CR).  A CR above 0.1 flags the judgments as
inconsistent but does not raise; the caller decides whether to proceed.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .record import Record

__all__ = ["WeightReport", "WeightCheck", "validate_pairwise", "derive_weights",
           "validate_weights", "RANDOM_INDEX", "CR_LIMIT"]

# Saaty random indices for matrix orders 1..15.  Orders up to 10 are the
# classic tabulation; 11..15 are the commonly used extension.
RANDOM_INDEX = {
    1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32,
    8: 1.41, 9: 1.45, 10: 1.49, 11: 1.51, 12: 1.54, 13: 1.56, 14: 1.57, 15: 1.59,
}

CR_LIMIT = 0.1

# Published factor tables round their weights, so weights summing to e.g.
# 0.998 must still be accepted.
WEIGHT_SUM_TOLERANCE = 0.01

MAX_FACTORS = 15
_RECIPROCAL_RTOL = 1e-9
# power iteration stops once no weight moves by more than this, relative to itself
_CONVERGENCE_RTOL = 1e-10


class WeightReport(Record):
    """Derived weight vector plus consistency diagnostics."""

    __slots__ = ("weights", "lambda_max", "consistency_index", "consistency_ratio")

    def __init__(self, weights: tuple[float, ...], lambda_max: float,
                 consistency_index: float, consistency_ratio: float):
        self._set(weights, lambda_max, consistency_index, consistency_ratio)

    @property
    def inconsistent(self) -> bool:
        return self.consistency_ratio > CR_LIMIT


class WeightCheck(Record):
    """Outcome of a weight-vector validity check."""

    __slots__ = ("ok", "detail")

    def __init__(self, ok: bool, detail: str = ""):
        self._set(ok, detail)


def validate_pairwise(matrix) -> np.ndarray:
    """Validate a pairwise-comparison matrix and return it as an ndarray.

    Requirements: square with 2 <= n <= 15, strictly positive entries, unit
    diagonal, and reciprocal symmetry a[j][i] = 1/a[i][j] within 1e-9
    relative.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"pairwise matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    if not 2 <= n <= MAX_FACTORS:
        raise ValueError(
            f"pairwise matrix order must be between 2 and {MAX_FACTORS}, got {n}"
        )
    if not np.all(np.isfinite(a)) or np.any(a <= 0):
        raise ValueError("pairwise matrix entries must be finite and strictly positive")
    if np.any(np.abs(np.diag(a) - 1.0) > _RECIPROCAL_RTOL):
        raise ValueError("pairwise matrix diagonal must be 1")
    if not np.allclose(a * a.T, 1.0, rtol=_RECIPROCAL_RTOL, atol=0.0):
        raise ValueError("pairwise matrix must be reciprocal: a[j][i] = 1/a[i][j]")
    return a


def derive_weights(matrix, max_iter: int = 10_000) -> WeightReport:
    """Weights as the normalized principal eigenvector of a pairwise matrix.

    Power iteration runs until no weight moves by more than
    ``_CONVERGENCE_RTOL`` of itself, or ``max_iter`` is exceeded, which raises
    a numeric error.  For a positive reciprocal matrix lambda_max >= n; the
    consistency index is (lambda_max - n) / (n - 1) and the consistency ratio
    divides that by the random index of the same order.
    """
    a = validate_pairwise(matrix)
    n = a.shape[0]
    w = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        w, previous = a @ w, w
        w /= w.sum()
        if np.all(np.abs(w - previous) <= _CONVERGENCE_RTOL * np.abs(w)):
            break
    else:
        raise NumericError(
            f"power iteration did not converge within {max_iter} iterations"
        )
    # with w normalized to sum 1, A w ~ lambda w gives lambda = sum(A w)
    lambda_max = float(np.sum(a @ w))
    ci = (lambda_max - n) / (n - 1)
    cr = 0.0 if n <= 2 else ci / RANDOM_INDEX[n]
    return WeightReport(tuple(float(x) for x in w), lambda_max, ci, cr)


def validate_weights(weights, tolerance: float = WEIGHT_SUM_TOLERANCE) -> WeightCheck:
    """Check that every weight lies in [0, 1] and the sum is 1 within
    ``tolerance``.  Returns a diagnostic naming offending indices rather
    than raising, so callers can report or ignore as they see fit."""
    w = [float(v) for v in weights]
    total = sum(w)
    bad = [i for i, v in enumerate(w) if not 0.0 <= v <= 1.0]
    problems = []
    if bad:
        problems.append(f"weights outside [0, 1] at indices {bad}")
    if abs(total - 1.0) > tolerance:
        problems.append(f"sum {total:.6g} differs from 1 by more than {tolerance:.6g}")
    return WeightCheck(ok=not problems, detail="; ".join(problems))
