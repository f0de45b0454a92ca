"""Triangular fuzzy numbers: the record, the TFN rule and defuzzification.

A triangular fuzzy number (TFN) is the triplet (lo, mode, hi) with
lo <= mode <= hi; membership rises linearly from lo to 1 at mode and falls
linearly back to 0 at hi.  The valuation holds TFNs as the rows of (n, 3)
arrays; ``is_tfn`` takes such arrays as well as floats, and ``defuzzify``
takes the arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import require_choice
from .record import Record

__all__ = [
    "TriangularFuzzyNumber",
    "TFN",
    "is_tfn",
    "defuzzify",
    "DEFUZZIFY_METHODS",
]


class TriangularFuzzyNumber(Record):
    """Value-semantic TFN.  Construction rejects unordered or non-finite
    triplets instead of silently reordering them: a reversed triplet in
    survey data is a data-entry error worth surfacing."""

    __slots__ = ("lo", "mode", "hi")

    def __init__(self, lo: float, mode: float, hi: float):
        lo, mode, hi = float(lo), float(mode), float(hi)
        if not is_tfn(lo, mode, hi):
            raise ValueError(f"TFN components must be finite and satisfy lo <= mode <= hi, "
                             f"got ({lo}, {mode}, {hi})")
        self._set(lo, mode, hi)

    @classmethod
    def crisp(cls, a: float) -> "TriangularFuzzyNumber":
        """Embed a real number as the degenerate TFN (a, a, a)."""
        return cls(a, a, a)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.lo, self.mode, self.hi)


TFN = TriangularFuzzyNumber

DEFUZZIFY_METHODS = ("centroid", "mode")


def is_tfn(lo, mode, hi):
    """The TFN rule on floats or arrays: lo, mode, hi finite, lo <= mode <= hi."""
    return (abs(lo) < math.inf) & (abs(hi) < math.inf) & (lo <= mode) & (mode <= hi)


def defuzzify(t: np.ndarray, method: str = "centroid") -> np.ndarray:
    """Map each (lo, mode, hi) row of an (n, 3) array to one real number:
    ``centroid`` returns (lo + mode + hi) / 3, ``mode`` returns the mode.  The
    result always lies inside [lo, hi]."""
    require_choice(method, DEFUZZIFY_METHODS, "defuzzification method")
    lo, mode, hi = np.asarray(t, dtype=float).T
    if method == "mode":
        return mode
    with np.errstate(over="ignore"):
        c = (lo + mode + hi) / 3.0
        # where the sum overflowed; the thirds of finite ends cannot
        c = np.where(abs(c) == math.inf, lo / 3.0 + mode / 3.0 + hi / 3.0, c)
    # the fp mean of three equal values can exit the support by an ulp
    return np.minimum(np.maximum(c, lo), hi)
