"""Triangular fuzzy numbers: membership, alpha-cuts, arithmetic, defuzzification.

A triangular fuzzy number (TFN) is the triplet (lo, mode, hi) with
lo <= mode <= hi; membership rises linearly from lo to 1 at mode and falls
linearly back to 0 at hi.  All operations here are pure functions over
immutable values and are safe to call concurrently.
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
    "Interval",
    "membership",
    "alpha_cut",
    "add",
    "scale",
    "mean",
    "defuzzify",
    "DEFUZZIFY_METHODS",
    "tfn_to_text",
    "tfn_from_text",
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


class Interval(Record):
    """Closed real interval [low, high]."""

    __slots__ = ("low", "high")

    def __init__(self, low: float, high: float):
        if not low <= high:
            raise ValueError(f"interval requires low <= high, got [{low}, {high}]")
        self._set(low, high)


def membership(t: TFN, x: float) -> float:
    """Membership degree of x in t: piecewise linear, 1 at the mode,
    0 outside [lo, hi].  A zero-width side (lo == mode or mode == hi) is
    treated as the limit of a shrinking branch, so crisp numbers (a, a, a)
    behave as expected."""
    if x < t.lo or x > t.hi:
        return 0.0
    if x == t.mode:
        return 1.0
    if x < t.mode:
        return (x - t.lo) / (t.mode - t.lo)
    return (t.hi - x) / (t.hi - t.mode)


def alpha_cut(t: TFN, alpha: float) -> Interval:
    """Interval of values with membership >= alpha.

    alpha must lie in [0, 1]; the cut shrinks linearly from the full support
    at alpha=0 to the single point [mode, mode] at alpha=1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if alpha == 0.0:
        return Interval(t.lo, t.hi)
    if alpha == 1.0:
        return Interval(t.mode, t.mode)
    low = (t.mode - t.lo) * alpha + t.lo
    high = -(t.hi - t.mode) * alpha + t.hi
    if low > high:
        # rounding near alpha=1 can cross the endpoints by an ulp
        low = high = 0.5 * (low + high)
    return Interval(low, high)


def add(a: TFN, b: TFN) -> TFN:
    """Component-wise sum of two TFNs."""
    return TFN(a.lo + b.lo, a.mode + b.mode, a.hi + b.hi)


def scale(k: float, t: TFN) -> TFN:
    """Multiply a TFN by a real scalar.  A negative scalar reflects the
    number, so the support endpoints swap: k*(lo, mode, hi) = (k*hi, k*mode, k*lo)."""
    if k >= 0:
        return TFN(k * t.lo, k * t.mode, k * t.hi)
    return TFN(k * t.hi, k * t.mode, k * t.lo)


def mean(ts) -> TFN:
    """Component-wise arithmetic mean of a nonempty sequence of TFNs."""
    ts = list(ts)
    if not ts:
        raise ValueError("mean of an empty TFN sequence is undefined")
    n = len(ts)
    return TFN(
        math.fsum(t.lo for t in ts) / n,
        math.fsum(t.mode for t in ts) / n,
        math.fsum(t.hi for t in ts) / n,
    )


def defuzzify(t: TFN | np.ndarray, method: str = "centroid") -> float | np.ndarray:
    """Map a TFN, or each (lo, mode, hi) row of an (n, 3) array, to one real number:
    ``centroid`` returns (lo + mode + hi) / 3, ``mode`` returns the mode.  The
    result always lies inside [lo, hi]."""
    if isinstance(t, TFN):
        return defuzzify(np.array([t.as_tuple()]), method).item()
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


def tfn_to_text(t: TFN) -> str:
    """Render a TFN in the semicolon file form, e.g. ``3.54;4.54;4.87``."""
    return f"{t.lo!r};{t.mode!r};{t.hi!r}"


def tfn_from_text(text: str) -> TFN:
    """Parse the semicolon file form ``lo;mode;hi`` (period decimal mark)."""
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(f"expected 'lo;mode;hi', got {text!r}")
    try:
        lo, mode, hi = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"non-numeric TFN component in {text!r}") from None
    return TFN(lo, mode, hi)
