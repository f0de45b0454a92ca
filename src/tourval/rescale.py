"""Min-max rescaling of crisp values and triangular fuzzy numbers.

``rescale_endpoints`` maps values from a source range [x, y] onto a target
range [m, M] with the affine min-max transform, a TFN endpoint by endpoint;
``apply_range_policy`` handles values outside [x, y], under ``clamp`` by
printing one line to stderr.  Both take arrays: the pipeline admits every
judgement with the one and the valuation rescales every score with the other.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

import numpy as np

from .errors import OutOfRangeError, require_choice
from .record import Record

__all__ = ["SourceRange", "TargetRange", "RANGE_POLICIES", "apply_range_policy",
           "rescale_endpoints"]

COMPONENTS = ("lo", "mode", "hi")
RANGE_POLICIES = ("strict", "clamp")


class _Range(Record):
    """Both range types' rule: lower < upper by a finite span of at least the
    smallest normal float, so the min-max map neither overflows, nor divides
    by zero, nor loses digits to a subnormal span (its reciprocal is then
    finite too)."""

    __slots__ = ()

    def _set_range(self, low: float, high: float) -> None:
        self._set(low, high)
        if not sys.float_info.min <= self.span < math.inf:
            kind = type(self).__name__.removesuffix("Range").lower()
            raise ValueError(f"{kind} range {[low, high]} must increase by a finite "
                             f"span of at least {sys.float_info.min} (negate a descending "
                             "scale)")

    @property
    def span(self) -> float:
        low, high = self._values()
        return float(high - low)


class SourceRange(_Range):
    """Inventoried range [x, y] of a factor, x < y.

    A factor scored on a descending scale must be encoded by negating its
    values (e.g. damages scored in [-5, 0]), never by swapping x and y:
    rescaling stays strictly increasing that way.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self._set_range(x, y)


class TargetRange(_Range):
    """Common dimensionless range [m, M] that all factors are mapped onto."""

    __slots__ = ("m", "M")

    def __init__(self, m: float, M: float):
        self._set_range(m, M)


def apply_range_policy(values, x, y, policy: str,
                       locate: Callable[[tuple[int, ...]], str]) -> np.ndarray:
    """Out-of-range policy for values against their source range [x, y]
    (broadcast): ``strict`` raises OutOfRangeError for the first value outside,
    ``clamp`` saturates all and prints one line to stderr, naming the first
    value and the count.  ``locate(index)`` names a value."""
    require_choice(policy, RANGE_POLICIES, "out-of-range policy", ValueError)
    values = np.asarray(values, dtype=float)
    x, y = np.broadcast_to(x, values.shape), np.broadcast_to(y, values.shape)
    outside = ~((x <= values) & (values <= y))   # NaN counts as outside
    if not outside.any():
        return values
    first = np.unravel_index(np.argmax(outside), values.shape)
    a, lo, hi = float(values[first]), float(x[first]), float(y[first])
    if policy == "strict":
        raise OutOfRangeError(f"{locate(first)}{a} outside source range [{lo}, {hi}]")
    print(f"{locate(first)}{a} clamped to {min(max(a, lo), hi)} (source range "
          f"[{lo}, {hi}]); {outside.sum()} value(s) clamped", file=sys.stderr)
    return np.minimum(np.maximum(values, x), y)


def rescale_endpoints(values, x, y, tgt: TargetRange) -> np.ndarray:
    """Min-max map of each value from its source range [x, y] (broadcast)
    onto [m, M]: M - (M - m) * ((1 / (y - x)) * (y - a)), clamped to [m, M].
    Strictly increasing, so mapping a TFN's endpoints keeps them ordered."""
    r = tgt.M - tgt.span * ((1.0 / (y - x)) * (y - np.asarray(values, dtype=float)))
    # anchor rounding can exit [m, M] by a few ulp
    return np.minimum(np.maximum(r, tgt.m), tgt.M)
