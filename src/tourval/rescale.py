"""Min-max rescaling of crisp values and triangular fuzzy numbers.

``rescale_endpoints`` maps values from a source range [x, y] onto a target
range [m, M] with the affine min-max transform, a TFN endpoint by endpoint;
``apply_range_policy`` handles values outside [x, y].  Every caller,
``rescale_crisp``, ``rescale_tfn`` and the batch valuation, uses these two.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import astuple, dataclass
from typing import Callable

import numpy as np

from .errors import OutOfRangeError, require_choice
from .fuzzy import TFN

__all__ = ["SourceRange", "TargetRange", "RANGE_POLICIES", "apply_range_policy",
           "rescale_endpoints", "rescale_crisp", "rescale_tfn"]

log = logging.getLogger(__name__)

COMPONENTS = ("lo", "mode", "hi")
RANGE_POLICIES = ("strict", "clamp")


class _Range:
    """Both range types' rule: lower < upper by a finite span of at least the
    smallest normal float, so the min-max map neither overflows, nor divides
    by zero, nor loses digits to a subnormal span (its reciprocal is then
    finite too)."""

    def __post_init__(self):
        if not sys.float_info.min <= self.span < math.inf:
            kind = type(self).__name__.removesuffix("Range").lower()
            raise ValueError(f"{kind} range {list(astuple(self))} must increase by a finite "
                             f"span of at least {sys.float_info.min} (negate a descending "
                             "scale)")

    @property
    def span(self) -> float:
        low, high = astuple(self)
        return float(high - low)


@dataclass(frozen=True)
class SourceRange(_Range):
    """Inventoried range [x, y] of a factor, x < y.

    A factor scored on a descending scale must be encoded by negating its
    values (e.g. damages scored in [-5, 0]), never by swapping x and y:
    rescaling stays strictly increasing that way.
    """

    x: float
    y: float


@dataclass(frozen=True)
class TargetRange(_Range):
    """Common dimensionless range [m, M] that all factors are mapped onto."""

    m: float
    M: float


def apply_range_policy(values, x, y, policy: str,
                       locate: Callable[[tuple[int, ...]], str]) -> np.ndarray:
    """Out-of-range policy for values against their source range [x, y]
    (broadcast): ``strict`` raises OutOfRangeError for the first value outside,
    ``clamp`` saturates all with one warning.  ``locate(index)`` names a value."""
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
    log.warning("%s%s clamped to %s (source range [%s, %s]); %d value(s) clamped",
                locate(first), a, min(max(a, lo), hi), lo, hi, outside.sum())
    return np.minimum(np.maximum(values, x), y)


def rescale_endpoints(values, x, y, tgt: TargetRange) -> np.ndarray:
    """Min-max map of each value from its source range [x, y] (broadcast)
    onto [m, M]: M - (M - m) * ((1 / (y - x)) * (y - a)), clamped to [m, M].
    Strictly increasing, so mapping a TFN's endpoints keeps them ordered."""
    r = tgt.M - tgt.span * ((1.0 / (y - x)) * (y - np.asarray(values, dtype=float)))
    # anchor rounding can exit [m, M] by a few ulp
    return np.minimum(np.maximum(r, tgt.m), tgt.M)


def rescale_crisp(a: float, src: SourceRange, tgt: TargetRange,
                  policy: str = "strict", label: str | None = None) -> float:
    """Min-max rescale one value: M - (M - m) * (y - a) / (y - x).

    Maps x to m and y to M and is strictly increasing in between.  ``a``
    must lie in [x, y]; under the ``clamp`` policy an outside value is
    saturated to the range with a logged warning instead of raising.
    """
    a = apply_range_policy(a, src.x, src.y, policy,
                           lambda _: f"{label}: value " if label else "value ")
    return float(rescale_endpoints(a, src.x, src.y, tgt))


def rescale_tfn(t: TFN, src: SourceRange, tgt: TargetRange,
                policy: str = "strict", label: str | None = None) -> TFN:
    """Min-max rescale a TFN onto the target range, endpoint by endpoint
    (see ``rescale_endpoints``); the result stays inside [m, M]."""
    a = apply_range_policy(t.as_tuple(), src.x, src.y, policy,
                           lambda i: (f"{label}: " if label else "") + f"{COMPONENTS[i[0]]}=")
    return TFN(*rescale_endpoints(a, src.x, src.y, tgt).tolist())
