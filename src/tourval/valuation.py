"""Weighted fuzzy valuation of attractions: the FTV index, tiers, ranking.

The fuzzy tourism value (FTV) of an attraction is the weight vector applied
to its factor scores after each score has been rescaled onto the common
target range:  FTV = sum_i w_i * rescale(score_i).  ``evaluate_attractions``
values a whole (attractions, factors, 3) array of scores at once, as one
``Valuation`` in rank order; ``Valuation.above`` is the filter.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from . import fuzzy
from .ahp import validate_weights
from .errors import ConfigError, InputError
from .record import Record
from .rescale import SourceRange, TargetRange, rescale_endpoints
from .rounding import print_column, round6

__all__ = [
    "FactorDefinition",
    "FactorCatalogue",
    "Valuation",
    "evaluate_attractions",
    "classify",
    "DEFAULT_THRESHOLDS",
    "DEFAULT_SCALE",
    "TIERS",
]

# Tier bands on the 0-100 scale: Low = [0, 33], Medium = (33, 66], High = (66, 100].
# Both the bands and the filter compare the value as results.csv prints it
# (6 significant digits), so the High band and the "keep only FTV > 66"
# filter coincide on the printed value: a crisp value printed as 66 is
# Medium and is dropped.
DEFAULT_THRESHOLDS = (33.0, 66.0)
DEFAULT_SCALE = (0.0, 100.0)
TIERS = ("Low", "Medium", "High")


class FactorDefinition(Record):
    """One evaluation factor: id, display name, inventoried range, weight."""

    __slots__ = ("id", "name", "src", "weight")

    def __init__(self, id: str, name: str, src: SourceRange, weight: float):
        if not id:
            raise ValueError("factor id must be nonempty")
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"factor {id!r}: weight must be in [0, 1], got {weight}")
        self._set(id, name, src, weight)


class FactorCatalogue(Record):
    """Ordered factor list plus the shared target range.

    Weights must pass ``ahp.validate_weights`` (sum 1 within its tolerance);
    a violation is a configuration error because it silently rescales every
    result.
    """

    __slots__ = ("factors", "target")

    def __init__(self, factors: Iterable[FactorDefinition], target: TargetRange):
        factors = tuple(factors)
        self._set(factors, target)
        if not factors:
            raise ValueError("catalogue must contain at least one factor")
        ids = [f.id for f in factors]
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        if dupes:
            raise ValueError(f"duplicate factor ids in catalogue: {', '.join(dupes)}")
        check = validate_weights(self.weights)
        if not check.ok:
            raise ConfigError(f"factor weights: {check.detail}")

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(f.id for f in self.factors)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(f.weight for f in self.factors)

    @property
    def source_ranges(self) -> tuple[np.ndarray, np.ndarray]:
        """Each factor's source range ends (x, y) as (factors, 1) float
        columns, which broadcast against (..., factors, 3) TFN arrays."""
        return (np.array([[f.src.x] for f in self.factors], dtype=float),
                np.array([[f.src.y] for f in self.factors], dtype=float))


def _band(printed: float, thresholds: tuple[float, float]) -> str:
    """The tier of a value as results.csv prints it: Low up to the first
    threshold, Medium up to the second, High above it."""
    low_max, medium_max = thresholds
    return TIERS[(printed > low_max) + (printed > medium_max)]


class Valuation(Record):
    """Attractions valued, as columns in rank order (row ``i`` has rank ``i + 1``): ids,
    FTVs, crisp values and the tier thresholds.  The crisp column is printed once
    (``print_column``), as results.csv prints it (``crisp_texts``) and as JSON does
    (``crisp_json``); ``printed`` holds the floats of those texts (each the ``round6``
    of its value) and ``tiers`` their bands."""

    __slots__ = ("ids", "ftv", "crisp", "thresholds", "printed", "tiers", "crisp_texts",
                 "crisp_json")

    def __init__(self, ids: tuple[str, ...], ftv: np.ndarray, crisp: np.ndarray,
                 thresholds: tuple[float, float]):
        # ftv is (n, 3), crisp (n,)
        texts, json_texts = print_column(crisp)
        printed = list(map(float, texts))
        self._set(ids, ftv, crisp, thresholds, printed,
                  tuple(_band(value, thresholds) for value in printed), texts, json_texts)

    def above(self, threshold: float) -> list[int]:
        """The rows whose printed value exceeds ``threshold``, in order."""
        return [i for i, value in enumerate(self.printed) if value > threshold]


def evaluate_attractions(ids: Sequence[str], scores: np.ndarray,
                         catalogue: FactorCatalogue, method: str = "centroid",
                         thresholds: tuple[float, float] = DEFAULT_THRESHOLDS) -> Valuation:
    """FTV, defuzzified value and tier of each id from an (ids, factors, 3)
    array of range-admitted scores, factors in catalogue order; tiers are on the
    catalogue's target range.  The rows are in rank order: by descending
    defuzzified value, ties by descending FTV mode, then by id as ``str``
    compares.  An FTV off the range by at most the rounding error of its
    weighted sum is put on the range's end; one further off (weights summing
    above 1) is an InputError naming the id."""
    x, y = catalogue.source_ranges
    tgt = catalogue.target
    rescaled = rescale_endpoints(scores, x, y, tgt)

    def off_range(at: int, detail: str) -> InputError:
        return InputError(f"attraction {ids[at]!r}: {detail}; factor weights sum to "
                          f"{math.fsum(catalogue.weights):.6g}")

    ftv = np.zeros((len(ids), 3))
    with np.errstate(over="ignore"):   # only weights summing above 1 overflow; see below
        for k, weight in enumerate(catalogue.weights):
            ftv = ftv + weight * rescaled[:, k]
    for at in np.flatnonzero(~np.isfinite(ftv).all(axis=1))[:1].tolist():
        raise off_range(at, "value past the largest float")
    # a weighted sum of values on [m, M] can miss the range by rounding error;
    # the miss is measured from the nearer end, which cannot overflow, as
    # M + slack can when M is near the largest float
    slack = len(catalogue.weights) * np.finfo(float).eps * max(abs(tgt.m), abs(tgt.M))
    snapped = np.clip(ftv, tgt.m, tgt.M)
    ftv = np.where(np.abs(ftv - snapped) <= slack, snapped, ftv)
    crisp = fuzzy.defuzzify(ftv, method=method)
    values, modes = crisp.tolist(), ftv[:, 1].tolist()
    order = sorted(range(len(ids)), key=lambda i: (-values[i], -modes[i], ids[i]))
    # ``classify`` refuses the first value off the scale
    for at in np.flatnonzero(~((tgt.m <= crisp) & (crisp <= tgt.M)))[:1].tolist():
        try:
            classify(values[at], thresholds, (tgt.m, tgt.M))
        except ValueError as e:
            raise off_range(at, str(e)) from None
    return Valuation(tuple(ids[i] for i in order), ftv[order], crisp[order], thresholds)


def classify(crisp: float, thresholds: tuple[float, float] = DEFAULT_THRESHOLDS,
             scale: tuple[float, float] = DEFAULT_SCALE) -> str:
    """Tier of a defuzzified value: Low up to the first threshold, Medium up
    to the second, High above it.  Values outside the scale are rejected;
    the band is picked on the value as printed (``round6``), so a value
    printed as a threshold is in the band below it."""
    lo, hi = scale
    if not lo <= crisp <= hi:
        raise ValueError(f"value {crisp} outside the classification scale [{lo}, {hi}]")
    return _band(round6(crisp), thresholds)
