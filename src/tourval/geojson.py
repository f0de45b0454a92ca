"""GeoJSON (RFC 7946) builders for map output.

Coordinates are written as [lon, lat] rounded to 6 decimal places (about
0.1 m); metric properties are rounded to 6 significant digits.  Rounding
here keeps serialized output byte-stable across platforms.

Every feature is printed as ``indented`` prints it:
``json.dumps(indent=2, sort_keys=True, ensure_ascii=False)`` at the depth of
a FeatureCollection's ``features`` array.  The few hotspot and tour features
are dicts passed to ``indented``.  Every per-item record (an attraction
feature, a density feature, a row of ``results.json``'s ``results`` array)
is printed through one helper instead: ``template`` passes a record through
``indented`` once, at import, and splits the text at its fields into
constant pieces; each item is the join of those pieces and its values as
``encode`` prints them, without building any dicts for ``json`` and without
scanning the constant text again.
"""

from __future__ import annotations

import json
import math
import re
from json.encoder import encode_basestring
from typing import Any

import numpy as np

from .rounding import round6
from .spatial import DensityGrid, GeoPoint, HotSpot, Tour
from .valuation import ValuationResult

__all__ = [
    "attraction_features",
    "hotspot_feature",
    "tour_feature",
    "density_features",
    "indented",
    "template",
    "fill",
    "encode",
    "result_fields",
]


def _coord(p: GeoPoint) -> list[float]:
    return [round(p.lon, 6), round(p.lat, 6)]


def _feature(geometry: dict[str, Any], properties: dict[str, Any]) -> dict[str, Any]:
    return {"type": "Feature", "geometry": geometry, "properties": properties}


def hotspot_feature(hotspot: HotSpot) -> dict[str, Any]:
    properties = {
        "feature_type": "hotspot",
        "label": hotspot.label,
        "score": round6(hotspot.score),
    }
    return _feature({"type": "Point", "coordinates": _coord(hotspot.center)}, properties)


def tour_feature(tour: Tour) -> dict[str, Any]:
    """The closed circuit as a LineString whose last position repeats the
    first."""
    coords = [_coord(h.center) for h in tour.stops]
    coords.append(coords[0])
    properties: dict[str, Any] = {
        "feature_type": "tour",
        "stops": [h.label for h in tour.stops],
        "length_km": round6(tour.length_km),
    }
    for bound, hours in zip(("min", "avg", "max"), tour.duration_hours or ()):
        properties[f"duration_hours_{bound}"] = round6(hours)
    return _feature({"type": "LineString", "coordinates": coords}, properties)


def indented(feature: dict[str, Any]) -> str:
    """``feature`` as ``json.dumps(indent=2, sort_keys=True,
    ensure_ascii=False)`` prints it at the depth of a FeatureCollection's
    ``features`` array (4 spaces), which is also the depth of the rows of
    ``results.json``'s ``results`` array."""
    text = json.dumps(feature, indent=2, sort_keys=True, ensure_ascii=False)
    return "    " + text.replace("\n", "\n    ")


def template(record: dict[str, Any]) -> list[str]:
    """``record`` as ``indented`` prints it, split at its fields: each string
    value ``"<name>"`` is the field ``name``.  The constant pieces are at
    the even positions and the field names, in print order, at the odd
    ones; putting a text at each odd position and joining fills it."""
    return re.split(r'"<(\w+)>"', indented(record))


def fill(slots: list[str], fields: dict[str, str]) -> str:
    """The ``template`` ``slots`` with each field's text from ``fields``."""
    filled = slots.copy()
    filled[1::2] = map(fields.__getitem__, slots[1::2])
    return "".join(filled)


def encode(value: Any) -> str:
    """``value`` as ``json.dumps(ensure_ascii=False)`` prints it."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is int:
        return repr(value)
    if isinstance(value, str):
        return encode_basestring(value)
    return json.dumps(value)


def result_fields(result: ValuationResult, name: str, rank: int) -> dict[str, str]:
    """A result's id, name, 6-digit FTV and crisp value, tier (``null``
    without one) and rank, as ``encode`` prints them, by ``template`` field."""
    return {"id": encode(result.attraction_id), "name": encode(name),
            "lo": encode(round6(result.ftv.lo)), "mode": encode(round6(result.ftv.mode)),
            "hi": encode(round6(result.ftv.hi)), "crisp": encode(round6(result.crisp)),
            "tier": encode(result.tier), "rank": encode(rank)}


# an attraction feature without and with a tier
_ATTRACTION = {tiered: template(_feature(
    {"type": "Point", "coordinates": ["<lon>", "<lat>"]},
    {"feature_type": "attraction", "id": "<id>", "name": "<name>", "ftv_lo": "<lo>",
     "ftv_mode": "<mode>", "ftv_hi": "<hi>", "crisp": "<crisp>", "rank": "<rank>",
     **({"tier": "<tier>"} if tiered else {})})) for tiered in (False, True)}


def attraction_features(names: dict[str, str], locations: dict[str, GeoPoint],
                        ranked: list[ValuationResult], ranks: dict[str, int]) -> list[str]:
    """One Point Feature per result, in order, as text at the depth of a
    FeatureCollection's ``features`` array: the ``result_fields``, the tier
    only if the result has one."""
    texts = []
    for r in ranked:
        fields = result_fields(r, names[r.attraction_id], ranks[r.attraction_id])
        point = locations[r.attraction_id]
        fields["lon"], fields["lat"] = encode(round(point.lon, 6)), encode(round(point.lat, 6))
        texts.append(fill(_ATTRACTION[r.tier is not None], fields))
    return texts


# One density feature: its ring's corners from the south-west, then its density.
_DENSITY_FEATURE = template(_feature(
    {"type": "Polygon", "coordinates": [[["<west>", "<south>"], ["<east>", "<south>"],
                                         ["<east>", "<north>"], ["<west>", "<north>"],
                                         ["<west>", "<south>"]]]},
    {"feature_type": "density", "density": "<density>"}))


def density_features(grid: DensityGrid) -> list[str]:
    """One square Polygon Feature per cell with positive density, in
    row-major order, as text at the depth of a FeatureCollection's
    ``features`` array; zero cells are skipped to keep files small.  Rings
    are counter-clockwise from the south-west corner and closed.  Each edge
    coordinate is rounded and encoded once and shared by the cells along
    it.  The slots of ``_DENSITY_FEATURE`` are filled by position, and each
    density is printed inline, as ``encode(round6(value))`` prints a
    positive float."""
    lons, lats = grid.edges()
    lons = [encode(round(v, 6)) for v in lons]
    lats = [encode(round(v, 6)) for v in lats]
    rows, cols = np.nonzero(grid.values > 0.0)
    densities = map(float.__repr__, map(float, map("{:.6g}".format,
                                                   grid.values[rows, cols].tolist())))
    slots, join, texts = _DENSITY_FEATURE.copy(), "".join, []
    for row, col, density in zip(rows.tolist(), cols.tolist(), densities):
        west, east, south, north = lons[col], lons[col + 1], lats[row], lats[row + 1]
        slots[1::2] = west, south, east, south, east, north, west, north, west, south, density
        texts.append(join(slots))
    return texts
