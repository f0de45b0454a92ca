"""GeoJSON (RFC 7946) builders for map output.

Coordinates are written as [lon, lat] rounded to 6 decimal places (about
0.1 m); metric properties are rounded to 6 significant digits.  Rounding
here keeps serialized output byte-stable across platforms.

The attraction, hotspot and tour features are dicts, printed by
``indented``: ``json.dumps(indent=2, sort_keys=True, ensure_ascii=False)``
at the depth of a FeatureCollection's ``features`` array.  The density
features, one per positive grid cell and by far the most numerous, are
filled into a text template without building any dicts; the template is
what ``indented`` prints for one density feature, made once at import.
"""

from __future__ import annotations

import json
import re
from typing import Any

import numpy as np

from .rounding import round6
from .spatial import DensityGrid, GeoPoint, HotSpot, Tour
from .valuation import ValuationResult

__all__ = [
    "attraction_feature",
    "hotspot_feature",
    "tour_feature",
    "density_features",
    "indented",
]


def _coord(p: GeoPoint) -> list[float]:
    return [round(p.lon, 6), round(p.lat, 6)]


def _feature(geometry: dict[str, Any], properties: dict[str, Any]) -> dict[str, Any]:
    return {"type": "Feature", "geometry": geometry, "properties": properties}


def attraction_feature(point: GeoPoint, result: ValuationResult, name: str,
                       rank: int | None = None) -> dict[str, Any]:
    properties: dict[str, Any] = {
        "feature_type": "attraction",
        "id": result.attraction_id,
        "name": name,
        "ftv_lo": round6(result.ftv.lo),
        "ftv_mode": round6(result.ftv.mode),
        "ftv_hi": round6(result.ftv.hi),
        "crisp": round6(result.crisp),
    }
    if result.tier is not None:
        properties["tier"] = result.tier
    if rank is not None:
        properties["rank"] = rank
    return _feature({"type": "Point", "coordinates": _coord(point)}, properties)


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
    if tour.duration_hours is not None:
        dmin, davg, dmax = tour.duration_hours
        properties["duration_hours_min"] = round6(dmin)
        properties["duration_hours_avg"] = round6(davg)
        properties["duration_hours_max"] = round6(dmax)
    return _feature({"type": "LineString", "coordinates": coords}, properties)


def indented(feature: dict[str, Any]) -> str:
    """``feature`` as ``json.dumps(indent=2, sort_keys=True,
    ensure_ascii=False)`` prints it at the depth of a FeatureCollection's
    ``features`` array (4 spaces)."""
    text = json.dumps(feature, indent=2, sort_keys=True, ensure_ascii=False)
    return "    " + text.replace("\n", "\n    ")


# One density feature as ``indented`` prints it, with %-style fields for the
# cell's edges and density in place of the numbers.
_DENSITY_FEATURE = re.sub(r'"(%\(\w+\)s)"', r"\1", indented(_feature(
    {"type": "Polygon", "coordinates": [[["%(west)s", "%(south)s"], ["%(east)s", "%(south)s"],
                                         ["%(east)s", "%(north)s"], ["%(west)s", "%(north)s"],
                                         ["%(west)s", "%(south)s"]]]},
    {"feature_type": "density", "density": "%(density)s"})))


def density_features(grid: DensityGrid) -> list[str]:
    """One square Polygon Feature per cell with positive density, in
    row-major order, as text at the depth of a FeatureCollection's
    ``features`` array; zero cells are skipped to keep files small.  Rings
    are counter-clockwise from the south-west corner and closed.  Each edge
    coordinate is rounded and formatted once (``repr`` is the float form
    ``json`` writes) and shared by the cells along it."""
    lons, lats = grid.edges()
    lons = [repr(round(v, 6)) for v in lons]
    lats = [repr(round(v, 6)) for v in lats]
    rows, cols = np.nonzero(grid.values > 0.0)
    return [
        _DENSITY_FEATURE % {"west": lons[col], "east": lons[col + 1],
                            "south": lats[row], "north": lats[row + 1],
                            "density": repr(round6(value))}
        for row, col, value in zip(rows.tolist(), cols.tolist(),
                                   grid.values[rows, cols].tolist())
    ]
