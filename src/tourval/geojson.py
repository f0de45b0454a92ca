"""GeoJSON (RFC 7946) builders for map output.

Coordinates are written as [lon, lat] rounded to 6 decimal places (about
0.1 m); metric properties are rounded to 6 significant digits.  Rounding
here keeps serialized output byte-stable across platforms.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from .rounding import round6
from .spatial import DensityGrid, GeoPoint, HotSpot, Tour
from .valuation import ValuationResult

__all__ = [
    "feature_collection",
    "attraction_feature",
    "hotspot_feature",
    "tour_feature",
    "density_features",
]


def _coord(p: GeoPoint) -> list[float]:
    return [round(p.lon, 6), round(p.lat, 6)]


def feature_collection(features: list[dict[str, Any]]) -> dict[str, Any]:
    return {"type": "FeatureCollection", "features": features}


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


def density_features(grid: DensityGrid) -> list[dict[str, Any]]:
    """One square Polygon per cell with positive density, in row-major
    order; zero cells are skipped to keep files small.  Rings are
    counter-clockwise from the south-west corner and closed.  Each edge
    coordinate is rounded once and shared by the cells along it."""
    lons, lats = grid.edges()
    lons = [round(v, 6) for v in lons]
    lats = [round(v, 6) for v in lats]
    rows, cols = np.nonzero(grid.values > 0.0)
    features = []
    for row, col, value in zip(rows.tolist(), cols.tolist(),
                               grid.values[rows, cols].tolist()):
        west, east, south, north = lons[col], lons[col + 1], lats[row], lats[row + 1]
        ring = [[west, south], [east, south], [east, north], [west, north], [west, south]]
        features.append(_feature(
            {"type": "Polygon", "coordinates": [ring]},
            {"feature_type": "density", "density": round6(value)},
        ))
    return features
