"""Geospatial analysis of valued attractions: density heatmap, hotspots,
and a small exact walking circuit.

Distances between stops use the haversine formula; gridding uses a local
equirectangular frame around the centre of the data's bounding box, which
is metrically honest at the city scales this targets (a few km).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, NumericError

__all__ = [
    "EARTH_RADIUS_KM",
    "GeoPoint",
    "ScoredPoint",
    "DensityGrid",
    "HotSpot",
    "Tour",
    "haversine_km",
    "kde_heatmap",
    "detect_hotspots",
    "merge_hotspots",
    "plan_tour",
    "estimate_duration",
    "MAX_TOUR_STOPS",
]

EARTH_RADIUS_KM = 6371.0088
MAX_TOUR_STOPS = 12
# 80 MB of float64 cells; a run over a city at 10 m cells needs about 700,000
MAX_GRID_CELLS = 10_000_000
# window cells of one batch of points in kde_heatmap: a few arrays of 256 KB
KDE_BATCH_CELLS = 1 << 15


@dataclass(frozen=True)
class GeoPoint:
    """WGS84 position in degrees, (lon, lat) order as in GeoJSON."""

    lon: float
    lat: float

    def __post_init__(self):
        if not (math.isfinite(self.lon) and -180.0 <= self.lon <= 180.0):
            raise ValueError(f"longitude must be in [-180, 180], got {self.lon}")
        if not (math.isfinite(self.lat) and -90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude must be in [-90, 90], got {self.lat}")


@dataclass(frozen=True)
class ScoredPoint:
    """A location carrying a non-negative weight (a defuzzified value)."""

    point: GeoPoint
    weight: float

    def __post_init__(self):
        if not (math.isfinite(self.weight) and self.weight >= 0.0):
            raise ValueError(f"weight must be finite and non-negative, got {self.weight}")


@dataclass(frozen=True)
class HotSpot:
    """Local maximum of the density surface."""

    center: GeoPoint
    score: float
    label: str

    def __post_init__(self):
        if not self.score > 0.0:
            raise ValueError(f"hotspot score must be positive, got {self.score}")


@dataclass(frozen=True)
class Tour:
    """Closed walking circuit over hotspots.  ``stops`` lists each hotspot
    once; the circuit returns to the first stop."""

    stops: tuple[HotSpot, ...]
    length_km: float
    duration_hours: tuple[float, float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "stops", tuple(self.stops))
        if self.length_km < 0.0:
            raise ValueError("tour length cannot be negative")
        if self.duration_hours is not None:
            dmin, davg, dmax = self.duration_hours
            if not dmin <= davg <= dmax:
                raise ValueError(f"duration bounds must be ordered, got {self.duration_hours}")


@dataclass(frozen=True)
class DensityGrid:
    """Regular grid of density values in a local equirectangular frame.

    ``center`` is the projection reference; ``(x0, y0)`` locate the grid's
    south-west corner in metres relative to it.  ``values[row, col]`` holds
    the density at the cell centre, row 0 being the southernmost row.
    """

    center: GeoPoint
    x0: float
    y0: float
    cell_m: float
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError(f"grid values must be a 2-d array, got shape {v.shape}")
        if np.any(v < 0) or not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite and non-negative")
        if not self.cell_m > 0:
            raise ValueError(f"cell size must be positive, got {self.cell_m}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def nrows(self) -> int:
        return self.values.shape[0]

    @property
    def ncols(self) -> int:
        return self.values.shape[1]

    def cell_center(self, row: int, col: int) -> GeoPoint:
        return _unproject(self.x0 + (col + 0.5) * self.cell_m,
                          self.y0 + (row + 0.5) * self.cell_m, self.center)

    def edges(self) -> tuple[list[float], list[float]]:
        """Longitudes of the ``ncols + 1`` cell edges, west to east, and
        latitudes of the ``nrows + 1`` edges, south to north.  The frame is
        separable: a longitude depends only on x, a latitude only on y."""
        lons = [_unproject(self.x0 + col * self.cell_m, self.y0, self.center).lon
                for col in range(self.ncols + 1)]
        lats = [_unproject(self.x0, self.y0 + row * self.cell_m, self.center).lat
                for row in range(self.nrows + 1)]
        return lons, lats


def haversine_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in kilometres."""
    lon1, lat1 = math.radians(a.lon), math.radians(a.lat)
    lon2, lat2 = math.radians(b.lon), math.radians(b.lat)
    s = (math.sin((lat2 - lat1) / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(s))


def _project(point: GeoPoint, center: GeoPoint) -> tuple[float, float]:
    """Local equirectangular projection to metres around ``center``."""
    r = EARTH_RADIUS_KM * 1000.0
    x = r * math.cos(math.radians(center.lat)) * math.radians(point.lon - center.lon)
    y = r * math.radians(point.lat - center.lat)
    return x, y


def _unproject(x: float, y: float, center: GeoPoint) -> GeoPoint:
    r = EARTH_RADIUS_KM * 1000.0
    lon = center.lon + math.degrees(x / (r * math.cos(math.radians(center.lat))))
    lat = center.lat + math.degrees(y / r)
    return GeoPoint(lon, lat)


# One check per parameter rule, shared by the functions below and by the
# run configuration (which passes its config key as ``name``).
def require_positive(value: float, name: str) -> None:
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")


def require_percentile(value: float, name: str) -> None:
    if not 0.0 < value < 100.0:
        raise ConfigError(f"{name} must be in (0, 100), got {value}")


def require_dwell(dwell: Sequence[float], name: str) -> None:
    if len(dwell) != 3 or not 0.0 <= dwell[0] <= dwell[1] <= dwell[2] < math.inf:
        raise ConfigError(f"{name} must be ordered finite (min, avg, max) >= 0, "
                          f"got {tuple(dwell)}")


def _grid_frame(xs: Sequence[float], ys: Sequence[float], bandwidth_m: float,
                cell_m: float) -> tuple[float, float, int, int]:
    """South-west corner, rows and columns of the grid over points at ``xs``,
    ``ys`` metres; past ``MAX_GRID_CELLS`` a ConfigError, decided on floats."""
    x0 = min(xs) - bandwidth_m - cell_m / 2.0
    y0 = min(ys) - bandwidth_m - cell_m / 2.0
    # as floats, so that an extent too large for an int is reported too
    rows, cols = np.maximum(1.0, np.ceil([(max(ys) + bandwidth_m - y0) / cell_m,
                                          (max(xs) + bandwidth_m - x0) / cell_m])).tolist()
    if rows * cols > MAX_GRID_CELLS:
        raise ConfigError(
            f"a density grid of {rows:.6g} x {cols:.6g} cells exceeds {MAX_GRID_CELLS} "
            f"(kde.cell_m {cell_m}, kde.bandwidth_m {bandwidth_m}); raise kde.cell_m or check "
            "the coordinates")
    return x0, y0, int(rows), int(cols)


def kde_heatmap(points: Iterable[ScoredPoint], bandwidth_m: float = 100.0,
                cell_m: float = 10.0) -> DensityGrid:
    """Weighted kernel density surface over the points' bounding box.

    Uses the quartic (biweight) kernel K(u) = (15/16)(1 - u^2)^2 for u < 1;
    each cell holds sum_i w_i * K(d_i / bandwidth) evaluated at the cell
    centre.  The grid covers the bounding box padded by one bandwidth plus
    half a cell: the extra half cell puts a point lying on the bounding-box
    edge at a cell centre, not a cell corner, so an isolated kernel peaks
    in a single cell instead of tying across the corner's neighbours.

    Each point is evaluated only on the window of cells within
    ceil(bandwidth / cell) + 1 of its own cell, which holds its whole
    support, so the cost is points x (2 ceil(h / cell) + 3)^2 cells, not
    points x grid.  The windows are built as index and distance arrays, in
    batches of points whose windows hold at most ``KDE_BATCH_CELLS`` cells
    together (one point's window at least), and each window cell inside
    the grid and the support adds its term with ``np.add.at``.  Cells
    outside a window, or outside the support, would have received exactly
    +0.0, so the result is bit-identical to evaluating every point over the
    whole grid.  Deterministic: points are taken in input order, so each
    cell still accumulates its terms in input order.
    """
    require_positive(bandwidth_m, "bandwidth_m")
    require_positive(cell_m, "cell_m")
    points = list(points)
    if not points:
        return DensityGrid(GeoPoint(0.0, 0.0), 0.0, 0.0, cell_m, np.zeros((1, 1)))
    # no cell exceeds K(0) = 15/16 times the total weight
    if sum(p.weight for p in points) == math.inf:
        raise NumericError(f"the weights of the {len(points)} points sum past the largest float")

    lons = [p.point.lon for p in points]
    lats = [p.point.lat for p in points]
    # anchor on the bounding-box midpoint: points added inside the box then
    # leave the frame (and every cell) exactly where it was
    center = GeoPoint((min(lons) + max(lons)) / 2.0, (min(lats) + max(lats)) / 2.0)
    xy = [_project(p.point, center) for p in points]
    xs = [v[0] for v in xy]
    ys = [v[1] for v in xy]

    x0, y0, nrows, ncols = _grid_frame(xs, ys, bandwidth_m, cell_m)
    values = np.zeros((nrows, ncols))
    # every cell centre within bandwidth + 1.5 cells of a point lies in its
    # window, so no rounding of the cell index can leave a support cell out
    reach = math.ceil(bandwidth_m / cell_m) + 1
    offsets = np.arange(-reach, reach + 1)
    weights = np.array([p.weight for p in points])
    px, py = np.array(xs), np.array(ys)
    cols = np.floor((px - x0) / cell_m).astype(np.int64)[:, None] + offsets
    rows = np.floor((py - y0) / cell_m).astype(np.int64)[:, None] + offsets
    # squared distances of each window's columns and rows from its point,
    # infinite off the grid so that only cells in the grid and the support count
    dx2 = np.where((0 <= cols) & (cols < ncols),
                   (x0 + (cols + 0.5) * cell_m - px[:, None]) ** 2, np.inf)
    dy2 = np.where((0 <= rows) & (rows < nrows),
                   (y0 + (rows + 0.5) * cell_m - py[:, None]) ** 2, np.inf)
    window = offsets.size ** 2
    batch = max(1, KDE_BATCH_CELLS // window)
    for start in range(0, len(points), batch):
        part = slice(start, start + batch)
        u2 = ((dx2[part, None, :] + dy2[part, :, None]) / (bandwidth_m ** 2)).reshape(-1)
        inside = np.flatnonzero(u2 < 1.0)
        cells = (rows[part, :, None] * ncols + cols[part, None, :]).reshape(-1)[inside]
        terms = weights[start + inside // window] * ((15.0 / 16.0) * (1.0 - u2[inside]) ** 2)
        np.add.at(values.reshape(-1), cells, terms)
    return DensityGrid(center, x0, y0, cell_m, values)


def _percentile(values: np.ndarray, percentile: float) -> float:
    """``np.percentile(values, percentile)`` of a non-empty 1-d array, bit
    for bit: the linear method (Hyndman and Fan's type 7) with numpy's lerp,
    from the two order statistics around the virtual index.  It spares
    ``np.percentile``'s import of ``numpy.ma``."""
    last = values.size - 1
    index = last * (percentile / 100)
    if index >= last:
        return float(values.max())
    below = math.floor(index)
    low, high = np.partition(values, (below, below + 1))[below:below + 2].tolist()
    t, step = index - below, high - low
    return high - step * (1 - t) if t >= 0.5 else low + step * t


def detect_hotspots(grid: DensityGrid, percentile: float = 90.0) -> list[HotSpot]:
    """Strict 8-neighbourhood local maxima of the density surface that reach
    the given percentile of the positive cell values.

    Returned sorted by descending score (row/col order breaks ties) and
    labelled H1, H2, ... in that order.  A flat surface has no strict
    maxima, hence no hotspots.
    """
    require_percentile(percentile, "percentile")
    v = grid.values
    positive = v[v > 0.0]
    if positive.size == 0:
        return []
    threshold = _percentile(positive, percentile)

    # each candidate, in row-major order, against its 8 neighbours: flat
    # indices into the grid padded by one -inf cell on every side
    width = v.shape[1] + 2
    padded = np.pad(v, 1, constant_values=-np.inf).reshape(-1)
    rows, cols = np.divmod(np.flatnonzero(v >= threshold), v.shape[1])
    around = np.array([-width - 1, -width, -width + 1, -1, 1, width - 1, width, width + 1])
    scores = v[rows, cols]
    is_max = (scores[:, None] > padded[((rows + 1) * width + cols + 1)[:, None] + around]).all(1)
    cells = sorted(zip((-scores[is_max]).tolist(), rows[is_max].tolist(), cols[is_max].tolist()))
    return [HotSpot(grid.cell_center(r, c), -score, f"H{i + 1}")
            for i, (score, r, c) in enumerate(cells)]


def merge_hotspots(hotspots: Sequence[HotSpot], radius_m: float) -> list[HotSpot]:
    """Greedily merge hotspots closer than ``radius_m`` into the strongest
    one of each group; merged scores are summed.  Radius 0 disables merging.
    The original criterion behind any particular published cluster count is
    not fixed here, so the radius is an explicit knob."""
    if radius_m <= 0:
        return list(hotspots)
    remaining = sorted(hotspots, key=lambda h: (-h.score, h.label))
    merged: list[HotSpot] = []
    while remaining:
        head, rest = remaining[0], remaining[1:]
        near = [haversine_km(head.center, h.center) * 1000.0 <= radius_m for h in rest]
        score = head.score + sum(h.score for h, hit in zip(rest, near) if hit)
        remaining = [h for h, hit in zip(rest, near) if not hit]
        merged.append(HotSpot(head.center, score, head.label))
    merged.sort(key=lambda h: (-h.score, h.label))
    return merged


def plan_tour(hotspots: Sequence[HotSpot]) -> Tour:
    """Shortest closed circuit visiting every hotspot exactly once, starting
    at the smallest label.

    Exact Held-Karp dynamic programming over visited subsets; intended for
    the handful of clusters a destination yields (at most 12 -- merge or
    filter first beyond that).  Cost ties are broken by the
    lexicographically smallest label sequence, making the result fully
    deterministic.
    """
    hotspots = list(hotspots)
    n = len(hotspots)
    if n == 0:
        raise ValueError("cannot plan a tour without hotspots")
    if n > MAX_TOUR_STOPS:
        raise ConfigError(
            f"{n} hotspots exceed the tour planner's limit of "
            f"{MAX_TOUR_STOPS}; raise kde.merge_radius_m or kde.hotspot_percentile")
    labels = [h.label for h in hotspots]
    s = labels.index(min(labels))
    others = [i for i in range(n) if i != s]
    d = [[haversine_km(a.center, b.center) for b in hotspots] for a in hotspots]

    # best[mask][last] = (cost, label sequence, index path) of the paths from
    # s through the `others` bits of mask; every subset of a mask is a smaller
    # number, so it is complete before the mask is reached
    best = [{} for _ in range(1 << len(others))]
    best[0][s] = (0.0, (labels[s],), (s,))
    for mask in range(1, len(best)):
        for bit, i in enumerate(others):
            if mask >> bit & 1:
                cost, sequence, path = _cheapest_to(best[mask ^ 1 << bit], d, i)
                best[mask][i] = (cost, sequence + (labels[i],), path + (i,))
    length, _, path = _cheapest_to(best[-1], d, s)
    return Tour(tuple(hotspots[i] for i in path), length)


def _cheapest_to(paths: dict, d: list[list[float]], i: int) -> tuple:
    """The cheapest of ``paths`` extended by the leg to stop ``i``: ``(cost,
    label sequence, index path)``, the leg counted but not yet appended.
    Equal costs go to the smaller label sequence, then to the earlier path."""
    winner = None
    for last, (cost, sequence, path) in paths.items():
        cost += d[last][i]
        if winner is None or cost < winner[0] or cost == winner[0] and sequence < winner[1]:
            winner = cost, sequence, path
    return winner


def estimate_duration(tour: Tour, walk_speed_kmh: float,
                      dwell_minutes: tuple[float, float, float] = (0.0, 0.0, 0.0)
                      ) -> tuple[float, float, float]:
    """(min, avg, max) duration in hours: walking time plus the corresponding
    dwell bound at every tour stop."""
    require_positive(walk_speed_kmh, "walk_speed_kmh")
    require_dwell(dwell_minutes, "dwell_minutes")
    walk = tour.length_km / walk_speed_kmh
    bounds = tuple(walk + len(tour.stops) * dm / 60.0 for dm in dwell_minutes)
    if not math.isfinite(bounds[2]):
        raise ConfigError(f"walk_speed_kmh {walk_speed_kmh} makes the tour's duration infinite")
    return bounds
