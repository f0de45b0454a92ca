"""Independent reference computations used to cross-check the package.

Everything here is deliberately written from the defining formulas with
plain csv/math only, sharing no code path with the package internals; the
full-grid and the per-point windowed KDE keep the package's earlier numpy
loops so that bytes compare, and the hotspot test keeps its earlier
full-grid strict-maximum passes.
The map renderer is the package's earlier dict-based one, kept as it was
so that bytes compare: it keeps the earlier attraction, hotspot and tour
feature builders, uses the package's 6-digit rounding, and hands the whole
document to json.dumps.  The results.json renderer is the package's earlier
one, with its earlier config echo and weights block, the whole document
through json.dumps.  The
expert sums are the package's earlier math.fsum per (attraction, factor).
The judgement loader is the package's earlier row-at-a-time one on
csv.DictReader, kept as it was so that results and error texts compare.
The tour planner is the package's earlier Held-Karp loop over subsets by
size, kept as it was, on the package's haversine distance.  The bundled
Santiago tables are read as the package's earlier ``datasets`` read them,
with csv.DictReader, kept as it was.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict
from importlib.resources import files
from itertools import combinations, permutations
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from tourval import fuzzy
from tourval.ahp import WeightReport
from tourval.errors import InputError
from tourval.fuzzy import TriangularFuzzyNumber
from tourval.rescale import SourceRange, TargetRange
from tourval.rounding import round6
from tourval.spatial import HotSpot, Tour, haversine_km
from tourval.valuation import FactorCatalogue, FactorDefinition


def lre(a: float, x: float, y: float, m: float, big_m: float) -> float:
    """Affine min-max map of ``a`` from [x, y] onto [m, M]."""
    return big_m - (big_m - m) * (y - a) / (y - x)


def rescale3(t, x, y, m, big_m):
    """Endpoint-wise rescaling of a (lo, mode, hi) triple."""
    return tuple(lre(c, x, y, m, big_m) for c in t)


def centroid(t) -> float:
    return (t[0] + t[1] + t[2]) / 3.0


def weighted_ftv(scores, factors, m, big_m):
    """scores: factor_id -> (lo, mode, hi); factors: iterable of
    (factor_id, x, y, weight).  Componentwise exact-sum aggregation."""
    parts = {0: [], 1: [], 2: []}
    for factor_id, x, y, weight in factors:
        rescaled = rescale3(scores[factor_id], x, y, m, big_m)
        for i in range(3):
            parts[i].append(weight * rescaled[i])
    return tuple(math.fsum(parts[i]) for i in range(3))


def crisp_minmax_index(ratings_row, weights, minima, maxima) -> float:
    """Crisp index for a single individual: (5/1) * sum_k beta_k
    (x_k - min_k) / (max_k - min_k)."""
    total = math.fsum(
        w * (r - lo) / (hi - lo)
        for r, w, lo, hi in zip(ratings_row, weights, minima, maxima)
    )
    return 5.0 * total


def read_pipeline_inputs(sample_dir: Path):
    """(factors, scores-by-attraction) straight from the CSV files."""
    with open(sample_dir / "factors.csv", encoding="utf-8", newline="") as handle:
        factors = [
            (row["id"], float(row["x"]), float(row["y"]), float(row["weight"]))
            for row in csv.DictReader(handle)
        ]
    grouped: dict[str, dict[str, list[tuple[float, float, float]]]] = {}
    with open(sample_dir / "evaluations.csv", encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            grouped.setdefault(row["attraction_id"], {}).setdefault(
                row["factor_id"], []
            ).append((float(row["lo"]), float(row["mode"]), float(row["hi"])))
    return factors, grouped


def pipeline_oracle(sample_dir: Path, m: float = 0.0, big_m: float = 100.0):
    """attraction_id -> (ftv triple, centroid) computed from the raw files:
    expert means, endpoint-wise rescale, weighted sum, centroid."""
    factors, grouped = read_pipeline_inputs(sample_dir)
    out = {}
    for attraction_id, by_factor in grouped.items():
        means = {
            fid: tuple(math.fsum(t[i] for t in triples) / len(triples) for i in range(3))
            for fid, triples in by_factor.items()
        }
        ftv = weighted_ftv(means, factors, m, big_m)
        out[attraction_id] = (ftv, centroid(ftv))
    return out


def circuit_cost(order, dist):
    """Sequential left-to-right fold of the closed circuit, matching the
    accumulation order the planner uses."""
    total = 0.0
    for i in range(len(order)):
        total += dist[order[i]][order[(i + 1) % len(order)]]
    return total


def brute_force_tour(labels, dist, start_index):
    """Minimum over all permutations, ties broken by the lexicographically
    smallest label sequence.  Returns (cost, index order)."""
    others = [i for i in range(len(labels)) if i != start_index]
    best = None
    for perm in permutations(others):
        order = (start_index, *perm)
        cost = circuit_cost(order, dist)
        key = (cost, tuple(labels[i] for i in order))
        if best is None or key < best[0]:
            best = (key, order)
    return best[0][0], best[1]


MAX_TOUR_STOPS = 12


def held_karp_tour(hotspots, start=None):
    """The package's earlier subset-by-size Held-Karp planner, kept as it
    was so that stops and lengths compare exactly beyond brute-force sizes."""
    hotspots = list(hotspots)
    n = len(hotspots)
    if n == 0:
        raise ValueError("cannot plan a tour without hotspots")
    if n > MAX_TOUR_STOPS:
        raise ValueError(
            f"{n} hotspots exceed the exact-search limit of {MAX_TOUR_STOPS}; "
            "merge nearby hotspots or raise the detection percentile first"
        )
    if start is None:
        s = min(range(n), key=lambda i: hotspots[i].label)
    else:
        try:
            s = next(i for i, h in enumerate(hotspots) if h == start)
        except StopIteration:
            raise ValueError("start hotspot is not in the list") from None
    if n == 1:
        return Tour((hotspots[0],), 0.0)

    d = [[haversine_km(a.center, b.center) for b in hotspots] for a in hotspots]
    labels = [h.label for h in hotspots]
    others = [i for i in range(n) if i != s]

    # best[(mask, last)] = (cost, label sequence, index path); mask is over
    # `others`, paths start at s
    best: dict[tuple[int, int], tuple[float, tuple[str, ...], tuple[int, ...]]] = {}
    for bit, i in enumerate(others):
        best[(1 << bit, i)] = (d[s][i], (labels[s], labels[i]), (s, i))
    for size in range(2, n):
        for subset in combinations(range(len(others)), size):
            mask = 0
            for bit in subset:
                mask |= 1 << bit
            for bit in subset:
                i = others[bit]
                prev_mask = mask ^ (1 << bit)
                candidate = None
                for pbit in subset:
                    if pbit == bit:
                        continue
                    entry = best.get((prev_mask, others[pbit]))
                    if entry is None:
                        continue
                    cost = entry[0] + d[others[pbit]][i]
                    key = (cost, entry[1] + (labels[i],))
                    if candidate is None or key < (candidate[0], candidate[1]):
                        candidate = (cost, key[1], entry[2] + (i,))
                if candidate is not None:
                    best[(mask, i)] = candidate

    full = (1 << len(others)) - 1
    winner = None
    for i in others:
        entry = best[(full, i)]
        cost = entry[0] + d[i][s]
        key = (cost, entry[1])
        if winner is None or key < (winner[0], winner[1]):
            winner = (cost, entry[1], entry[2])
    length, _, path = winner
    return Tour(tuple(hotspots[i] for i in path), length)


EARTH_RADIUS_KM = 6371.0088


def _kde_frame(points, bandwidth_m, cell_m):
    """The frame both reference KDEs share: the bounding-box midpoint
    ``(lon, lat)``, the points' ``xs`` and ``ys`` in metres around it, the
    grid's south-west corner and its cell-centre coordinates ``cx``, ``cy``."""
    lons = [p[0] for p in points]
    lats = [p[1] for p in points]
    c_lon, c_lat = (min(lons) + max(lons)) / 2.0, (min(lats) + max(lats)) / 2.0
    r = EARTH_RADIUS_KM * 1000.0
    xs = [r * math.cos(math.radians(c_lat)) * math.radians(lon - c_lon) for lon in lons]
    ys = [r * math.radians(lat - c_lat) for lat in lats]

    x0 = min(xs) - bandwidth_m - cell_m / 2.0
    y0 = min(ys) - bandwidth_m - cell_m / 2.0
    ncols = max(1, math.ceil((max(xs) + bandwidth_m - x0) / cell_m))
    nrows = max(1, math.ceil((max(ys) + bandwidth_m - y0) / cell_m))

    cx = x0 + (np.arange(ncols) + 0.5) * cell_m
    cy = y0 + (np.arange(nrows) + 0.5) * cell_m
    return (c_lon, c_lat), xs, ys, x0, y0, cx, cy


def full_grid_kde(points, bandwidth_m, cell_m):
    """Quartic KDE with every point evaluated over every cell, as the
    package computed it before its per-point windows.  ``points`` are
    (lon, lat, weight) tuples; returns (x0, y0, values) in the local
    equirectangular frame around the bounding-box midpoint."""
    _, xs, ys, x0, y0, cx, cy = _kde_frame(points, bandwidth_m, cell_m)
    values = np.zeros((cy.size, cx.size))
    for p, px, py in zip(points, xs, ys):
        u2 = ((cx[None, :] - px) ** 2 + (cy[:, None] - py) ** 2) / (bandwidth_m ** 2)
        inside = u2 < 1.0
        k = np.zeros_like(u2)
        k[inside] = (15.0 / 16.0) * (1.0 - u2[inside]) ** 2
        values += p[2] * k
    return x0, y0, values


def windowed_kde(points, bandwidth_m, cell_m):
    """Quartic KDE with one loop step per point over the window of cells
    within ceil(bandwidth / cell) + 1 of its own cell, as the package
    computed it before the windows became index arrays.  ``points`` are
    (lon, lat, weight) tuples; returns ((lon, lat) of the centre, x0, y0,
    values)."""
    center, xs, ys, x0, y0, cx, cy = _kde_frame(points, bandwidth_m, cell_m)
    values = np.zeros((cy.size, cx.size))
    reach = math.ceil(bandwidth_m / cell_m) + 1
    for p, px, py in zip(points, xs, ys):
        col = math.floor((px - x0) / cell_m)
        row = math.floor((py - y0) / cell_m)
        cols = slice(max(col - reach, 0), col + reach + 1)
        rows = slice(max(row - reach, 0), row + reach + 1)
        u2 = ((cx[None, cols] - px) ** 2 + (cy[rows, None] - py) ** 2) / (bandwidth_m ** 2)
        inside = u2 < 1.0
        k = np.zeros_like(u2)
        k[inside] = (15.0 / 16.0) * (1.0 - u2[inside]) ** 2
        values[rows, cols] += p[2] * k
    return center, x0, y0, values


def strict_maxima(values, percentile):
    """``(score, row, col)`` of every strict 8-neighbourhood maximum of
    ``values`` that reaches ``np.percentile`` of its positive values, by
    descending score, then row, then column: the package's earlier test,
    eight comparisons of the whole grid with its shifted copies."""
    positive = values[values > 0.0]
    if positive.size == 0:
        return []
    threshold = np.percentile(positive, percentile)
    padded = np.pad(values, 1, constant_values=-np.inf)
    is_max = np.ones_like(values, dtype=bool)
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            neighbour = padded[1 + dr:1 + dr + values.shape[0], 1 + dc:1 + dc + values.shape[1]]
            is_max &= values > neighbour
    cells = [(float(values[r, c]), int(r), int(c))
             for r, c in zip(*np.nonzero(is_max)) if values[r, c] >= threshold]
    cells.sort(key=lambda t: (-t[0], t[1], t[2]))
    return cells


def density_features(grid):
    """One square Polygon Feature dict per cell with positive density, in
    row-major order; rings counter-clockwise from the south-west corner."""
    lons, lats = grid.edges()
    lons = [round(v, 6) for v in lons]
    lats = [round(v, 6) for v in lats]
    rows, cols = np.nonzero(grid.values > 0.0)
    features = []
    for row, col, value in zip(rows.tolist(), cols.tolist(),
                               grid.values[rows, cols].tolist()):
        west, east, south, north = lons[col], lons[col + 1], lats[row], lats[row + 1]
        ring = [[west, south], [east, south], [east, north], [west, north], [west, south]]
        features.append({
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [ring]},
            "properties": {"feature_type": "density", "density": round6(value)},
        })
    return features


def _coord(p) -> list[float]:
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


def attraction_feature(point, result, name, rank=None):
    """One attraction Point Feature as a dict, as the package built it."""
    properties = {
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
    return {"type": "Feature",
            "geometry": {"type": "Point",
                         "coordinates": [round(point.lon, 6), round(point.lat, 6)]},
            "properties": properties}


def map_geojson(names, locations, ranked, ranks, grid, hotspots, tour) -> str:
    """map.geojson as the whole FeatureCollection dict through
    ``json.dumps(indent=2, sort_keys=True, ensure_ascii=False)``."""
    features = [
        attraction_feature(locations[r.attraction_id], r,
                           names[r.attraction_id], rank=ranks[r.attraction_id])
        for r in ranked
    ]
    features.extend(hotspot_feature(h) for h in hotspots)
    if tour is not None:
        features.append(tour_feature(tour))
    if grid is not None:
        features.extend(density_features(grid))
    document = {"type": "FeatureCollection", "features": features}
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _config_echo(config) -> dict[str, Any]:
    return {key: str(value) if isinstance(value, Path) else value
            for key, value in asdict(config).items()}


def weight_diagnostics(report: WeightReport) -> dict[str, Any]:
    return {
        "lambda_max": round6(report.lambda_max),
        "consistency_index": round6(report.consistency_index),
        "consistency_ratio": round6(report.consistency_ratio),
        "inconsistent": report.inconsistent,
    }


def _weights_block(catalogue: FactorCatalogue, source: str,
                   report: WeightReport | None) -> dict[str, Any]:
    return {"source": source, "values": {f.id: round6(f.weight) for f in catalogue.factors},
            **(weight_diagnostics(report) if report is not None else {})}


def results_json(config, ingested, ranked, ranks, retained, hotspots, tour) -> str:
    """results.json as the whole document through ``json.dumps(indent=2,
    sort_keys=True, ensure_ascii=False)``."""
    document: dict[str, Any] = {
        "config": _config_echo(config),
        "weights": _weights_block(ingested.catalogue, ingested.weight_source,
                                  ingested.weight_report),
        "results": [
            {
                "attraction_id": r.attraction_id,
                "name": ingested.names[r.attraction_id],
                "ftv_lo": round6(r.ftv.lo),
                "ftv_mode": round6(r.ftv.mode),
                "ftv_hi": round6(r.ftv.hi),
                "crisp": round6(r.crisp),
                "tier": r.tier,
                "rank": ranks[r.attraction_id],
            }
            for r in ranked
        ],
        "filter": {
            "threshold": round6(config.filter_threshold),
            "retained": [r.attraction_id for r in retained],
            "count": len(retained),
        },
        "spatial": {
            "hotspots": [
                {"label": h.label, "score": round6(h.score),
                 "lon": round(h.center.lon, 6), "lat": round(h.center.lat, 6)}
                for h in hotspots
            ],
            "tour": None if tour is None else {
                "stops": [h.label for h in tour.stops],
                "length_km": round6(tour.length_km),
                "duration_hours": [round6(d) for d in tour.duration_hours],
            },
        },
    }
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def expert_sums(admitted, cells, counts):
    """The (cells, 3) sums of the rows of ``admitted`` per entry of
    ``cells``, one ``math.fsum`` per cell and column; ``counts`` holds each
    cell's number of rows, at least one."""
    # every cell has at least one judgement, so the sorted runs are the cells in order
    edges = np.concatenate(([0], np.cumsum(counts))).tolist()
    sums = [[math.fsum(column[start:stop]) for start, stop in zip(edges, edges[1:])]
            for column in admitted[np.argsort(cells, kind="stable")].T.tolist()]
    return np.array(sums).T


def _float_cell(row: dict, column: str, where: str) -> float:
    text = (row.get(column) or "").strip()
    if not text:
        raise InputError(f"{where}: missing value in column {column!r}")
    try:
        return float(text)
    except ValueError:
        raise InputError(f"{where}: column {column!r} is not a number: {text!r}") from None


def _reader(path: Path, required: Iterable[str]) -> tuple[csv.DictReader, io.TextIOWrapper]:
    handle = open(path, encoding="utf-8", newline="")
    reader = csv.DictReader(handle)
    missing = [c for c in required if c not in (reader.fieldnames or [])]
    if missing:
        handle.close()
        raise InputError(f"{path}: missing required columns: {', '.join(missing)}")
    return reader, handle


def load_evaluations(path: Path, catalogue_ids: Iterable[str]
                     ) -> tuple[list[str], np.ndarray, list[int], np.ndarray]:
    """Long-format expert judgements in file order: attraction ids, factor
    catalogue indices, file lines and an (n, 3) array of (lo, mode, hi).
    Bad rows, duplicate judgements and non-TFN triplets name their line."""
    known = {factor_id: k for k, factor_id in enumerate(catalogue_ids)}
    with open(path, encoding="utf-8", newline="") as handle:
        records = csv.reader(handle)
        # the blank-line rule: a record of only empty or whitespace cells is skipped
        blank = {records.line_num for row in records if not any(map(str.strip, row))}
    reader, handle = _reader(
        path, ("attraction_id", "factor_id", "expert_id", "lo", "mode", "hi"))
    attractions, factors, lines, values = [], [], [], []
    seen: set[tuple[str, str, str]] = set()
    with handle:
        for row in reader:
            if reader.line_num in blank:
                continue
            where = f"{path}:{reader.line_num}"
            attraction = (row.get("attraction_id") or "").strip()
            factor = (row.get("factor_id") or "").strip()
            expert = (row.get("expert_id") or "").strip()
            if not attraction or not factor or not expert:
                raise InputError(f"{where}: attraction_id, factor_id and expert_id "
                                 "must all be non-empty")
            if factor not in known:
                raise InputError(f"{where}: unknown factor id {factor!r}")
            triple = (attraction, factor, expert)
            if triple in seen:
                raise InputError(f"{where}: duplicate judgement for attraction "
                                 f"{attraction!r}, factor {factor!r}, expert {expert!r}")
            seen.add(triple)
            attractions.append(attraction)
            factors.append(known[factor])
            lines.append(reader.line_num)
            values.append((_float_cell(row, "lo", where), _float_cell(row, "mode", where),
                           _float_cell(row, "hi", where)))
    tfns = np.array(values, dtype=float).reshape(-1, 3)
    bad = np.flatnonzero(~fuzzy.is_tfn(*tfns.T))
    if bad.size:
        raise InputError(f"{path}:{lines[bad[0]]}: not a TFN (finite, lo <= mode <= hi): "
                         f"{tuple(tfns[bad[0]].tolist())}")
    return attractions, np.array(factors, dtype=np.intp), lines, tfns


_DATA = files("tourval") / "data"


def _rows(name: str) -> list[dict[str, str]]:
    text = (_DATA / name).read_text(encoding="utf-8")
    return list(csv.DictReader(text.splitlines()))


def santiago_catalogue(target: tuple[float, float] = (0.0, 100.0)) -> FactorCatalogue:
    factors = tuple(
        FactorDefinition(
            id=row["id"],
            name=row["name"],
            src=SourceRange(float(row["x"]), float(row["y"])),
            weight=float(row["weight"]),
        )
        for row in _rows("santiago_factors.csv")
    )
    return FactorCatalogue(factors=factors, target=TargetRange(*target))


def santiago_factor_means() -> dict[str, TriangularFuzzyNumber]:
    return {
        row["id"]: TriangularFuzzyNumber(
            float(row["mean_lo"]), float(row["mean_mode"]), float(row["mean_hi"])
        )
        for row in _rows("santiago_factors.csv")
    }


def santiago_reference_ftv() -> list[tuple[str, TriangularFuzzyNumber]]:
    return [
        (row["name"],
         TriangularFuzzyNumber(float(row["lo"]), float(row["mode"]), float(row["hi"])))
        for row in _rows("santiago_reference_ftv.csv")
    ]
