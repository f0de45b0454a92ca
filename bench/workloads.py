"""Seeded input generator for the benchmark workloads.

Each workload is a set of tourval input files (factors.csv,
evaluations.csv, attractions.csv, config.json) written into a directory
the caller owns.  The same (workload, seed) pair always yields the same
bytes.  The factor catalogue is read from the package's bundled
santiago_factors.csv; nothing is ever written under src/.

The layouts are fixed and the seed only jitters positions and scores, so
input sizes (attractions, judgement rows, grid cells, positive cells) stay
within a few per cent across seeds.  Every precondition the benchmark relies
on is asserted here, per seed: the High count, a margin around the tier and
filter thresholds, weights summing to 1, and at most twelve hotspots after
merging.  A seed that would violate one fails here, not in the program.

Usage: python3 bench/workloads.py <workload> --seed N --out DIR
"""

from __future__ import annotations

import argparse
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CATALOGUE = Path("src") / "tourval" / "data" / "santiago_factors.csv"

# Santiago de Cuba historic centre, the frame the bundled sample uses.
ORIGIN_LON, ORIGIN_LAT = -75.8267, 20.0211
EARTH_RADIUS_M = 6371008.8

FILTER_THRESHOLD = 66.0
TIER_THRESHOLDS = (33.0, 66.0)
# crisp values stay this far from the filter threshold, so 6-digit rounding
# or a change in summation order can never flip which attractions are kept
FILTER_MARGIN = 1.0
TIER_MARGIN = 0.01
WEIGHT_TOLERANCE = 0.01
MAX_HOTSPOTS = 12
BANDWIDTH_M = 100.0
HOTSPOT_PERCENTILE = 90.0
JITTER_M = 3.0
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                      # CLI subcommand measured: "run" or "tour"
    attractions: int
    high: int                         # attractions above the filter threshold
    layout: tuple[tuple[float, float], ...]   # cluster centres, unit square
    extent_m: float                   # side of the square the centres span
    spread_m: float                   # High points lie within this of their centre
    factors: tuple[int, ...] | None   # catalogue rows used; None = all of them
    experts: int
    cell_m: float
    merge_radius_m: float


_FIVE = ((0.0, 0.0), (1.0, 0.0), (0.5, 0.5), (0.0, 1.0), (1.0, 1.0))
_TEN = ((0.0, 0.0), (0.5, 0.05), (1.0, 0.0), (0.2, 0.35), (0.75, 0.4),
        (0.05, 0.7), (0.45, 0.65), (0.95, 0.75), (0.3, 1.0), (0.7, 0.95))

WORKLOADS = {
    w.name: w for w in (
        # ingest + valuation bound: 120,000 judgement rows, tiny KDE
        Workload("survey_2k", "run", attractions=2000, high=20, layout=_FIVE,
                 extent_m=3000.0, spread_m=20.0, factors=None, experts=3,
                 cell_m=10.0, merge_radius_m=200.0),
        # full-grid KDE bound: 400 weighted points over a ~700k-cell grid
        Workload("city_10km", "run", attractions=400, high=400, layout=_TEN,
                 extent_m=8000.0, spread_m=85.0, factors=(0, 4, 9, 17), experts=1,
                 cell_m=10.0, merge_radius_m=300.0),
        # render bound: ~23k density polygons from results.csv read back by `tour`
        Workload("district_tour", "tour", attractions=150, high=150, layout=_TEN,
                 extent_m=1650.0, spread_m=115.0, factors=(0, 4, 9, 17), experts=1,
                 cell_m=7.0, merge_radius_m=260.0),
    )
}


def _to_lonlat(x: float, y: float) -> tuple[float, float]:
    lon = ORIGIN_LON + math.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(ORIGIN_LAT))))
    lat = ORIGIN_LAT + math.degrees(y / EARTH_RADIUS_M)
    return lon, lat


def read_catalogue(root: Path) -> list[dict]:
    with open(root / CATALOGUE, encoding="utf-8", newline="") as handle:
        return [{"id": row["id"], "name": row["name"], "x": float(row["x"]),
                 "y": float(row["y"]), "weight": float(row["weight"])}
                for row in csv.DictReader(handle)]


def _select_factors(catalogue: list[dict], rows: tuple[int, ...] | None) -> list[dict]:
    """The chosen catalogue rows with weights renormalised to three decimals
    that sum to exactly 1."""
    if rows is None:
        return [dict(f, weight=round(f["weight"], 3)) for f in catalogue]
    chosen = [dict(catalogue[i]) for i in rows]
    total = sum(f["weight"] for f in chosen)
    for f in chosen:
        f["weight"] = round(f["weight"] / total, 3)
    chosen[-1]["weight"] = round(1.0 - sum(f["weight"] for f in chosen[:-1]), 3)
    return chosen


def _judgements(rng, qualities: np.ndarray, factors: list[dict], experts: int) -> np.ndarray:
    """(attractions, factors, experts, 3) array of TFN scores rounded to two
    decimals, each inside its factor's source range."""
    n, k = len(qualities), len(factors)
    x = np.array([f["x"] for f in factors])[None, :, None]
    span = np.array([f["y"] - f["x"] for f in factors])[None, :, None]
    position = np.clip(qualities[:, None, None] + rng.normal(0.0, 0.05, (n, k, experts)),
                       0.02, 0.98)
    mode = np.round(x + span * position, 2)
    lo = np.round(np.maximum(x, mode - span * rng.uniform(0.05, 0.15, (n, k, experts))), 2)
    hi = np.round(np.minimum(x + span, mode + span * rng.uniform(0.05, 0.15, (n, k, experts))), 2)
    return np.stack([lo, mode, hi], axis=-1)


def _crisp(scores: np.ndarray, factors: list[dict]) -> np.ndarray:
    """Approximate crisp value per attraction, used only to steer the
    generator away from thresholds; the benchmark's oracle is exact."""
    x = np.array([f["x"] for f in factors])[None, :, None]
    span = np.array([f["y"] - f["x"] for f in factors])[None, :, None]
    w = np.array([f["weight"] for f in factors])[None, :, None]
    rescaled = 100.0 * (scores.mean(axis=2) - x) / span
    return (w * rescaled).sum(axis=1).mean(axis=1)


def _safe(crisp: np.ndarray, high: np.ndarray) -> np.ndarray:
    ok = np.where(high, crisp > FILTER_THRESHOLD + FILTER_MARGIN,
                  crisp < FILTER_THRESHOLD - FILTER_MARGIN)
    for t in TIER_THRESHOLDS:
        ok &= np.abs(crisp - t) > TIER_MARGIN
    return ok


def _positions(rng, spec: Workload, high: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Metre offsets from the origin, and the High ones grouped by cluster.
    High attractions fill a sunflower pattern around the layout's centres,
    jittered by the seed, so the density surface keeps its size from seed
    to seed; the rest are spread over the whole extent."""
    centres = np.array(spec.layout) * spec.extent_m
    xy = rng.uniform(0.0, spec.extent_m, (len(high), 2))
    members = np.flatnonzero(high)
    cluster = np.arange(len(members)) % len(centres)
    slot = np.arange(len(members)) // len(centres)
    size = np.bincount(cluster)[cluster]
    radius = (spec.spread_m - JITTER_M * math.sqrt(2.0)) * np.sqrt((slot + 0.5) / size)
    angle = slot * GOLDEN_ANGLE
    jitter = rng.uniform(-JITTER_M, JITTER_M, (len(members), 2))
    xy[members] = (centres[cluster] + jitter
                   + np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1))
    return xy, [xy[members[cluster == c]] for c in range(len(centres))]


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1))


def _check_hotspot_bound(spec: Workload, clusters: list[np.ndarray]) -> None:
    """Where kernel supports of different clusters do not overlap, local
    maxima of a positively weighted quartic density lie within the convex
    hull of one cluster's points, up to a cell.  So if every cluster fits
    inside the merge radius and clusters lie further apart than it, the
    greedy merge leaves at most one hotspot per cluster."""
    if len(clusters) > MAX_HOTSPOTS:
        raise AssertionError(f"{spec.name}: {len(clusters)} clusters > {MAX_HOTSPOTS}")
    slack = 2.0 * math.sqrt(2.0) * spec.cell_m
    for i, points in enumerate(clusters):
        diameter = _distances(points, points).max() + slack
        if not diameter < spec.merge_radius_m:
            raise AssertionError(f"{spec.name}: cluster diameter {diameter:.0f} m "
                                 f">= merge radius {spec.merge_radius_m} m")
        for other in clusters[i + 1:]:
            gap = _distances(points, other).min() - slack
            if not gap > max(spec.merge_radius_m, 2.0 * BANDWIDTH_M):
                raise AssertionError(f"{spec.name}: clusters {gap:.0f} m apart, within "
                                     "the merge radius or two bandwidths")


def generate(root: Path, name: str, seed: int, out_dir: Path) -> Path:
    """Write the workload's inputs into ``out_dir`` and return its config path."""
    spec = WORKLOADS[name]
    rng = np.random.default_rng([seed % 2**63, sorted(WORKLOADS).index(name)])
    factors = _select_factors(read_catalogue(root), spec.factors)
    if abs(sum(f["weight"] for f in factors) - 1.0) > WEIGHT_TOLERANCE:
        raise AssertionError(f"{name}: weights do not sum to 1 +/- {WEIGHT_TOLERANCE}")

    high = np.zeros(spec.attractions, dtype=bool)
    high[rng.permutation(spec.attractions)[:spec.high]] = True
    qualities = np.where(high, rng.uniform(0.78, 0.9, spec.attractions),
                         rng.uniform(0.1, 0.6, spec.attractions))
    scores = _judgements(rng, qualities, factors, spec.experts)
    for _ in range(100):
        bad = np.flatnonzero(~_safe(_crisp(scores, factors), high))
        if not bad.size:
            break
        scores[bad] = _judgements(rng, qualities[bad], factors, spec.experts)
    crisp = _crisp(scores, factors)
    if not _safe(crisp, high).all() or int((crisp > FILTER_THRESHOLD).sum()) != spec.high:
        raise AssertionError(f"{name}, seed {seed}: High count or threshold margin violated")
    if not ((scores[..., 0] <= scores[..., 1]) & (scores[..., 1] <= scores[..., 2])).all():
        raise AssertionError(f"{name}, seed {seed}: unordered TFN")
    xy, clusters = _positions(rng, spec, high)
    _check_hotspot_bound(spec, clusters)

    out_dir.mkdir(parents=True, exist_ok=True)
    ids = [f"a{i:04d}" for i in range(spec.attractions)]
    with open(out_dir / "factors.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "name", "x", "y", "weight"])
        for f in factors:
            writer.writerow([f["id"], f["name"], f"{f['x']:.2f}", f"{f['y']:.2f}",
                             f"{f['weight']:.3f}"])
    with open(out_dir / "attractions.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["id", "name", "lon", "lat"])
        for aid, (x, y) in zip(ids, xy):
            lon, lat = _to_lonlat(x, y)
            writer.writerow([aid, f"Attraction {aid[1:]}", f"{lon:.6f}", f"{lat:.6f}"])
    experts = [f"e{j + 1}" for j in range(spec.experts)]
    lines = ["attraction_id,factor_id,expert_id,lo,mode,hi\n"]
    for i, aid in enumerate(ids):
        for k, f in enumerate(factors):
            for j, expert in enumerate(experts):
                lo, mode, hi = scores[i, k, j]
                lines.append(f"{aid},{f['id']},{expert},{lo:.2f},{mode:.2f},{hi:.2f}\n")
    (out_dir / "evaluations.csv").write_text("".join(lines), encoding="utf-8")

    config = {
        "factors": "factors.csv",
        "evaluations": "evaluations.csv",
        "attractions": "attractions.csv",
        "target": [0.0, 100.0],
        "defuzzify": "centroid",
        "range_policy": "strict",
        "tier_thresholds": list(TIER_THRESHOLDS),
        "filter_threshold": FILTER_THRESHOLD,
        "kde": {"bandwidth_m": BANDWIDTH_M, "cell_m": spec.cell_m,
                "hotspot_percentile": HOTSPOT_PERCENTILE,
                "merge_radius_m": spec.merge_radius_m},
        "tour": {"walk_speed_kmh": 4.0, "dwell_minutes": [5.0, 10.0, 15.0]},
        "out_dir": "out",
    }
    path = out_dir / "config.json"
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    root = Path(__file__).resolve().parents[1]
    print(generate(root, args.workload, args.seed, args.out))


if __name__ == "__main__":
    main()
