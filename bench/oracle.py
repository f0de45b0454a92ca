"""Independent check of tourval's artifacts against the defining formulas.

Written with csv, json and math only; nothing here imports tourval.  The
formula is the one tests/oracles.weighted_ftv and
tools/make_santiago_sample.oracle_crisp use: expert means, endpoint-wise
min-max rescale onto the target range, a weighted exact sum per component,
then the centroid.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


def expected(input_dir: Path) -> dict:
    """Oracle view of one workload's inputs: attraction id -> (lo, mode, hi,
    crisp), plus the threshold and the set of ids the filter must keep."""
    config = json.loads((input_dir / "config.json").read_text(encoding="utf-8"))
    m, big_m = config["target"]
    with open(input_dir / config["factors"], encoding="utf-8", newline="") as handle:
        factors = [(row["id"], float(row["x"]), float(row["y"]), float(row["weight"]))
                   for row in csv.DictReader(handle)]
    grouped: dict[str, dict[str, list[tuple[float, float, float]]]] = {}
    with open(input_dir / config["evaluations"], encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            grouped.setdefault(row["attraction_id"], {}).setdefault(row["factor_id"], []).append(
                (float(row["lo"]), float(row["mode"]), float(row["hi"])))
    values = {}
    for attraction_id, by_factor in grouped.items():
        parts: list[list[float]] = [[], [], []]
        for factor_id, x, y, weight in factors:
            triples = by_factor[factor_id]
            for i in range(3):
                mean = math.fsum(t[i] for t in triples) / len(triples)
                parts[i].append(weight * (big_m - (big_m - m) * (y - mean) / (y - x)))
        ftv = [math.fsum(p) for p in parts]
        values[attraction_id] = (*ftv, (ftv[0] + ftv[1] + ftv[2]) / 3.0)
    threshold = float(config["filter_threshold"])
    kept = {a for a, v in values.items() if v[3] > threshold}
    return {"values": values, "threshold": threshold, "kept": kept}


def agrees6(printed: float, exact: float) -> bool:
    """True when ``printed`` is ``exact`` rounded to 6 significant digits,
    allowing for last-ulp differences in how the two were summed."""
    if exact == 0.0:
        return abs(printed) <= 1e-12
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(exact))) - 5)
    return abs(printed - exact) <= half_unit * (1.0 + 1e-9) + 1e-12


def check_results_csv(path: Path, oracle: dict) -> list[str]:
    problems = []
    seen = set()
    with open(path, encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            aid = row["attraction_id"]
            seen.add(aid)
            want = oracle["values"].get(aid)
            if want is None:
                problems.append(f"results.csv: unknown attraction {aid}")
                continue
            for column, exact in zip(("ftv_lo", "ftv_mode", "ftv_hi", "crisp"), want):
                if not agrees6(float(row[column]), exact):
                    problems.append(f"results.csv: {aid} {column} {row[column]} != {exact!r}")
    if seen != set(oracle["values"]):
        problems.append(f"results.csv: {len(seen)} rows for {len(oracle['values'])} attractions")
    return problems


def check_results_json(path: Path, oracle: dict) -> list[str]:
    document = json.loads(path.read_text(encoding="utf-8"))
    retained = set(document["filter"]["retained"])
    if retained != oracle["kept"]:
        return [f"results.json: retained {len(retained)} ids, oracle keeps "
                f"{len(oracle['kept'])} above {oracle['threshold']}"]
    return []


def check_map(path: Path, oracle: dict) -> list[str]:
    """Every attraction appears once with the oracle's crisp value; the tour
    visits every hotspot, of which there are 1 to 12."""
    features = json.loads(path.read_text(encoding="utf-8"))["features"]
    problems = []
    kinds: dict[str, list[dict]] = {}
    for feature in features:
        kinds.setdefault(feature["properties"]["feature_type"], []).append(feature["properties"])
    attractions = {p["id"]: p["crisp"] for p in kinds.get("attraction", [])}
    if set(attractions) != set(oracle["values"]):
        problems.append(f"map.geojson: {len(attractions)} attraction features for "
                        f"{len(oracle['values'])} attractions")
    for aid, crisp in attractions.items():
        if aid in oracle["values"] and not agrees6(crisp, oracle["values"][aid][3]):
            problems.append(f"map.geojson: {aid} crisp {crisp} != {oracle['values'][aid][3]!r}")
    hotspots = {p["label"] for p in kinds.get("hotspot", [])}
    tours = kinds.get("tour", [])
    if not 1 <= len(hotspots) <= 12 or len(tours) != 1 or set(tours[0]["stops"]) != hotspots:
        problems.append(f"map.geojson: {len(hotspots)} hotspots, {len(tours)} tours")
    if not kinds.get("density"):
        problems.append("map.geojson: no density polygons")
    return problems


def check(out_dir: Path, oracle: dict, artifacts: tuple[str, ...]) -> list[str]:
    """All oracle problems with the named artifacts in ``out_dir``."""
    checks = {"results.csv": check_results_csv, "results.json": check_results_json,
              "map.geojson": check_map}
    problems = []
    for name in artifacts:
        problems += checks[name](out_dir / name, oracle)
    return problems
