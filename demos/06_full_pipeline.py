"""
===================================================================
The whole pipeline on the bundled sample survey
===================================================================

The package ships a synthetic but realistic survey for ten attractions in
the old town of Santiago de Cuba: a 20-factor catalogue, 600 expert
judgement rows, and coordinates.  One call ingests, validates, values,
ranks, filters, finds hotspots, plans a tour, and writes three artifacts
(results.csv, results.json, map.geojson) deterministically.

Equivalent CLI:  python3 -m tourval.cli run --config <sample>/config.json --out out
"""

import json
import tempfile
from pathlib import Path

from tourval import datasets
from tourval.pipeline import load_config, run_pipeline

sample = datasets.santiago_sample_dir()
print(f"sample inputs: {sample}")
for name in ("config.json", "factors.csv", "evaluations.csv", "attractions.csv"):
    print(f"  {name:16s} {(sample / name).stat().st_size:6d} bytes")

# --- 1. Run everything ---

out_dir = Path(tempfile.mkdtemp(prefix="tourval_demo_")) / "out"
config = load_config(sample / "config.json").replace(out_dir=out_dir)
output = run_pipeline(config)

print(f"\n--- 1. Valuation (weights from {output.weight_source}) ---")
results = output.results   # columns in rank order: row i has rank i + 1
for i, attraction_id in enumerate(results.ids):
    marker = "*" if attraction_id in output.retained else " "
    print(f" {marker} #{i + 1:<2d} "
          f"{attraction_id}  crisp={results.crisp[i]:7.3f}  tier={results.tiers[i]}")
print("   (* = above the filter threshold, eligible for the tour)")

# --- 2. Spatial results ---

print("\n--- 2. Hotspots and tour ---")
for spot in output.hotspots:
    print(f"  {spot.label}: score {spot.score:.1f} at "
          f"({spot.center.lon:.4f}, {spot.center.lat:.4f})")
route = " -> ".join(h.label for h in output.tour.stops)
lo, avg, hi = output.tour.duration_hours
print(f"  tour {route}, {output.tour.length_km:.3f} km, "
      f"{lo:.2f}-{hi:.2f} h (avg {avg:.2f})")

# --- 3. Artifacts on disk ---

print("\n--- 3. Artifacts ---")
for path in output.written:
    print(f"  wrote {path.name} ({path.stat().st_size} bytes)")

summary = json.loads((out_dir / "results.json").read_text(encoding="utf-8"))
print(f"\n  results.json: {len(summary['results'])} attractions, "
      f"{summary['filter']['count']} retained above {summary['filter']['threshold']}")

geo = json.loads((out_dir / "map.geojson").read_text(encoding="utf-8"))
kinds = {}
for feature in geo["features"]:
    kind = feature["properties"]["feature_type"]
    kinds[kind] = kinds.get(kind, 0) + 1
print(f"  map.geojson feature counts: {kinds}")

# Rendering is deterministic: running this script twice writes the same
# bytes (given the same --out), so diffs in version control stay honest.
