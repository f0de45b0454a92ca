"""
===================================================================
From expert ratings to a ranked list of attractions
===================================================================

The experiential value of a tourist attraction is scored against a
catalogue of weighted factors (condition, authenticity, engagement, ...),
each on its own survey scale.  For all attractions at once:

1.  every factor rating is checked against its range and rescaled onto
    0..100,
2.  the rescaled TFNs are combined into one weighted fuzzy value (FTV) per
    attraction,
3.  each FTV is defuzzified to a crisp score and classified into a tier
    (Low / Medium / High); the attractions come back ranked, and the
    filter keeps those above 66.

This demo scores three fictional attractions against the bundled
20-factor catalogue from the Santiago de Cuba study.
"""

import random

import numpy as np

from tourval import classify, datasets, fuzzy
from tourval.rescale import apply_range_policy
from tourval.valuation import evaluate_attractions

catalogue = datasets.santiago_catalogue()

print(f"catalogue: {len(catalogue.factors)} factors, "
      f"weights sum to {sum(catalogue.weights):.3f}")
print(f"           target range {catalogue.target.m}..{catalogue.target.M}\n")

# --- 1. Invent three rating bundles of different quality ---

# quality is the typical position inside each factor's own range
rng = random.Random(7)

def rate(quality: float) -> list:
    """One (lo, mode, hi) rating per factor, in catalogue order."""
    scores = []
    for factor in catalogue.factors:
        x, y = factor.src.x, factor.src.y
        span = y - x
        mode = x + span * min(0.95, max(0.05, quality + rng.uniform(-0.1, 0.1)))
        lo = max(x, mode - 0.12 * span)
        hi = min(y, mode + 0.12 * span)
        scores.append((lo, mode, hi))
    return scores

bundles = {
    "cathedral_steps": rate(0.85),
    "old_customs_house": rate(0.55),
    "forgotten_warehouse": rate(0.25),
}

# --- 2. Evaluate every attraction in one call ---

# an (attractions, factors, 3) array; "strict" refuses a rating outside its
# factor's range, naming it ("clamp" would saturate it with a warning)
ids = list(bundles)
x, y = catalogue.source_ranges
scores = apply_range_policy(
    [bundles[i] for i in ids], x, y, "strict",
    lambda at: f"attraction {ids[at[0]]!r}, factor {catalogue.ids[at[1]]!r}: ")
valuation = evaluate_attractions(ids, scores, catalogue)

# the Valuation holds columns in rank order: row i has rank i + 1
print("--- evaluation, in rank order (crisp score, ties by mode) ---")
for i, attraction_id in enumerate(valuation.ids):
    lo, mode, hi = valuation.ftv[i].tolist()
    print(f"  {i + 1}. {attraction_id:20s} FTV=({lo:.2f}, {mode:.2f}, {hi:.2f})  "
          f"crisp={valuation.crisp[i]:6.2f}  tier={valuation.tiers[i]}")

# --- 3. Filter ---

kept = valuation.above(66.0)     # the rows printed strictly above 66
print(f"\nfilter keeps {len(kept)} of {len(ids)}: "
      f"{[valuation.ids[i] for i in kept]}")

# --- 4. The published top five, for comparison ---

print("\n--- published Santiago de Cuba top five ---")
listed = datasets.santiago_reference_ftv()
centroids = fuzzy.defuzzify(np.array([ftv.as_tuple() for _, ftv in listed]))
for (name, ftv), crisp in zip(listed, centroids.tolist()):
    print(f"  {name:45s} {ftv}  -> {crisp:.2f} {classify(crisp)}")
