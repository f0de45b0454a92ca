"""
===================================================================
Triangular fuzzy numbers: one record, arrays of them, defuzzification
===================================================================

A triangular fuzzy number (TFN) models an uncertain quantity with three
anchors: the lowest plausible value, the most plausible value, and the
highest plausible value.  Survey answers like "somewhere around 4, but
definitely between 3 and 5" become TFN(3, 4, 5).

The valuation works on many TFNs at once, so it holds them as the rows of
an (n, 3) numpy array of (lo, mode, hi).  This script walks through:

1.  Building one TFN (including a crisp one) and the ordering rule.
2.  Checking a whole array of triples against that rule.
3.  Averaging a panel of expert ratings, component by component.
4.  Collapsing each TFN to a single number (centroid or mode).
"""

import numpy as np

from tourval import TriangularFuzzyNumber as TFN
from tourval import fuzzy

# --- 1. One TFN ---

print("--- 1. One TFN ---")
vague = TFN(3.0, 4.0, 5.0)
sharp = TFN.crisp(4.0)          # lo == mode == hi: no uncertainty at all

print(f"  vague = {vague}")
print(f"  sharp = {sharp}  (degenerate: a plain number in TFN clothing)")

# Ordering is enforced; TFN(5, 4, 3) is rejected outright.
try:
    TFN(5.0, 4.0, 3.0)
except ValueError as exc:
    print(f"  TFN(5, 4, 3) -> ValueError: {exc}")

# --- 2. Arrays of TFNs ---

# The loader checks every judgement row at once with the same rule.
print("\n--- 2. Arrays of TFNs ---")
ratings = np.array([[3.0, 4.0, 5.0], [1.0, 2.0, 6.0], [5.0, 4.0, 3.0]])
valid = fuzzy.is_tfn(*ratings.T)
for row, ok in zip(ratings.tolist(), valid.tolist()):
    print(f"  {tuple(row)} is {'a TFN' if ok else 'not a TFN (lo > mode)'}")

# --- 3. A panel of experts ---

# Three experts rate the same thing; the panel's view is the mean of each
# component, as the pipeline averages the experts of each attraction and factor.
print("\n--- 3. A panel of experts ---")
panel = np.array([[2.0, 3.0, 4.0], [3.0, 4.0, 5.0], [2.5, 3.5, 4.0]])
print(f"  mean of {len(panel)} expert ratings = {tuple(panel.mean(axis=0).tolist())}")

# --- 4. Defuzzification ---

print("\n--- 4. Defuzzification ---")
tfns = ratings[valid]
centroids = fuzzy.defuzzify(tfns)
modes = fuzzy.defuzzify(tfns, method="mode")
for row, centroid, mode in zip(tfns.tolist(), centroids.tolist(), modes.tolist()):
    print(f"  {tuple(row)}: centroid {centroid:.4f}, mode {mode:.4f}")
print("  (the long right tail of (1, 2, 6) pulls its centroid past the mode)")
