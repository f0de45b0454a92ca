"""
===================================================================
Putting mixed survey scales on a common footing
===================================================================

Field studies rarely hand you tidy data: one questionnaire item runs 0..5,
another 1..5, a third scores *impact* on -5..0 where 0 is best.  Before
ratings can be weighted and summed they all have to live on one scale.

The rescaling here is the affine map that sends the source range onto the
target range, applied to each endpoint of a triangular fuzzy number.  It
preserves ordering and relative spread, and a crisp number rescales to
exactly the same value whether treated as a number or a degenerate TFN.
``rescale_endpoints`` maps whole arrays at once; ``apply_range_policy``
first decides what happens to values outside their source range.
"""

import numpy as np

from tourval import SourceRange, TargetRange
from tourval.errors import OutOfRangeError
from tourval.rescale import apply_range_policy, rescale_endpoints

TARGET = TargetRange(0.0, 100.0)

# --- 1. Crisp values first ---

print("--- 1. Crisp rescaling ---")
five_point = SourceRange(0.0, 5.0)
raw = np.array([0.0, 2.5, 4.0, 5.0])
rescaled = rescale_endpoints(raw, five_point.x, five_point.y, TARGET)
for a, r in zip(raw.tolist(), rescaled.tolist()):
    print(f"  {a} on 0..5  ->  {r:.1f} on 0..100")

# --- 2. Whole fuzzy numbers ---

print("\n--- 2. Fuzzy rescaling ---")
rating = (3.0, 4.0, 4.5)
print(f"  {rating} on 0..5 -> "
      f"{tuple(rescale_endpoints(rating, five_point.x, five_point.y, TARGET).tolist())}")

# --- 3. Reversed-polarity scales ---

# A -5..0 impact scale: -5 is the worst outcome, 0 the best.  The map is
# still order-preserving, so "nearly harmless" lands near 100.
print("\n--- 3. Negative source ranges ---")
impact = SourceRange(-5.0, 0.0)
nearly_harmless = (-1.18, -0.18, -0.02)
print(f"  {nearly_harmless} on -5..0 -> "
      f"{tuple(rescale_endpoints(nearly_harmless, impact.x, impact.y, TARGET).tolist())}")

# --- 4. Several factors at once ---

# Each factor's range ends as a column broadcast against an (attractions,
# factors, 3) array: the valuation rescales every score in one call.
print("\n--- 4. Several factors at once ---")
x = np.array([[five_point.x], [impact.x]])
y = np.array([[five_point.y], [impact.y]])
scores = np.array([[rating, nearly_harmless]])
print(rescale_endpoints(scores, x, y, TARGET))

# --- 5. Out-of-range answers: refuse or clamp ---

print("\n--- 5. Range policies ---")
typo = (0.5, 4.5, 5.5)   # hi exceeds the 0..5 scale


def locate(index):
    """Name the value at ``index`` in a message."""
    return f"enjoyment: {('lo', 'mode', 'hi')[index[0]]}="


try:
    apply_range_policy(typo, five_point.x, five_point.y, "strict", locate)
except OutOfRangeError as exc:
    print(f"  strict: {exc}")

admitted = apply_range_policy(typo, five_point.x, five_point.y, "clamp", locate)
clamped = rescale_endpoints(admitted, five_point.x, five_point.y, TARGET)
print(f"  clamp: {typo} -> {tuple(clamped.tolist())}")
print("  (the line clamp printed to stderr records exactly what was moved)")
