"""6-significant-digit rendering of every metric number the artifacts and
the CLI print (negative zero renders as ``0``), and 6-decimal coordinates."""

import re
import sys

import numpy as np

__all__ = ["format_number", "round6", "print_column", "print_decimals"]


def format_number(x: float) -> str:
    """Fixed 6-significant-digit text of ``x``."""
    return f"{x + 0.0:.6g}"   # -0.0 + 0.0 is 0.0


def round6(x: float) -> float:
    """``x`` rounded to 6 significant digits, for JSON output."""
    return float(format_number(x))


def print_column(values: np.ndarray) -> tuple[list[str], list[str]]:
    """Each of ``values`` as ``format_number`` prints it, and a finite one's
    ``round6`` as JSON prints it: one ``%`` format for the whole column."""
    values = np.add(values, 0.0)   # a float array; -0.0 + 0.0 is 0.0
    texts = ("%.6g\n" * len(values) % tuple(values.tolist())).splitlines()
    json_texts = texts.copy()
    # A text with a point and no exponent is already the shortest text that
    # reads back as its float, hence its JSON text; so is a normal float's
    # text with a negative exponent, as JSON also writes an exponent below
    # 1e-4.  Only subnormals (5e-324 prints as 4.94066e-324) and integral
    # values, which JSON prints with ".0", are printed again.  The latter lie
    # among the values within 5e-6 of their size of an integer, the check
    # allowing 2e-5: from 25,000 up that is every value, so every text with a
    # positive exponent is checked.
    size = np.abs(values)
    with np.errstate(invalid="ignore"):   # an infinity's distance to an integer is nan
        near = (size < sys.float_info.min) | (np.abs(values - np.rint(values)) <= 2e-5 * size)
    for i in np.flatnonzero(near).tolist():
        if "." not in texts[i] or "e" in texts[i]:
            json_texts[i] = float.__repr__(float(texts[i]))
    return texts, json_texts


def print_decimals(values: list[float]) -> list[str]:
    """``float.__repr__(round(v, 6))`` of each of ``values``: where 1e-4 <= |v| < 1e9, one
    ``"%.6f"`` column's text, 15 digits at most, its trailing zeros cut to one; others alone."""
    texts = re.sub("0{1,5}\n", "\n", "%.6f\n" * len(values) % tuple(values)).splitlines()
    for i in np.flatnonzero((np.abs(values) < 1e-4) | ~(np.abs(values) < 1e9)).tolist():
        texts[i] = float.__repr__(round(float(values[i]), 6))
    return texts
