"""6-significant-digit rendering of every metric number the artifacts and
the CLI print; negative zero renders as ``0``."""

import numpy as np

__all__ = ["format_number", "round6", "print_column"]


def format_number(x: float) -> str:
    """Fixed 6-significant-digit text of ``x``."""
    return f"{x + 0.0:.6g}"   # -0.0 + 0.0 is 0.0


def round6(x: float) -> float:
    """``x`` rounded to 6 significant digits, for JSON output."""
    return float(format_number(x))


def print_column(values: np.ndarray) -> tuple[list[str], list[str]]:
    """Each of the finite ``values`` as ``format_number`` prints it, and its
    ``round6`` as JSON prints it: one ``%`` format for the whole column."""
    values = np.add(values, 0.0)   # a float array; -0.0 + 0.0 is 0.0
    texts = ("%.6g\n" * len(values) % tuple(values.tolist())).splitlines()
    json_texts = texts.copy()
    # A text with a point and no exponent is already the shortest text that
    # reads back as its float, hence its JSON text.  Only the others, with an
    # exponent or an integral value, which JSON prints with ".0", are printed
    # again.  They lie among the values below 1e-4 and those within 5e-6 of
    # their size of an integer, the check allowing 2e-5: from 25,000 up that
    # is every value, so every text with a positive exponent is checked.
    size = np.abs(values)
    near = (size < 1e-4) | (np.abs(values - np.rint(values)) <= 2e-5 * size)
    for i in np.flatnonzero(near).tolist():
        if "." not in texts[i] or "e" in texts[i]:
            json_texts[i] = float.__repr__(float(texts[i]))
    return texts, json_texts
