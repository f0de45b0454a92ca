"""6-significant-digit rendering of every metric number the artifacts and
the CLI print; negative zero renders as ``0``."""

import operator
from itertools import compress, count, repeat

__all__ = ["format_number", "round6", "print_column"]


def format_number(x: float) -> str:
    """Fixed 6-significant-digit text of ``x``."""
    return f"{x + 0.0:.6g}"   # -0.0 + 0.0 is 0.0


def round6(x: float) -> float:
    """``x`` rounded to 6 significant digits, for JSON output."""
    return float(format_number(x))


def print_column(values: list[float]) -> tuple[list[str], list[str]]:
    """Each of the finite ``values`` as ``format_number`` prints it, and its
    ``round6`` as JSON prints it, each list made in C-level passes."""
    texts = list(map(format, map(operator.add, values, repeat(0.0)), repeat(".6g")))
    json_texts = texts.copy()
    # A text with a point and no exponent is already the shortest text that
    # reads back as its float, hence its JSON text.  Only the others, those
    # whose "has a point" is at most their "has an exponent" (an exponent, or
    # an integral value, which JSON prints with ".0"), are printed again.
    redo = map(operator.le, *(map(operator.contains, texts, repeat(c)) for c in ".e"))
    for i in compress(count(), redo):
        json_texts[i] = float.__repr__(float(texts[i]))
    return texts, json_texts
