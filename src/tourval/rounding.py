"""6-significant-digit rendering of every metric number the artifacts and
the CLI print; negative zero renders as ``0``."""

__all__ = ["format_number", "round6"]


def format_number(x: float) -> str:
    """Fixed 6-significant-digit text of ``x``."""
    if x == 0.0:
        x = 0.0
    return f"{x:.6g}"


def round6(x: float) -> float:
    """``x`` rounded to 6 significant digits, for JSON output."""
    return float(format_number(x))
