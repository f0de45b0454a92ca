"""Print the number of non-blank, non-comment lines of the package.

A line counts unless it is empty or holds only a ``#`` comment once its
indentation is stripped; docstrings count.  This is the size that ROADMAP.md
and CHANGES.md report for src/tourval.

Usage: python3 tools/sloc.py
"""

from __future__ import annotations

from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tourval"


def sloc(root: Path = PACKAGE) -> int:
    return sum(1 for path in sorted(root.rglob("*.py"))
               for line in path.read_text(encoding="utf-8").splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


if __name__ == "__main__":
    print(f"src/tourval: {sloc()} non-blank, non-comment lines")
