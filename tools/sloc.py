"""Print the number of non-blank, non-comment lines of the package.

A line counts unless it is empty or holds only a ``#`` comment once its
indentation is stripped; docstrings count.  This is the size that ROADMAP.md
and CHANGES.md report for src/tourval.

Usage: python3 tools/sloc.py [BASE_REF]

With BASE_REF, src/tourval is also counted as it is at that git revision,
read with `git show` without a checkout, and the difference is printed.
Exit status: 0, or 2 when BASE_REF cannot be read.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tourval"


def count(text: str) -> int:
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def sloc(root: Path = PACKAGE) -> int:
    return sum(count(path.read_text(encoding="utf-8")) for path in sorted(root.rglob("*.py")))


def sloc_at(ref: str) -> int:
    """The same count for src/tourval at git revision ``ref``."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout

    names = git("ls-tree", "-r", "--name-only", ref, "--", "src/tourval").splitlines()
    return sum(count(git("show", f"{ref}:{name}")) for name in names if name.endswith(".py"))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[6], file=sys.stderr)
        return 2
    head = sloc()
    print(f"src/tourval: {head} non-blank, non-comment lines")
    if argv:
        try:
            base = sloc_at(argv[0])
        except subprocess.CalledProcessError as e:
            print(f"error: cannot read {argv[0]}: {e.stderr.strip()}", file=sys.stderr)
            return 2
        print(f"src/tourval at {argv[0]}: {base} non-blank, non-comment lines "
              f"({head - base:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
