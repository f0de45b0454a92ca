"""Print the number of non-blank, non-comment lines of the package.

A line counts unless it is empty or holds only a ``#`` comment once its
indentation is stripped; docstrings count.  This is the size that ROADMAP.md
and CHANGES.md report for src/tourval.  tests/oracles.py, the reference
code the tests compare against, is counted beside it, since code moved
there out of the package is no cut.

Usage: python3 tools/sloc.py [BASE_REF]

With BASE_REF, the same files are also counted as they are at that git
revision, read with `git show` without a checkout: one row per module of
src/tourval and for tests/oracles.py gives both counts and the change, then
the package's total and the total of both.
Exit status: 0, or 2 when BASE_REF cannot be read.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/tourval"
ORACLES = "tests/oracles.py"


def count(text: str) -> int:
    return sum(1 for line in text.splitlines()
               if line.strip() and not line.lstrip().startswith("#"))


def sizes() -> dict[str, int]:
    """The count of each module of the package and of the oracles, by path
    from the repository root."""
    paths = [*sorted((ROOT / PACKAGE).rglob("*.py")), ROOT / ORACLES]
    return {path.relative_to(ROOT).as_posix(): count(path.read_text(encoding="utf-8"))
            for path in paths}


def sizes_at(ref: str) -> dict[str, int]:
    """The same counts at git revision ``ref``."""
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                              capture_output=True, text=True).stdout

    names = git("ls-tree", "-r", "--name-only", ref, "--", PACKAGE, ORACLES).splitlines()
    return {name: count(git("show", f"{ref}:{name}")) for name in names if name.endswith(".py")}


def package_size(counts: dict[str, int]) -> int:
    return sum(n for name, n in counts.items() if name != ORACLES)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(next(line for line in __doc__.splitlines() if line.startswith("Usage:")),
              file=sys.stderr)
        return 2
    head = sizes()
    if not argv:
        print(f"{PACKAGE}: {package_size(head)} non-blank, non-comment lines")
        print(f"{ORACLES}: {head[ORACLES]} non-blank, non-comment lines")
        return 0
    try:
        base = sizes_at(argv[0])
    except subprocess.CalledProcessError as e:
        print(f"error: cannot read {argv[0]}: {e.stderr.strip()}", file=sys.stderr)
        return 2
    both = f"{PACKAGE} + {ORACLES}"
    width = max(len(both), *map(len, head | base))

    def row(name: str, now: int, then: int) -> None:
        print(f"{name:<{width}}  {now:>6}  {then:>8}  {now - then:+7d}")

    print(f"{'non-blank, non-comment lines':<{width}}  {'now':>6}  {argv[0][:8]:>8}  "
          f"{'change':>7}")
    for name in sorted((set(head) | set(base)) - {ORACLES}):
        row(name, head.get(name, 0), base.get(name, 0))
    row(PACKAGE, package_size(head), package_size(base))
    row(ORACLES, head[ORACLES], base.get(ORACLES, 0))
    row(both, sum(head.values()), sum(base.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
