"""Print how long `import tourval.cli` takes beside the benchmark's reference
child, with and without a bytecode cache.

Usage: python3 tools/startup.py [PAIRS]

src/tourval is copied, without any bytecode, into a temporary directory,
and each child imports it from there.  PAIRS (default 15) interleaved pairs
of two fresh interpreters are timed from spawn to exit: `import tourval.cli`
and bench/run.py's reference child, `import csv, json, numpy`, the tourval
child first in odd pairs and second in even ones.  The pairs run twice:

- without bytecode: PYTHONDONTWRITEBYTECODE=1, so every tourval child
  compiles the package again, as the benchmark's children do when they
  inherit that variable;
- with a warm cache: PYTHONPYCACHEPREFIX set to a directory in the
  temporary directory, filled by one untimed child of each kind first.

For each condition the two medians and their difference are printed, and
then the median and quartiles of the differences within each pair (the
tourval child minus the reference child), which cancel a drift of the host
that lasts longer than one pair.  Then
one more child runs the reference child's imports and then `import
tourval.cli`, and the modules that the second import adds to `sys.modules`
are printed: the package's own, then every other, so that a new start-up
import shows.  Last, one child imports `tourval.cli` the same way and then
runs `run` on the bundled sample, and the modules that the run adds are
printed, so that a module a command loads lazily shows too.  This process
imports nothing from tourval or numpy.

Exit status: 0 on success; 1 when a child fails; 2 on bad arguments.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IMPORT = "import tourval.cli"
# bench/run.py's REFERENCE child
REFERENCE = "import csv, json, numpy"


# the modules that IMPORT loads beyond REFERENCE's, printed by one child
ADDED = (f"import sys\n{REFERENCE}\nbefore = set(sys.modules)\n{IMPORT}\n"
         "print(*sorted(set(sys.modules) - before))")
# the modules that `run` on the config given as the first argument loads
# beyond IMPORT's, printed by one child after the run, whose stdout it drops
RUN_ADDED = (f"import contextlib, io, sys, tempfile\n{REFERENCE}\n{IMPORT}\n"
             "before = set(sys.modules)\n"
             "with tempfile.TemporaryDirectory() as out, \\\n"
             "        contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = tourval.cli.main(['run', '--config', sys.argv[1], '--out', out])\n"
             "print(*sorted(set(sys.modules) - before))\n"
             "sys.exit(code)")
SAMPLE = Path("tourval", "data", "santiago_sample", "config.json")


class ChildFailed(Exception):
    pass


def _child(code: str, env: dict[str, str], *args: str) -> tuple[float, str]:
    """Wall time and standard output of one ``python -c code args``."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    if done.returncode:
        reason = (done.stderr.strip().splitlines() or ["no message"])[-1]
        raise ChildFailed(f"a child exited {done.returncode}: {reason}")
    return wall, done.stdout


def _pairs(pairs: int, env: dict[str, str]) -> tuple[float, float, list[float]]:
    """Median wall times of the tourval and the reference child, and each
    pair's tourval time minus its reference time."""
    times: dict[str, list[float]] = {IMPORT: [], REFERENCE: []}
    for pair in range(pairs):
        for code in (IMPORT, REFERENCE) if pair % 2 == 0 else (REFERENCE, IMPORT):
            times[code].append(_child(code, env)[0])
    differences = [t - r for t, r in zip(times[IMPORT], times[REFERENCE])]
    return statistics.median(times[IMPORT]), statistics.median(times[REFERENCE]), differences


def main(argv: list[str]) -> int:
    if len(argv) > 1 or argv and not (argv[0].isdigit() and int(argv[0]) > 0):
        print(__doc__.strip().splitlines()[3], file=sys.stderr)
        return 2
    pairs = int(argv[0]) if argv else 15
    with tempfile.TemporaryDirectory(prefix="startup-") as tmp:
        source = Path(tmp) / "src"
        shutil.copytree(ROOT / "src" / "tourval", source / "tourval",
                        ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        base = {key: value for key, value in os.environ.items()
                if key not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
        # one BLAS thread, as bench/run.py gives its children
        base.update(PYTHONPATH=str(source), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                    MKL_NUM_THREADS="1")
        cold = {**base, "PYTHONDONTWRITEBYTECODE": "1"}
        warm = {**base, "PYTHONPYCACHEPREFIX": str(Path(tmp) / "pycache")}
        try:
            print(f"{IMPORT!r} against {REFERENCE!r}, medians of {pairs} interleaved pairs")
            for label, env in (("without bytecode", cold), ("warm bytecode cache", warm)):
                _child(IMPORT, env), _child(REFERENCE, env)   # untimed; fills a warm cache
                tourval, reference, differences = _pairs(pairs, env)
                q1, median, q3 = (statistics.quantiles(differences, n=4, method="inclusive")
                                  if pairs > 1 else differences * 3)
                print(f"{label}: tourval {tourval:.4f} s, reference {reference:.4f} s, "
                      f"difference {tourval - reference:+.4f} s; paired difference "
                      f"{median:+.4f} s [{q1:+.4f}, {q3:+.4f}]")
            added = _child(ADDED, warm)[1].split()
            own = [name for name in added if name.partition(".")[0] == "tourval"]
            others = [name for name in added if name not in own]
            print(f"{IMPORT!r} loads {len(added)} module(s) beyond {REFERENCE!r}: "
                  f"{len(own)} of tourval ({' '.join(own)}), {len(others)} other(s) "
                  f"({' '.join(others) or 'none'})")
            by_run = _child(RUN_ADDED, warm, str(source / SAMPLE))[1].split()
            print(f"a run of the bundled sample loads {len(by_run)} module(s) beyond "
                  f"{IMPORT!r}: {' '.join(by_run) or 'none'}")
        except ChildFailed as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
