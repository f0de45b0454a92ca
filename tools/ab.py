"""Compare the benchmark's end-to-end metrics of this checkout with a base
commit's, in alternating pairs of runs.

Usage: python3 tools/ab.py BASE_REF WORKLOAD SEED [--pairs N] [--seconds S]

BASE_REF is checked out as a git worktree in a temporary directory.  Both
sides must hold the same benchmark: the tool refuses when bench/ or
BENCHMARK.json in this checkout differ from BASE_REF's, uncommitted changes
included.  Both sides must start without bytecode: the fresh worktree holds
none, and the tool refuses this checkout when a __pycache__ directory lies
under its src/, since only this side's runs would read it (a warm cache
makes start-up faster).  The runs write no bytecode themselves
(PYTHONDONTWRITEBYTECODE=1), so each side compiles its sources on every
run and the checkout stays clean for the next comparison.  Each pair runs
`bench/run.py --workload WORKLOAD --seed SEED --seconds S --trace 0` once
from the base's checkout and once from this one, the base first in odd
pairs and second in even ones, and reads each run's last line, the
benchmark's JSON summary.  As each run completes, the tool
prints that summary on one line after its pair and side, `pair 1 base {...}`,
so every run's data can be collected from this output.

For each end-to-end metric of BENCHMARK.json the tool prints each side's
median and quartiles, the change of the medians, the pairs this checkout
won (better in the metric's direction; ties count for neither side) and
whether the medians differ by more than the base's interquartile range, the
spread a gain must beat.  A `peak_rss_mb` median change under 0.7 MiB is
printed as heap-layout noise, neither a gain nor a loss: the peak moves that
much with nothing but the directory a checkout lives in.  The failed
operation counts of each side are printed too.

Exit status: 0 when every run completed with no failed operation; 1 when a
run failed; 2 on bad arguments, when this checkout holds a bytecode cache,
when the base cannot be checked out, or when the benchmarks differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ("bench", "BENCHMARK.json")
# the median changes that are noise: heap layout alone moves a peak-RSS
# reading by up to 0.7 MiB with the checkout's path
NOISE = {"peak_rss_mb": 0.7}


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)


def _benchmark_differs(base: str) -> str | None:
    """Why the benchmark of this checkout is not BASE_REF's, or None."""
    diff = _git("diff", "--name-only", base, "--", *BENCHMARK)
    if diff.returncode:
        return f"cannot compare with {base}: {diff.stderr.strip()}"
    untracked = _git("ls-files", "--others", "--exclude-standard", "--", *BENCHMARK)
    changed = diff.stdout.split() + untracked.stdout.split()
    return f"the benchmark differs from {base}'s: {', '.join(changed)}" if changed else None


def _bytecode_cache(checkout: Path) -> Path | None:
    """A ``__pycache__`` directory under ``checkout``'s src/, or None."""
    return next((checkout / "src").rglob("__pycache__"), None)


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary of one benchmark run from ``checkout``; a run that
    prints none counts as one failed operation."""
    done = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        reason = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"attempted": 1, "failed": 1, "metrics": {}, "error": reason}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def _metric_line(metric: dict, base: list[float], head: list[float]) -> str:
    """One metric's line of the report from each side's readings, in pairs."""
    name, lower = metric["name"], metric["better"] == "lower"
    (b1, bm, b3), (h1, hm, h3) = _quartiles(base), _quartiles(head)
    wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
    gain = (bm - hm) if lower else (hm - bm)
    if abs(hm - bm) < NOISE.get(name, 0.0):
        change, verdict = "noise", f"no: heap-layout noise (under {NOISE[name]:g} {metric['unit']})"
    else:
        change = f"{(hm - bm) / bm:+.1%}" if bm else "n/a"
        verdict = "yes" if gain > b3 - b1 else "no"
    return (f"{name:20} {f'{bm:.6g} [{b1:.6g}, {b3:.6g}]':>32} "
            f"{f'{hm:.6g} [{h1:.6g}, {h3:.6g}]':>32} {change:>8} "
            f"{f'{wins}/{len(base)}':>6}  {verdict}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    cache = _bytecode_cache(ROOT)
    if cache is not None:
        print(f"error: {cache} holds bytecode that only this checkout's runs would read; "
              "delete it and run again", file=sys.stderr)
        return 2
    differs = _benchmark_differs(args.base)
    if differs:
        print(f"error: {differs}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    runs: dict[str, list[dict]] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base = Path(tmp) / "base"
        added = _git("worktree", "add", "--detach", str(base), args.base)
        if added.returncode:
            print(f"error: cannot check out {args.base}: {added.stderr.strip()}",
                  file=sys.stderr)
            return 2
        try:
            for pair in range(1, args.pairs + 1):
                order = ["base", "head"] if pair % 2 else ["head", "base"]
                for side in order:
                    runs[side].append(_run(base if side == "base" else ROOT, args.workload,
                                           args.seed, args.seconds))
                    print(f"pair {pair} {side} {json.dumps(runs[side][-1])}", flush=True)
        finally:
            _git("worktree", "remove", "--force", str(base))

    print(f"{args.workload} seed {args.seed}, {args.pairs} pair(s) of {args.seconds:g} s, "
          f"base {args.base}")
    print(f"{'metric':20} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32} "
          f"{'change':>8} {'wins':>6}  gain > base IQR")
    for metric in declared:
        name = metric["name"]
        values = {side: [r["metrics"].get(name, {}).get("value") for r in runs[side]]
                  for side in runs}
        if any(v is None for side in values.values() for v in side):
            print(f"{name:20} missing from a run")
            continue
        print(_metric_line(metric, values["base"], values["head"]))
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    attempted = {side: sum(r["attempted"] for r in runs[side]) for side in runs}
    print(f"failed operations: base {failed['base']}/{attempted['base']}, "
          f"head {failed['head']}/{attempted['head']}")
    for side in runs:
        for r in runs[side]:
            if "error" in r:
                print(f"{side} run failed: {r['error']}")
    return 1 if any(failed.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
