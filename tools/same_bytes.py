"""Check that this checkout writes the same artifacts as a base commit.

Usage: python3 tools/same_bytes.py BASE_REF

BASE_REF is checked out as a git worktree in a temporary directory.  The
inputs are made once, from this checkout: the bundled sample, copied, and
seeds 1 and 2 of each benchmark workload, generated by bench/workloads.py.
On each input set `tourval run` runs first from the base's source, then
from this checkout's, both with the same --out, so the config echo in
results.json matches; for district_tour, the workload the benchmark times
as `tour`, `tourval tour` runs after `run` on each side.  `tourval ftv`
runs on every input set too, into a --out of its own, the same on both
sides.  The SHA-256 of every artifact and of each command's standard output
(the summary the CLI prints) is compared.

Exit status: 0 when every artifact and standard output matches; 1 when one
differs or a run fails, naming each; 2 when the base cannot be checked out.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

SAMPLE = ROOT / "src" / "tourval" / "data" / "santiago_sample"
SEEDS = (1, 2)
ARTIFACTS = {"run": ("results.csv", "results.json", "map.geojson"), "tour": ("map.geojson",),
             "ftv": ("results.csv", "results.json")}


def _inputs(directory: Path) -> dict[str, Path]:
    """Config path of each input set, by name."""
    configs = {"sample": Path(shutil.copytree(SAMPLE, directory / "sample")) / "config.json"}
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            configs[f"{name} seed {seed}"] = workloads.generate(
                ROOT, name, seed, directory / f"{name}-{seed}")
    return configs


def _artifacts(source: Path, config: Path, outs: dict[Path, tuple[str, ...]]
               ) -> dict[str, str]:
    """SHA-256 of each artifact after each command, by "command artifact",
    and of its standard output, by "command stdout", the commands run in
    turn into the --out directory they are listed under; a failed command
    maps to its exit status and standard error, and no later command of its
    directory runs."""
    env = {**os.environ, "PYTHONPATH": str(source / "src")}
    digests = {}
    for out, commands in outs.items():
        shutil.rmtree(out, ignore_errors=True)
        for command in commands:
            done = subprocess.run(
                [sys.executable, "-m", "tourval.cli", command, "--config", str(config),
                 "--out", str(out)], env=env, capture_output=True, text=True)
            if done.returncode:
                digests[command] = f"exit {done.returncode}: {done.stderr.strip()}"
                break
            digests[f"{command} stdout"] = hashlib.sha256(done.stdout.encode()).hexdigest()
            for artifact in ARTIFACTS[command]:
                digests[f"{command} {artifact}"] = hashlib.sha256(
                    (out / artifact).read_bytes()).hexdigest()
    return digests


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        added = subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                                str(base), argv[0]], capture_output=True, text=True)
        if added.returncode:
            print(f"error: cannot check out {argv[0]}: {added.stderr.strip()}",
                  file=sys.stderr)
            return 2
        try:
            differ = []
            for name, config in _inputs(tmp / "inputs").items():
                outs = {tmp / "out": ("run", "tour") if name.startswith("district_tour")
                        else ("run",), tmp / "ftv-out": ("ftv",)}
                before, after = (_artifacts(source, config, outs) for source in (base, ROOT))
                for key in sorted(before.keys() | after.keys()):
                    if before.get(key) != after.get(key):
                        differ.append(f"{name}: {key}: base {before.get(key)}, "
                                      f"head {after.get(key)}")
                print(f"{name}: {', '.join(before)} checked")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)],
                           capture_output=True)
    for line in differ:
        print(f"differs: {line}")
    print(f"{len(differ)} artifact(s) or stdout(s) differ from {argv[0]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
