"""Check that this checkout writes the same artifacts as a base commit.

Usage: python3 tools/same_bytes.py BASE_REF

BASE_REF is checked out as a git worktree in a temporary directory.  The
inputs are made once, from this checkout: the bundled sample, copied; a
second copy of it with "range_policy": "clamp" in its config.json and the
first judgement's hi pushed to 5.5, past its factor's range [0, 5], so that
each command prints the clamp line; and seeds 1 and 2 of each benchmark
workload, generated by bench/workloads.py.  On each input set `tourval run`
runs first from the base's source, then from this checkout's, both with the
same --out, so the config echo in results.json matches; for district_tour,
the workload the benchmark times as `tour`, `tourval tour` runs after `run`
on each side.  `tourval ftv` runs on every input set too, into a --out of
its own, the same on both sides.  The SHA-256 of every artifact, of each
command's standard output (the summary the CLI prints) and of its standard
error is compared.  For a JSON artifact (results.json, map.geojson) whose
bytes differ, the tool also says whether the two documents that json.loads
reads are equal, number types and the sign of zero included.

Exit status: 0 when every artifact, standard output and standard error
matches byte for byte; 1 when one differs, even as an equal document, or a
run fails, naming each; 2 when the base cannot be checked out.
"""

from __future__ import annotations

import hashlib
import json
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
    clamp = Path(shutil.copytree(SAMPLE, directory / "sample-clamp"))
    config = json.loads((clamp / "config.json").read_text(encoding="utf-8"))
    (clamp / "config.json").write_text(json.dumps({**config, "range_policy": "clamp"}),
                                       encoding="utf-8")
    header, first, rest = (clamp / "evaluations.csv").read_bytes().split(b"\n", 2)
    (clamp / "evaluations.csv").write_bytes(
        b"\n".join((header, first.rpartition(b",")[0] + b",5.5", rest)))
    configs["sample with a clamped judgement"] = clamp / "config.json"
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            configs[f"{name} seed {seed}"] = workloads.generate(
                ROOT, name, seed, directory / f"{name}-{seed}")
    return configs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _document_digest(path: Path) -> str:
    """SHA-256 of the JSON document at ``path`` as json.loads reads it,
    printed back in one form (keys sorted, no whitespace): two texts of one
    document have the same digest."""
    document = json.loads(path.read_bytes())
    return _sha256(json.dumps(document, sort_keys=True, separators=(",", ":")).encode())


def _artifacts(source: Path, config: Path, outs: dict[Path, tuple[str, ...]]
               ) -> tuple[dict[str, str], dict[str, str]]:
    """SHA-256 of each artifact after each command, by "command artifact",
    and of its standard output and error, by "command stdout" and "command
    stderr", the commands run in
    turn into the --out directory they are listed under; a failed command
    maps to its exit status and standard error, and no later command of its
    directory runs.  Beside them, by the same keys, each JSON artifact's
    ``_document_digest``."""
    env = {**os.environ, "PYTHONPATH": str(source / "src")}
    digests, documents = {}, {}
    for out, commands in outs.items():
        shutil.rmtree(out, ignore_errors=True)
        for command in commands:
            done = subprocess.run(
                [sys.executable, "-m", "tourval.cli", command, "--config", str(config),
                 "--out", str(out)], env=env, capture_output=True, text=True)
            if done.returncode:
                digests[command] = f"exit {done.returncode}: {done.stderr.strip()}"
                break
            digests[f"{command} stdout"] = _sha256(done.stdout.encode())
            digests[f"{command} stderr"] = _sha256(done.stderr.encode())
            for artifact in ARTIFACTS[command]:
                digests[f"{command} {artifact}"] = _sha256((out / artifact).read_bytes())
                if artifact.endswith((".json", ".geojson")):
                    documents[f"{command} {artifact}"] = _document_digest(out / artifact)
    return digests, documents


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
            differ, same_documents = [], 0
            for name, config in _inputs(tmp / "inputs").items():
                outs = {tmp / "out": ("run", "tour") if name.startswith("district_tour")
                        else ("run",), tmp / "ftv-out": ("ftv",)}
                (before, base_documents), (after, documents) = (
                    _artifacts(source, config, outs) for source in (base, ROOT))
                for key in sorted(before.keys() | after.keys()):
                    if before.get(key) != after.get(key):
                        line = f"{name}: {key}: base {before.get(key)}, head {after.get(key)}"
                        if key in base_documents and key in documents:
                            same = base_documents[key] == documents[key]
                            same_documents += same
                            line += f"; documents {'equal' if same else 'differ'}"
                        differ.append(line)
                print(f"{name}: {', '.join(before)} checked")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)],
                           capture_output=True)
    for line in differ:
        print(f"differs: {line}")
    print(f"{len(differ)} artifact(s), stdout(s) or stderr(s) differ from {argv[0]}; "
          f"{same_documents} of them are JSON artifacts whose documents are equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
