"""Check that this checkout writes the same artifacts as a base commit.

Usage: python3 tools/same_bytes.py BASE_REF

BASE_REF is checked out as a git worktree in a temporary directory.  The
inputs are made once, from this checkout: the bundled sample, copied; a
second copy of it with "range_policy": "clamp" in its config.json and the
first judgement's hi pushed to 5.5, past its factor's range [0, 5], so that
each command prints the clamp line; three copies of it whose
evaluations.csv holds a fault (the first judgement repeated, a judgement's
factor id renamed to "ghost", a judgement's lo and hi swapped), on which
every command must exit 2 and write no artifact; seeds 1 and 2 of each
benchmark workload, generated by bench/workloads.py; and two copies of
survey_2k seed 1 with one attraction renamed to a non-ASCII id in
attractions.csv and evaluations.csv: a1999 to a1999ñ, whose 60 judgements
are the last rows, so that numpy's C reader reads evaluations.csv up to its
last block and the CSV reader reads that block, and a0000 to a0000ñ, whose
judgements are the first rows, so that the CSV reader reads the whole file.
On each input set
`tourval run` runs first from the base's source, then from this
checkout's, both with the same --out, so the config echo in results.json
matches; for district_tour, the workload the benchmark times as `tour`,
`tourval tour` runs after `run` on each side.  `tourval ftv` runs on every
input set too, into a --out of its own, the same on both sides.  The exit
status of each command, and the SHA-256 of every artifact, of its standard
output (the summary the CLI prints) and of its standard error, are
compared.  For a JSON artifact (results.json, map.geojson) whose bytes
differ, the tool also says whether the two documents that json.loads reads
are equal, number types and the sign of zero included.

Exit status: 0 when every exit status, artifact, standard output and
standard error matches byte for byte, and every command exits as expected
(2 on a faulty input set, else 0); 1 when one differs, even as an equal
document, or a command exits otherwise, naming each; 2 when the base cannot
be checked out.
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


# faulty copies of the sample, by name: the line of evaluations.csv that each
# rewrites, counted from 0 at the header, and how
FAULTS = {
    "sample with a repeated judgement": (1, lambda line: line + b"\n" + line),
    "sample with an unknown factor": (300, lambda line: line.replace(b",social_vulnerability,",
                                                                     b",ghost,")),
    "sample with lo and hi swapped": (400, lambda line: b",".join(
        line.split(b",")[i] for i in (0, 1, 2, 5, 4, 3))),
}


def _edited_sample(directory: Path, name: str, at: int, edit) -> Path:
    """Config path of a copy of the sample whose evaluations.csv has line
    ``at`` (0 is the header) replaced by ``edit(line)``."""
    copy = Path(shutil.copytree(SAMPLE, directory / name.replace(" ", "-")))
    lines = (copy / "evaluations.csv").read_bytes().split(b"\n")
    lines[at] = edit(lines[at])
    (copy / "evaluations.csv").write_bytes(b"\n".join(lines))
    return copy / "config.json"


def _renamed(config: Path, directory: Path, old: str, new: str) -> Path:
    """Config path of a copy of ``config``'s inputs with the attraction id
    ``old`` renamed to ``new`` in attractions.csv and evaluations.csv, where
    it is the first cell of its rows."""
    copy = Path(shutil.copytree(config.parent, directory))
    for name in ("attractions.csv", "evaluations.csv"):
        path = copy / name
        path.write_bytes(path.read_bytes().replace(f"\n{old},".encode(), f"\n{new},".encode()))
    return copy / "config.json"


def _inputs(directory: Path) -> dict[str, Path]:
    """Config path of each input set, by name."""
    configs = {"sample": Path(shutil.copytree(SAMPLE, directory / "sample")) / "config.json"}
    clamp = _edited_sample(directory, "sample clamp", 1,
                           lambda line: line.rpartition(b",")[0] + b",5.5")
    config = json.loads(clamp.read_text(encoding="utf-8"))
    clamp.write_text(json.dumps({**config, "range_policy": "clamp"}), encoding="utf-8")
    configs["sample with a clamped judgement"] = clamp
    for name, (at, edit) in FAULTS.items():
        configs[name] = _edited_sample(directory, name, at, edit)
    for name in sorted(workloads.WORKLOADS):
        for seed in SEEDS:
            configs[f"{name} seed {seed}"] = workloads.generate(
                ROOT, name, seed, directory / f"{name}-{seed}")
    for old in ("a1999", "a0000"):
        configs[f"survey_2k seed 1 with {old} renamed {old}ñ"] = _renamed(
            configs["survey_2k seed 1"], directory / f"survey_2k-1-{old}", old, old + "ñ")
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
    """Each command's exit status, by "command exit" ("0", or the status and
    the standard error's text), the SHA-256 of its standard output and
    error, by "command stdout" and "command stderr", and of each artifact
    it leaves, by "command artifact", the commands run in turn into the
    --out directory they are listed under; after a failed command no later
    command of its directory runs.  Beside them, by the same keys, each JSON
    artifact's ``_document_digest``."""
    env = {**os.environ, "PYTHONPATH": str(source / "src")}
    digests, documents = {}, {}
    for out, commands in outs.items():
        shutil.rmtree(out, ignore_errors=True)
        for command in commands:
            done = subprocess.run(
                [sys.executable, "-m", "tourval.cli", command, "--config", str(config),
                 "--out", str(out)], env=env, capture_output=True)
            digests[f"{command} exit"] = str(done.returncode) + (
                f": {done.stderr.decode(errors='backslashreplace').strip()}"
                if done.returncode else "")
            digests[f"{command} stdout"] = _sha256(done.stdout)
            digests[f"{command} stderr"] = _sha256(done.stderr)
            for artifact in filter(Path.exists, (out / name for name in ARTIFACTS[command])):
                digests[f"{command} {artifact.name}"] = _sha256(artifact.read_bytes())
                if artifact.suffix in (".json", ".geojson"):
                    documents[f"{command} {artifact.name}"] = _document_digest(artifact)
            if done.returncode:
                break
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
                # a faulty input set exits 2 and writes nothing; any other exits 0
                expected = "2" if name in FAULTS else "0"
                for key, value in after.items():
                    command, what = key.split(" ", 1)
                    if what == "exit" and value.partition(":")[0] != expected:
                        differ.append(f"{name}: {command} exits {value}, expected {expected}")
                    elif name in FAULTS and what in ARTIFACTS[command]:
                        differ.append(f"{name}: {command} wrote {what}, expected no artifact")
                print(f"{name}: {', '.join(before)} checked")
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)],
                           capture_output=True)
    for line in differ:
        print(f"differs: {line}")
    print(f"{len(differ)} exit status(es), artifact(s), stdout(s) or stderr(s) differ from "
          f"{argv[0]} or from what is expected; {same_documents} of them are JSON artifacts "
          "whose documents are equal")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
