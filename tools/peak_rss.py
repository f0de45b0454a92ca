"""Print the peak resident set size of one benchmark workload's CLI command.

Usage: python3 tools/peak_rss.py WORKLOAD SEED

The inputs are generated by bench/workloads.py into a temporary directory.
The workload's command (`tourval run`, or `tourval tour` after an untimed
`run`) then runs as a child of this process, which imports nothing beyond
the standard library, and the child's own ru_maxrss (from wait4) is
printed.  Linux keeps a process's high-water mark across exec, so a child
started from a large parent, such as bench/run.py after it has imported
numpy, reports at least that parent's size; this parent's own peak is
printed beside the child's to show that floor.  The peak of a child that
only runs `import tourval.cli` (the interpreter, numpy and tourval's
modules) is printed too, so the share of the command's peak that its run
adds can be read off.

Exit status: 0 on success; 1 when a child fails; 2 on bad arguments.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Runs in a child, so numpy is never imported here: prints the config path
# and the workload's command as JSON.
GENERATE = """
import json, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path.insert(0, str(root / "bench"))
import workloads
config = workloads.generate(root, sys.argv[2], int(sys.argv[3]), Path(sys.argv[4]))
print(json.dumps([str(config), workloads.WORKLOADS[sys.argv[2]].command]))
"""


def _child(argv: list[str]) -> tuple[int, float, str]:
    """(exit code, peak RSS in MiB, standard error) of one child."""
    # one BLAS thread, as bench/run.py gives its children: idle BLAS threads add RSS
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    with proc.stderr:
        err = proc.stderr.read().decode("utf-8", "replace")
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0, err


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not argv[1].isdigit():
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    name, seed = argv
    with tempfile.TemporaryDirectory(prefix="peak-rss-") as tmp:
        made = subprocess.run([sys.executable, "-c", GENERATE, str(ROOT), name, seed, tmp],
                              capture_output=True, text=True)
        if made.returncode:
            reason = (made.stderr.strip().splitlines() or ["no message"])[-1]
            print(f"error: cannot generate {name} seed {seed}: {reason}", file=sys.stderr)
            return 2
        config, command = json.loads(made.stdout)
        cli = [sys.executable, "-m", "tourval.cli"]
        steps = ["run", "tour"] if command == "tour" else ["run"]
        for step in steps:
            code, peak, err = _child(cli + [step, "--config", config, "--out",
                                            str(Path(tmp) / "out")])
            if code:
                print(f"error: tourval {step} exited {code}: {err.strip()}", file=sys.stderr)
                return 1
    code, imported, err = _child([sys.executable, "-c", "import tourval.cli"])
    if code:
        print(f"error: import tourval.cli exited {code}: {err.strip()}", file=sys.stderr)
        return 1
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{name} seed {seed}: tourval {command} peak RSS {peak:.1f} MiB, "
          f"{peak - imported:.1f} MiB above import tourval.cli alone ({imported:.1f} MiB; "
          f"this parent: {parent:.1f} MiB)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
