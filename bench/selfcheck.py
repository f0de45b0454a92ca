"""Self-check of the benchmark's own machinery.

  1. The workload generator is byte-deterministic for a fixed seed, and a
     different seed gives different inputs.
  2. The oracle reproduces the crisp column (and the other FTV columns) of
     the results.csv that `tourval run` writes for the bundled sample, and
     the set of retained attractions.
  3. Self time is computed correctly on a synthetic span tree, and the
     tracer records spans, wraps a module's `json.dumps`, and reports
     missing names as absent.

Usage: python3 bench/selfcheck.py      (exit status 0 when every check passes)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import oracle
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SAMPLE = ROOT / "src" / "tourval" / "data" / "santiago_sample"


def check_generator(tmp: Path) -> list[str]:
    problems = []
    for name in workloads.WORKLOADS:
        a, b, c = tmp / f"{name}-a", tmp / f"{name}-b", tmp / f"{name}-c"
        workloads.generate(ROOT, name, 7, a)
        workloads.generate(ROOT, name, 7, b)
        workloads.generate(ROOT, name, 8, c)
        files = sorted(p.name for p in a.iterdir())
        if files != sorted(p.name for p in b.iterdir()):
            problems.append(f"{name}: different file sets for one seed")
        for f in files:
            if (a / f).read_bytes() != (b / f).read_bytes():
                problems.append(f"{name}: {f} differs between two runs with seed 7")
        if (a / "evaluations.csv").read_bytes() == (c / "evaluations.csv").read_bytes():
            problems.append(f"{name}: seeds 7 and 8 give the same evaluations.csv")
    return problems


def check_oracle(tmp: Path) -> list[str]:
    out = tmp / "sample-out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", "import sys; from tourval.cli import main; sys.exit(main())",
         "run", "--config", str(SAMPLE / "config.json"), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        return [f"tourval run on the sample exited {done.returncode}: {done.stderr.strip()}"]
    expected = oracle.expected(SAMPLE)
    problems = oracle.check(out, expected, ("results.csv", "results.json"))
    if len(expected["values"]) != 10 or len(expected["kept"]) != 3:
        problems.append(f"oracle: {len(expected['values'])} attractions, "
                        f"{len(expected['kept'])} kept; the sample has 10 and 3")
    # the oracle must also catch a wrong value: shift one crisp value by a
    # unit in the sixth digit
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    row = lines[1].split(",")
    row[4] = f"{float(row[4]) * (1 + 2e-5):.6g}"
    (out / "results.csv").write_text("\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n",
                                     encoding="utf-8")
    if not oracle.check_results_csv(out / "results.csv", expected):
        problems.append("oracle accepted a crisp value off in the sixth digit")
    return problems


def check_spans() -> list[str]:
    problems = []

    def span(i, parent, start, end, name="s"):
        return {"run": 1, "id": i, "parent": parent, "name": name,
                "start_ns": start, "end_ns": end, "counts": {}}

    tree = [span(0, None, 0, 100, "root"), span(1, 0, 10, 40, "a"), span(2, 0, 30, 60, "b"),
            span(3, 1, 15, 20, "a1"), span(4, 0, 90, 120, "late")]
    # root: 100 minus the union [10, 60] + [90, 100]; a: 30 minus a1's 5
    want = {0: 40, 1: 25, 2: 30, 3: 5, 4: 30}
    got = spans.self_ns(tree)
    if got != want:
        problems.append(f"self time: got {got}, want {want}")
    if spans.covered_ns([(0, 10), (5, 15), (20, 30), (22, 25)]) != 25:
        problems.append("covered_ns: wrong union length")

    layer = types.ModuleType("bench_selfcheck_layer")
    layer.json = json
    layer.work = lambda n: layer.json.dumps(list(range(n)))
    sys.modules[layer.__name__] = layer
    try:
        tracer = spans.Tracer(run_id=1)
        undo, absent = tracer.install((
            (layer.__name__, "work", "layer.work", None),
            (layer.__name__, "json.dumps", "layer.json_dumps", spans._json_bytes),
            (layer.__name__, "missing", "layer.missing", None),
            ("bench_no_such_module", "f", "nowhere.f", None),
        ))
        result = layer.work(3)
        spans.Tracer.uninstall(undo)
        tracer.finish()
    finally:
        del sys.modules[layer.__name__]
    if absent != ["layer.missing", "nowhere.f"]:
        problems.append(f"absent names: got {absent}")
    if layer.json is not json:
        problems.append("uninstall did not restore the module's json")
    table = spans.summarize(tracer.spans)
    if (result != "[0, 1, 2]" or set(table) != {"layer.work", "layer.json_dumps"}
            or tracer.spans[1]["parent"] != 0
            or table["layer.json_dumps"]["counts"] != {"bytes": 9}):
        problems.append(f"tracer recorded {tracer.spans}")
    metrics = spans.layer_metrics(table)
    if metrics["pipeline.ingest_s"] != 0.0 or metrics["spatial.kde_support_ratio"] != 0.0:
        problems.append("metrics of absent layers are not 0")
    return problems


def main() -> int:
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=work))
    failed = False
    try:
        for title, check in (("generator is deterministic", lambda: check_generator(tmp)),
                             ("oracle reproduces the sample", lambda: check_oracle(tmp)),
                             ("span arithmetic", check_spans)):
            problems = check()
            print(f"{'ok  ' if not problems else 'FAIL'} {title}")
            for problem in problems:
                print(f"     {problem}")
            failed |= bool(problems)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
