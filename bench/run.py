"""tourval benchmark: seeded workloads, cold CLI invocations, checked outputs.

Usage:
    python3 bench/run.py --workload survey_2k --seed 1 --seconds 30 --trace 0

--trace 0 measures what a user of the CLI sees.  A closed loop of one
client starts a fresh `tourval run` (or `tourval tour`) process, waits for it
to exit and starts the next, until --seconds have passed.  Each invocation is
timed from spawn to exit; its CPU time and peak RSS come from wait4.  Set-up
time is a fresh interpreter importing tourval.cli, which every invocation
pays before it reads any input; one set-up sample follows each invocation.
Between every two of these children the loop times a reference child, a
fresh interpreter that imports csv, json and numpy and exits; it imports
nothing from tourval.  Each time is normalised to one machine speed: it is
divided by the mean of the reference timings just before and just after it,
and multiplied by REFERENCE_S.  The metrics are medians of the normalised
times over the run.  README.md says why.  The times as measured are printed
beside them.

--trace 1 runs the same workload in this process, alternating untraced and
traced runs of tourval.cli.main, and reports the per-layer metrics (see
spans.py) as medians over the traced runs.  Spans go to
.bench_work/traces/<workload>-seed<seed>.jsonl.

Every invocation is checked: exit code 0; artifacts byte-identical (SHA-256)
to the workload's first invocation; and that first invocation's values,
filter set and map agree with oracle.py.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  Exit
status: 0 when every invocation was correct, 1 when any failed, 2 when the
checkout holds no tourval source or the arguments are wrong.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread in the children and in this process, set before
# numpy is first imported.  The program does no BLAS work, so this only
# removes idle worker threads that would share the two cores with the run.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
# what the installed `tourval` console script runs
ENTRY = "import sys; from tourval.cli import main; sys.exit(main())"
ARTIFACTS = {"run": ("results.csv", "results.json", "map.geojson"), "tour": ("map.geojson",)}
MIN_SAMPLES = 3
# The reference child: program-independent start-up work of the kind each
# invocation begins with.  Its median in the same run scales the times to a
# machine where it takes REFERENCE_S, about its median on the 2-vCPU shared
# host the benchmark was tuned on.  Changing either rescales every time.
REFERENCE = "import csv, json, numpy"
REFERENCE_S = 0.2
CHILD_TIMEOUT_S = 60.0
# layers the traced run should find dominant, as a share of cli.main_s
DOMINANT = {
    "survey_2k": ("pipeline.ingest_s", "valuation.evaluate_s"),
    "city_10km": ("spatial.kde_s",),
    "district_tour": ("geojson.features_s", "pipeline.json_dumps_s"),
}


class Checker:
    """Judges the artifacts one invocation left in ``out_dir``."""

    def __init__(self, out_dir: Path, expected: dict, artifacts: tuple[str, ...]):
        self.out_dir = out_dir
        self.expected = expected
        self.artifacts = artifacts
        self.reference: str | None = None
        self.reference_problems: list[str] = []

    def clear(self) -> None:
        for name in self.artifacts:
            (self.out_dir / name).unlink(missing_ok=True)

    def __call__(self) -> tuple[int, list[str]]:
        """(bytes written, problems).  Only the first invocation's bytes are
        checked against the oracle; later ones must match them exactly."""
        paths = [self.out_dir / name for name in self.artifacts]
        missing = [p.name for p in paths if not p.is_file()]
        if missing:
            return 0, [f"not written: {', '.join(missing)}"]
        digest, size = hashlib.sha256(), 0
        for path in paths:
            data = path.read_bytes()
            size += len(data)
            digest.update(hashlib.sha256(data).digest())
        if self.reference is None:
            self.reference = digest.hexdigest()
            self.reference_problems = oracle.check(self.out_dir, self.expected, self.artifacts)
        elif digest.hexdigest() != self.reference:
            return size, ["artifacts differ from the workload's first invocation"]
        return size, self.reference_problems


class Tally:
    """Invocations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:3]
        return not problems


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[float, float, float, int]:
    """(wall s, user+sys CPU s, peak RSS MiB, exit code) of one child."""
    env = child_env()
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=handle, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def exit_problems(code: int, log: Path) -> list[str]:
    if code == 0:
        return []
    tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
    return [f"exit code {code}: {' '.join(tail)}"]


def tail_percentile(samples: list[float]) -> str:
    """The highest nearest-rank percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"n/a (n={n}, needs 11)"
    k = n - 11
    return f"p{100.0 * (k + 1) / n:.0f} {sorted(samples)[k]:.4f} s (n={n})"


def measure_cli(name: str, config: Path, expected: dict, seconds: float,
                tally: Tally) -> tuple[dict[str, float], list[str]]:
    spec = workloads.WORKLOADS[name]
    cwd = config.parent
    out = cwd / "out"
    log = cwd / "child.log"
    def cli(command: str) -> list[str]:
        return [sys.executable, "-c", ENTRY, command, "--config", str(config), "--out", str(out)]

    invoke = cli(spec.command)
    lines = []

    importer = [sys.executable, "-c", "import tourval.cli"]
    spawn(importer, cwd, log)  # writes the bytecode cache; not timed
    if spec.command == "tour":
        wall, _, _, code = spawn(cli("run"), cwd, log)
        tally.record(exit_problems(code, log)
                     or oracle.check(out, expected, ("results.csv", "results.json")))
        lines.append(f"set-up `tourval run` for tour: {wall:.4f} s")

    checker = Checker(out, expected, ARTIFACTS[spec.command])
    # per invocation: (wall, CPU, peak RSS, bytes, mean of the reference
    # timings just before and just after it); per set-up sample: (wall, that mean)
    samples: list[tuple[float, float, float, int, float]] = []
    setup: list[tuple[float, float]] = []
    refs: list[float] = []

    def time_reference() -> float:
        wall, _, _, code = spawn([sys.executable, "-c", REFERENCE], cwd, log)
        if code != 0:
            raise RuntimeError(f"reference child exited {code}: {log.read_text()[-200:]}")
        refs.append(wall)
        return wall

    time_reference()  # warm-up; not used
    refs.clear()
    # A reference timing falls between every two timed children, so each is
    # scaled by the machine speed of its own moment: a slow spell on a shared
    # machine slows the reference alike.
    before = time_reference()
    start = time.perf_counter()
    rounds = 0
    while True:
        checker.clear()
        wall, cpu, rss, code = spawn(invoke, cwd, log)
        problems = exit_problems(code, log)
        size, checked = checker() if not problems else (0, [])
        after = time_reference()
        if tally.record(problems or checked):
            samples.append((wall, cpu, rss, size, (before + after) / 2.0))
        setup_wall, _, _, setup_code = spawn(importer, cwd, log)
        before = time_reference()
        if setup_code == 0:
            setup.append((setup_wall, (after + before) / 2.0))
        rounds += 1
        elapsed = time.perf_counter() - start
        if len(samples) >= MIN_SAMPLES and elapsed * (rounds + 1) / rounds > seconds:
            break
        if not samples and tally.failed >= MIN_SAMPLES:
            break
    if not samples or not setup:
        return {}, lines

    def normalised(values) -> float:
        return REFERENCE_S * statistics.median(values)

    run_s = normalised(s[0] / s[4] for s in samples)
    metrics = {
        "run_s": run_s,
        "cpu_s": normalised(s[1] / s[4] for s in samples),
        "attractions_per_s": spec.attractions / run_s,
        "setup_s": normalised(w / r for w, r in setup),
        "peak_rss_mb": statistics.median(s[2] for s in samples),
        "output_bytes": statistics.median(s[3] for s in samples),
    }
    walls = [s[0] for s in samples]
    lines.append(f"run_s: tail {tail_percentile([REFERENCE_S * s[0] / s[4] for s in samples])}")
    lines.append(f"as measured: invocation median {statistics.median(walls):.4f} s, "
                 f"min {min(walls):.4f} s, max {max(walls):.4f} s (n={len(walls)}); set-up "
                 f"median {statistics.median(w for w, _ in setup):.4f} s (n={len(setup)}); "
                 f"reference median {statistics.median(refs):.4f} s (n={len(refs)}), "
                 f"normalised to {REFERENCE_S} s")
    return metrics, lines


def _call(main, argv: list[str]) -> tuple[int, float, str]:
    """(exit code, seconds, captured stderr) of one in-process CLI call.  An
    exception the CLI lets through counts as a failed invocation, as the
    traceback would in a child process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        elapsed = time.perf_counter() - start
    return code, elapsed, err.getvalue()


def measure_traced(name: str, config: Path, expected: dict, seconds: float,
                   tally: Tally) -> tuple[dict[str, float], list[str], list[dict]]:
    spec = workloads.WORKLOADS[name]
    sys.path.insert(0, str(ROOT / "src"))
    from tourval import cli

    out = config.parent / "out"
    argv = [spec.command, "--config", str(config), "--out", str(out)]

    def problems_of(code: int, err: str) -> list[str]:
        return [f"exit code {code}: {err.strip()[-200:]}"] if code else []

    if spec.command == "tour":
        code, _, err = _call(cli.main, ["run"] + argv[1:])
        tally.record(problems_of(code, err)
                     or oracle.check(out, expected, ("results.csv", "results.json")))

    checker = Checker(out, expected, ARTIFACTS[spec.command])

    def attempt(main) -> tuple[bool, float]:
        checker.clear()
        gc.collect()
        code, elapsed, err = _call(main, argv)
        return tally.record(problems_of(code, err) or checker()[1]), elapsed

    attempt(cli.main)  # warm-up: fixes the reference bytes; not timed
    untraced: list[float] = []
    traced: list[dict[str, float]] = []
    recorded: list[dict] = []
    table, absent = {}, []
    start = time.perf_counter()
    rounds = 0
    while True:
        ok, elapsed = attempt(cli.main)
        if ok:
            untraced.append(elapsed)
        rounds += 1
        tracer = spans.Tracer(run_id=rounds)
        undo, absent = tracer.install()
        try:
            ok, _ = attempt(tracer.wrap(cli.main, "cli.main"))
        finally:
            spans.Tracer.uninstall(undo)
        tracer.finish()
        if ok:
            recorded += tracer.spans
            table = spans.summarize(tracer.spans)
            traced.append(spans.layer_metrics(table))
        elapsed = time.perf_counter() - start
        if min(len(traced), len(untraced)) >= 2 and elapsed * (rounds + 1) / rounds > seconds:
            break
        if not traced and tally.failed >= MIN_SAMPLES:
            break
    if not traced or not untraced:
        return {}, [], []

    metrics = spans.median_metrics(traced)
    metrics["trace.overhead_ratio"] = metrics["cli.main_s"] / statistics.median(untraced)
    lines = [f"traced runs: {len(traced)}, untraced runs: {len(untraced)}",
             "last traced run, by span:"] + spans.format_table(table, absent)
    share = sum(metrics[m] for m in DOMINANT[name]) / metrics["cli.main_s"]
    lines.append(f"dominant layers {' + '.join(DOMINANT[name])}: "
                 f"{share:.1%} of cli.main_s ({'more' if share > 0.5 else 'NOT more'} than half)")
    return metrics, lines, recorded


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tourval benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not all((ROOT / p).is_file() for p in (Path("src/tourval/cli.py"), workloads.CATALOGUE)):
        print(f"error: no tourval source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}; "
          f"Python {platform.python_version()}, numpy {numpy.__version__}, "
          f"nproc {os.cpu_count()}, {' '.join(f'{k}={v}' for k, v in THREAD_ENV.items())}")
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tally = Tally()
    try:
        start = time.perf_counter()
        config = workloads.generate(ROOT, args.workload, args.seed, tmp)
        expected = oracle.expected(tmp)
        print(f"generated inputs and oracle in {time.perf_counter() - start:.2f} s")
        if args.trace:
            metrics, lines, recorded = measure_traced(args.workload, config, expected,
                                                      args.seconds, tally)
            trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            spans.write_spans(trace_path, recorded)
            lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            metrics, lines = measure_cli(args.workload, config, expected, args.seconds, tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for line in lines:
        print(line)
    for problem in tally.problems[:10]:
        print(f"FAILED: {problem}")
    print(f"fail_ratio {tally.failed}/{tally.attempted} = "
          f"{tally.failed / max(tally.attempted, 1):.4f}")
    for name, unit in units.items():
        print(f"{name:30} {metrics.get(name, float('nan')):14.6g} {unit}")
    correct = tally.failed == 0 and tally.attempted > 0 and set(units) <= set(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
