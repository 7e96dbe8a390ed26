"""Closed-loop benchmark of the addforms CLI.

One client runs one task at a time through `addforms.cli.main(argv)`, with
`--out` pointed at a file so JSON serialisation is timed, and `--threads 1`.
Whole rounds of a workload's task list repeat until the next round would
overrun `--seconds`.  Every task's answer is checked after timing.

    python3 bench/run.py --workload kernels --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 1

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` untraced and traced rounds alternate, the per-layer metrics come
from the traced rounds, and the spans are written to `bench/out/`.
`--record-reference` re-records `reference.json` from the current program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

SETUP_SAMPLES = 11
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import addforms.cli; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "task_p50_ms": "ms",
    "task_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def import_seconds() -> float:
    """Time to import addforms.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=_src_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if count * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


@dataclass
class TaskState:
    first: Path | None = None  # report of the first execution, checked later
    first_rc: int | None = None
    digest: str | None = None
    runs: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)


@dataclass
class Session:
    workload: str
    min_rounds: int
    tasks: list
    states: list[TaskState]
    rounds: list[tuple[bool, float]] = field(default_factory=list)  # (traced, busy s)
    latencies: list[float] = field(default_factory=list)  # untraced, seconds
    setup: list[float] = field(default_factory=list)  # import times, seconds
    traced_runs: list[tuple[int, int, float]] = field(default_factory=list)  # (exec id, task, s)
    tracer: object = None


def _digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def run_task(cli, task, out: Path, state: TaskState) -> tuple[float, int | None]:
    """One timed call of the CLI; returns (seconds, exit code or None)."""
    out.unlink(missing_ok=True)
    argv = task.argv + ["--out", str(out), "--threads", "1"]
    start = perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # a crash is a failed task, not a crashed benchmark
        elapsed = perf_counter() - start
        state.errors.append(traceback.format_exc(limit=3))
        return elapsed, None
    return perf_counter() - start, rc


def run_rounds(session: Session, cli, workdir: Path, seconds: float, trace: bool) -> None:
    """Repeat whole rounds until the next one would end after `seconds`,
    and at least the workload's `min_rounds`.  With `trace`, a warm-up round
    is followed by alternating traced and untraced rounds, at least one of
    each.  Without it, the
    `SETUP_SAMPLES` import timings are spread evenly over the run (their own
    time is not counted against `seconds`), so that their median is not
    taken from a single slow or fast moment of the machine."""
    scratch = workdir / "report.json"
    began = perf_counter()
    probing = 0.0
    exec_id = 0
    while True:
        elapsed = perf_counter() - began - probing
        if not trace:
            t0 = perf_counter()
            while len(session.setup) < min(SETUP_SAMPLES, round(SETUP_SAMPLES * elapsed / seconds)):
                session.setup.append(import_seconds())
            probing += perf_counter() - t0
        number = len(session.rounds)
        traced = trace and number % 2 == 1
        if session.rounds:
            typical = statistics.median(busy for _, busy in session.rounds)
            enough = number >= (3 if trace else session.min_rounds)
            if enough and elapsed + typical > seconds:
                break
        if traced:
            session.tracer.install()
        busy = 0.0
        try:
            for index, (task, state) in enumerate(zip(session.tasks, session.states)):
                out = workdir / f"task{index}.json" if state.first is None else scratch
                if traced:
                    session.tracer.task_id = exec_id
                elapsed, rc = run_task(cli, task, out, state)
                busy += elapsed
                state.runs += 1
                if traced:
                    session.traced_runs.append((exec_id, index, elapsed))
                else:
                    session.latencies.append(elapsed)
                exec_id += 1
                digest = _digest(out) if rc in (0, 1) else None
                if state.first is None:
                    state.first, state.first_rc, state.digest = out, rc, digest
                if rc not in (0, 1) or digest != state.digest or rc != state.first_rc:
                    state.failed += 1
                    if rc is not None and rc not in (0, 1):
                        state.errors.append(f"exit code {rc}")
                    elif digest != state.digest:
                        state.errors.append("report differs from the first execution")
        finally:
            if traced:
                session.tracer.uninstall()
        session.rounds.append((traced, busy))
    while not trace and len(session.setup) < SETUP_SAMPLES:
        session.setup.append(import_seconds())


def check_answers(session: Session) -> list[str]:
    """Check the first report of every task; a wrong answer fails every
    execution that produced the same bytes.  Returns the recorded notes."""
    reference = json.loads(REFERENCE.read_text()).get(session.workload, {}) if REFERENCE.exists() else {}
    notes = []
    for task, state in zip(session.tasks, session.states):
        if state.first_rc not in (0, 1) or state.digest is None:
            state.failed = state.runs
            continue
        text = state.first.read_text()
        report = json.loads(text)
        problems = task.check(report)
        if state.first_rc not in task.exit_codes:
            problems.append(f"exit code {state.first_rc}, want one of {task.exit_codes}")
        if task.reference and reference.get(task.name) != text:
            problems.append("report differs from the recorded reference")
        if problems:
            state.errors.extend(problems)
            state.failed = state.runs
        if task.note is not None:
            notes.append(task.note(report))
    return notes


def build_session(workload: str, seed: int, workdir: Path) -> Session:
    import numpy as np

    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    tasks = spec.build(np.random.default_rng(seed), workdir)
    return Session(workload, spec.min_rounds, tasks, [TaskState() for _ in tasks])


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Session:
    """Build the inputs and run the timed rounds; answers are checked later."""
    import addforms.cli as cli

    session = build_session(workload, seed, workdir)
    if trace:
        from spans import Tracer

        session.tracer = Tracer()
    run_rounds(session, cli, workdir, seconds, trace)
    return session


def tasks_per_s(latencies: list[float], count: int) -> float:
    """Tasks per second of a typical round: the task count over the sum of
    each task's median latency (`latencies` holds whole rounds in order)."""
    return count / sum(statistics.median(latencies[i::count]) for i in range(count))


def end_to_end(session: Session, peak_rss_mb: float) -> tuple[dict, dict]:
    lat_ms = [s * 1000.0 for s in session.latencies]
    p = tail_percentile(session.min_rounds * len(session.tasks))
    metrics = {
        "tasks_per_s": tasks_per_s(session.latencies, len(session.tasks)),
        "task_p50_ms": percentile(lat_ms, 50.0),
        "task_tail_ms": percentile(lat_ms, p),
        "setup_s": statistics.median(session.setup),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"tail_percentile": p, "samples": len(lat_ms), "rounds": len(session.rounds)}
    return metrics, info


def per_layer(session: Session) -> tuple[dict, dict]:
    """Layer metrics of the traced rounds.  Counts and times are per round
    of the task list, so they do not depend on how many rounds fit."""
    checked = {
        i: json.loads(state.first.read_text())["checked"]
        for i, (task, state) in enumerate(zip(session.tasks, session.states))
        if task.argv[0] == "check" and state.digest is not None
    }
    sweep_s = 0.0
    instances = 0
    for _, index, elapsed in session.traced_runs:
        if index in checked:
            sweep_s += elapsed
            instances += checked[index]
    count = len(session.tasks)
    traced = [elapsed for _, _, elapsed in session.traced_runs]
    untraced = session.latencies[count:]  # the first round warms up
    metrics = session.tracer.layer_metrics()
    metrics["cli.instances"] = instances
    metrics = {
        name: value if name.endswith("_per_s") else value * count / len(traced)
        for name, value in metrics.items()
    }
    metrics["cli.instances_per_s"] = instances / sweep_s if sweep_s else 0.0
    metrics["trace.tasks_per_s"] = tasks_per_s(traced, count)
    metrics["trace.untraced_tasks_per_s"] = tasks_per_s(untraced, count)
    metrics["trace.overhead"] = metrics["trace.untraced_tasks_per_s"] / metrics["trace.tasks_per_s"] - 1
    info = {
        "traced_rounds": len(traced) // count,
        "untraced_rounds": len(untraced) // count,
        "spans": len(session.tracer.start),
    }
    return metrics, info


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "trace.overhead":
        return "frac"
    if name == "report.bytes":
        return "bytes"
    return "count"


def run_one(args) -> int:
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        session = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        notes = check_answers(session)
        attempted = sum(s.runs for s in session.states)
        failed = sum(s.failed for s in session.states)
        if args.trace:
            metrics, info = per_layer(session)
            session.tracer.save(OUT / f"spans-{args.workload}.npz")
            units = {name: layer_unit(name) for name in metrics}
        else:
            metrics, info = end_to_end(session, peak_rss_mb)
            units = END_TO_END_UNITS
        info.update(
            workload=args.workload,
            why=workloads.WORKLOADS[args.workload].why,
            seed=args.seed,
            tasks_per_round=len(session.tasks),
            failed_frac=failed / attempted,
            machine=machine_info(),
            known_defects=notes,
        )
        print(json.dumps(info, sort_keys=True))
        for index, (task, state) in enumerate(zip(session.tasks, session.states)):
            own = session.latencies[index :: len(session.tasks)]
            print(f"task {task.name:44s} median {statistics.median(own) * 1000:10.2f} ms")
            for err in state.errors[:3]:
                print(f"FAILED {task.name}: {err.strip()}")
        for name, value in metrics.items():
            print(f"{args.workload:8s} {name:28s} {value:14.6g} {units[name]}")
        print(f"{args.workload:8s} {'failed_frac':28s} {failed / attempted:14.6g} frac")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0


def record_reference(args) -> int:
    """Re-record the byte-compared reports of the seed-independent tasks."""
    import addforms.cli as cli
    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    recorded = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name in WORKLOADS:
            session = build_session(name, args.seed, Path(tmp))
            for task in session.tasks:
                if task.reference:
                    out = Path(tmp) / "ref.json"
                    if cli.main(task.argv + ["--out", str(out), "--threads", "1"]) not in (0, 1):
                        raise SystemExit(f"{task.name} failed")
                    recorded.setdefault(name, {})[task.name] = out.read_text()
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "addforms" / "cli.py").is_file():
        print(f"addforms sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.path[:0] = [str(SRC), str(BENCH)]
    sys.exit(main())
