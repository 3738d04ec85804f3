"""Benchmark of the cloneops command line: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It measures the checkout it sits in (src/ beside perfbench/).  The run byte-compiles the package
and writes the workload's inputs (set-up, repeated and timed), then runs the
workload's CLI jobs in a closed loop: one client, one job at a time, each in
a fresh interpreter started by launcher.py, for S seconds: a round (the
workload's jobs in order) starts only if it is likely to end within S
seconds, and there is at least one.  Times are reported at a reference
speed, measured by calibration blocks run between the rounds (see
Calibration).  Every job's outputs are checked.  With --trace 1 the run
makes one untraced round, then replays the jobs with spans around each
public call (see replay.py) in the same way, checks that the replay's
outputs equal the untraced ones byte for byte, and reports the per-layer
metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A record with the environment,
every round and every check goes to .perfbench_run/results/, and the spans
of a traced run to .perfbench_run/spans/.
"""
from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent                 # the checkout: perfbench/ sits at its root
SRC = ROOT / "src"
STATE = ROOT / ".perfbench_run"
SETUP_REPEATS = 9
SETUP_CALIBRATION_UNITS = 2  # units timed after each set-up repeat
JOB_DEADLINE_S = 170.0     # a run must end within 180 s; a job past this is killed
CALIBRATION_UNITS = 33     # units in one calibration block, about 2 s
REFERENCE_UNIT_S = 0.06    # a unit's time at the reference speed (2-core Xeon VM)

import tracing  # noqa: E402  (sits beside this file)
import workloads  # noqa: E402


def _git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _environment(wl: workloads.Workload, seed: int, trace: bool) -> dict:
    import cloneops
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cloneops": cloneops.__version__,
            "commit": _git_commit(), "workload": wl.name, "size": wl.size,
            "seed": seed, "trace": trace, "threads": 1,
            "snow_k5_samples": workloads.K5_SAMPLES[wl.size], **wl.params}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Calibration:
    """A fixed piece of work, timed in this process between the jobs.

    The host's speed drifts by about 20 % over minutes, and the jobs' CPU
    time drifts with it.  A job time divided by the time of calibration
    blocks run just before and after it on the same CPU moves much less;
    times are reported at the reference speed, at which one unit of the
    block takes REFERENCE_UNIT_S seconds.  A unit does the kinds of work the
    jobs do, in about equal parts: an interpreted loop over ints and a dict,
    building small Python objects, a numpy sort of 8 MB, and numpy
    arithmetic streaming over 32 MB.
    """

    def __init__(self):
        import numpy
        rng = numpy.random.default_rng(12345)
        self.small = rng.integers(0, 1 << 40, 1_000_000)
        self.large = rng.integers(0, 1 << 40, 4_000_000)
        self.sort = numpy.sort

    def unit(self) -> None:
        total, table = 0, {}
        for i in range(40_000):
            total = (total + i * i) % 1_000_003
            table[i & 1023] = total
        objects = [(i, str(i), [i]) for i in range(20_000)]
        del objects
        self.sort(self.small)
        (self.large * 3 + 1).sum()

    def block(self, units: int) -> tuple[float, float]:
        """Wall and CPU seconds of one unit, averaged over a block of units."""
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(units):
            self.unit()
        return ((time.perf_counter() - wall) / units, (time.process_time() - cpu) / units)


@contextlib.contextmanager
def _on_one_cpu():
    """Run this process and the jobs it starts on one CPU, so that the
    calibration blocks and the jobs see the same one."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class Runner:
    """Runs the jobs, one at a time, through launcher.py; keeps each job's own usage.

    Used as a context manager: the launcher process runs from entry to exit.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = _child_env()
        self.launcher: subprocess.Popen | None = None

    def __enter__(self) -> "Runner":
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                         text=True)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.launcher.stdin.close()        # the launcher ends at the end of its input
        if exc_type is not None:           # leaving early: it kills and reaps its job
            self.launcher.terminate()
        self.launcher.wait()
        self.launcher.stdout.close()

    def run(self, cmd: list[str], logdir: Path) -> tuple[int, str, str, dict]:
        logdir.mkdir(parents=True, exist_ok=True)
        out_path, err_path = logdir / "stdout.txt", logdir / "stderr.txt"
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
        request = {"cmd": cmd, "cwd": str(ROOT), "env": self.env, "stdout": str(out_path),
                   "stderr": str(err_path), "cpus": cpus,
                   "timeout": self.deadline - time.monotonic()}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the job launcher ended early")
        stats = json.loads(line)
        return (stats["code"], out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"), stats)


def _setup(wl: workloads.Workload, indir: Path, calibration: Calibration) -> list:
    """Byte-compile the package and write the inputs, SETUP_REPEATS times.

    Each repeat is followed by a few calibration units; one (seconds,
    calibration unit) pair per repeat.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        if indir.exists():
            shutil.rmtree(indir)
        start = time.perf_counter()
        indir.mkdir(parents=True)
        if not compileall.compile_dir(str(SRC / "cloneops"), force=True, quiet=1):
            raise RuntimeError("byte-compiling src/cloneops failed")
        wl.setup(indir)
        seconds = time.perf_counter() - start
        times.append((seconds, calibration.block(SETUP_CALIBRATION_UNITS)))
    return times


def _round(wl, runner: Runner, indir: Path, outdir: Path, seed: int,
           job_id: str = "", spans_dir: Path | None = None) -> dict:
    """One pass over the workload's jobs; replayed with spans when spans_dir is given."""
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    rnd = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0, "checks": [], "jobs": [],
           "stdout": []}
    for j, job in enumerate(wl.jobs):
        argv = job.argv(indir, outdir)
        if spans_dir is None:
            cmd = [sys.executable, "-m", "cloneops.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "replay.py"),
                   "--spans", str(spans_dir / f"{job_id}-{j}.json"), "--job",
                   f"{job_id}/{j}", "--workload", wl.name, "--seed", str(seed),
                   "--", *argv]
        code, out, err, stats = runner.run(cmd, outdir / f"log{j}")
        res = workloads.JobResult(code, out, err, outdir)
        checks = job.checks(res)
        rnd["checks"] += [(f"job {j} ({argv[0]}): {name}", ok) for name, ok in checks]
        rnd["jobs"].append({"argv": argv, **stats})
        rnd["wall_s"] += stats["wall_s"]
        rnd["cpu_s"] += stats["cpu_s"]
        rnd["rss_mb"] = max(rnd["rss_mb"], stats["rss_mb"])
        rnd["stdout"].append(out)
    return rnd


def _same_outputs(wl, plain: Path, traced: Path, plain_rnd, traced_rnd):
    checks = []
    for j, job in enumerate(wl.jobs):
        for name in job.outputs:
            a, b = plain / name, traced / name
            same = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
            checks.append((f"job {j}: traced {name} is byte-identical", same))
        checks.append((f"job {j}: traced stdout is byte-identical",
                       plain_rnd["stdout"][j] == traced_rnd["stdout"][j]))
    return checks


def measure(wl: workloads.Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> dict:
    with _on_one_cpu(), Runner(time.monotonic() + JOB_DEADLINE_S) as runner:
        return _measure(wl, seed, seconds, trace, workdir, runner)


def _measure(wl: workloads.Workload, seed: int, seconds: float, trace: bool,
             workdir: Path, runner: Runner) -> dict:
    indir, plain, traced = workdir / "in", workdir / "out", workdir / "traced"
    calibration = Calibration()
    calibration.block(8)                  # warm-up: page in the arrays
    setup_times = _setup(wl, indir, calibration)
    before = calibration.block(CALIBRATION_UNITS)
    record = {"setup_s": setup_times, "rounds": [], "traced_rounds": [], "spans": []}
    start = time.monotonic()

    def another(rounds) -> bool:
        # start a round only if it is likely to end within the run's seconds
        longest = max(r["span_s"] for r in rounds)
        return time.monotonic() - start + longest <= seconds

    while True:
        begin = time.monotonic()
        rnd = _round(wl, runner, indir, plain, seed)
        after = calibration.block(CALIBRATION_UNITS)
        rnd["calibration"] = [before, after]
        rnd["span_s"] = time.monotonic() - begin
        before = after
        record["rounds"].append(rnd)
        if trace or not another(record["rounds"]):
            break
    if trace:
        spans_dir = workdir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        while True:
            begin = time.monotonic()
            job_id = f"{wl.name}-s{seed}-t{len(record['traced_rounds'])}"
            rnd = _round(wl, runner, indir, traced, seed, job_id, spans_dir)
            rnd["span_s"] = time.monotonic() - begin
            rnd["checks"] += _same_outputs(wl, plain, traced, record["rounds"][-1], rnd)
            spans = []
            for j in range(len(wl.jobs)):
                path = spans_dir / f"{job_id}-{j}.json"
                spans += json.loads(path.read_text()) if path.is_file() else []
            rnd["probe_s"] = tracing.probe_seconds(spans)
            rnd["layers"] = tracing.layer_metrics(spans)
            record["spans"] += spans
            record["traced_rounds"].append(rnd)
            if not another(record["traced_rounds"]):
                break
    return record


def _at_reference_speed(seconds: float, units, which: int = 0) -> float:
    """Scale a time by the calibration unit times around it (which: 0 wall, 1 CPU)."""
    return seconds * REFERENCE_UNIT_S / statistics.mean(u[which] for u in units)


def summarise(record: dict, trace: bool) -> tuple[dict, list]:
    rounds = record["rounds"]
    checks = [c for r in rounds + record["traced_rounds"] for c in r["checks"]]
    failed = sum(1 for _, ok in checks if not ok)
    if not trace:
        values = {
            "setup_s": (statistics.median(_at_reference_speed(t, [u])
                                          for t, u in record["setup_s"]), "s"),
            "wall_s": (statistics.median(_at_reference_speed(r["wall_s"], r["calibration"], 0)
                                         for r in rounds), "s"),
            "cpu_s": (statistics.median(_at_reference_speed(r["cpu_s"], r["calibration"], 1)
                                        for r in rounds), "s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in rounds), "MB"),
            "pass_ratio": ((len(checks) - failed) / len(checks), "ratio"),
        }
    else:
        traced = record["traced_rounds"]
        med = tracing.median_metrics([r["layers"] for r in traced])
        traced_wall = statistics.median(r["wall_s"] - r["probe_s"] for r in traced)
        med["trace.overhead_ratio"] = traced_wall / rounds[0]["wall_s"]
        values = {name: (med[name], unit) for name, unit in tracing.PER_LAYER_UNITS.items()}
    return values, checks


def report(wl: workloads.Workload, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload, print the metrics and the result line; the exit code."""
    tag = f"{wl.name}-{wl.size}-s{seed}-t{int(trace)}-{os.getpid()}"
    workdir = STATE / "work" / tag
    try:
        record = measure(wl, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values, checks = summarise(record, trace)
    failed = sum(1 for _, ok in checks if not ok)
    metrics = {n: {"value": v, "unit": u} for n, (v, u) in values.items()}
    env = _environment(wl, seed, trace)

    # everything measured goes into the record; spans are written only now
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    for r in record["rounds"] + record["traced_rounds"]:
        del r["stdout"]
    rounds = record["rounds"]
    measured = {   # medians as timed, before scaling to the reference speed
        "setup_s": statistics.median(t for t, _ in record["setup_s"]),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "calibration_unit_s": statistics.median(
            u[0] for r in rounds for u in r["calibration"]),
    }
    full = {"environment": env, "rounds": len(rounds),
            "traced_rounds": len(record["traced_rounds"]),
            "fail_ratio": failed / len(checks), "metrics": metrics,
            "measured": measured, "setup_s": record["setup_s"],
            "detail": {"rounds": record["rounds"], "traced": record["traced_rounds"]}}
    (STATE / "results" / f"{tag}.json").write_text(json.dumps(full, indent=1))
    if trace:
        (STATE / "spans").mkdir(parents=True, exist_ok=True)
        (STATE / "spans" / f"{tag}.json").write_text(json.dumps(record["spans"]))

    for name, ok in checks:
        if not ok:
            print(f"FAILED check: {name}")
    print("environment: " + json.dumps(env))
    print(f"rounds: {len(record['rounds'])} untraced, {len(record['traced_rounds'])} "
          f"traced; checks: {len(checks)} attempted, {failed} failed "
          f"(fail_ratio {failed / len(checks):.4g})")
    for name, (value, unit) in values.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    print("as timed, before scaling to the reference speed: " +
          ", ".join(f"{k} {v:.6g}" for k, v in measured.items()))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    opts = parser.parse_args(argv)
    # on SIGTERM, leave through the finally blocks, which stop the launcher and its job
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "cloneops" / "__init__.py").is_file():
        print(f"error: no cloneops sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cloneops
    if Path(cloneops.__file__).resolve().parent != (SRC / "cloneops").resolve():
        print(f"error: imported cloneops from {cloneops.__file__}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[opts.workload]("full", opts.seed)
    return report(wl, opts.seed, opts.seconds, bool(opts.trace))


if __name__ == "__main__":
    sys.exit(main())
