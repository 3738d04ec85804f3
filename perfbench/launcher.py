"""Starts the benchmark's jobs on behalf of run.py and reports their rusage.

    python3 perfbench/launcher.py     (started by run.py; one JSON request a line)

Linux gives an exec'd child the parent's high-water resident set as the
start of its own ru_maxrss, so a job started straight from the benchmark
process, which holds numpy, cloneops, the set-up data and the calibration
arrays, would report that process's peak as its own.  This process imports
nothing heavy and stays small, so the ru_maxrss of a job it starts is the
job's own.

Each request on standard input is a JSON object with the keys cmd, cwd,
env, stdout, stderr (file paths), cpus (or null) and timeout (seconds; the
job is killed past it).  For each, one JSON line goes to standard output:
code, wall_s, cpu_s and rss_mb of the job.  The process ends at the end of
its input; on SIGTERM it kills the job it runs, reaps it and ends.
"""
import json
import os
import signal
import subprocess
import sys
import threading
import time


class Launcher:
    """Runs one job at a time; the job being run can be killed from a signal."""

    def __init__(self):
        self.current: subprocess.Popen | None = None    # the job being run
        self.stopping = False

    def stop(self, signum, frame) -> None:
        """SIGTERM handler: kill the job; run() then reaps it and main() ends."""
        self.stopping = True
        if self.current is not None:
            self.current.kill()

    def run(self, req: dict) -> dict:
        if req["cpus"] is not None:
            os.sched_setaffinity(0, set(req["cpus"]))
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = self.current = subprocess.Popen(req["cmd"], cwd=req["cwd"],
                                                   env=req["env"], stdout=out, stderr=err)
            timer = threading.Timer(max(0.0, req["timeout"]), proc.kill)
            timer.start()
            try:
                # wait4 reaps the child and returns its own rusage, unlike
                # RUSAGE_CHILDREN, whose maxrss is a high-water mark of all children
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                self.current = None
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return {"code": code, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0}


def main() -> int:
    launcher = Launcher()
    signal.signal(signal.SIGTERM, launcher.stop)
    for line in sys.stdin:
        if launcher.stopping:
            break
        print(json.dumps(launcher.run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
