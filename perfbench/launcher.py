"""Starts the benchmark's child processes, one at a time.

Usage: python3 perfbench/launcher.py   (started by run.py, never by hand)

Reads one JSON request per line on stdin, {"argv", "log", "timeout"},
runs argv with stdout and stderr to the log file, waits for it and writes
one JSON line: wall time measured from outside, and the child's rusage
from wait4. Exits at end of input.

Children are started from this small process, not from run.py, because
a child's ru_maxrss counts the memory of the process that forked it:
started from run.py after it has parsed a large output, every later
child would report run.py's peak instead of its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(argv: list[str], log: str, timeout: float) -> dict:
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    return {"wall_s": wall, "user_s": ru.ru_utime, "sys_s": ru.ru_stime,
            "maxrss_mb": ru.ru_maxrss / 1024.0, "minflt": ru.ru_minflt,
            "rc": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        print(json.dumps(run(req["argv"], req["log"], req["timeout"])),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
