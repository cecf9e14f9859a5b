"""Two workers at most: the CPU and BLAS rules, and one fork helper."""

from __future__ import annotations

import contextlib
import os
import tempfile

#: OpenBLAS's thread-count variables, in the order it reads them.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def cpu_workers(tasks: int) -> int:
    """Threads or processes for independent tasks, 1 meaning inline: two
    at most, and no more than the CPUs this process may run on."""
    return max(1, min(2, tasks, len(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity")
                      else os.cpu_count() or 1))


def blas_threads() -> str | None:
    """The value of the first of _BLAS_VARS set, else None."""
    return next((os.environ[v] for v in _BLAS_VARS if v in os.environ), None)


def blas_workers() -> int:
    """Processes for BLAS-bound work: cpu_workers(2) when os.fork exists
    and BLAS is pinned to one thread (blas_threads() is "1", and so is
    MKL_NUM_THREADS if set), else 1: two unpinned pools run slower."""
    pinned = (blas_threads() == "1"
              and os.environ.get("MKL_NUM_THREADS", "1") == "1")
    return cpu_workers(2) if pinned and hasattr(os, "fork") else 1


@contextlib.contextmanager
def forked(child, parent, what: str, dir: str | None = None):
    """Run child(fh) in a forked process that leaves through os._exit,
    fh an unnamed temporary file in dir, and parent() here; reap the child
    also when parent() raises. Raises OSError naming what if the child
    failed, else yields (parent()'s result, fh rewound)."""
    with tempfile.TemporaryFile(dir=dir) as fh:
        if (pid := os.fork()) == 0:
            code = 1
            try:
                child(fh)
                fh.flush()  # its own writes; inherited buffers stay unflushed
                code = 0
            finally:
                os._exit(code)
        try:
            result = parent()
        finally:
            status = os.waitpid(pid, 0)[1]
        if status:
            raise OSError(f"{what} failed ({status=})")
        fh.seek(0)
        yield result, fh
