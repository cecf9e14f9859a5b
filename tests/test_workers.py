import os

import pytest

from xpmcap.workers import blas_threads, blas_workers

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
             "MKL_NUM_THREADS")


class TestBlasWorkers:
    @pytest.mark.parametrize("env, expected", [
        ({}, 1),
        ({"OPENBLAS_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "2"}, 1),
        ({"OMP_NUM_THREADS": "1"}, 2),
        ({"OMP_NUM_THREADS": "4"}, 1),
        # OpenBLAS reads the first one set, in this order
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 2),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "2"}, 1),
        ({"MKL_NUM_THREADS": "1"}, 1),
    ], ids=lambda v: ",".join(f"{k.split('_')[0]}={x}" for k, x in v.items())
        or "unset" if isinstance(v, dict) else f"workers={v}")
    def test_two_processes_only_with_blas_pinned(self, env, expected,
                                                  monkeypatch):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert blas_workers() == expected

    @pytest.mark.parametrize("env, expected", [
        ({}, None),
        ({"MKL_NUM_THREADS": "1"}, None),
        ({"OMP_NUM_THREADS": "4"}, "4"),
        ({"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, "2"),
        ({"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "3"}, "1"),
    ])
    def test_blas_threads_is_the_first_variable_set(self, env, expected,
                                                    monkeypatch):
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert blas_threads() == expected

    def test_one_cpu_or_no_fork_runs_inline(self, monkeypatch):
        for var in BLAS_VARS:
            monkeypatch.setenv(var, "1")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert blas_workers() == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        assert blas_workers() == 2
        monkeypatch.delattr(os, "fork")
        assert blas_workers() == 1
