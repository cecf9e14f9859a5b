#!/usr/bin/env python3
"""Self-test of the benchmark at reduced size (about a minute).

Usage (from the repository root): python3 perfbench/selftest.py

1. Every workload, end to end (--trace 0) and traced (--trace 1), emits
   exactly the metrics named in BENCHMARK.json, with their units, and
   passes its output checks.
2. A deliberately perturbed output is counted as a failure: every step
   whose output was perturbed is failed, so error_rate rises above 0.
   In a traced run, a perturbed replay output fails the check that the
   replay wrote the same outputs as the CLI.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
Exit code 0 when all hold.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench

SEED = 1


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _scale_y(path: Path) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        row[5] = repr(float(row[5]) * (1 + 1e-7))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _first_verdict_fails(doc: list) -> None:
    doc[0]["verdict"] = "fail"


PERTURB = {
    "coeffs": lambda d: _edit_json(
        d / "tensor_x.json",
        lambda doc: doc["entries"][0].update(re=doc["entries"][0]["re"] * (1 + 1e-8))),
    "sweep": lambda d: _edit_json(
        d / "sweep.json", lambda doc: doc[0].update(u1=doc[0]["u1"] * (1 + 1e-6))),
    "region": lambda d: _edit_json(
        d / "region.json", lambda doc: doc.update(area=doc["area"] * (1 + 1e-6))),
    "simulate": lambda d: _scale_y(d / "batch.csv"),
    "ianmc": lambda d: _edit_json(
        d / "ianmc.json", lambda doc: doc.update(estimate=2 * doc["estimate"])),
    "verify": lambda d: _edit_json(d / "verify.json", _first_verdict_fails),
    "dettrace": lambda d: _edit_json(d / "dettrace.json", _first_verdict_fails),
}

# Traced run: only the last replay step of a workload is checked, against
# every CLI output; it gets an earlier replay step's output perturbed.
REPLAY_PERTURB = {"region": "sweep", "ianmc": "simulate", "dettrace": "verify"}


def quiet_bench(argv: list[str], perturb=None) -> dict:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return bench.bench(bench.parse_args(argv), perturb)


def expect(cond: bool, message: str, failures: list[str]) -> None:
    print(("ok    " if cond else "FAIL  ") + message)
    if not cond:
        failures.append(message)


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            res = quiet_bench(["--workload", w["name"], "--seed", str(SEED),
                               "--seconds", "1", "--trace", str(trace),
                               "--mode", "quick"])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(res["correct"] and res["failed"] == 0,
                   f"{w['name']} trace={trace}: outputs pass their checks "
                   f"({res['attempted']} attempted)", failures)
            expect(got == want, f"{w['name']} trace={trace}: metric names and "
                                f"units match BENCHMARK.json", failures)
            if trace:
                break  # a traced run covers every workload

    for w in spec["workloads"]:
        perturbed = []

        def perturb(phase, label, out_dir):
            PERTURB[label](out_dir)
            perturbed.append(label)

        res = quiet_bench(["--workload", w["name"], "--seed", str(SEED),
                           "--seconds", "1", "--mode", "quick"], perturb)
        expect(perturbed and res["failed"] == len(perturbed)
               and not res["correct"],
               f"{w['name']}: {len(perturbed)} perturbed outputs counted as "
               f"{res['failed']} failures of {res['attempted']}", failures)

    perturbed = []

    def perturb_replay(phase, label, out_dir):
        if phase == "replay":
            PERTURB[REPLAY_PERTURB[label]](out_dir)
            perturbed.append(label)

    name = spec["workloads"][0]["name"]
    res = quiet_bench(["--workload", name, "--seed", str(SEED), "--seconds",
                       "1", "--trace", "1", "--mode", "quick"], perturb_replay)
    expect(len(perturbed) == len(spec["workloads"])
           and res["failed"] == len(perturbed) and not res["correct"],
           f"trace=1: {len(perturbed)} perturbed replay outputs counted as "
           f"{res['failed']} failures of {res['attempted']}", failures)

    bare = bench.WORK_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.HERE, bare / bench.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit code {proc.returncode}, no result printed",
           failures)
    shutil.rmtree(bare)

    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
