#!/usr/bin/env python3
"""Record the references that perfbench/run.py checks outputs against.

Usage (from the repository root): python3 perfbench/record.py

Runs the reference-pipeline commands at both sizes and the verify suites
through the CLI of the current tree, then writes
perfbench/references/references.json (sweep and region values, the keys
of tensor_convergence.json, check names and the SHA-256 of every output)
and perfbench/references/tensors.npz (both coefficient tensors). Re-record
only in a change that is meant to change these numbers, and say so.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys

import numpy as np
import yaml

import run as bench


class Recorder(bench.Run):
    """A run without output checks that stops at the first failed step."""

    def __init__(self, mode: str, launcher: bench.Launcher, refs: dict,
                 ref_tensors: dict | None = None):
        self.seed, self.mode, self.size = 1, mode, bench.SIZES[mode]
        self.work = bench.WORK_ROOT / "record" / mode
        self.launcher, self.perturb, self.records = launcher, None, []
        self.refs, self.ref_tensors = refs, ref_tensors

    def step(self, phase, label, argv, out_dir, check=None):
        rec = super().step(phase, label, argv, out_dir)
        if rec["rc"] != 0:
            raise SystemExit(f"{label} failed, see {out_dir}")
        return rec


def record(launcher: bench.Launcher) -> None:
    with open(bench.ROOT / bench.CONFIG, encoding="utf-8") as fh:
        powers = [float(p) for p in yaml.safe_load(fh)["sweep"]["powers_dbm"]]
    refs = {"powers_dbm": powers, "at_dbm": 0.0}
    shutil.rmtree(bench.WORK_ROOT / "record", ignore_errors=True)

    # The full-size tensors are the reference of coeffs at both sizes and
    # the input of the follow-up (the quick size takes their centre).
    wl = bench.ReferencePipeline(Recorder("full", launcher, refs))
    coeffs_dir = wl.run.work / "coeffs"
    wl.run.execute("main", wl.main(coeffs_dir), coeffs_dir)
    conv = json.loads((coeffs_dir / "tensor_convergence.json").read_text())
    refs["convergence_keys"] = {u: sorted(r) for u, r in conv.items()}
    tensors = {u: bench.read_tensor(coeffs_dir / f"tensor_{u}.json")
               for u in ("x", "w")}
    np.savez(bench.REFS / "tensors.npz", **tensors)

    for mode in bench.SIZES:
        wl = bench.ReferencePipeline(Recorder(mode, launcher, refs, tensors))
        d = wl.run.work / "followup"
        wl.prepare()
        wl.run.execute("followup", wl.followup(d), d)
        refs[mode] = {
            "sweep_csv": (d / "sweep.csv").read_text(),
            "sweep_rows": json.loads((d / "sweep.json").read_text()),
            "region": json.loads((d / "region.json").read_text()),
            "sha256": bench.output_digests(d),
        }
    refs["full"]["sha256"].update(bench.output_digests(coeffs_dir))

    wl = bench.VerifySuites(Recorder("quick", launcher, refs))
    d = wl.run.work / "verify"
    wl.run.execute("main", wl.main(d), d)
    wl.run.execute("followup", wl.followup(d), d)
    for name in ("verify", "dettrace"):
        reports = json.loads((d / f"{name}.json").read_text())
        refs[f"{name}_checks"] = [r["name"] for r in reports]
    (bench.REFS / "references.json").write_text(
        json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main() -> int:
    with contextlib.closing(bench.Launcher()) as launcher:
        record(launcher)
    return 0


if __name__ == "__main__":
    sys.exit(main())
