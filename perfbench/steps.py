"""Child-process steps of the benchmark.

Usage: python3 perfbench/steps.py [--spans PATH] <step> ARGS...

Steps:
  cli ARGS...  the xpmcap CLI itself, ``xpmcap.cli.main(ARGS)``. Run only
               by the traced run, always with --spans: before the command
               runs, the functions cli.py imported (and a few that those
               call) are wrapped in spans, in this interpreter only. The
               replay is the same code as the timed ``python3 -m
               xpmcap.cli ARGS`` child, so it writes the same outputs.
  ianmc SPEC   interference_variance_mc on one tensor, written as JSON.
               The CLI has no such command, so the workload runs this
               step, in its own interpreter, both timed and traced.

With --spans, spans are kept in memory and written to PATH when the step
ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402

# Names cli.py imported, and the span each call is recorded as.
CLI_CALLS = {
    "coefficient_tensor": "coefficients.coefficient_tensor",
    "sweep": "bounds.sweep",
    "sweep_csv": "bounds.sweep_csv",
    "sweep_rows": "bounds.sweep_rows",
    "read_sweep_csv": "bounds.read_sweep_csv",
    "build_region": "regions.build_region",
    "dominant_face_midpoint": "regions.dominant_face_midpoint",
    "excess_area": "regions.excess_area",
    "render_curves": "svgout.render_curves",
    "render_regions": "svgout.render_regions",
    "simulate_batch": "channel.simulate_batch",
    "write_batch_csv": "channel.write_batch_csv",
    "run_suite": "verify.run_suite",
}


class _NoTracer:
    def span(self, name, **attrs):
        return contextlib.nullcontext({})

    def wrap(self, owner, attr, name, note=None):
        pass

    def dump(self, path):
        pass


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def cli(args: list[str], tr) -> int:
    with tr.span("cli.import"):
        import numpy as np
        from xpmcap import channel, coefficients, pulses, verify
        from xpmcap import cli as xcli
    for attr, name in CLI_CALLS.items():
        tr.wrap(xcli, attr, name)
    tr.wrap(xcli, "_json_text", "cli.json_text",
            lambda a, r: {"tensor": isinstance(a[0], dict)
                          and "entries" in a[0]})
    tr.wrap(xcli.RunContext, "write", "cli.write",
            lambda a, r: {"file": a[1]})
    tr.wrap(coefficients.CoeffTensor, "load", "coefficients.tensor_load")
    tr.wrap(coefficients.CoeffTensor, "to_json_dict",
            "coefficients.to_json_dict")
    # The engine's first step: the pulse on the padded grid, then its FFT
    # (the only forward FFT the engine takes).
    tr.wrap(pulses.PulseShape, "samples", "pulses.samples",
            lambda a, r: {"n": len(r)})
    tr.wrap(np.fft, "fft", "pulses.fft")
    tr.wrap(channel, "full_channel", "channel.full_channel")
    tr.wrap(verify, "sample_cscg", "channel.sample_cscg")
    tr.wrap(verify, "real_imag_decompose", "channel.real_imag_decompose")
    for suite in ("dettrace", "conv4", "conv6", "moments"):
        tr.wrap(verify, f"_run_{suite}", f"verify.{suite}")
    sys.argv = ["xpmcap", *args]
    with tr.span("cli.main"):
        return xcli.main(args)


def ianmc(args: list[str], tr) -> int:
    (spec_path,) = args
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from xpmcap import bounds
    from xpmcap.coefficients import CoeffTensor
    from xpmcap.config import PowerPair, dbm_to_watts
    tr.wrap(bounds, "sample_cscg", "channel.sample_cscg")
    tr.wrap(bounds, "interference_terms", "channel.interference_terms")
    tr.wrap(CoeffTensor, "load", "coefficients.tensor_load")
    tensor = CoeffTensor.load(spec["coeffs"])
    pp = PowerPair(dbm_to_watts(spec["p1_dbm"]), dbm_to_watts(spec["p2_dbm"]))
    blocks = spec["n"] // spec["block_len"]
    with tr.span("bounds.interference_variance_mc"):
        estimate, stderr = bounds.interference_variance_mc(
            tensor, pp, spec["n"], spec["seed"], blocks=blocks)
    path = os.path.join(spec["out_dir"], "ianmc.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text({"estimate": estimate, "stderr": stderr,
                             "n": spec["n"], "blocks": blocks,
                             "seed": spec["seed"]}))
    return 0


STEPS = {"cli": cli, "ianmc": ianmc}


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    step, args = argv[0], argv[1:]
    tracer = Tracer(" ".join(argv)) if spans else _NoTracer()
    rc = STEPS[step](args, tracer)
    tracer.dump(spans)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
