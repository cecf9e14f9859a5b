#!/usr/bin/env python3
"""Benchmark of the xpmcap CLI: three workloads, output checks, traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload reference-pipeline --seed 1 \
        --seconds 30 --trace 0

One client, closed loop: the benchmark starts one child process at a
time (``python3 -m xpmcap.cli ...`` from ``src/``), waits for it, times
it from outside and checks its outputs before starting the next. Every
child runs with BLAS/OpenMP pinned to THREADS threads.

--trace 0 reports the end-to-end metrics of one workload. --trace 1 runs
every workload once through the CLI, untraced, and then replays each
command in a fresh interpreter that wraps the functions the CLI calls in
spans before it calls the CLI's own main() (perfbench/steps.py); it
reports the per-layer metrics. The last line of stdout is the JSON result; the lines
before it list every metric with its unit and the environment record.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import os

THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import typing  # noqa: E402
import xml.etree.ElementTree as ET  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import self_times, total  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = "configs/reference.yaml"
REFS = HERE / "references"
WORK_ROOT = ROOT / ".perfbench-work"
STEPS = str(HERE / "steps.py")

STEP_TIMEOUT_S = 150
MIN_SAMPLES = 7          # set-up probes and follow-ups per run, at least
SETUP_CODE = ("import xpmcap.cli\n"
              "from xpmcap.config import load_config\n"
              f"load_config({CONFIG!r})\n")

# Sizes of one workload pass. "quick" is the reduced run of selftest.py.
SIZES = {
    "full": {"memory": None, "sim_n": 100_000, "mc_n": 100_000,
             "verify_samples": 1_000_000},
    "quick": {"memory": 1, "sim_n": 5_000, "mc_n": 20_000,
              "verify_samples": 100_000},
}
MC_BLOCK = 2000          # interference_variance_mc block length
SYNTH_MEMORY = 5         # synthetic tensors: M = 5, all 1331 taps nonzero
SYNTH_SCALE = 10.0       # 1/W, rms of each synthetic tap
P_DBM = 0.0              # both users, simulate and MC
Y_ROWS = 64              # batch rows whose y is recomputed by brute force

TENSOR_RTOL = 1e-10
VALUE_RTOL = 1e-9
Y_RTOL = 1e-10
MC_SIGMAS = 5.0

END_TO_END = {"setup_s": "s", "main_s": "s", "followup_s": "s",
              "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "XPMCAP_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:
        env[var] = str(THREADS)
    return env


class Launcher:
    """The small child process (launcher.py) that starts every other child
    and times it, so that no child inherits this process's memory."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], cwd=ROOT,
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)

    def run(self, argv: list[str], log_path: Path) -> dict:
        """Run one child to completion; wall time from outside, rusage."""
        self.proc.stdin.write(json.dumps({"argv": argv, "log": str(log_path),
                                          "timeout": STEP_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise BenchError("the child-process launcher stopped")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Cmd(typing.NamedTuple):
    """One child process of a workload: a CLI command (step "cli") or a
    step of steps.py, its arguments, and the check of its outputs."""

    label: str
    args: list[str]
    check: typing.Callable[[Path], list[str]] | None
    step: str = "cli"

    def argv(self, spans: Path | None = None) -> list[str]:
        """The untraced child, or with spans its traced replay."""
        if spans is not None:
            return [sys.executable, STEPS, "--spans", str(spans), self.step,
                    *self.args]
        if self.step == "cli":
            return [sys.executable, "-m", "xpmcap.cli", *self.args]
        return [sys.executable, STEPS, self.step, *self.args]


def cli(seed: int, out_dir: Path, *args: str) -> list[str]:
    """Arguments of a CLI command writing into out_dir."""
    return ["--quiet", "--seed", str(seed), "--out-dir", str(out_dir), *args]


# ---------------------------------------------------------------------------
# Output checks (each returns a list of problems; empty means correct)
# ---------------------------------------------------------------------------


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_tensor(path: Path) -> np.ndarray:
    doc = json.loads(path.read_text())
    M = int(doc["memory"])
    values = np.full((2 * M + 1,) * 3, np.nan + 0j)
    for e in doc["entries"]:
        values[e["l"] + M, e["m"] + M, e["p"] + M] = complex(e["re"], e["im"])
    return values


def write_tensor(path: Path, user: str, values: np.ndarray) -> None:
    """A tensor JSON document in the CLI's format."""
    M = (values.shape[0] - 1) // 2
    entries = [{"l": l - M, "m": m - M, "p": p - M,
                "re": float(c.real), "im": float(c.imag)}
               for (l, m, p), c in np.ndenumerate(values)]
    path.write_text(json.dumps({"user": user, "memory": M, "link": {},
                                "entries": entries},
                               indent=1, sort_keys=True) + "\n")


def window(values: np.ndarray, memory: int) -> np.ndarray:
    """The lags -memory..memory of a larger tensor window."""
    c = (values.shape[0] - 1) // 2
    cut = slice(c - memory, c + memory + 1)
    return values[cut, cut, cut]


def rel_err(a: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


def close(a, b, rtol: float) -> bool:
    """Recursive comparison of JSON values, floats to rtol."""
    if isinstance(b, dict):
        return (isinstance(a, dict) and a.keys() == b.keys()
                and all(close(a[k], b[k], rtol) for k in b))
    if isinstance(b, list):
        return (isinstance(a, list) and len(a) == len(b)
                and all(close(x, y, rtol) for x, y in zip(a, b)))
    if isinstance(b, float) and isinstance(a, (int, float)):
        return abs(a - b) <= rtol * abs(b)
    return a == b


def check_svg(path: Path) -> list[str]:
    try:
        root = ET.fromstring(path.read_text())
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name}: not a readable SVG ({exc})"]
    return [] if root.tag.endswith("svg") else [f"{path.name}: root is {root.tag}"]


def check_coeffs(d: Path, refs: dict, ref_tensors: dict) -> list[str]:
    problems = []
    for user in ("x", "w"):
        got = read_tensor(d / f"tensor_{user}.json")
        ref = window(ref_tensors[user], (got.shape[0] - 1) // 2)
        if np.isnan(got).any():
            problems.append(f"tensor_{user}: window not filled")
        elif (err := rel_err(got, ref)) > TENSOR_RTOL:
            problems.append(f"tensor_{user}: relative error {err:.3e} "
                            f"> {TENSOR_RTOL:g}")
    conv = json.loads((d / "tensor_convergence.json").read_text())
    want = refs["convergence_keys"]
    if sorted(conv) != sorted(want):
        problems.append(f"convergence users {sorted(conv)} != {sorted(want)}")
    for user, report in conv.items():
        if sorted(report) != want.get(user):
            problems.append(f"convergence[{user}] keys changed: {sorted(report)}")
        elif not report["residual"] <= report["rtol"]:
            problems.append(f"convergence[{user}] residual {report['residual']}"
                            f" > rtol {report['rtol']}")
    return problems


def check_sweep(d: Path, ref: dict) -> list[str]:
    problems = []
    if (d / "sweep.csv").read_text() != ref["sweep_csv"]:
        problems.append("sweep.csv differs at printed precision")
    if not close(json.loads((d / "sweep.json").read_text()), ref["sweep_rows"],
                 VALUE_RTOL):
        problems.append(f"sweep.json differs beyond {VALUE_RTOL:g} relative")
    return problems + check_svg(d / "sweep.svg")


def check_region(d: Path, ref: dict) -> list[str]:
    problems = []
    if not close(json.loads((d / "region.json").read_text()), ref["region"],
                 VALUE_RTOL):
        problems.append(f"region.json differs beyond {VALUE_RTOL:g} relative")
    return problems + check_svg(d / "region.svg")


def _cscg(seed_seq, n: int, var_per_dim: float) -> np.ndarray:
    """The simulator's documented input stream, drawn independently."""
    rng = np.random.default_rng(seed_seq)
    return np.sqrt(var_per_dim) * (rng.standard_normal(n)
                                   + 1j * rng.standard_normal(n))


def dbm_to_watts(p_dbm: float) -> float:
    return 10.0 ** (p_dbm / 10.0) * 1e-3


def check_batch(d: Path, seed: int, n: int, coeffs_x: np.ndarray) -> list[str]:
    with open(d / "batch.csv", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = list(zip(*[[float(v) for v in row] for row in reader]))
    if header != ["k", "x_re", "x_im", "w_re", "w_im", "y_re", "y_im"]:
        return [f"batch.csv header {header}"]
    if len(cols[0]) != n:
        return [f"batch.csv has {len(cols[0])} rows, expected {n}"]
    k, xr, xi, wr, wi, yr, yi = (np.array(c) for c in cols)
    x, w, y = xr + 1j * xi, wr + 1j * wi, yr + 1j * yi
    manifest = json.loads((d / "simulate-manifest.json").read_text())
    sigma_sq = manifest["config"]["noise"]["sigma_sq_w"]
    streams = np.random.SeedSequence(seed).spawn(4)
    p = dbm_to_watts(P_DBM)
    problems = []
    if not np.array_equal(k, np.arange(n)):
        problems.append("batch.csv k column is not 0..n-1")
    if not (np.array_equal(x, _cscg(streams[0], n, p / 2.0))
            and np.array_equal(w, _cscg(streams[1], n, p / 2.0))):
        problems.append("batch.csv x/w columns differ from the seeded inputs")
        return problems
    noise = _cscg(streams[2], n, sigma_sq)
    M = (coeffs_x.shape[0] - 1) // 2
    lags = np.arange(-M, M + 1)
    rows = np.random.default_rng([seed, 7]).choice(n, Y_ROWS, replace=False)
    for r in rows:
        xl = x[(r - lags) % n]
        wl = w[(r - lags) % n]
        terms = coeffs_x * np.einsum("l,m,p->lmp", xl, wl, np.conj(wl))
        y_ref = x[r] + terms.sum() + noise[r]
        scale = abs(x[r]) + np.abs(terms).sum() + abs(noise[r])
        if abs(y[r] - y_ref) > Y_RTOL * scale:
            problems.append(f"batch.csv y[{r}] = {y[r]!r}, brute force "
                            f"{y_ref!r}")
            break
    return problems


def interference_variance(coeffs: np.ndarray) -> float:
    p = dbm_to_watts(P_DBM)
    return p * p * p * float(np.sum(np.abs(coeffs) ** 2))


def check_ianmc(d: Path, n: int, coeffs_x: np.ndarray) -> list[str]:
    doc = json.loads((d / "ianmc.json").read_text())
    analytic = interference_variance(coeffs_x)
    if doc["n"] != n or doc["blocks"] != n // MC_BLOCK:
        return [f"ianmc.json n/blocks {doc['n']}/{doc['blocks']}"]
    if not abs(doc["estimate"] - analytic) <= MC_SIGMAS * doc["stderr"]:
        return [f"MC estimate {doc['estimate']:.6g} +- {doc['stderr']:.3g} is "
                f"not within {MC_SIGMAS:g} stderr of {analytic:.6g}"]
    return []


def check_verify(path: Path, names: list[str]) -> list[str]:
    reports = json.loads(path.read_text())
    got = [r["name"] for r in reports]
    if got != names:
        return [f"{path.name}: checks {got} != {names}"]
    bad = [r["name"] for r in reports if r["verdict"] != "pass"]
    return [f"{path.name}: verdict not pass: {bad}"] if bad else []


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Run:
    """One benchmark invocation: child records, failures and the work dir."""

    def __init__(self, seed: int, mode: str, work: Path, launcher: Launcher,
                 perturb=None):
        self.seed = seed
        self.mode = mode
        self.size = SIZES[mode]
        self.work = work
        self.launcher = launcher
        self.perturb = perturb
        self.records: list[dict] = []
        with open(REFS / "references.json", encoding="utf-8") as fh:
            self.refs = json.load(fh)
        with np.load(REFS / "tensors.npz") as npz:
            self.ref_tensors = {u: npz[u] for u in ("x", "w")}

    def step(self, phase: str, label: str, argv: list[str], out_dir: Path,
             check=None) -> dict:
        out_dir.mkdir(parents=True, exist_ok=True)
        rec = self.launcher.run(argv, out_dir / f"{label}.log")
        rec.update(phase=phase, label=label, dir=str(out_dir))
        problems = [] if rec["rc"] == 0 else [f"exit code {rec['rc']}"]
        if rec["rc"] == 0 and check is not None:
            if self.perturb is not None:
                self.perturb(phase, label, out_dir)
            t0 = time.perf_counter()
            try:
                problems += check(out_dir)
            except Exception as exc:  # a malformed output is a failed step
                problems.append(f"output check raised {exc!r}")
            rec["check_s"] = time.perf_counter() - t0
            rec["sha256"] = output_digests(out_dir)
        rec["problems"] = problems
        if problems:
            print(f"FAILED {label} in {out_dir}: {problems}", file=sys.stderr)
        self.records.append(rec)
        return rec

    def execute(self, phase: str, cmds: list[Cmd], out_dir: Path) -> None:
        for cmd in cmds:
            self.step(phase, cmd.label, cmd.argv(), out_dir, cmd.check)

    def write_spec(self, path: Path, spec: dict) -> str:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spec, indent=1))
        return str(path)


class ReferencePipeline:
    """coeffs --config reference.yaml -> sweep (tensor-driven) -> region.

    The follow-up runs on the recorded seed tensors, which the main
    command's output is checked against, so that follow-ups can be timed
    on both sides of the long main command and checked on their own.
    main() and followup() return the commands that write into a
    directory; the caller runs them."""

    name = "reference-pipeline"

    def __init__(self, run: Run):
        self.run = run
        self.inputs = run.work / "inputs"

    def prepare(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        memory = self.run.size["memory"]
        for user, values in self.run.ref_tensors.items():
            if memory is not None:
                values = window(values, memory)
            write_tensor(self.inputs / f"tensor_{user}.json", user, values)

    def _memory_args(self) -> list[str]:
        m = self.run.size["memory"]
        return [] if m is None else ["--memory", str(m)]

    def main(self, d: Path) -> list[Cmd]:
        r = self.run
        return [Cmd("coeffs", cli(r.seed, d, "--config", CONFIG, "coeffs",
                                  *self._memory_args()),
                    lambda o: check_coeffs(o, r.refs, r.ref_tensors))]

    def followup(self, d: Path) -> list[Cmd]:
        r = self.run
        ref = r.refs.get(r.mode)
        return [
            Cmd("sweep", cli(r.seed, d, "sweep", "--powers-dbm",
                             *[repr(p) for p in r.refs["powers_dbm"]],
                             "--coeffs-x", str(self.inputs / "tensor_x.json"),
                             "--coeffs-w", str(self.inputs / "tensor_w.json"),
                             "--out", "sweep.csv", "--json", "sweep.json",
                             "--svg", "sweep.svg"),
                lambda o: check_sweep(o, ref)),
            Cmd("region", cli(r.seed, d, "region", "--from-sweep",
                              str(d / "sweep.csv"),
                              "--at-dbm", repr(r.refs["at_dbm"]),
                              "--out", "region.json", "--svg", "region.svg"),
                lambda o: check_region(o, ref))]


class FullMemoryChannel:
    """simulate --model full on seeded dense tensors, then the IAN MC."""

    name = "full-memory-channel"

    def __init__(self, run: Run):
        self.run = run
        self.inputs = run.work / "inputs"
        self.coeffs: dict[str, np.ndarray] = {}

    def prepare(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.run.seed, 11])
        side = 2 * SYNTH_MEMORY + 1
        for user in ("x", "w"):
            values = SYNTH_SCALE / math.sqrt(2.0) * (
                rng.standard_normal((side,) * 3)
                + 1j * rng.standard_normal((side,) * 3))
            if np.any(values == 0):
                raise BenchError("synthetic tensor has a zero tap")
            self.coeffs[user] = values
            write_tensor(self.inputs / f"tensor_{user}.json", user, values)

    def main(self, d: Path) -> list[Cmd]:
        r, n = self.run, self.run.size["sim_n"]
        return [Cmd("simulate",
                    cli(r.seed, d, "simulate", "--model", "full", "--n", str(n),
                        "--p1-dbm", repr(P_DBM), "--p2-dbm", repr(P_DBM),
                        "--coeffs-x", str(self.inputs / "tensor_x.json"),
                        "--coeffs-w", str(self.inputs / "tensor_w.json"),
                        "--out", "batch.csv"),
                    lambda o: check_batch(o, r.seed, n, self.coeffs["x"]))]

    def followup(self, d: Path) -> list[Cmd]:
        r = self.run
        spec = r.write_spec(d / "ianmc-spec.json", {
            "coeffs": str(self.inputs / "tensor_x.json"),
            "p1_dbm": P_DBM, "p2_dbm": P_DBM, "n": r.size["mc_n"],
            "block_len": MC_BLOCK, "seed": r.seed, "out_dir": str(d)})
        return [Cmd("ianmc", [spec],
                    lambda o: check_ianmc(o, r.size["mc_n"], self.coeffs["x"]),
                    step="ianmc")]


class VerifySuites:
    """verify --suite all, then the deterministic suite on its own."""

    name = "verify-suites"

    def __init__(self, run: Run):
        self.run = run

    def prepare(self) -> None:
        pass

    def main(self, d: Path) -> list[Cmd]:
        r = self.run
        return [Cmd("verify",
                    cli(r.seed, d, "verify", "--suite", "all", "--samples",
                        str(r.size["verify_samples"]), "--out", "verify.json"),
                    lambda o: check_verify(o / "verify.json",
                                           r.refs["verify_checks"]))]

    def followup(self, d: Path) -> list[Cmd]:
        r = self.run
        return [Cmd("dettrace",
                    cli(r.seed, d, "verify", "--suite", "dettrace",
                        "--out", "dettrace.json"),
                    lambda o: check_verify(o / "dettrace.json",
                                           r.refs["dettrace_checks"]))]


WORKLOADS = {w.name: w for w in (ReferencePipeline, FullMemoryChannel,
                                 VerifySuites)}


# ---------------------------------------------------------------------------
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------------


def phase_samples(records: list[dict], phase: str) -> list[float]:
    """Wall time per phase instance: the records of one phase in one
    directory form one instance (sweep + region is one follow-up)."""
    sums: dict[str, float] = {}
    for rec in records:
        if rec["phase"] == phase:
            sums[rec["dir"]] = sums.get(rec["dir"], 0.0) + rec["wall_s"]
    return list(sums.values())


def run_e2e(run: Run, wl, seconds: float) -> dict:
    """Samples (a set-up probe and a follow-up) spread over the run: half
    of MIN_SAMPLES first, then passes of (main, sample) while one more
    pass still fits in the window (at least one pass), then the rest.
    Spreading them averages over the host's slow changes of speed."""
    samples = 0

    def sample() -> None:
        nonlocal samples
        run.step("setup", "setup", [sys.executable, "-c", SETUP_CODE],
                 run.work / f"setup{samples}")
        d = run.work / f"followup{samples}"
        run.execute("followup", wl.followup(d), d)
        samples += 1

    wl.prepare()
    while samples < MIN_SAMPLES // 2:
        sample()
    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        d = run.work / f"main{passes}"
        run.execute("main", wl.main(d), d)
        sample()
        passes += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    while samples < MIN_SAMPLES:
        sample()
    return {
        "setup_s": statistics.median(phase_samples(run.records, "setup")),
        "main_s": statistics.median(phase_samples(run.records, "main")),
        "followup_s": statistics.median(phase_samples(run.records, "followup")),
        "peak_rss_mb": max(r["maxrss_mb"] for r in run.records),
    }


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------

DIGEST_SKIP = ("-manifest.json", ".log", "-spec.json")


def output_digests(d: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(d.iterdir())
            if p.is_file() and not p.name.endswith(DIGEST_SKIP)}


def trace_workload(run: Run, wl) -> dict:
    """One untraced CLI pass, then the traced replay of each command: the
    same arguments, into another directory, each in a fresh interpreter.
    The last replay step is checked: every CLI output must have been
    written again by the replay with the same SHA-256."""
    wl.prepare()
    cli_dir = run.work / wl.name / "cli"
    replay_dir = run.work / wl.name / "replay"
    for phase in ("main", "followup"):
        run.execute(phase, getattr(wl, phase)(cli_dir), cli_dir)

    def same_outputs(o: Path) -> list[str]:
        want, got = output_digests(cli_dir), output_digests(o)
        diff = sorted(k for k in want if got.get(k) != want[k])
        return [f"replay outputs differ from the CLI's: {diff}"] if diff else []

    replays = [(phase, cmd) for phase in ("main", "followup")
               for cmd in getattr(wl, phase)(replay_dir)]
    traces = []
    for i, (phase, cmd) in enumerate(replays):
        spans = replay_dir / f"spans{i}.json"
        rec = run.step("replay", cmd.label, cmd.argv(spans), replay_dir,
                       same_outputs if i == len(replays) - 1 else None)
        if rec["rc"] == 0:
            traces.append(dict(json.loads(spans.read_text()), phase=phase))
    return {"traces": traces, "cli_dir": cli_dir, "workload": wl}


def _spans(traces: list[dict], phase: str | None = None) -> list[dict]:
    return [s for t in traces if phase in (None, t["phase"])
            for s in t["spans"]]


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _totals(spans: list[dict], *names: str) -> float:
    return sum(total(spans, name) for name in names)


def layer_metrics(run: Run, traced: dict[str, dict]) -> dict:
    ref, sim, ver = (traced[n] for n in ("reference-pipeline",
                                         "full-memory-channel",
                                         "verify-suites"))
    everything = _spans(ref["traces"] + sim["traces"] + ver["traces"])
    coeffs_spans = _spans(ref["traces"], "main")
    ref_spans, sim_spans = _spans(ref["traces"]), _spans(sim["traces"])
    m: dict[str, tuple[float, str]] = {}

    # pulses: the engine's pulse samples on the padded grid and their FFT,
    # mean per engine call
    pulse_calls = [s for s in coeffs_spans if s["name"] == "pulses.samples"]
    m["pulses.samples_fft_ms"] = (
        _totals(coeffs_spans, "pulses.samples", "pulses.fft") * 1e3
        / len(pulse_calls), "ms")

    # coefficients
    tensors_s = total(coeffs_spans, "coefficients.coefficient_tensor")
    conv = json.loads((ref["cli_dir"] / "tensor_convergence.json").read_text())
    nodes = 0  # computed: z_nodes x sum of panels over levels x receivers
    for report in conv.values():
        base = report["panels"] // 2 ** report["refinements"]
        nodes += report["z_nodes"] * base * (2 ** (report["refinements"] + 1) - 1)
    side = read_tensor(ref["cli_dir"] / "tensor_x.json").shape[0]
    padded = max(s["n"] for s in pulse_calls)
    # computed: one (side x n) @ (n x side^2) complex product per node, 8 flop
    # per complex multiply-add, n = padded samples
    gflop = nodes * 8.0 * side * side ** 2 * padded / 1e9
    m["coefficients.tensors_s"] = (tensors_s, "s")
    m["coefficients.nodes_evaluated"] = (nodes, "count")
    m["coefficients.ms_per_node"] = (tensors_s * 1e3 / nodes, "ms")
    m["coefficients.matmul_gflop"] = (gflop, "GFLOP")
    m["coefficients.achieved_gflops"] = (gflop / tensors_s, "GFLOP/s")
    # a tensor save is the CLI's to_json_dict, JSON text and atomic write
    saved = [s for s in coeffs_spans if s["name"] == "coefficients.to_json_dict"]
    save_s = _totals(coeffs_spans, "coefficients.to_json_dict") + sum(
        _dur(s) for s in coeffs_spans
        if (s["name"] == "cli.json_text" and s["tensor"])
        or (s["name"] == "cli.write"
            and s["file"] in ("tensor_x.json", "tensor_w.json")))
    loads = [_dur(s) for s in everything if s["name"] == "coefficients.tensor_load"]
    m["coefficients.tensor_save_ms"] = (save_s * 1e3 / len(saved), "ms")
    m["coefficients.tensor_load_ms"] = (statistics.mean(loads) * 1e3, "ms")

    # bounds, regions, svgout on the sweep/region path
    m["bounds.sweep_ms"] = (_totals(ref_spans, "bounds.sweep", "bounds.sweep_csv",
                                    "bounds.sweep_rows") * 1e3, "ms")
    m["regions.region_ms"] = (_totals(ref_spans, "regions.build_region",
                                      "regions.dominant_face_midpoint",
                                      "regions.excess_area") * 1e3, "ms")
    m["svgout.render_ms"] = (_totals(ref_spans, "svgout.render_curves",
                                     "svgout.render_regions") * 1e3, "ms")

    # channel
    n = run.size["sim_n"]
    wl_sim = sim["workload"]
    taps = sum(int(np.count_nonzero(c)) for c in wl_sim.coeffs.values())
    full_s = total(sim_spans, "channel.full_channel")
    m["channel.full_channel_s"] = (full_s, "s")
    m["channel.tap_symbols"] = (taps * n, "count")  # computed
    m["channel.ns_per_tap_symbol"] = (full_s * 1e9 / (taps * n), "ns")
    m["channel.minor_faults"] = (total(sim_spans, "channel.full_channel",
                                       "minflt"), "count")
    m["channel.batch_csv_write_s"] = (total(sim_spans, "channel.write_batch_csv"),
                                      "s")
    m["channel.batch_csv_mb"] = ((sim["cli_dir"] / "batch.csv").stat().st_size
                                 / 1e6, "MB")  # computed: bytes written
    m["channel.sample_cscg_ms"] = (total(everything, "channel.sample_cscg") * 1e3,
                                   "ms")

    # bounds: interference-as-noise Monte Carlo
    mc = json.loads((sim["cli_dir"] / "ianmc.json").read_text())
    analytic = interference_variance(wl_sim.coeffs["x"])
    m["bounds.ian_mc_s"] = (total(sim_spans, "bounds.interference_variance_mc"),
                            "s")
    m["bounds.ian_mc_blocks"] = (mc["blocks"], "count")
    m["bounds.ian_mc_z"] = (abs(mc["estimate"] - analytic) / mc["stderr"],
                            "stderr")

    # verify: the suites of --suite all
    ver_main = _spans(ver["traces"], "main")
    for suite in ("dettrace", "conv4", "conv6", "moments"):
        m[f"verify.{suite}_s"] = (total(ver_main, f"verify.{suite}"), "s")
    reports = json.loads((ver["cli_dir"] / "verify.json").read_text())
    # computed: real normal variates per sample, by check family
    per_sample = {"conv4": 4, "conv6": 8, "moments": 2, "dettrace": 0}
    drawn = sum(per_sample[r["name"].split("-")[0]] * r["n_samples"]
                for r in reports)
    margins = []
    for r in reports:
        if r["stderr"] > 0:
            gap = (abs(r["estimate"] - r["bound"]) if r["kind"] == "identity"
                   else r["estimate"] - r["bound"])
            margins.append(MC_SIGMAS - gap / r["stderr"])
    m["verify.samples_drawn"] = (drawn, "count")
    m["verify.min_margin_se"] = (min(margins), "stderr")

    # cli: start-up and the untraced children's rusage
    imports = [_dur(s) for s in everything if s["name"] == "cli.import"]
    children = [r for r in run.records if r["phase"] in ("main", "followup")]
    m["cli.import_s"] = (statistics.median(imports), "s")
    m["cli.child_cpu_s"] = (sum(r["user_s"] + r["sys_s"] for r in children), "s")
    m["cli.child_sys_s"] = (sum(r["sys_s"] for r in children), "s")
    m["cli.child_minor_faults"] = (sum(r["minflt"] for r in children), "count")

    # self time per layer, summed over every traced interpreter
    own: dict[str, float] = {}
    for t in ref["traces"] + sim["traces"] + ver["traces"]:
        for layer, secs in self_times(t["spans"]).items():
            own[layer] = own.get(layer, 0.0) + secs
    for layer in ("cli", "pulses", "coefficients", "channel", "bounds",
                  "regions", "svgout", "verify"):
        m[f"{layer}.self_s"] = (own.get(layer, 0.0), "s")
    # the replays run the same commands as the untraced children, so the
    # ratio of their wall times is the cost of the spans
    traced_s = sum(r["wall_s"] for r in run.records if r["phase"] == "replay")
    m["trace.overhead_ratio"] = (traced_s / sum(r["wall_s"] for r in children),
                                 "ratio")
    return m


def run_traced(run: Run, first: str) -> dict:
    order = [first] + [n for n in WORKLOADS if n != first]
    traced = {}
    for name in order:
        traced[name] = trace_workload(run, WORKLOADS[name](run))
    if any(r["rc"] for r in run.records):
        return {}
    return layer_metrics(run, traced)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def environment(args, work: Path) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": THREADS, "thread_vars": list(THREAD_VARS),
            "nproc": os.cpu_count(), "git_sha": sha,
            "malloc_vars": sorted(k for k in os.environ if k.startswith("MALLOC_")),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "mode": args.mode,
            "work_dir": str(work.relative_to(ROOT))}


def check_tree() -> None:
    for path in (SRC / "xpmcap" / "cli.py", ROOT / CONFIG,
                 REFS / "references.json", REFS / "tensors.npz"):
        if not path.is_file():
            raise BenchError(f"missing {path.relative_to(ROOT)}: run from a "
                             f"checkout of the xpmcap repository")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measurement window of the end-to-end run; at least "
                        "one pass always runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=sorted(SIZES), default="full",
                   help="'quick' runs the reduced sizes of the self-test")
    return p.parse_args(argv)


def bench(args, perturb=None) -> dict:
    """Run the benchmark; returns the result object of the last line."""
    check_tree()
    work = WORK_ROOT / (f"trace-{args.workload}" if args.trace else args.workload)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(args, work)
    with contextlib.closing(Launcher()) as launcher:
        run = Run(args.seed, args.mode, work, launcher, perturb)
        if args.trace:
            values = run_traced(run, args.workload)
        else:
            values = {k: (v, END_TO_END[k]) for k, v in
                      run_e2e(run, WORKLOADS[args.workload](run),
                              args.seconds).items()}
    failed = sum(1 for r in run.records if r["problems"])
    result = {"correct": failed == 0 and bool(values),
              "attempted": len(run.records), "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in values.items()}}
    (work / "run.json").write_text(json.dumps(
        {"environment": env, "result": result, "records": run.records},
        indent=1))
    print("environment: " + json.dumps(env, sort_keys=True))
    for k, (v, u) in values.items():
        print(f"{k:32s} {v:>16.6g} {u}")
    print(f"{'error_rate':32s} {failed / len(run.records):>16.6g} "
          f"failed/attempted ({failed}/{len(run.records)})")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
