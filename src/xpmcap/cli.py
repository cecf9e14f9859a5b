"""Command-line front end.

Commands: coeffs, sweep, region, simulate, verify. `main` runs each
command inside one RunContext, which loads the configuration, resolves
the master seed and creates --out-dir. The command stages its outputs;
then finish() stages the run manifest (configuration, input and output
digests, wall time, peak memory, seed and diagnostics) and renames each
file into place, its `wrote` line after the command's own stdout. A
refused command leaves no file; a crash between renames can leave some.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, an unreadable input or unwritable output, or out of memory,
3 numerical failure. Exit codes 2 and 3 print one line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import json
import math
import os
import resource
import sys
import time

from . import __version__
from .config import ToolkitConfig, load_config, dbm_to_watts
from .errors import ConfigError, NumericalError, ToolkitError

#: The library names the commands call, each with its module. main() binds
#: only its command's `layers`, so `region`, `sweep` and usage errors start
#: without numpy; before that, __getattr__ resolves them from outside.
_LIBRARY = {name: module for module, names in (
    ("bounds", "EffectiveCoefficient sweep sweep_rows"),
    ("channel", "csv_workers simulate_batch write_batch_csv"),
    ("coefficients", "CoeffTensor coefficient_tensor"),
    ("regions", "build_region dominant_face_midpoint excess_area"),
    ("svgout", "render_curves render_regions"),
    ("sweepcsv", "read_sweep_csv sweep_csv"),
    ("tensorjson", "read_tensor sum_abs_sq"),
    ("verify", "run_suite"),
) for name in names.split()}


def __getattr__(name: str):
    if name not in _LIBRARY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LIBRARY[name]}", __package__)
    return getattr(module, name)


DEFAULT_MASTER_SEED = 12345

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_PER_MW = 1e3  # 1/mW -> 1/W
_PER_MW2 = 1e6  # 1/mW^2 -> 1/W^2


@contextlib.contextmanager
def _naming(path: str):
    """An OSError raised inside names output path, not its staged file."""
    try:
        yield
    except OSError as exc:
        if exc.errno is None:  # as a failed CSV child's: keep its text
            raise OSError(f"{path}: {exc}") from None
        raise OSError(exc.errno, exc.strerror, path) from None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _peak_rss_mb() -> float:
    """The larger peak resident set of this process and of its reaped
    children (the forked CSV and quadrature halves), in MiB."""
    peak = max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    # ru_maxrss is in KiB, but in bytes on macOS
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def dbm(text: str) -> float:
    """The dBm flags' type: argparse names the flag whose value it refuses."""
    if not math.isfinite(value := float(text)):
        raise argparse.ArgumentTypeError(f"power in dBm must be finite: {text}")
    return value


class RunContext:
    """One command's run: its effective configuration, master seed and
    output directory, and the inputs and outputs its manifest records."""

    def __init__(self, args):
        self.args = args
        self.config = (load_config(args.config) if args.config
                       else ToolkitConfig())
        if args.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {args.seed}")
        self.master_seed = args.seed
        self.t0 = time.monotonic()
        self.inputs: dict[str, str] = {}
        self.staged: list[tuple[str, str]] = []  # (temporary, output)
        self.diagnostics: dict = {}  # numbers that back the outputs
        os.makedirs(args.out_dir, exist_ok=True)
        if self.config.source_path:
            self.note_input(self.config.source_path)

    def note_input(self, path: str) -> None:
        self.inputs[path] = _sha256_file(path)

    def write(self, name: str, text: str) -> str:
        return self.write_with(name, lambda tmp: _write_text(tmp, text))

    def write_with(self, name: str, fill) -> str:
        """Stage output `name`: fill(tmp) writes it, finish() renames it."""
        path = os.path.join(self.args.out_dir, name)
        tmp = f"{path}.tmp-{os.getpid()}-{len(self.staged)}"
        with _naming(path):
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
            self.staged.append((tmp, path))
            fill(tmp)
        return path

    def say(self, message: str) -> None:
        if not self.args.quiet:
            print(message)

    def finish(self) -> None:
        manifest = {
            "command": self.args.command,
            "argv": self.args.argv,
            "version": __version__,
            "master_seed": self.master_seed,
            "config_path": self.config.source_path,
            "config": self.config.echo(),
            "inputs": self.inputs,
            "outputs": {path: _sha256_file(tmp) for tmp, path in self.staged},
            "wall_time_s": time.monotonic() - self.t0,
            "peak_rss_mb": _peak_rss_mb(),
            "diagnostics": self.diagnostics,
        }
        outputs = len(self.staged)
        self.write_with(f"{self.args.command}-manifest.json",
                        lambda tmp: _write_text(tmp, _json_text(manifest)))
        for i, (tmp, path) in enumerate(self.staged):
            with _naming(path):
                os.replace(tmp, path)
            if i < outputs:
                self.say(f"wrote {path}")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _load_tensor(ctx: RunContext, path, user: str, load):
    """load(path, user), read_tensor or CoeffTensor.load (one validator),
    with path recorded as an input; None without a path."""
    if not path:
        return None
    tensor = load(path, user)
    ctx.note_input(path)
    return tensor


def _config_parts(section: dict, name: str, scales: dict) -> list[float]:
    """A coefficient from per-mW config keys, for runs without --coeffs-x:
    each part is its key, else 0, in SI units; one key at least is set."""
    if not scales.keys() & section.keys():
        raise ConfigError("missing coefficients: pass --coeffs-x or set " +
                          " or ".join(f"{name}.{key}" for key in scales) +
                          " in the config")
    return [section.get(key, 0.0) * scale for key, scale in scales.items()]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_coeffs(args, ctx: RunContext) -> int:
    cfg = ctx.config
    link = cfg.link
    if args.memory is not None:
        link = dataclasses.replace(link, memory=args.memory)
        # The manifest records the link the tensors were computed on.
        ctx.config = dataclasses.replace(cfg, link=link)
    tx, report = coefficient_tensor(link, cfg.pulse)
    # Receiver w sees the interferer walk off the other way. For a real,
    # even pulse (every kind in PULSE_KINDS samples to one) the
    # substitution t -> -t maps the overlap kernel with walk-off tau onto
    # the one with walk-off -tau and every lag negated, so receiver w's
    # window is receiver x's lag reversal, c_w[l,m,p] = c_x[-l,-m,-p].
    tw = dataclasses.replace(tx, values=tx.values[::-1, ::-1, ::-1])
    for user, tensor in (("x", tx), ("w", tw)):
        ctx.write(f"tensor_{user}.json", _json_text(tensor.to_json_dict(user)))
    # The quadrature's layout is run telemetry: the manifest, not the file.
    ctx.diagnostics = report.pop("diagnostics")
    ctx.diagnostics["residual"] = report["residual"]
    # One quadrature serves both receivers, so both share its report.
    ctx.write("tensor_convergence.json",
              _json_text({"x": report, "w": report}))
    return EXIT_OK


def cmd_sweep(args, ctx: RunContext) -> int:
    sweep_cfg = ctx.config.sweep

    powers = args.powers_dbm or sweep_cfg.get("powers_dbm")
    if not powers:
        raise ConfigError("no powers given: pass --powers-dbm or set "
                          "sweep.powers_dbm in the config")

    coeffs_x = _load_tensor(ctx, args.coeffs_x, "x", read_tensor)
    # --coeffs-w is only validated and recorded; --coeffs-x serves both.
    _load_tensor(ctx, args.coeffs_w, "w", read_tensor)
    # The tensor gives every coefficient it holds: the center tap, which
    # lag reversal (receiver x's window -> receiver w's) fixes, and kappa.
    source = "config" if coeffs_x is None else "tensor"
    if coeffs_x is None:
        g = EffectiveCoefficient(*_config_parts(sweep_cfg, "sweep", {
            "g_real_per_mw": _PER_MW, "g_abs_sq_per_mw2": _PER_MW2}))
        kappa = sweep_cfg.get("kappa_per_mw2")
        if kappa is not None:
            kappa *= _PER_MW2
    else:
        _, _, values = coeffs_x  # (l, m, p) row-major: c[0,0,0] mid-list
        try:  # |c|^2 of an entry, or their sum, beyond the largest float
            g = EffectiveCoefficient.from_complex(values[len(values) // 2])
            kappa = sum_abs_sq(values)
        except OverflowError:
            raise ConfigError(f"{args.coeffs_x}: sum |c|^2 overflows a float")
    bound_sets = sweep(powers, g, ctx.config.noise.sigma_sq,
                       p2_dbm=args.p2_dbm, kappa=kappa)

    ctx.diagnostics = {
        "coefficients": source, "kappa": None if kappa is None else source,
        "p2_dbm": None if args.p2_dbm is None else "flag",
        "g_is_physical": g.is_physical}
    ctx.write(args.out, sweep_csv(powers, bound_sets))
    if args.json:
        ctx.write(args.json, _json_text(sweep_rows(powers, bound_sets)))
    if args.svg:
        series = [
            ("u1", "green", None, powers, [b.u1 for b in bound_sets]),
            ("u2", "#0a7d6b", None, powers, [b.u2 for b in bound_sets]),
            ("u_sum", "blue", None, powers, [b.u_sum for b in bound_sets]),
            ("awgn", "red", "6,4", powers, [b.awgn1 for b in bound_sets]),
            ("ian1", "purple", None, powers, [b.ian1 for b in bound_sets]),
        ]
        ctx.write(args.svg, render_curves(series, "P1 (dBm)",
                                          "Rate (bits per symbol)"))
    return EXIT_OK


def cmd_region(args, ctx: RunContext) -> int:
    values = (args.u1, args.u2, args.usum, args.awgn, args.ian1, args.ian2)
    if args.from_sweep:
        if values != (None,) * 6:
            raise ConfigError("give the values by --u1/--u2/--usum/--awgn/"
                              "--ian1/--ian2 or by --from-sweep, not both")
        if args.at_dbm is None:
            raise ConfigError("--from-sweep requires --at-dbm")
        rows = read_sweep_csv(args.from_sweep)
        ctx.note_input(args.from_sweep)
        match = [r for r in rows if abs(r["p_dbm"] - args.at_dbm) <= 1e-9]
        if not match:
            raise ConfigError(
                f"no sweep row at {args.at_dbm} dBm; available: "
                f"{sorted(r['p_dbm'] for r in rows)}")
        # the row's columns, in SWEEP_CSV_HEADER's order
        p_dbm, u1, u2, u_sum, awgn, ian1, ian2 = match[0].values()
        source, flag = f"{args.from_sweep} at {p_dbm:g} dBm: ", ""
    else:
        if None in values[:3]:
            raise ConfigError("provide either --u1/--u2/--usum or "
                              "--from-sweep with --at-dbm")
        if args.at_dbm is not None:
            raise ConfigError("--at-dbm requires --from-sweep")
        if (args.ian1 is None) != (args.ian2 is None):
            raise ConfigError("--ian1 and --ian2 go together")
        (u1, u2, u_sum, awgn, ian1, ian2), source, flag = values, "", "--"
    for name, value in zip(("u1", "u2", "u_sum", "awgn", "ian1", "ian2"),
                           (u1, u2, u_sum, awgn, ian1, ian2)):
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"{name} must be finite and >= 0, got {value}")

    region, area = _measured((u1, u2, u_sum), lambda r: r.area(),
                             f"the region's area overflows a float: u1 {u1},"
                             f" u2 {u2}, usum {u_sum}")
    layers, annotations = [(region, "green", 0.35, "outer bound")], []
    if awgn is not None:
        box, excess = _measured((awgn, awgn, 2 * awgn + 1.0),
                                lambda box: excess_area(box, region),
                                f"{source}{flag}awgn {awgn}: awgn box "
                                f"overflows a float")
        layers.insert(0, (box, "red", 0.15, "awgn box"))
        annotations.append(f"excess area: awgn box outside bound region = "
                           f"{excess:.4g} bits^2")
    if ian1 is not None:
        box, excess = _measured((ian1, ian2, ian1 + ian2 + 1.0),
                                lambda box: excess_area(region, box),
                                f"{source}{flag}ian1 {ian1}, {flag}ian2 "
                                f"{ian2}: ian box overflows a float")
        layers.append((box, "blue", 0.35, "interference as noise"))
        annotations.append(f"excess area: bound region outside ian box = "
                           f"{excess:.4g} bits^2")
    ctx.write(args.out, _json_text({
        "tag": "theorem1", "vertices": region.vertices, "area": area,
        "dominant_face_midpoint": dominant_face_midpoint(region)}))
    if args.svg:
        ctx.write(args.svg, render_regions(layers, annotations))
    return EXIT_OK


def _measured(bounds, measure, message: str) -> tuple:
    """(region, measure(region)) of a bound triple's region, refused with
    message when either overflows a float (JSON has no inf or NaN)."""
    try:  # a sum bound of inf is refused; a * b is inf; a square raises
        if math.isfinite(value := measure(region := build_region(*bounds))):
            return region, value
    except (ConfigError, OverflowError):
        pass
    raise ConfigError(message)


def cmd_simulate(args, ctx: RunContext) -> int:
    coeffs_x = _load_tensor(ctx, args.coeffs_x, "x", CoeffTensor.load)
    # --coeffs-w is only validated and recorded; the batch is receiver x's.
    _load_tensor(ctx, args.coeffs_w, "w", read_tensor)
    source = "config" if coeffs_x is None else "tensor"
    if args.model == "memoryless":
        # The full channel over the one-tap window: the tensor's center
        # tap, else the config's.
        if coeffs_x is None:
            g_x = complex(*_config_parts(
                ctx.config.simulation, "simulation",
                {"g_real_per_mw": _PER_MW, "g_imag_per_mw": _PER_MW}))
        else:
            g_x = coeffs_x.get(0, 0, 0)
        coeffs_x = CoeffTensor(memory=0, values=[[[g_x]]])
    elif coeffs_x is None:
        raise ConfigError("full-model simulation requires --coeffs-x")

    batch = simulate_batch(
        n=args.n, p1=dbm_to_watts(args.p1_dbm), p2=dbm_to_watts(args.p2_dbm),
        sigma_sq=ctx.config.noise.sigma_sq, master_seed=ctx.master_seed,
        coeffs=coeffs_x)
    ctx.write_with(args.out, lambda tmp: write_batch_csv(batch, tmp))
    ctx.diagnostics = {"rows": args.n, "csv_workers": csv_workers(args.n),
                       "coefficients": source}
    return EXIT_OK


def cmd_verify(args, ctx: RunContext) -> int:
    reports = run_suite(args.suite, args.samples, ctx.master_seed,
                        ctx.diagnostics)
    ctx.write(args.out, _json_text([r.to_dict() for r in reports]))
    failed = [r for r in reports if r.verdict == "fail"]
    margins = {r.name: (r.bound - r.estimate) / r.stderr if r.stderr > 0
               else None for r in reports}
    ctx.diagnostics["margin_se"] = margins
    for r in reports:
        margin = ("" if margins[r.name] is None
                  else f" margin_se={margins[r.name]:+.2f}")
        ctx.say(f"{r.verdict.upper():4s} {r.name}: estimate={r.estimate:.6g} "
                f"bound={r.bound:.6g} stderr={r.stderr:.3g}{margin}")
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with one line; subparsers share this class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xpmcap",
        description="Rate bounds, cross-phase perturbation coefficients and "
                    "rate-region geometry for a two-user fiber link.")
    parser.add_argument("--config", help="config file (YAML)")
    parser.add_argument("--seed", type=int, default=DEFAULT_MASTER_SEED,
                        help="master seed for stochastic commands")
    parser.add_argument("--out-dir", default=".", help="output directory")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="compute per-user coefficient tensors")
    p.add_argument("--memory", type=int, help="override link memory window")
    p.set_defaults(func=cmd_coeffs, layers=("coefficients",))

    p = sub.add_parser("sweep", help="evaluate bounds along a power sweep")
    p.add_argument("--powers-dbm", type=dbm, nargs="+", dest="powers_dbm")
    p.add_argument("--coeffs-x", dest="coeffs_x", help="tensor JSON, user x")
    p.add_argument("--coeffs-w", dest="coeffs_w",
                   help="tensor JSON, user w; checked and recorded, but "
                        "--coeffs-x serves both receivers")
    p.add_argument("--p2-dbm", type=dbm, dest="p2_dbm",
                   help="fix user-2 power (asymmetric sweep)")
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--json", help="also write full-precision JSON rows")
    p.add_argument("--svg", help="also write a static curve plot")
    p.set_defaults(func=cmd_sweep,
                   layers=("bounds", "svgout", "sweepcsv", "tensorjson"))

    p = sub.add_parser("region", help="build a rate-region polygon")
    p.add_argument("--u1", type=float)
    p.add_argument("--u2", type=float)
    p.add_argument("--usum", type=float)
    p.add_argument("--from-sweep", dest="from_sweep",
                   help="take the bound triple from a sweep CSV")
    p.add_argument("--at-dbm", type=dbm, dest="at_dbm",
                   help="power row to read from the sweep CSV")
    p.add_argument("--awgn", type=float, help="overlay box at this rate")
    p.add_argument("--ian1", type=float, help="overlay interference-as-noise "
                                              "box, user-1 rate")
    p.add_argument("--ian2", type=float, help="overlay box, user-2 rate")
    p.add_argument("--out", default="region.json")
    p.add_argument("--svg", help="also write an overlay figure")
    p.set_defaults(func=cmd_region, layers=("regions", "svgout", "sweepcsv"))

    p = sub.add_parser("simulate", help="simulate receiver x's view of a "
                                        "block and export CSV")
    p.add_argument("--n", type=int, default=4096, help="block length")
    p.add_argument("--p1-dbm", type=dbm, default=0.0, dest="p1_dbm")
    p.add_argument("--p2-dbm", type=dbm, default=0.0, dest="p2_dbm")
    p.add_argument("--model", default="memoryless",
                   choices=("memoryless", "full"))
    p.add_argument("--coeffs-x", dest="coeffs_x", help="tensor JSON, user x")
    p.add_argument("--coeffs-w", dest="coeffs_w",
                   help="tensor JSON, user w; checked and recorded in the "
                        "manifest, but does not affect the batch (receiver "
                        "x's view)")
    p.add_argument("--out", default="batch.csv")
    p.set_defaults(func=cmd_simulate,
                   layers=("channel", "coefficients", "tensorjson"))

    p = sub.add_parser("verify", help="run the inequality check suites")
    p.add_argument("--suite", default="all",
                   choices=("all", "conv4", "conv6", "moments", "dettrace"))
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--out", default="verify-report.json")
    p.set_defaults(func=cmd_verify, layers=("verify",))

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command, ctx = "xpmcap", None
    try:
        args = build_parser().parse_args(argv)
        args.argv = argv  # the manifest records what was parsed
        command += f" {args.command}"
        ctx = RunContext(args)
        for name, module in _LIBRARY.items():
            if module in args.layers:  # keeps a replacement set from outside
                globals().setdefault(name, __getattr__(name))
        code = args.func(args, ctx)
        ctx.finish()
        return code
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print(f"error: {command}: out of memory", file=sys.stderr)
        return EXIT_USAGE
    finally:  # what a refused command or a failed rename left staged
        for tmp, _ in ctx.staged if ctx else ():
            if os.path.exists(tmp):
                os.unlink(tmp)

if __name__ == "__main__":
    sys.exit(main())
