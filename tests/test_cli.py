import argparse
import dataclasses
import errno
import json
import os
import re
import resource
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import xpmcap
import xpmcap.cli as climod
from xpmcap import coefficients
from xpmcap.bounds import (SWEEP_CSV_HEADER, ian_rate, interference_variance,
                           read_sweep_csv)
from xpmcap.cli import build_parser, main
from xpmcap.coefficients import CoeffTensor
from xpmcap.config import _SECTIONS, LinkParams, PowerPair, load_config
from xpmcap.pulses import PulseShape
from xpmcap.workers import blas_threads, blas_workers, cpu_workers

REPO = Path(__file__).resolve().parents[1]

CONFIG = """\
link:
  gamma: 1.2
  alpha_db_per_km: 0.2
  beta2_ps2_per_km: -21.7
  length_km: 50.0
  baud_rate: 32.0e9
  channel_spacing_hz: 50.0e9
  memory: 1
noise:
  sigma_sq_w: 1.0e-3
"""


# Center-tap config sections (per mW), for runs without a tensor.
ZERO_G = "sweep: {g_real_per_mw: 0, g_abs_sq_per_mw2: 0}\n"
FITTED_G = "sweep: {g_real_per_mw: 0.035, g_abs_sq_per_mw2: 5.545e-5}\n"
IMAG_G = "simulation: {g_real_per_mw: 0, g_imag_per_mw: 0.05}\n"


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(CONFIG, encoding="utf-8")
    return str(path)


def config_file(tmp_path, text, name="g.yaml"):
    """--config with a file that holds text."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return ["--config", str(path)]


def run(args):
    return main(args)


class TestCoeffsCommand:
    def test_writes_tensors_and_manifest(self, tmp_path, config_path):
        out = tmp_path / "out"
        code = run(["--config", config_path, "--out-dir", str(out), "--quiet",
                    "coeffs"])
        assert code == 0
        tx = json.loads((out / "tensor_x.json").read_text())
        tw = json.loads((out / "tensor_w.json").read_text())
        assert len(tx["entries"]) == 27
        assert tw["user"] == "w"
        conv = json.loads((out / "tensor_convergence.json").read_text())
        assert conv["x"]["residual"] <= 1e-6
        manifest = json.loads((out / "coeffs-manifest.json").read_text())
        assert manifest["command"] == "coeffs"
        assert config_path in manifest["inputs"]
        assert len(manifest["outputs"]) == 3

    def test_receiver_w_is_bitwise_lag_reversal(self, tmp_path, config_path):
        out = tmp_path / "rev"
        assert run(["--config", config_path, "--out-dir", str(out), "--quiet",
                    "coeffs"]) == 0
        docs = {u: json.loads((out / f"tensor_{u}.json").read_text())
                for u in ("x", "w")}
        entries = {u: {(e["l"], e["m"], e["p"]): (repr(e["re"]), repr(e["im"]))
                       for e in doc["entries"]} for u, doc in docs.items()}
        assert len(entries["w"]) == 27
        for (l, m, p), value in entries["w"].items():
            assert value == entries["x"][(-l, -m, -p)]
        assert docs["w"]["link"] == docs["x"]["link"]
        conv = json.loads((out / "tensor_convergence.json").read_text())
        assert set(conv) == {"x", "w"}
        assert conv["w"].keys() == conv["x"].keys()

    def test_default_setup_writes_full_windows(self, tmp_path):
        # no config: reference defaults (memory 5 -> 11^3 entries per user)
        out = tmp_path / "full"
        assert run(["--out-dir", str(out), "--quiet", "coeffs"]) == 0
        for user in ("x", "w"):
            doc = json.loads((out / f"tensor_{user}.json").read_text())
            assert len(doc["entries"]) == 1331
            assert doc["memory"] == 5
        conv = json.loads((out / "tensor_convergence.json").read_text())
        assert conv["x"]["residual"] <= 1e-6
        assert conv["w"]["residual"] <= 1e-6
        # The reference link: pad 4, 2 + 4 panels of 64 distance nodes, the
        # sinc at 8 samples per symbol.
        diagnostics = json.loads(
            (out / "coeffs-manifest.json").read_text())["diagnostics"]
        assert diagnostics["pad_factor"] == 4
        assert diagnostics["nodes_evaluated"] == 128 + 256
        assert diagnostics["levels"] == [
            {"padded_n": 1024, "samples_per_symbol": 4, "panels": 2},
            {"padded_n": 2048, "samples_per_symbol": 8, "panels": 4}]

    def test_manifest_diagnostics(self, tmp_path, config_path):
        out = tmp_path / "diag"
        assert run(["--config", config_path, "--out-dir", str(out), "--quiet",
                    "coeffs"]) == 0
        conv = json.loads((out / "tensor_convergence.json").read_text())
        # The data file keeps its keys; the quadrature's layout is telemetry.
        for report in conv.values():
            assert set(report) == {"z_nodes", "panels", "refinements",
                                   "residual", "rtol"}
        report = conv["x"]
        diagnostics = json.loads(
            (out / "coeffs-manifest.json").read_text())["diagnostics"]
        assert set(diagnostics) == {"pad_factor", "levels", "nodes_evaluated",
                                    "residual", "quad_workers", "blas_threads"}
        assert diagnostics["quad_workers"] == blas_workers()
        assert diagnostics["blas_threads"] == blas_threads()
        assert diagnostics["residual"] == report["residual"]
        coarse, fine = diagnostics["levels"]
        assert fine["panels"] == report["panels"] == 2 * coarse["panels"]
        assert diagnostics["nodes_evaluated"] == report["z_nodes"] * (
            coarse["panels"] + fine["panels"])
        # the window derived from the recorded link, padded pad_factor-fold
        manifest = json.loads((out / "coeffs-manifest.json").read_text())
        pulse = PulseShape(**manifest["config"]["pulse"])
        n_symbols, pad = coefficients._window(
            LinkParams(**manifest["config"]["link"]))
        assert diagnostics["pad_factor"] == pad
        assert fine == {
            "padded_n": n_symbols * pad
            * pulse.samples_per_symbol,
            "samples_per_symbol": pulse.samples_per_symbol,
            "panels": fine["panels"]}
        assert coarse["padded_n"] == fine["padded_n"] // 2
        assert coarse["samples_per_symbol"] == pulse.samples_per_symbol // 2

    def test_memory_alone_sizes_the_window(self, tmp_path, config_path):
        # memory 6 needs about 35 symbol periods on CONFIG's 50 km link
        out = tmp_path / "m6"
        assert run(["--config", config_path, "--out-dir", str(out), "--quiet",
                    "coeffs", "--memory", "6"]) == 0
        tx = json.loads((out / "tensor_x.json").read_text())
        assert len(tx["entries"]) == 13 ** 3
        assert coefficients._window(LinkParams(**tx["link"]))[0] == 64
        diagnostics = json.loads(
            (out / "coeffs-manifest.json").read_text())["diagnostics"]
        assert diagnostics["residual"] <= 1e-6

    @pytest.mark.parametrize("memory", ["247", str(10 ** 400)],
                             ids=["cap", "beyond-any-float"])
    def test_memory_beyond_the_window_cap_exits_3(self, tmp_path, memory,
                                                  capsys):
        out = tmp_path / "out"
        assert run(["--out-dir", str(out), "--quiet", "coeffs",
                    "--memory", memory]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: time window"), err
        assert err.count("\n") == 1 and "required by memory" in err, err

    def test_walkoff_beyond_the_pad_cap_exits_3(self, tmp_path, capsys):
        # 1 THz apart on the reference link, the carriers walk off by about
        # 1090 symbol periods: the padded window would need 64 + 2 x 1096,
        # more than 32 times the 64-symbol window
        text = (REPO / "configs" / "reference.yaml").read_text()
        text = text.replace("channel_spacing_hz: 50.0e9",
                            "channel_spacing_hz: 1.0e12")
        assert run([*config_file(tmp_path, text), "--out-dir",
                    str(tmp_path / "out"), "--quiet", "coeffs"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: walk-off"), err
        assert err.count("\n") == 1 and "grid" not in err, err

    def test_full_rolloff_rrc_converges(self, tmp_path):
        # roll-off 1 doubles the RRC's bandwidth; its panels follow, 5 for
        # the walk-off and dispersion together
        out = tmp_path / "rrc"
        assert run([*config_file(tmp_path, "pulse: {kind: root-raised-cosine,"
                                 " rolloff: 1.0}\n"),
                    "--out-dir", str(out), "--quiet", "coeffs"]) == 0
        diagnostics = json.loads(
            (out / "coeffs-manifest.json").read_text())["diagnostics"]
        assert diagnostics["residual"] <= 1e-6
        assert diagnostics["levels"][1] == {
            "padded_n": 2048, "samples_per_symbol": 8, "panels": 10}

    def test_two_processes_write_the_same_bytes(self, tmp_path, config_path,
                                                monkeypatch):
        texts = set()
        for run_no, workers in enumerate((1, 2, 2)):
            monkeypatch.setattr(coefficients, "blas_workers", lambda: workers)
            out = tmp_path / f"run{run_no}"
            assert run(["--config", config_path, "--out-dir", str(out),
                        "--quiet", "coeffs"]) == 0
            texts.add(tuple((out / f"tensor_{name}.json").read_bytes()
                            for name in ("x", "w", "convergence")))
            diagnostics = json.loads(
                (out / "coeffs-manifest.json").read_text())["diagnostics"]
            assert diagnostics["quad_workers"] == workers
        assert len(texts) == 1

    def test_failed_quadrature_child_writes_nothing(self, tmp_path,
                                                    config_path, monkeypatch,
                                                    capsys):
        parent, panel_sums = os.getpid(), coefficients._panel_sums

        def failing(*args):
            if os.getpid() != parent:
                raise RuntimeError("panel failed")
            return panel_sums(*args)

        monkeypatch.setattr(coefficients, "blas_workers", lambda: 2)
        monkeypatch.setattr(coefficients, "_panel_sums", failing)
        out = tmp_path / "out"
        assert run(["--config", config_path, "--out-dir", str(out), "--quiet",
                    "coeffs"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "odd-numbered quadrature panels of each level failed" in err
        assert list(out.iterdir()) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_memory_zero_gives_single_entry(self, tmp_path, config_path):
        out = tmp_path / "m0"
        assert run(["--config", config_path, "--out-dir", str(out), "--quiet",
                    "coeffs", "--memory", "0"]) == 0
        tx = json.loads((out / "tensor_x.json").read_text())
        assert len(tx["entries"]) == 1
        manifest = json.loads((out / "coeffs-manifest.json").read_text())
        assert manifest["config"]["link"]["memory"] == 0

    def test_zero_length_gives_zero_tensor(self, tmp_path):
        out = tmp_path / "l0"
        zero_length = CONFIG.replace("length_km: 50.0", "length_km: 0")
        assert run([*config_file(tmp_path, zero_length), "--out-dir",
                    str(out), "--quiet", "coeffs"]) == 0
        tx = json.loads((out / "tensor_x.json").read_text())
        assert all(e["re"] == 0.0 and e["im"] == 0.0 for e in tx["entries"])
        manifest = json.loads((out / "coeffs-manifest.json").read_text())
        assert manifest["config"]["link"]["length_km"] == 0.0


class TestSweepCommand:
    def test_awgn_anchor_values(self, tmp_path):
        out = tmp_path
        code = run([*config_file(tmp_path, ZERO_G), "--out-dir", str(out),
                    "--quiet", "sweep", "--powers-dbm", "-20", "-5", "10.3",
                    "--out", "s.csv"])
        assert code == 0
        lines = (out / "s.csv").read_text().strip().splitlines()
        assert lines[0] == "p_dbm,u1,u2,u_sum,awgn,ian1,ian2"
        awgn = [float(line.split(",")[4]) for line in lines[1:]]
        assert awgn == pytest.approx([0.00720, 0.21178, 2.66848], abs=5e-5)

    def test_missing_coefficients_is_usage_error(self, tmp_path, capsys):
        code = run(["--out-dir", str(tmp_path), "--quiet", "sweep",
                    "--powers-dbm", "0"])
        assert code == 2
        assert "missing coefficients" in capsys.readouterr().err

    def test_no_powers_is_usage_error(self, tmp_path):
        code = run([*config_file(tmp_path, ZERO_G), "--out-dir",
                    str(tmp_path), "--quiet", "sweep"])
        assert code == 2

    def test_fitted_pair_reproduces_reference_point(self, tmp_path):
        out = tmp_path
        code = run([*config_file(tmp_path, FITTED_G), "--out-dir", str(out),
                    "--quiet", "sweep", "--powers-dbm", "5.2",
                    "--out", "fit.csv", "--json", "fit.json",
                    "--svg", "fit.svg"])
        assert code == 0
        row = json.loads((out / "fit.json").read_text())[0]
        assert row["u1"] == pytest.approx(1.60446, abs=5e-3)
        assert (out / "fit.svg").read_text().startswith("<svg")

    def test_rerun_is_bit_identical(self, tmp_path):
        args = [*config_file(tmp_path, FITTED_G), "--out-dir", str(tmp_path),
                "--quiet", "sweep", "--powers-dbm", "-5", "0", "5",
                "--out", "rerun.csv"]
        assert run(args) == 0
        first = (tmp_path / "rerun.csv").read_bytes()
        m1 = json.loads((tmp_path / "sweep-manifest.json").read_text())
        assert run(args) == 0
        assert (tmp_path / "rerun.csv").read_bytes() == first
        m2 = json.loads((tmp_path / "sweep-manifest.json").read_text())
        assert m1["outputs"] == m2["outputs"]

    def test_coeffs_and_region_reruns_bit_identical(self, tmp_path,
                                                    config_path):
        out = tmp_path / "det"
        args_c = ["--config", config_path, "--out-dir", str(out), "--quiet",
                  "coeffs", "--memory", "0"]
        assert run(args_c) == 0
        first = (out / "tensor_x.json").read_bytes()
        assert run(args_c) == 0
        assert (out / "tensor_x.json").read_bytes() == first
        args_r = ["--out-dir", str(out), "--quiet", "region", "--u1", "0.39",
                  "--u2", "0.39", "--usum", "0.494233", "--out", "r.json"]
        assert run(args_r) == 0
        region_first = (out / "r.json").read_bytes()
        assert run(args_r) == 0
        assert (out / "r.json").read_bytes() == region_first

    def test_tensor_driven_sweep(self, tmp_path, config_path):
        out = tmp_path / "t"
        assert run(["--config", config_path, "--out-dir", str(out), "--quiet",
                    "coeffs"]) == 0
        code = run(["--config", config_path, "--out-dir", str(out), "--quiet",
                    "sweep", "--powers-dbm", "-5", "0",
                    "--coeffs-x", str(out / "tensor_x.json"),
                    "--coeffs-w", str(out / "tensor_w.json"),
                    "--out", "ten.csv"])
        assert code == 0
        manifest = json.loads((out / "sweep-manifest.json").read_text())
        assert str(out / "tensor_x.json") in manifest["inputs"]

    def test_tensor_beats_the_config_pair(self, tmp_path):
        # Receiver x's tensor serves both receivers; neither the config's
        # pair nor receiver w's tensor may replace any of its values.
        rng = np.random.default_rng(4)
        for user in ("x", "w"):
            values = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal(
                (3, 3, 3))
            (tmp_path / f"t{user}.json").write_text(json.dumps(CoeffTensor(
                memory=1, values=values).to_json_dict(user)))
        base = ["--out-dir", str(tmp_path), "--quiet", "sweep",
                "--powers-dbm", "-5", "0", "5",
                "--coeffs-x", str(tmp_path / "tx.json")]
        assert run(["--config", str(REPO / "configs" / "reference.yaml"),
                    *base, "--coeffs-w", str(tmp_path / "tw.json"),
                    "--out", "with-config.csv"]) == 0
        assert run([*base, "--out", "tensor.csv"]) == 0
        with_config = read_sweep_csv(str(tmp_path / "with-config.csv"))
        tensor_only = read_sweep_csv(str(tmp_path / "tensor.csv"))
        assert with_config == tensor_only
        for row in with_config:
            assert row["u1"] == row["u2"]

    @pytest.mark.parametrize("with_config", [False, True],
                             ids=["tensor-alone", "with-reference-config"])
    def test_tensor_drives_both_receivers(self, tmp_path, with_config):
        # Receiver w's window is receiver x's lag reversal, so one
        # kappa = sum |c|^2 gives both interference-as-noise rates; the
        # config's kappa_per_mw2 must not replace it for receiver w.
        tensor = _random_tensor(tmp_path / "tx.json", "x", 6)
        config = ["--config", str(REPO / "configs" / "reference.yaml")]
        assert run([*(config if with_config else []), "--out-dir",
                    str(tmp_path), "--quiet", "sweep",
                    "--powers-dbm", "-5", "0", "5",
                    "--coeffs-x", str(tmp_path / "tx.json"),
                    "--out", "s.csv", "--json", "s.json"]) == 0
        rows = json.loads((tmp_path / "s.json").read_text())
        for row in rows:
            pp = PowerPair(row["p1_w"], row["p2_w"])
            ian = ian_rate(pp, 1e-3, interference_variance(tensor, pp))
            assert row["ian1"] == pytest.approx(ian, rel=1e-12)
            assert row["ian2"] == row["ian1"] < row["awgn"]

    def test_kappa_is_the_tensors_sum_bit_for_bit(self, tmp_path,
                                                  monkeypatch):
        # sweep reads the tensor without CoeffTensor; its kappa is still
        # CoeffTensor's exactly rounded sum.
        _random_tensor(tmp_path / "tx.json", "x", 8)
        kappas = []

        def sweep(*args, kappa, **kwargs):
            kappas.append(kappa)
            return xpmcap.bounds.sweep(*args, kappa=kappa, **kwargs)

        monkeypatch.setattr(climod, "sweep", sweep)
        assert run(["--out-dir", str(tmp_path), "--quiet", "sweep",
                    "--powers-dbm", "0", "--coeffs-x",
                    str(tmp_path / "tx.json")]) == 0
        kappa = CoeffTensor.load(str(tmp_path / "tx.json")).sum_abs_sq()
        assert [k.hex() for k in kappas] == [kappa.hex()]

    def test_coeffs_w_is_recorded_but_leaves_sweep_unchanged(self, tmp_path):
        _random_tensor(tmp_path / "tx.json", "x", 6)
        _random_tensor(tmp_path / "tw.json", "w", 7)
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")

        def sweep(out, *extra):
            return run(["--out-dir", str(out), "--quiet", "sweep",
                        "--powers-dbm", "-5", "0", "5",
                        "--coeffs-x", str(tmp_path / "tx.json"), *extra,
                        "--json", "sweep.json"])

        assert sweep(tmp_path / "x") == 0
        assert sweep(tmp_path / "xw", "--coeffs-w",
                     str(tmp_path / "tw.json")) == 0
        for name in ("sweep.csv", "sweep.json"):
            assert ((tmp_path / "x" / name).read_bytes()
                    == (tmp_path / "xw" / name).read_bytes())
        manifest = json.loads(
            (tmp_path / "xw" / "sweep-manifest.json").read_text())
        assert str(tmp_path / "tw.json") in manifest["inputs"]
        assert sweep(tmp_path / "bad", "--coeffs-w", str(bad)) == 2

    def test_p2_dbm_makes_sweep_asymmetric(self, tmp_path):
        fitted = config_file(tmp_path, FITTED_G)
        base = ["--out-dir", str(tmp_path), "--quiet", "sweep",
                "--powers-dbm", "-5", "0", "5"]
        assert run([*fitted, *base, "--p2-dbm", "-10",
                    "--out", "flag.csv"]) == 0
        assert run([*fitted, *base, "--out", "symmetric.csv"]) == 0
        assert ((tmp_path / "flag.csv").read_text()
                != (tmp_path / "symmetric.csv").read_text())


def _random_tensor(path, user, seed, scale=300.0):
    # 300 /W per tap: at 0 dBm the interference is comparable to the
    # noise, so ian1 sits well below awgn.
    rng = np.random.default_rng(seed)
    values = scale * (rng.standard_normal((3, 3, 3))
                      + 1j * rng.standard_normal((3, 3, 3)))
    tensor = CoeffTensor(memory=1, values=values)
    path.write_text(json.dumps(tensor.to_json_dict(user)))
    return tensor


REFERENCE = REPO / "configs" / "reference.yaml"


def _reference_as_flags(command):
    """A run on configs/reference.yaml as command-line flags: the sweep's
    powers, and for simulate the values its keys held before the flag
    defaults replaced them."""
    if command == "sweep":
        cfg = load_config(str(REFERENCE))
        return ["sweep", "--powers-dbm",
                *map(repr, cfg.sweep["powers_dbm"])]
    return ["--seed", "12345", "simulate", "--n", "4096", "--p1-dbm", "0.0",
            "--p2-dbm", "0.0"]


def _parsers():
    """The top-level parser and every command's subparser."""
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    return [parser, *subparsers.choices.values()]


class TestOneSourcePerValue:
    """Run-shape values come from the command line; only --powers-dbm and
    --memory also have config keys, which their flags beat. A --coeffs-x
    tensor gives every coefficient it holds: with a tensor, the config's
    coefficient keys change nothing."""

    def test_only_powers_and_memory_have_a_config_key(self):
        dests = {a.dest for p in _parsers() for a in p._actions}
        keys = set().union(*_SECTIONS.values())
        assert keys & dests == {"powers_dbm", "memory"}

    def test_every_config_key_is_documented(self):
        text = ((REPO / "README.md").read_text(encoding="utf-8")
                + REFERENCE.read_text(encoding="utf-8"))
        named = set(re.findall(r"\w+", text))
        for section, keys in _SECTIONS.items():
            assert keys.keys() <= named, (section, keys.keys() - named)

    @pytest.mark.parametrize("command, extra, data", [
        ("sweep", ["--json", "sweep.json"], ("sweep.csv", "sweep.json")),
        ("simulate", ["--model", "memoryless"], ("batch.csv",)),
        ("simulate", ["--model", "full"], ("batch.csv",))],
        ids=["sweep", "simulate-memoryless", "simulate-full"])
    def test_tensor_with_config_equals_tensor_with_flags(
            self, command, extra, data, tmp_path):
        _random_tensor(tmp_path / "t.json", "x", 4, scale=1.0)
        tensor = ["--coeffs-x", str(tmp_path / "t.json"), *extra]
        assert run(["--config", str(REFERENCE), "--out-dir",
                    str(tmp_path / "config"), "--quiet", command,
                    *tensor]) == 0
        assert run(["--out-dir", str(tmp_path / "flags"), "--quiet",
                    *_reference_as_flags(command), *tensor]) == 0
        for name in data:
            assert ((tmp_path / "config" / name).read_bytes()
                    == (tmp_path / "flags" / name).read_bytes()), name
        manifest = json.loads(
            (tmp_path / "config" / f"{command}-manifest.json").read_text())
        assert manifest["diagnostics"]["coefficients"] == "tensor"

    @pytest.mark.parametrize("one, both, command", [
        ("sweep: {g_real_per_mw: 0.03494}\n",
         "sweep: {g_real_per_mw: 0.03494, g_abs_sq_per_mw2: 0}\n",
         ["sweep", "--powers-dbm", "-5", "0", "5"]),
        ("simulation: {g_imag_per_mw: 0.05}\n",
         "simulation: {g_real_per_mw: 0, g_imag_per_mw: 0.05}\n",
         ["simulate", "--n", "64"])], ids=["sweep", "simulate"])
    def test_a_part_left_unset_is_zero(self, one, both, command, tmp_path):
        for name, text in (("one", one), ("both", both)):
            assert run([*config_file(tmp_path, text, f"{name}.yaml"),
                        "--out-dir", str(tmp_path / name), "--quiet",
                        *command]) == 0
        out = "sweep.csv" if command[0] == "sweep" else "batch.csv"
        assert ((tmp_path / "one" / out).read_bytes()
                == (tmp_path / "both" / out).read_bytes())

    @pytest.mark.parametrize("config, extra, expected", [
        (REFERENCE.read_text(), [],
         {"coefficients": "config", "kappa": "config", "p2_dbm": None,
          "g_is_physical": False}),
        (ZERO_G, ["--p2-dbm", "-3"],
         {"coefficients": "config", "kappa": None, "p2_dbm": "flag",
          "g_is_physical": True}),
        (ZERO_G, ["--p2-dbm", "-3", "--coeffs-x", "t.json"],
         {"coefficients": "tensor", "kappa": "tensor", "p2_dbm": "flag",
          "g_is_physical": True})], ids=["reference", "flag-p2", "tensor"])
    def test_sweep_manifest_records_sources(self, config, extra, expected,
                                            tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _random_tensor(tmp_path / "t.json", "x", 4)
        assert run([*config_file(tmp_path, config), "--out-dir",
                    str(tmp_path), "--quiet", "sweep", "--powers-dbm", "0",
                    *extra]) == 0
        manifest = json.loads((tmp_path / "sweep-manifest.json").read_text())
        assert manifest["diagnostics"] == expected


class TestRegionCommand:
    def test_published_pentagon(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "--quiet", "region",
                    "--u1", "0.39", "--u2", "0.39", "--usum", "0.494233",
                    "--out", "r.json", "--svg", "r.svg",
                    "--awgn", "0.39", "--ian1", "0.2", "--ian2", "0.2"])
        assert code == 0
        doc = json.loads((tmp_path / "r.json").read_text())
        assert len(doc["vertices"]) == 5
        corner = doc["vertices"][2]
        assert corner == pytest.approx([0.39, 0.104233], abs=1e-9)
        assert doc["dominant_face_midpoint"] == pytest.approx(
            [0.2471165, 0.2471165], abs=1e-9)
        svg = (tmp_path / "r.svg").read_text()
        assert "excess area" in svg

    def test_manifest_records_the_default_pulse(self, tmp_path):
        assert run(["--out-dir", str(tmp_path), "--quiet", "region",
                    "--u1", "1", "--u2", "1", "--usum", "1.5"]) == 0
        manifest = json.loads((tmp_path / "region-manifest.json").read_text())
        assert manifest["config"]["pulse"] == dataclasses.asdict(PulseShape())

    def test_rectangle_json(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "--quiet", "region",
                    "--u1", "1", "--u2", "1", "--usum", "3",
                    "--out", "rect.json"])
        assert code == 0
        doc = json.loads((tmp_path / "rect.json").read_text())
        assert len(doc["vertices"]) == 4
        assert doc["dominant_face_midpoint"] is None

    def test_degenerate_point_region(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "--quiet", "region",
                    "--u1", "1", "--u2", "1", "--usum", "0",
                    "--out", "pt.json"])
        assert code == 0
        doc = json.loads((tmp_path / "pt.json").read_text())
        assert doc["vertices"] == [[0.0, 0.0]]

    def test_negative_bound_rejected(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "--quiet", "region",
                    "--u1", "-1", "--u2", "1", "--usum", "1"])
        assert code == 2

    def test_from_sweep_row(self, tmp_path):
        assert run([*config_file(tmp_path, FITTED_G), "--out-dir",
                    str(tmp_path), "--quiet", "sweep",
                    "--powers-dbm", "-2.9", "0", "--out", "s.csv"]) == 0
        code = run(["--out-dir", str(tmp_path), "--quiet", "region",
                    "--from-sweep", str(tmp_path / "s.csv"),
                    "--at-dbm", "-2.9", "--out", "fs.json", "--svg", "fs.svg"])
        assert code == 0
        doc = json.loads((tmp_path / "fs.json").read_text())
        assert doc["tag"] == "theorem1"

    def test_missing_input_file_is_usage_error(self, tmp_path, capsys):
        code = run(["--out-dir", str(tmp_path), "--quiet", "region",
                    "--from-sweep", str(tmp_path / "nope.csv"),
                    "--at-dbm", "0", "--out", "x.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_from_sweep_missing_row(self, tmp_path):
        assert run([*config_file(tmp_path, ZERO_G), "--out-dir",
                    str(tmp_path), "--quiet", "sweep",
                    "--powers-dbm", "0", "--out", "s.csv"]) == 0
        code = run(["--out-dir", str(tmp_path), "--quiet", "region",
                    "--from-sweep", str(tmp_path / "s.csv"),
                    "--at-dbm", "7.7", "--out", "x.json"])
        assert code == 2


class TestOutputModes:
    """Outputs get the mode a plain open() gives: 0o666 less the umask."""

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_every_output_follows_the_umask(self, umask, mode, tmp_path,
                                            config_path):
        out = tmp_path / "out"
        old = os.umask(umask)
        try:
            for args in (
                    ["--config", config_path, "coeffs"],
                    ["sweep", "--powers-dbm", "-2", "0",
                     "--coeffs-x", str(out / "tensor_x.json"),
                     "--json", "sweep.json", "--svg", "sweep.svg"],
                    ["region", "--from-sweep", str(out / "sweep.csv"),
                     "--at-dbm", "0", "--svg", "region.svg"],
                    [*config_file(tmp_path, CONFIG + IMAG_G), "simulate",
                     "--n", "64", "--model", "memoryless"],
                    ["verify", "--suite", "moments", "--samples", "100000"]):
                assert run(["--out-dir", str(out), "--quiet", *args]) == 0
        finally:
            os.umask(old)
        names = sorted(p.name for p in out.iterdir())
        assert len(names) == 15, names
        assert {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()} \
            == dict.fromkeys(names, mode)

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, capsys,
                                                   monkeypatch):
        def half_then_disk_full(batch, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("half")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        # As in a fresh process: the name not bound by an earlier main().
        monkeypatch.delitem(vars(climod), "write_batch_csv", raising=False)
        monkeypatch.setattr(climod, "write_batch_csv", half_then_disk_full)
        out = tmp_path / "out"
        assert run([*config_file(tmp_path, IMAG_G), "--out-dir", str(out),
                    "--quiet", "simulate", "--n", "4"]) == 2
        err = capsys.readouterr().err
        assert f"{out / 'batch.csv'}'" in err and ".tmp-" not in err, err
        assert list(out.iterdir()) == []

    def test_late_failure_lands_no_earlier_output(self, tmp_path, capsys,
                                                  monkeypatch):
        def render_curves(*args):
            raise MemoryError

        monkeypatch.delitem(vars(climod), "render_curves", raising=False)
        monkeypatch.setattr(climod, "render_curves", render_curves)
        out = tmp_path / "out"
        assert run([*config_file(tmp_path, ZERO_G), "--out-dir", str(out),
                    "sweep", "--powers-dbm", "0", "--json", "s.json",
                    "--svg", "s.svg"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: xpmcap sweep: out of memory\n"
        assert captured.out == ""  # no `wrote` line for sweep.csv
        assert list(out.iterdir()) == []


class TestSimulateCommand:
    def test_memoryless_batch(self, tmp_path):
        code = run([*config_file(tmp_path, CONFIG + IMAG_G), "--out-dir",
                    str(tmp_path), "--seed", "7", "--quiet", "simulate",
                    "--n", "64", "--p1-dbm", "0", "--p2-dbm", "0",
                    "--model", "memoryless", "--out", "b.csv"])
        assert code == 0
        lines = (tmp_path / "b.csv").read_text().strip().splitlines()
        assert lines[0] == "k,x_re,x_im,w_re,w_im,y_re,y_im"
        assert len(lines) == 65

    def test_overflowing_batch_leaves_no_file_and_no_warning(self, tmp_path,
                                                             capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would raise
            code = run([*config_file(tmp_path, IMAG_G), "--out-dir",
                        str(tmp_path), "--quiet", "simulate", "--n", "4",
                        "--p1-dbm", "100", "--p2-dbm", "3080"])
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "batch.csv").exists()

    def test_full_model_requires_tensor(self, tmp_path, config_path):
        code = run(["--config", config_path, "--out-dir", str(tmp_path),
                    "--quiet", "simulate", "--model", "full"])
        assert code == 2

    def test_full_model_from_tensor_file(self, tmp_path, config_path):
        out = tmp_path / "sim"
        assert run(["--config", config_path, "--out-dir", str(out), "--quiet",
                    "coeffs"]) == 0
        code = run(["--config", config_path, "--out-dir", str(out),
                    "--seed", "3", "--quiet", "simulate", "--n", "32",
                    "--model", "full",
                    "--coeffs-x", str(out / "tensor_x.json"),
                    "--out", "full.csv"])
        assert code == 0

    def test_coeffs_w_is_recorded_but_leaves_batch_unchanged(self, tmp_path,
                                                             config_path):
        rng = np.random.default_rng(4)
        paths = {}
        for user in ("x", "w"):
            values = 0.1 * (rng.standard_normal((3, 3, 3))
                            + 1j * rng.standard_normal((3, 3, 3)))
            paths[user] = str(tmp_path / f"tensor_{user}.json")
            tensor = CoeffTensor(memory=1, values=values)
            with open(paths[user], "w", encoding="utf-8") as fh:
                json.dump(tensor.to_json_dict(user), fh)
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")

        def simulate(out, *extra):
            return run(["--config", config_path, "--out-dir", str(out),
                        "--seed", "3", "--quiet", "simulate", "--n", "32",
                        "--model", "full", "--coeffs-x", paths["x"], *extra])

        assert simulate(tmp_path / "x") == 0
        assert simulate(tmp_path / "xw", "--coeffs-w", paths["w"]) == 0
        assert ((tmp_path / "x" / "batch.csv").read_bytes()
                == (tmp_path / "xw" / "batch.csv").read_bytes())
        manifest = json.loads(
            (tmp_path / "xw" / "simulate-manifest.json").read_text())
        assert {paths["x"], paths["w"]} <= set(manifest["inputs"])
        assert simulate(tmp_path / "bad", "--coeffs-w", str(bad)) == 2

    @pytest.mark.parametrize("n, cpus, workers", [
        (64, 2, 1), (20000, 1, 1), (20000, 2, 2)])
    def test_manifest_diagnostics(self, n, cpus, workers, tmp_path,
                                  monkeypatch):
        from xpmcap import channel

        monkeypatch.setattr(channel, "cpu_workers", lambda k: min(k, cpus))
        assert run([*config_file(tmp_path, CONFIG + IMAG_G), "--out-dir",
                    str(tmp_path), "--quiet", "simulate", "--n", str(n),
                    "--model", "memoryless"]) == 0
        manifest = tmp_path / "simulate-manifest.json"
        assert json.loads(manifest.read_text())["diagnostics"] == {
            "rows": n, "csv_workers": workers, "coefficients": "config"}

    def test_manifest_records_peak_memory(self, tmp_path):
        # ru_maxrss only grows, so the manifest's peak is at least this
        # process's peak before the command ran.
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert run([*config_file(tmp_path, CONFIG + IMAG_G), "--out-dir",
                    str(tmp_path), "--quiet", "simulate", "--n", "20000",
                    "--model", "memoryless"]) == 0
        manifest = json.loads(
            (tmp_path / "simulate-manifest.json").read_text())
        assert isinstance(manifest["peak_rss_mb"], float)
        assert manifest["peak_rss_mb"] >= before > 0

    def test_split_batch_prints_its_line_once(self, tmp_path):
        # stdout is a pipe, so block-buffered: a child that flushed it or
        # returned into the CLI would print the line twice.
        path = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "xpmcap.cli",
             *config_file(tmp_path, CONFIG + IMAG_G),
             "--out-dir", str(tmp_path / "out"), "simulate", "--n", "40000",
             "--model", "memoryless"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"wrote {tmp_path / 'out' / 'batch.csv'}\n"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "batch.csv", "simulate-manifest.json"]
        rows = (tmp_path / "out" / "batch.csv").read_bytes().split(b"\r\n")
        assert len(rows) == 40000 + 2 and rows[-1] == b""
        assert [int(r.split(b",")[0]) for r in rows[1:-1]] == list(
            range(40000))

    def test_failed_batch_write_leaves_no_temp_file(self, tmp_path,
                                                    monkeypatch):
        import xpmcap.cli as climod

        def failing_writer(batch, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("k,x_re,x_im,w_re,w_im,y_re,y_im\r\n0,")
            raise OSError("disk full")

        monkeypatch.setattr(climod, "write_batch_csv", failing_writer)
        out = tmp_path / "fail"
        code = run([*config_file(tmp_path, CONFIG + IMAG_G), "--out-dir",
                    str(out), "--quiet", "simulate", "--n", "16",
                    "--model", "memoryless", "--out", "b.csv"])
        assert code == 2
        assert sorted(p.name for p in out.iterdir()) == []


class TestVerifyCommand:
    def test_dettrace_suite(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "--quiet", "verify",
                    "--suite", "dettrace", "--out", "v.json"])
        assert code == 0
        reports = json.loads((tmp_path / "v.json").read_text())
        assert all(r["verdict"] == "pass" for r in reports)

    def test_moments_suite(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "--seed", "5", "--quiet",
                    "verify", "--suite", "moments", "--samples", "1000000",
                    "--out", "m.json"])
        assert code == 0
        reports = json.loads((tmp_path / "m.json").read_text())
        assert reports[0]["estimate"] == pytest.approx(1.0, abs=0.01)

    def test_check_lines_report_margin(self, tmp_path, capsys):
        code = run(["--out-dir", str(tmp_path), "--seed", "5", "verify",
                    "--suite", "all", "--samples", "200000",
                    "--out", "all.json"])
        assert code == 0
        reports = json.loads((tmp_path / "all.json").read_text())
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith(("PASS", "FAIL"))]
        assert len(lines) == len(reports)
        for line, r in zip(lines, reports):
            assert r["name"] in line
            if r["stderr"] > 0:
                margin = (r["bound"] - r["estimate"]) / r["stderr"]
                assert f"margin_se={margin:+.2f}" in line
            else:
                assert "margin_se" not in line

    def test_manifest_diagnostics(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "--seed", "3", "--quiet",
                    "verify", "--suite", "all", "--samples", "100000",
                    "--out", "all.json"])
        assert code == 0
        reports = json.loads((tmp_path / "all.json").read_text())
        manifest = json.loads((tmp_path / "verify-manifest.json").read_text())
        assert {"command", "argv", "outputs", "wall_time_s"} <= set(manifest)
        diagnostics = manifest["diagnostics"]
        assert set(diagnostics) == {"check_workers", "margin_se", "check_s"}
        # seven of the ten checks draw samples; the dettrace ones do not
        assert diagnostics["check_workers"] == cpu_workers(7)
        assert 1 <= diagnostics["check_workers"] <= 2
        margins = diagnostics["margin_se"]
        assert list(margins) == sorted(r["name"] for r in reports)
        # every check's wall seconds, under the same names
        assert list(diagnostics["check_s"]) == list(margins)
        assert all(s >= 0.0 for s in diagnostics["check_s"].values())
        assert diagnostics["check_s"]["conv6-g0"] > 0.0
        for r in reports:
            if r["stderr"] > 0:
                assert margins[r["name"]] == \
                    (r["bound"] - r["estimate"]) / r["stderr"]
            else:
                assert margins[r["name"]] is None
        assert None in margins.values()

        code = run(["--out-dir", str(tmp_path), "--quiet", "verify",
                    "--suite", "dettrace", "--out", "d.json"])
        assert code == 0
        manifest = json.loads((tmp_path / "verify-manifest.json").read_text())
        assert manifest["diagnostics"]["check_workers"] == 1

    def test_conv4_suite_small(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "--seed", "5", "--quiet",
                    "verify", "--suite", "conv4", "--samples", "200000",
                    "--out", "c4.json"])
        assert code == 0

    def test_failing_check_exits_one(self, tmp_path, monkeypatch):
        import xpmcap.cli as climod
        from xpmcap.verify import CheckReport

        def fake_suite(suite, n, seed, diagnostics):
            return [CheckReport(name="forced", n_samples=1, estimate=2.0,
                                bound=1.0, stderr=0.0, verdict="fail",
                                seed=seed, kind="one-sided")]

        monkeypatch.setattr(climod, "run_suite", fake_suite)
        code = run(["--out-dir", str(tmp_path), "--quiet", "verify",
                    "--suite", "moments", "--out", "f.json"])
        assert code == 1
        manifest = json.loads((tmp_path / "verify-manifest.json").read_text())
        assert list(manifest["outputs"]) == [str(tmp_path / "f.json")]

    def test_out_of_memory_is_usage_error(self, tmp_path, monkeypatch,
                                          capsys):
        import xpmcap.cli as climod

        def huge_suite(suite, n, seed, diagnostics):
            raise MemoryError

        monkeypatch.setattr(climod, "run_suite", huge_suite)
        code = run(["--out-dir", str(tmp_path), "--quiet", "verify",
                    "--suite", "conv4", "--samples", "100000000000000"])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: xpmcap verify: out of memory\n"

    def test_sample_budget_is_usage_error(self, tmp_path):
        code = run(["--out-dir", str(tmp_path), "--quiet", "verify",
                    "--suite", "moments", "--samples", "10",
                    "--out", "v.json"])
        assert code == 2


SWEEP_HEADER = ",".join(SWEEP_CSV_HEADER) + "\n"


def _tensor_text(**entry):
    doc = {"user": "x", "memory": 0,
           "entries": [{"l": 0, "m": 0, "p": 0, "im": 0.0, **entry}]}
    return json.dumps(doc)


def _window_text(centre, other):
    """A memory-1 tensor document: c[0,0,0] = centre, every other entry
    other."""
    entries = [{"l": l, "m": m, "p": p, "im": 0.0,
                "re": centre if l == m == p == 0 else other}
               for l in (-1, 0, 1) for m in (-1, 0, 1) for p in (-1, 0, 1)]
    return json.dumps({"user": "x", "memory": 1, "entries": entries})


# The center tap from a config file, for cases that need one to reach
# the fault they test.
G_FILES = {"g.yaml": ZERO_G + IMAG_G}
G_CONFIG = ["--config", "@g.yaml"]

# name: (input files, arguments; "@f" names input file f)
MALFORMED = {
    "negative-seed": (
        G_FILES, [*G_CONFIG, "--seed", "-1", "simulate"]),
    "simulate-negative-n": (
        G_FILES, [*G_CONFIG, "simulate", "--n", "-5", "--model",
                  "memoryless"]),
    "simulate-n-zero": (G_FILES, [*G_CONFIG, "simulate", "--n", "0"]),
    "simulate-p1-inf": (
        G_FILES, [*G_CONFIG, "simulate", "--n", "4", "--p1-dbm", "inf"]),
    "sweep-power-nan": (
        G_FILES, [*G_CONFIG, "sweep", "--powers-dbm", "0", "nan"]),
    "sweep-p2-nan": (
        G_FILES, [*G_CONFIG, "sweep", "--powers-dbm", "0", "--p2-dbm",
                  "nan"]),
    # With a tensor at hand, an unchecked model would run the full channel.
    "simulate-model-unknown": (
        {"t.json": _tensor_text(re=1.0)},
        ["simulate", "--n", "4", "--model", "foo", "--coeffs-x", "@t.json"]),
    "sweep-csv-non-numeric-field": (
        {"s.csv": SWEEP_HEADER + "0,abc,0.1,0.2,0.1,0.1,0.1\n"},
        ["region", "--from-sweep", "@s.csv", "--at-dbm", "0"]),
    "sweep-csv-short-row": (
        {"s.csv": SWEEP_HEADER + "0,0.1\n"},
        ["region", "--from-sweep", "@s.csv", "--at-dbm", "0"]),
    "sweep-csv-bad-header": (
        {"s.csv": "p,q\n"},
        ["region", "--from-sweep", "@s.csv", "--at-dbm", "0"]),
    "sweep-csv-not-utf-8": (
        {"s.csv": SWEEP_HEADER.encode() + b"0,0.1,0.2,0.25,0.1,0.1,\xff\n"},
        ["region", "--from-sweep", "@s.csv", "--at-dbm", "0"]),
    # csv refuses a field longer than its 131072-character limit.
    "sweep-csv-field-too-large": (
        {"s.csv": SWEEP_HEADER + "0," + "1" * 200_000 + ",0,0,0,0,0\n"},
        ["region", "--from-sweep", "@s.csv", "--at-dbm", "0"]),
    "sweep-csv-field-not-finite": (
        {"s.csv": SWEEP_HEADER + "0,0.1,0.2,0.25,0.1,inf,0.1\n"},
        ["region", "--from-sweep", "@s.csv", "--at-dbm", "0", "--svg",
         "y.svg"]),
    # One source for the bound triple: a sweep row or the three flags.
    "region-triple-and-from-sweep": (
        {"s.csv": SWEEP_HEADER + "0,0.1,0.2,0.25,0.1,0.1,0.1\n"},
        ["region", "--from-sweep", "@s.csv", "--at-dbm", "0",
         "--u1", "5", "--u2", "5", "--usum", "9"]),
    # --from-sweep gives all six values: it takes no value flag either.
    "region-awgn-and-from-sweep": (
        {"s.csv": SWEEP_HEADER + "0,0.1,0.2,0.25,0.1,0.1,0.1\n"},
        ["region", "--from-sweep", "@s.csv", "--at-dbm", "0",
         "--awgn", "0.3"]),
    "region-ian-and-from-sweep": (
        {"s.csv": SWEEP_HEADER + "0,0.1,0.2,0.25,0.1,0.1,0.1\n"},
        ["region", "--from-sweep", "@s.csv", "--at-dbm", "0",
         "--ian1", "0.2", "--ian2", "0.2"]),
    # A row's overlay that overflows is named by the file and its power.
    "sweep-csv-awgn-box-overflows": (
        {"s.csv": SWEEP_HEADER + "0,0.1,0.2,0.25,1e+308,0.1,0.1\n"},
        ["region", "--from-sweep", "@s.csv", "--at-dbm", "0", "--svg",
         "r.svg"]),
    "tensor-entry-without-re": (
        {"t.json": _tensor_text()},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "tensor-entry-re-not-a-number": (
        {"t.json": _tensor_text(re="abc")},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "tensor-entry-re-a-string": (
        {"t.json": _tensor_text(re="1.5")},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "tensor-entry-re-a-bool": (
        {"t.json": _tensor_text(re=True)},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "tensor-entry-re-too-large": (
        {"t.json": _tensor_text(re=10 ** 400)},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "tensor-entry-re-nan": (
        {"t.json": _tensor_text(re=float("nan"))},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "sweep-coeffs-x-holds-receiver-w": (
        {"t.json": json.dumps({**json.loads(_tensor_text(re=1.0)),
                               "user": "w"})},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "simulate-coeffs-w-holds-receiver-x": (
        {"t.json": _tensor_text(re=1.0)},
        ["simulate", "--n", "4", "--coeffs-w", "@t.json"]),
    # The tag names a receiver; any other value is refused too.
    "sweep-coeffs-x-holds-receiver-y": (
        {"t.json": json.dumps({**json.loads(_tensor_text(re=1.0)),
                               "user": "y"})},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    # Finite entries whose |c|^2, or the sum of them (kappa), overflows
    # a float: the center tap's alone, the sum of 27 that each fit, one
    # beside a center tap that fits. simulate takes these windows.
    "sweep-coeffs-x-center-tap-squared-overflows": (
        {"t.json": _tensor_text(re=1e200)},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "sweep-coeffs-x-kappa-overflows": (
        {"t.json": _window_text(1e154, 1e154)},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "sweep-coeffs-x-side-tap-squared-overflows": (
        {"t.json": _window_text(1.0, 1e160)},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "sweep-power-not-a-number": (
        G_FILES, [*G_CONFIG, "sweep", "--powers-dbm", "abc"]),
    # Finite powers whose watts, or whose bounds, overflow a float.
    "sweep-power-overflows": (
        G_FILES, [*G_CONFIG, "sweep", "--powers-dbm", "4000"]),
    "sweep-p2-overflows": (
        G_FILES, [*G_CONFIG, "sweep", "--powers-dbm", "0", "--p2-dbm",
                  "4000"]),
    "sweep-bounds-overflow": (
        G_FILES, [*G_CONFIG, "sweep", "--powers-dbm", "2100"]),
    "simulate-p1-overflows": (
        G_FILES, [*G_CONFIG, "simulate", "--n", "8", "--p1-dbm", "4000"]),
    # Powers whose watts fit a float, but whose channel output does not.
    "simulate-output-overflows": (
        G_FILES, [*G_CONFIG, "simulate", "--n", "4", "--p1-dbm", "100",
                  "--p2-dbm", "3080"]),
    "sweep-removed-receiver-w-flag": (
        G_FILES, [*G_CONFIG, "sweep", "--powers-dbm", "0", "--g-w-real",
                  "1"]),
    # The config or a tensor gives the coefficients; no flag does.
    "sweep-removed-kappa-flag": (
        G_FILES, [*G_CONFIG, "sweep", "--powers-dbm", "0", "--kappa", "1"]),
    "simulate-removed-center-tap-flag": (
        G_FILES, [*G_CONFIG, "simulate", "--n", "4", "--g-real", "0.01"]),
    "config-n-not-an-integer": (
        {"c.yaml": "simulation: {n: abc, g_imag_per_mw: 0.05}\n"},
        ["--config", "@c.yaml", "simulate"]),
    "config-power-not-a-number": (
        {"c.yaml": ZERO_G.replace("{", "{powers_dbm: [abc], ")},
        ["--config", "@c.yaml", "sweep"]),
    "config-powers-not-a-list": (
        {"c.yaml": ZERO_G.replace("{", "{powers_dbm: 5, ")},
        ["--config", "@c.yaml", "sweep"]),
    # Range errors the commands would report later without the file.
    "config-kappa-negative": (
        {"c.yaml": ZERO_G.replace("{", "{kappa_per_mw2: -1, ")},
        ["--config", "@c.yaml", "sweep", "--powers-dbm", "0"]),
    "config-sweep-g-real-nan": (
        {"c.yaml": "sweep: {g_real_per_mw: .nan, g_abs_sq_per_mw2: 0}\n"},
        ["--config", "@c.yaml", "sweep", "--powers-dbm", "0"]),
    "config-simulation-g-imag-inf": (
        {"c.yaml": "simulation: {g_real_per_mw: 0, g_imag_per_mw: -.inf}\n"},
        ["--config", "@c.yaml", "simulate", "--n", "4"]),
    "config-g-abs-sq-negative": (
        {"c.yaml": "sweep: {g_abs_sq_per_mw2: -1}\n"},
        ["--config", "@c.yaml", "sweep", "--powers-dbm", "0"]),
    # The coefficient window is derived from the link, so a grid
    # section, valid or not, is refused as an unknown section.
    "config-grid-size-not-an-integer": (
        {"c.yaml": "grid: {n_samples: abc}\n"},
        ["--config", "@c.yaml", "coeffs"]),
    "config-grid-samples-not-a-multiple-of-symbols": (
        {"c.yaml": "grid: {n_samples: 4096, n_symbols: 48}\n"},
        ["--config", "@c.yaml", "coeffs"]),
    "config-grid-size-not-a-power-of-two": (
        {"c.yaml": "grid: {n_samples: 1000, n_symbols: 8}\n"},
        ["--config", "@c.yaml", "coeffs"]),
    "config-grid-odd-samples-per-symbol": (
        {"c.yaml": "grid: {n_samples: 64, n_symbols: 64}\n"},
        ["--config", "@c.yaml", "coeffs"]),
    "config-grid-no-symbols": (
        {"c.yaml": "grid: {n_symbols: 0}\n"},
        ["--config", "@c.yaml", "coeffs"]),
    "region-u1-nan": (
        {}, ["region", "--u1", "nan", "--u2", "1", "--usum", "1"]),
    "region-usum-negative": (
        {}, ["region", "--u1", "1", "--u2", "1", "--usum", "-1"]),
    # Overlays are checked with or without --svg, under their own names.
    "region-awgn-nan": (
        {}, ["region", "--u1", "1", "--u2", "1", "--usum", "1.5", "--awgn",
             "nan"]),
    # Finite bounds whose area overflows a float: a * b is inf and the
    # cut corner's square raises, or inf - inf is NaN, which JSON lacks.
    "region-area-overflows": (
        {}, ["region", "--u1", "1e200", "--u2", "1e200", "--usum",
             "1.5e200"]),
    "region-area-not-a-number": (
        {}, ["region", "--u1", "1e308", "--u2", "1e308", "--usum", "1e308"]),
    # An overlay box, or its excess area, beyond the largest float: the
    # sum bound 2 awgn + 1 or ian1 + ian2 + 1 is inf, or a * b is.
    "region-awgn-sum-overflows": (
        {}, ["region", "--u1", "1", "--u2", "1", "--usum", "1.5", "--awgn",
             "1e308", "--svg", "r.svg"]),
    "region-awgn-area-overflows": (
        {}, ["region", "--u1", "1", "--u2", "1", "--usum", "1.5", "--awgn",
             "1e200", "--svg", "r.svg"]),
    "region-ian-sum-overflows": (
        {}, ["region", "--u1", "1", "--u2", "1", "--usum", "1.5", "--ian1",
             "1e308", "--ian2", "1e308", "--svg", "r.svg"]),
    "region-at-dbm-without-from-sweep": (
        {}, ["region", "--u1", "1", "--u2", "1", "--usum", "1.5",
             "--at-dbm", "3"]),
    "region-ian1-without-ian2": (
        {}, ["region", "--u1", "1", "--u2", "1", "--usum", "1.5",
             "--ian1", "0.2", "--svg", "r.svg"]),
    "region-ian2-without-ian1": (
        {}, ["region", "--u1", "1", "--u2", "1", "--usum", "1.5",
             "--ian2", "0.2"]),
    "config-rolloff-not-a-number": (
        {"c.yaml": "pulse: {rolloff: abc}\n"},
        ["--config", "@c.yaml", "coeffs"]),
    # A pulse the engine would refuse is refused at load, also by the
    # commands that never build it.
    "config-pulse-rolloff-out-of-range": (
        {"c.yaml": "pulse: {kind: root-raised-cosine, rolloff: 3}\n" +
         ZERO_G},
        ["--config", "@c.yaml", "sweep", "--powers-dbm", "0"]),
    "config-pulse-gaussian-without-width": (
        {"c.yaml": "pulse: {kind: gaussian}\n"},
        ["--config", "@c.yaml", "verify", "--suite", "dettrace"]),
    "config-noise-center-freq-is-unknown": (
        {"c.yaml": "noise: {nsp: 1.5, center_freq_hz: 1.9e14}\n" + ZERO_G},
        ["--config", "@c.yaml", "sweep", "--powers-dbm", "0"]),
    # One source for the noise variance: the value or the amplifier's nsp.
    "config-noise-sigma-sq-and-nsp": (
        {"c.yaml": "noise: {sigma_sq_w: 1.0e-3, nsp: 1.5}\n" + ZERO_G},
        ["--config", "@c.yaml", "sweep", "--powers-dbm", "0"]),
    "coeffs-removed-length-km-flag": (
        {}, ["coeffs", "--length-km", "0"]),
    # YAML keys may be of any type; only names are known.
    "config-key-not-a-string": (
        {"c.yaml": "link: {1: 2}\n"},
        ["--config", "@c.yaml", "verify", "--suite", "dettrace"]),
    "config-section-name-not-a-string": (
        {"c.yaml": "1: {}\n"},
        ["--config", "@c.yaml", "verify", "--suite", "dettrace"]),
    "config-keys-of-mixed-types": (
        {"c.yaml": "link: {1: 2, foo: 3}\n"},
        ["--config", "@c.yaml", "verify", "--suite", "dettrace"]),
    # PyYAML raises RecursionError on lists nested this deep.
    "config-nested-too-deep": (
        {"c.yaml": "link: " + "[" * 5000 + "]" * 5000 + "\n"},
        ["--config", "@c.yaml", "region", "--u1", "1", "--u2", "1",
         "--usum", "1"]),
    # YAML keeps a repeated key's last value; a config refuses it, as it
    # refuses an unknown key.
    "config-link-key-repeated": (
        {"c.yaml": "link: {memory: 5, memory: 7}\n"},
        ["--config", "@c.yaml", "region", "--u1", "1", "--u2", "1",
         "--usum", "1"]),
    "config-sweep-section-repeated": (
        {"c.yaml": ZERO_G + "link: {memory: 1}\n" + ZERO_G},
        ["--config", "@c.yaml", "sweep", "--powers-dbm", "0"]),
    "config-not-utf-8": (
        {"c.yaml": b"link: {length_km: 80}\n# \xff\n"},
        ["--config", "@c.yaml", "verify", "--suite", "dettrace"]),
    # A YAML boolean is no number.
    "config-g-real-a-bool": (
        {"c.yaml": "sweep: {g_real_per_mw: true, g_abs_sq_per_mw2: 0}\n"},
        ["--config", "@c.yaml", "sweep", "--powers-dbm", "0"]),
    "config-power-a-bool": (
        {"c.yaml": ZERO_G.replace("{", "{powers_dbm: [yes, 0], ")},
        ["--config", "@c.yaml", "sweep"]),
    "config-section-not-a-mapping": (
        {"c.yaml": "link: 0\n" + ZERO_G},
        ["--config", "@c.yaml", "sweep", "--powers-dbm", "0"]),
    "config-sweep-symmetric-is-unknown": (
        {"c.yaml": ZERO_G.replace("{", "{symmetric: true, ")},
        ["--config", "@c.yaml", "sweep", "--powers-dbm", "0"]),
    "config-sweep-receiver-w-key-is-unknown": (
        {"c.yaml": ZERO_G.replace("{", "{g_w_real_per_mw: 1, ")},
        ["--config", "@c.yaml", "sweep", "--powers-dbm", "0"]),
    # Run-shape values are flags only: no config key sets the seed, for
    # verify either, or the model, with a tensor at hand either.
    "config-simulation-seed-is-unknown": (
        {"c.yaml": "simulation: {seed: 99}\n"},
        ["--config", "@c.yaml", "verify", "--suite", "dettrace"]),
    "config-simulation-model-unknown": (
        {"c.yaml": "simulation: {model: full}\n",
         "t.json": _tensor_text(re=1.0)},
        ["--config", "@c.yaml", "simulate", "--n", "4", "--coeffs-x",
         "@t.json"]),
    "tensor-file-missing": (
        {}, ["sweep", "--powers-dbm", "0", "--coeffs-x", "@missing.json"]),
    "tensor-file-not-json": (
        {"t.json": "not json\n"},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    # json.load raises RecursionError on arrays nested this deep.
    "tensor-nested-too-deep": (
        {"t.json": "[" * 100_000 + "]" * 100_000},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    # 200001^3 lags: the entry count must be checked before any allocation.
    "tensor-memory-without-entries": (
        {"t.json": json.dumps({"user": "x", "memory": 100000,
                               "entries": []})},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "tensor-link-not-a-mapping": (
        {"t.json": json.dumps({**json.loads(_tensor_text(re=1.0)),
                               "link": 5})},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "tensor-memory-not-an-integer": (
        {"t.json": json.dumps({**json.loads(_tensor_text(re=1.0)),
                               "memory": 0.7})},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    "tensor-lag-not-an-integer": (
        {"t.json": _tensor_text(re=1.0, l=0.4)},
        ["sweep", "--powers-dbm", "0", "--coeffs-x", "@t.json"]),
    # The full model's window is the tensor; the removed center-tap
    # flags are unrecognised with it too.
    "simulate-full-with-center-tap-flags": (
        {"t.json": _tensor_text(re=1.0)},
        ["simulate", "--model", "full", "--n", "4", "--coeffs-x", "@t.json",
         "--g-real", "3", "--g-imag", "0.5"]),
    "region-out-in-missing-directory": (
        {}, ["region", "--u1", "1", "--u2", "1", "--usum", "1.5",
             "--out", "nodir/r.json"]),
    # A later output that cannot be written lands no earlier one.
    "sweep-svg-in-missing-directory": (
        G_FILES, [*G_CONFIG, "sweep", "--powers-dbm", "0", "--svg",
                  "nodir/x.svg"]),
    "region-svg-in-missing-directory": (
        {}, ["region", "--u1", "1", "--u2", "1", "--usum", "1.5", "--svg",
             "nodir/r.svg"]),
}


# Cases whose tensor, sweep CSV or config input is at fault: the error
# names it (the config file, for a config case).
NAMES_INPUT_FILE = {
    case for case in MALFORMED
    if case.startswith(("tensor-", "sweep-csv-", "sweep-coeffs-x-",
                        "simulate-coeffs-w-", "config-"))}


# What the error says, for cases refused under a name: a non-finite
# config number at load under its section.key, a sweep CSV field or a
# region overlay under its column, a dBm flag under its name; an unknown
# config key under its section, an unknown section by its name, a repeated
# key or section by its name; half an overlay, or a noise variance given
# twice, under both; a tensor tagged for another receiver after the
# file's name, like every tensor fault; an area, a sum |c|^2 or a
# channel output beyond the largest float as an overflow, an overlay's
# under its flag or its sweep row.
SAYS = {"config-sweep-g-real-nan": "sweep.g_real_per_mw must be finite",
        "config-noise-sigma-sq-and-nsp": "noise.sigma_sq_w and noise.nsp",
        "config-link-key-repeated": "repeated key(s): memory",
        "config-sweep-section-repeated": "repeated key(s): sweep",
        "sweep-coeffs-x-holds-receiver-w":
            "t.json: holds receiver w's tensor, not receiver x's",
        "simulate-coeffs-w-holds-receiver-x":
            "t.json: holds receiver x's tensor, not receiver w's",
        "config-simulation-g-imag-inf":
            "simulation.g_imag_per_mw must be finite",
        "sweep-csv-field-not-finite": "ian1 must be finite",
        "region-awgn-nan": "awgn must be finite",
        "region-area-overflows": "area overflows a float",
        "region-area-not-a-number": "area overflows a float",
        "region-awgn-sum-overflows":
            "--awgn 1e+308: awgn box overflows a float",
        "region-awgn-area-overflows":
            "--awgn 1e+200: awgn box overflows a float",
        "region-ian-sum-overflows":
            "--ian1 1e+308, --ian2 1e+308: ian box overflows a float",
        "sweep-csv-awgn-box-overflows":
            "s.csv at 0 dBm: awgn 1e+308: awgn box overflows a float",
        "region-awgn-and-from-sweep": "or by --from-sweep, not both",
        "region-ian-and-from-sweep": "or by --from-sweep, not both",
        "simulate-output-overflows": "the channel output overflows a float "
                                     "at P1 10000000.0 W, P2 1e+305 W",
        "sweep-coeffs-x-center-tap-squared-overflows":
            "sum |c|^2 overflows a float",
        "sweep-coeffs-x-kappa-overflows": "sum |c|^2 overflows a float",
        "sweep-coeffs-x-side-tap-squared-overflows":
            "sum |c|^2 overflows a float",
        "simulate-p1-inf": "argument --p1-dbm: power in dBm must be finite",
        "sweep-p2-nan": "argument --p2-dbm: power in dBm must be finite",
        "sweep-power-nan": "argument --powers-dbm: power in dBm must be finite",
        "config-grid-size-not-an-integer":
            "unknown section(s): grid",
        "config-grid-samples-not-a-multiple-of-symbols":
            "unknown section(s): grid",
        "config-grid-size-not-a-power-of-two":
            "unknown section(s): grid",
        "config-grid-odd-samples-per-symbol":
            "unknown section(s): grid",
        "config-grid-no-symbols":
            "unknown section(s): grid",
        "region-ian1-without-ian2": "--ian1 and --ian2 go together",
        "region-ian2-without-ian1": "--ian1 and --ian2 go together",
        "region-out-in-missing-directory": "/out/nodir/r.json'",
        "sweep-svg-in-missing-directory": "/out/nodir/x.svg'",
        "region-svg-in-missing-directory": "/out/nodir/r.svg'",
        "config-simulation-seed-is-unknown":
            "unknown key(s) in section 'simulation': seed",
        "config-simulation-model-unknown":
            "unknown key(s) in section 'simulation': model"}


def _malformed_args(case, tmp_path):
    """MALFORMED[case]'s arguments, its input files written to tmp_path."""
    files, args = MALFORMED[case]
    for name, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text, encoding="utf-8")
    return [str(tmp_path / a[1:]) if a.startswith("@") else a for a in args]


class TestMalformedInputs:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_usage_error_with_one_line(self, case, tmp_path, capsys):
        args = _malformed_args(case, tmp_path)
        code = run(["--out-dir", str(tmp_path / "out"), "--quiet", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert ".tmp-" not in err, err  # an output is named, not its temp
        out = tmp_path / "out"  # a refused command leaves no file at all
        assert not out.exists() or list(out.iterdir()) == []
        assert [p for p in tmp_path.rglob("*") if ".tmp-" in p.name] == []
        if case in SAYS:
            assert SAYS[case] in err, err
        if case in NAMES_INPUT_FILE:
            at_fault = (".yaml",) if case.startswith("config-") else \
                (".json", ".csv", ".yaml")
            (path,) = [a for a in args if a.endswith(at_fault)]
            assert path in err, err

    @pytest.mark.parametrize("case", sorted(
        case for case in MALFORMED if case.startswith("tensor-")))
    def test_sweep_and_simulate_refuse_a_tensor_alike(self, case, tmp_path,
                                                      capsys):
        # One validator: sweep's numpy-free read and simulate's
        # CoeffTensor.load give the same line for the same file.
        args = _malformed_args(case, tmp_path)
        tensor = args[args.index("--coeffs-x") + 1]
        errors = []
        for command in (["sweep", "--powers-dbm", "0"],
                        ["simulate", "--n", "4"]):
            assert run(["--out-dir", str(tmp_path / "out"), "--quiet",
                        *command, "--coeffs-x", tensor]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and errors[0].count("\n") == 1


class TestReadme:
    def test_documented_flags_and_keys_exist(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        text = text[text.index("## CLI"):]
        options = {o for p in _parsers() for a in p._actions
                   for o in a.option_strings}
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))
        assert flags and flags <= options, flags - options
        keys = re.findall(r"`(?:(\w+)\.)?(\w+_(?:per_mw2?|dbm))`", text)
        assert keys
        for section, key in keys:
            allowed = (_SECTIONS[section] if section
                       else set().union(*_SECTIONS.values()))
            assert key in allowed, (section, key)

    def test_library_highlights_use_public_names(self):
        text = (REPO / "README.md").read_text(encoding="utf-8")
        section = text.split("## Library highlights", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        names = set(re.findall(r"\bxc\.(\w+)", block))
        assert names and names <= set(xpmcap.__all__), names - set(
            xpmcap.__all__)


class TestManifest:
    def test_argv_is_the_parsed_list(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["xpmcap", "--unrelated"])
        args = ["--out-dir", str(tmp_path), "--quiet", "region",
                "--u1", "1", "--u2", "1", "--usum", "1.5"]
        assert run(args) == 0
        manifest = json.loads((tmp_path / "region-manifest.json").read_text())
        assert manifest["argv"] == args


def _readme_recipe() -> list[list[str]]:
    """The commands of the README's "Reference figures" code block."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## Reference figures", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)
            for line in block.replace("\\\n", " ").splitlines()]


class TestReferenceFigures:
    def test_readme_recipe(self, tmp_path, monkeypatch):
        shutil.copytree(REPO / "configs", tmp_path / "configs")
        monkeypatch.chdir(tmp_path)
        commands = _readme_recipe()
        assert len(commands) == 4
        for argv in commands:
            assert argv[0] == "xpmcap"
            assert run(["--quiet", *argv[1:]]) == 0, argv
        out = tmp_path / "out"
        assert (out / "sweep.svg").read_text().startswith("<svg")
        row = next(r for r in read_sweep_csv(str(out / "sweep.csv"))
                   if r["p_dbm"] == 0.0)
        doc = json.loads((out / "region_0.json").read_text())
        assert max(x for x, _ in doc["vertices"]) == row["u1"]
        assert max(y for _, y in doc["vertices"]) == row["u2"]
        for p in ("-2.9", "0", "2"):
            assert "excess area" in (out / f"region_{p}.svg").read_text()


class TestBenchmarkSteps:
    """perfbench/steps.py replays the CLI with the names it imported
    wrapped in spans; deleting or renaming one of those names fails here."""

    def _step(self, tmp_path, *argv, env=()):
        path = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH"))
            if p)
        return subprocess.run(
            [sys.executable, str(REPO / "perfbench" / "steps.py"),
             "--spans", str(tmp_path / "spans.json"), *argv],
            capture_output=True, text=True, cwd=REPO,
            env={**os.environ, "PYTHONPATH": path, **dict(env)})

    def test_traced_cli_step(self, tmp_path):
        proc = self._step(tmp_path, "cli", "--quiet", "--out-dir",
                          str(tmp_path), "verify", "--suite", "dettrace",
                          "--out", "dettrace.json")
        assert proc.returncode == 0, proc.stderr
        spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
        assert {"cli.main", "verify.run_suite", "verify.dettrace"} <= {
            s["name"] for s in spans}

    def test_traced_region_step(self, tmp_path):
        proc = self._step(tmp_path, "cli", "--quiet", "--out-dir",
                          str(tmp_path), "region", "--u1", "0.39", "--u2",
                          "0.39", "--usum", "0.494233", "--out", "r.json",
                          "--svg", "r.svg", "--awgn", "0.39", "--ian1", "0.2",
                          "--ian2", "0.2")
        assert proc.returncode == 0, proc.stderr
        spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
        assert {"regions.build_region", "regions.dominant_face_midpoint",
                "regions.excess_area", "svgout.render_regions"} <= {
            s["name"] for s in spans}

    def test_traced_coeffs_step(self, tmp_path, config_path):
        # perfbench divides its per-layer coefficient metrics by the
        # number of pulses.samples calls: one per quadrature level, both
        # in this process when perfbench's pinned BLAS lets a child run.
        pinned = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS")}
        proc = self._step(tmp_path, "cli", "--config", config_path,
                          "--quiet", "--out-dir", str(tmp_path), "coeffs",
                          "--memory", "1", env=pinned)
        assert proc.returncode == 0, proc.stderr
        diagnostics = json.loads((tmp_path / "coeffs-manifest.json")
                                 .read_text())["diagnostics"]
        assert diagnostics["quad_workers"] == cpu_workers(2)
        spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
        names = [s["name"] for s in spans]
        assert {"coefficients.coefficient_tensor",
                "coefficients.to_json_dict"} <= set(names)
        samples = [s for s in spans if s["name"] == "pulses.samples"]
        assert len(samples) == names.count("pulses.fft") == 2
        assert sorted(s["n"] for s in samples) == [
            level["padded_n"] for level in diagnostics["levels"]]
        # perfbench sums coefficients.tensor_save_ms from these spans.
        written = {s["file"] for s in spans if s["name"] == "cli.write"}
        assert {"tensor_x.json", "tensor_w.json"} <= written
        assert sum(s["name"] == "cli.json_text" and s["tensor"]
                   for s in spans) == 2

    def _tensors(self, tmp_path):
        rng = np.random.default_rng(3)
        paths = []
        for user in ("x", "w"):
            values = 0.1 * (rng.standard_normal((3, 3, 3))
                            + 1j * rng.standard_normal((3, 3, 3)))
            path = tmp_path / f"tensor_{user}.json"
            path.write_text(json.dumps(CoeffTensor(
                memory=1, values=values).to_json_dict(user)))
            paths += [f"--coeffs-{user}", str(path)]
        return paths

    def test_traced_full_simulate_step(self, tmp_path):
        # perfbench computes channel.full_channel_s from these spans.
        proc = self._step(tmp_path, "cli", "--quiet", "--out-dir",
                          str(tmp_path), "simulate", "--model", "full",
                          "--n", "64", *self._tensors(tmp_path))
        assert proc.returncode == 0, proc.stderr
        spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
        assert {"channel.simulate_batch", "channel.full_channel",
                "channel.write_batch_csv"} <= {s["name"] for s in spans}
        # perfbench's coefficients.tensor_load_ms: receiver x's tensor is
        # the one simulate builds a CoeffTensor of.
        assert [s["name"] for s in spans].count(
            "coefficients.tensor_load") == 1

    def test_traced_tensor_sweep_step(self, tmp_path):
        # sweep reads its tensors without CoeffTensor.load.
        proc = self._step(tmp_path, "cli", "--quiet", "--out-dir",
                          str(tmp_path), "sweep", "--powers-dbm", "-5", "0",
                          *self._tensors(tmp_path))
        assert proc.returncode == 0, proc.stderr
        names = [s["name"] for s in json.loads(
            (tmp_path / "spans.json").read_text())["spans"]]
        assert "bounds.sweep" in names
        assert "coefficients.tensor_load" not in names

    def test_traced_ianmc_step(self, tmp_path):
        rng = np.random.default_rng(2)
        values = 0.01 * (rng.standard_normal((3, 3, 3))
                         + 1j * rng.standard_normal((3, 3, 3)))
        tensor = tmp_path / "tensor_x.json"
        tensor.write_text(json.dumps(CoeffTensor(
            memory=1, values=values).to_json_dict()))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "coeffs": str(tensor), "p1_dbm": 0.0, "p2_dbm": 0.0, "n": 600,
            "block_len": 60, "seed": 1, "out_dir": str(tmp_path)}))
        proc = self._step(tmp_path, "ianmc", str(spec))
        assert proc.returncode == 0, proc.stderr
        result = json.loads((tmp_path / "ianmc.json").read_text())
        assert result["blocks"] == 10 and result["estimate"] > 0
        # perfbench's wraps of bounds' channel kernels are the ones called.
        names = [s["name"] for s in json.loads(
            (tmp_path / "spans.json").read_text())["spans"]]
        assert names.count("channel.sample_cscg") == 2 * 10
        assert names.count("channel.interference_terms") == 10


class TestEntryPoint:
    def test_console_script_version(self):
        path = os.pathsep.join(
            p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "xpmcap.cli",
                               "--version"], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0

    def test_env_var_selects_no_config(self, tmp_path, monkeypatch):
        # --config is the one way to name a config file
        _, config_path = config_file(tmp_path, CONFIG + ZERO_G)
        monkeypatch.setenv("XPMCAP_CONFIG", config_path)
        code = run(["--out-dir", str(tmp_path), "--quiet", "region",
                    "--u1", "1", "--u2", "1", "--usum", "1.5"])
        assert code == 0
        manifest = json.loads((tmp_path / "region-manifest.json").read_text())
        assert manifest["config_path"] is None
