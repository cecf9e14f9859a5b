"""The import contract: a CLI process imports only the library layers its
command runs, the names perfbench/steps.py wraps stay attributes of
xpmcap.cli, and the package resolves its public names on first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xpmcap
import xpmcap.cli as climod

REPO = Path(__file__).resolve().parents[1]

# `python -m xpmcap.cli ARGS`, which prints at exit, as its last line of
# stdout, the names of every module the process imported.
RUN_CLI = ("import atexit, json, runpy, sys\n"
           "atexit.register(lambda: print(json.dumps(sorted(sys.modules))))\n"
           "runpy.run_module('xpmcap.cli', run_name='__main__', "
           "alter_sys=True)\n")

SWEEP_CSV = ("p_dbm,u1,u2,u_sum,awgn,ian1,ian2\n"
             "0,0.39,0.39,0.494233,0.39,0.2,0.2\n")


def _fresh(cwd, *argv):
    """Run python argv in a fresh interpreter on src."""
    path = os.pathsep.join(
        p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


def _modules(proc) -> set[str]:
    """The modules a process imported, from its last line of stdout."""
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli(cwd, *args):
    proc = _fresh(cwd, "-c", RUN_CLI, *args)
    return proc, _modules(proc)


def _layers(modules):
    return {m for m in modules if m.startswith("xpmcap.")}


BASE_LAYERS = {"xpmcap.config", "xpmcap.errors", "xpmcap.pulses"}


class TestImportContract:
    def test_import_cli_loads_no_numpy_or_yaml(self, tmp_path):
        proc = _fresh(tmp_path, "-c", "import json, sys, xpmcap.cli\n"
                      "print(json.dumps(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        modules = _modules(proc)
        assert not {"numpy", "yaml"} & modules
        assert _layers(modules) == BASE_LAYERS | {"xpmcap.cli"}

    def test_region_from_sweep_loads_no_numpy_or_yaml(self, tmp_path):
        (tmp_path / "s.csv").write_text(SWEEP_CSV, encoding="utf-8")
        proc, modules = _cli(tmp_path, "--quiet", "region", "--from-sweep",
                             "s.csv", "--at-dbm", "0", "--svg", "r.svg")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "region.json").exists()
        assert "excess area" in (tmp_path / "r.svg").read_text()
        assert not {"numpy", "yaml"} & modules
        assert _layers(modules) == BASE_LAYERS | {
            "xpmcap.regions", "xpmcap.svgout", "xpmcap.sweepcsv"}

    def test_version_loads_no_numpy_or_yaml(self, tmp_path):
        proc, modules = _cli(tmp_path, "--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(xpmcap.__version__ + "\n")
        assert not {"numpy", "yaml"} & modules

    def test_usage_error_loads_no_numpy_or_yaml(self, tmp_path):
        proc, modules = _cli(tmp_path, "region", "--u1")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1, proc.stderr
        assert not {"numpy", "yaml"} & modules

    def test_coeffs_loads_numpy_and_its_own_layers(self, tmp_path):
        # A check that the test sees an import at all.
        proc, modules = _cli(tmp_path, "--quiet", "coeffs", "--memory", "0")
        assert proc.returncode == 0, proc.stderr
        assert "numpy" in modules
        assert _layers(modules) == BASE_LAYERS | {
            "xpmcap.coefficients", "xpmcap.tensorjson", "xpmcap.workers"}

    def test_verify_loads_no_coefficient_engine(self, tmp_path):
        # channel names CoeffTensor in annotations only.
        proc, modules = _cli(tmp_path, "--quiet", "verify", "--suite",
                             "dettrace")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "verify-report.json").exists()
        assert _layers(modules) == BASE_LAYERS | {
            "xpmcap.channel", "xpmcap.verify", "xpmcap.workers"}

    def test_verify_all_loads_no_thread_pool(self, tmp_path):
        # Its checks run in two processes, not on a thread pool.
        proc, modules = _cli(tmp_path, "--quiet", "verify", "--suite", "all",
                             "--samples", "100000")
        assert proc.returncode == 0, proc.stderr
        assert "xpmcap.verify" in modules
        assert not {m for m in modules if m.startswith("concurrent")}

    def test_tensor_sweep_loads_no_numpy_or_yaml(self, tmp_path):
        tensor = xpmcap.CoeffTensor(memory=1, values=[
            [[0.01j * (9 * l + 3 * m + p) for p in range(3)]
             for m in range(3)] for l in range(3)])
        for user, name in (("x", "t.json"), ("w", "w.json")):
            (tmp_path / name).write_text(json.dumps(
                tensor.to_json_dict(user)))
        proc, modules = _cli(tmp_path, "--quiet", "sweep", "--powers-dbm",
                             "-5", "0", "--coeffs-x", "t.json", "--coeffs-w",
                             "w.json", "--json", "s.json", "--svg", "s.svg")
        assert proc.returncode == 0, proc.stderr
        assert len(json.loads((tmp_path / "s.json").read_text())) == 2
        assert not {"numpy", "yaml"} & modules
        assert _layers(modules) == BASE_LAYERS | {
            "xpmcap.bounds", "xpmcap.svgout", "xpmcap.sweepcsv",
            "xpmcap.tensorjson"}

    def test_config_sweep_loads_yaml_but_no_numpy(self, tmp_path):
        (tmp_path / "g.yaml").write_text(CENTER_TAPS, encoding="utf-8")
        proc, modules = _cli(tmp_path, "--quiet", "--config", "g.yaml",
                             "sweep", "--powers-dbm", "0")
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "sweep.csv").exists()
        assert "yaml" in modules and "numpy" not in modules

    def test_bounds_loads_numpy_when_the_monte_carlo_runs(self, tmp_path):
        # The tensor's module loads numpy; the call loads the channel
        # kernels, and binds bounds' names to them.
        proc = _fresh(tmp_path, "-c", "import json, sys\n"
                      "import xpmcap.bounds as bounds\n"
                      "seen = [sorted(sys.modules)]\n"
                      "from xpmcap import CoeffTensor, PowerPair\n"
                      "t = CoeffTensor(memory=0, values=[[[0.1j]]])\n"
                      "seen.append(sorted(sys.modules))\n"
                      "bounds.interference_variance_mc(\n"
                      "    t, PowerPair(1.0, 1.0), 40, seed=1, blocks=4)\n"
                      "from xpmcap import channel\n"
                      "assert bounds.sample_cscg is channel.sample_cscg\n"
                      "assert bounds.interference_terms is \\\n"
                      "    channel.interference_terms\n"
                      "print(json.dumps(seen))")
        assert proc.returncode == 0, proc.stderr
        at_import, before_call = json.loads(proc.stdout.splitlines()[-1])
        assert not {"numpy", "xpmcap.channel"} & set(at_import)
        assert _layers(at_import) == BASE_LAYERS | {"xpmcap.bounds",
                                                    "xpmcap.sweepcsv"}
        assert "xpmcap.channel" not in before_call


# The names perfbench/steps.py wraps as attributes of xpmcap.cli
# (CLI_CALLS), each with the module its span is named after.
CLI_CALLS = {
    "coefficient_tensor": "coefficients", "sweep": "bounds",
    "sweep_csv": "bounds", "sweep_rows": "bounds",
    "read_sweep_csv": "bounds", "build_region": "regions",
    "dominant_face_midpoint": "regions", "excess_area": "regions",
    "render_curves": "svgout", "render_regions": "svgout",
    "simulate_batch": "channel", "write_batch_csv": "channel",
    "run_suite": "verify",
}

CENTER_TAPS = ("sweep: {g_real_per_mw: 0, g_abs_sq_per_mw2: 0}\n"
               "simulation: {g_real_per_mw: 0, g_imag_per_mw: 0.05}\n")
SWEEP = ["--config", "@g.yaml", "sweep", "--powers-dbm", "0", "--json",
         "s.json", "--svg", "s.svg"]
REGION = ["region", "--u1", "1", "--u2", "1", "--usum", "1.5", "--awgn",
          "0.5", "--svg", "r.svg"]
SIMULATE = ["--config", "@g.yaml", "simulate", "--n", "16"]

# A command that calls each name.
CALLS_IT = {
    "coefficient_tensor": ["coeffs"], "sweep": SWEEP, "sweep_csv": SWEEP,
    "sweep_rows": SWEEP, "render_curves": SWEEP,
    "read_sweep_csv": ["region", "--from-sweep", "@s.csv", "--at-dbm", "0"],
    "build_region": REGION, "dominant_face_midpoint": REGION,
    "excess_area": REGION, "render_regions": REGION,
    "simulate_batch": SIMULATE, "write_batch_csv": SIMULATE,
    "run_suite": ["verify", "--suite", "dettrace"],
}


class _Called(Exception):
    pass


class TestAttributeContract:
    def test_names_resolve_before_main(self, tmp_path):
        script = ("import importlib, json, sys, xpmcap.cli as cli\n"
                  "calls = json.loads(sys.argv[1])\n"
                  "print(json.dumps(sorted(name for name, module in "
                  "calls.items() if getattr(cli, name) is not getattr("
                  "importlib.import_module('xpmcap.' + module), name))))\n")
        proc = _fresh(tmp_path, "-c", script, json.dumps(CLI_CALLS))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == []

    @pytest.mark.parametrize("name", sorted(CLI_CALLS))
    def test_replacement_set_before_main_is_called(self, name, tmp_path,
                                                   monkeypatch):
        (tmp_path / "g.yaml").write_text(CENTER_TAPS, encoding="utf-8")
        (tmp_path / "s.csv").write_text(SWEEP_CSV, encoding="utf-8")

        def replacement(*args, **kwargs):
            raise _Called(name)

        # As in a fresh process: the name not bound by an earlier main().
        monkeypatch.delitem(vars(climod), name, raising=False)
        monkeypatch.setattr(climod, name, replacement)
        args = [str(tmp_path / a[1:]) if a.startswith("@") else a
                for a in CALLS_IT[name]]
        with pytest.raises(_Called):
            climod.main(["--quiet", "--out-dir", str(tmp_path), *args])

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            climod.no_such_name


# xpmcap.__all__ when the package imported every layer eagerly, by module,
# less regions.intersect, which excess_area absorbed,
# NoDominantFaceError, which dominant_face_midpoint's None replaced, and
# bounds.interference_variance, whose P1 P2^2 kappa sweep computes inline.
PUBLIC = {
    "bounds": ["BoundSet", "EffectiveCoefficient", "awgn_capacity",
               "evaluate_bounds", "fit_cubic_interference",
               "fit_effective_coefficient", "ian_rate",
               "interference_variance_mc", "outer_bound_sum",
               "outer_bound_u1", "outer_bound_u2", "sweep"],
    "channel": ["SampleBatch", "full_channel", "real_imag_decompose",
                "sample_cscg", "simulate_batch", "spawn_seeds"],
    "coefficients": ["CoeffTensor", "coefficient_tensor"],
    "config": ["LinkParams", "NoiseParams", "PowerPair",
               "ase_noise_variance", "dbm_to_watts", "effective_length",
               "load_config"],
    "errors": ["BoundDomainError", "ConfigError", "GridError",
               "NumericalError", "QuadratureError", "SampleBudgetError",
               "ToolkitError"],
    "pulses": ["PulseShape"],
    "regions": ["Region2D", "build_region", "dominant_face_midpoint",
                "excess_area"],
    "verify": ["CheckReport", "det_trace_check", "joint_covariance_check",
               "moment_identity_check", "run_suite",
               "single_user_covariance_check"],
}


class TestPackageApi:
    def test_all_is_unchanged(self):
        assert xpmcap.__all__ == ["__version__", *(
            name for names in PUBLIC.values() for name in names)]

    @pytest.mark.parametrize("module", sorted(PUBLIC))
    def test_names_resolve_to_their_module_objects(self, module):
        mod = importlib.import_module(f"xpmcap.{module}")
        for name in PUBLIC[module]:
            assert getattr(xpmcap, name) is getattr(mod, name), name
            assert name in dir(xpmcap), name

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            xpmcap.no_such_name

    def test_submodules_import_by_name(self, tmp_path):
        proc = _fresh(
            tmp_path, "-c", "import json, sys\n"
            "from xpmcap import coefficients, verify\n"
            "from xpmcap import *\n"
            "assert coefficients is sys.modules['xpmcap.coefficients']\n"
            "assert verify is sys.modules['xpmcap.verify']\n"
            "assert run_suite is verify.run_suite\n"
            "print(json.dumps(sorted(sys.modules)))")
        assert proc.returncode == 0, proc.stderr
        assert "xpmcap.regions" in _modules(proc)
