import json
import math
import os
import signal
import threading
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xpmcap import verify
from xpmcap.channel import BLOCK, cpu_workers, real_imag_decompose
from xpmcap.config import PowerPair
from xpmcap.errors import ConfigError, SampleBudgetError
from xpmcap.verify import (CheckReport, det_small, det_trace_check,
                           joint_covariance_check, moment_identity_check,
                           random_psd_matrix, run_suite,
                           single_user_covariance_check)

MW = 1e-3
N = 200_000


def _det2(a):
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def _det3(a):
    return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))


def _det4(a):
    total = 0.0
    for j in range(4):
        minor = [[a[r][c] for c in range(4) if c != j] for r in range(1, 4)]
        total += (-1.0) ** j * a[0][j] * _det3(minor)
    return total


# The unrolled cofactor expansions: det_small must match them bit for bit.
UNROLLED = {1: lambda a: a[0][0], 2: _det2, 3: _det3, 4: _det4}


class TestDetSmall:
    def test_matches_unrolled_expansions_bitwise(self):
        rng = np.random.default_rng(11)
        for i in range(4000):
            size = 1 + i % 4
            a = rng.standard_normal((size, size))
            if i % 8 >= 4:
                a = a @ a.T  # half of them PSD, as the checks see
            want = np.float64(UNROLLED[size](a.tolist()))
            assert np.float64(det_small(a)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(60,), (3, 5), ()])
    def test_stacks_equal_each_member_alone_bitwise(self, shape):
        rng = np.random.default_rng(len(shape))
        for size in (1, 2, 3, 4):
            stack = rng.standard_normal(shape + (size, size))
            want = np.array([UNROLLED[size](m.tolist())
                             for m in stack.reshape(-1, size, size)])
            got = np.asarray(det_small(stack))
            assert got.shape == shape
            assert got.tobytes() == want.tobytes()

    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        for size in (1, 2, 3, 4):
            a = rng.standard_normal((size, size))
            assert det_small(a) == pytest.approx(np.linalg.det(a), rel=1e-10)


class TestDetTrace:
    def test_identity_passes_with_equality(self):
        # AM-GM equality cases: the cofactor expansion gets these exactly,
        # where np.linalg.det returns 9.000000000000002 for 3 * I_2.
        for a, det in ((np.eye(2), 1.0), (3 * np.eye(2), 9.0),
                       (10 * np.eye(3), 1000.0)):
            report = det_trace_check(a)
            assert report.estimate == det
            assert report.bound == det
            assert report.verdict == "pass"

    def test_diagonal_example(self):
        report = det_trace_check(np.diag([1.0, 3.0]))
        assert report.estimate == 3.0
        assert report.bound == 4.0
        assert report.verdict == "pass"

    def test_thousand_random_psd_matrices(self):
        rng = np.random.default_rng(777)
        for _ in range(1000):
            a = random_psd_matrix(rng, int(rng.integers(2, 5)))
            assert det_trace_check(a).verdict == "pass"

    def test_stack_reports_its_least_margin_member(self):
        rng = np.random.default_rng(5)
        stack = np.array([random_psd_matrix(rng, 3) for _ in range(40)])
        alone = [det_trace_check(a) for a in stack]
        worst = max(alone, key=lambda r: r.estimate - r.bound)
        assert det_trace_check(stack, name="det-trace") == worst
        assert det_trace_check(stack[None, :]) == worst

    @pytest.mark.parametrize("bad", [np.diag([1.0, -1.0]),
                                     np.array([[1.0, 2.0], [0.0, 1.0]])])
    def test_one_bad_member_rejects_the_stack(self, bad):
        stack = np.array([np.eye(2), 2 * np.eye(2), bad, np.eye(2)])
        with pytest.raises(ConfigError):
            det_trace_check(stack)

    @pytest.mark.parametrize("a", [np.ones(3), np.ones((2, 3)),
                                   np.ones((4, 2, 3)), np.ones((0, 2, 2))])
    def test_non_square_or_empty_rejected(self, a):
        with pytest.raises(ConfigError, match="square"):
            det_trace_check(a)

    @pytest.mark.parametrize("seed", [12345, 1, 99])
    def test_random_psd_report_equals_per_matrix_loop(self, seed):
        # The per-matrix loop the stacked check replaced, spelled out with
        # the unrolled determinants: the oracle for the report's bytes.
        rng = np.random.default_rng(seed)
        worst = -math.inf
        for _ in range(1000):
            a = random_psd_matrix(rng, rng.integers(2, 5))
            n = a.shape[0]
            det = float(UNROLLED[n](a.tolist()))
            worst = max(worst, det - (float(np.trace(a)) / n) ** n)
        want = verify._report("dettrace-random-psd[1000]", 1000, worst, 0.0,
                              0.0, seed, "exact")
        got = verify._run_dettrace(N, seed)[2]()
        assert _report_bytes([got]) == _report_bytes([want])

    def test_non_psd_rejected(self):
        with pytest.raises(ConfigError):
            det_trace_check(np.diag([1.0, -1.0]))
        with pytest.raises(ConfigError):
            det_trace_check(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestSingleUserCovariance:
    def test_zero_coefficient_equality_case(self):
        report = single_user_covariance_check(0.0j, math.sqrt(2 * MW), MW, MW,
                                              N, seed=1)
        assert report.verdict == "pass"
        assert report.bound == pytest.approx((MW / 2 + MW) ** 2, rel=1e-12)
        assert report.estimate == pytest.approx(report.bound,
                                                abs=5 * report.stderr)

    def test_zero_interferer_reduces_to_equality(self):
        report = single_user_covariance_check(40.0 + 25.0j, 0.0, MW, MW, N,
                                              seed=2)
        assert report.bound == pytest.approx((MW / 2 + MW) ** 2, rel=1e-12)
        assert report.verdict == "pass"

    def test_reference_parameter_point(self):
        # g = 0.05j per mW, |w|^2 = 2 mW, p1 = 1 mW, sigma^2 = 1 mW
        report = single_user_covariance_check(50.0j, math.sqrt(2 * MW), MW,
                                              MW, 10 ** 6, seed=3)
        assert report.verdict == "pass"

    def test_asymmetric_split_strictly_inside_bound(self):
        gaps = []
        for split in (0.5, 0.25, 0.1):
            r = single_user_covariance_check(50.0j, math.sqrt(2 * MW), MW, MW,
                                             10 ** 6, seed=4, power_split=split)
            assert r.verdict == "pass"
            gaps.append(r.bound - r.estimate)
        # bound gets tighter as the split approaches the symmetric case
        assert gaps[0] < gaps[1] < gaps[2]

    def test_sample_budget(self):
        with pytest.raises(SampleBudgetError):
            single_user_covariance_check(0.0j, 0.0, MW, MW, 10, seed=1)

    def test_reproducible_given_seed(self):
        a = single_user_covariance_check(50.0j, 1.0, MW, MW, N, seed=11)
        b = single_user_covariance_check(50.0j, 1.0, MW, MW, N, seed=11)
        assert a == b


def _gens(seed, count):
    return [np.random.default_rng(s)
            for s in np.random.SeedSequence(seed).spawn(count)]


def _complex(re, im):
    v = np.empty(re.size, complex)
    v.real, v.imag = re, im
    return v


def _conv4_rows(n, seed, g, w, p1, sigma_sq, split):
    """conv4's rows built whole in memory from its seeds: the oracle."""
    xr, xi, *noise = _gens(seed, 4)
    x = _complex(math.sqrt(split * p1) * xr.standard_normal(n),
                 math.sqrt((1.0 - split) * p1) * xi.standard_normal(n))
    return np.vstack([v + math.sqrt(sigma_sq) * z.standard_normal(n)
                      for v, z in zip(real_imag_decompose(x, w, g), noise)])


def _conv6_rows(n, seed, g_x, g_w, pp, sigma_sq):
    """conv6's rows built whole in memory from its seeds: the oracle."""
    xr, xi, wr, wi, *noise = _gens(seed, 8)
    s1, s2 = math.sqrt(pp.p1 / 2.0), math.sqrt(pp.p2 / 2.0)
    x = _complex(s1 * xr.standard_normal(n), s1 * xi.standard_normal(n))
    w = _complex(s2 * wr.standard_normal(n), s2 * wi.standard_normal(n))
    rows = [*real_imag_decompose(x, w, g_x), *real_imag_decompose(w, x, g_w)]
    return np.vstack([v + math.sqrt(sigma_sq) * z.standard_normal(n)
                      for v, z in zip(rows, noise)])


def _streamed_rows(monkeypatch, check, *args, **kwargs):
    """The rows a check streams, captured block by block and joined."""
    seen = []

    def capture(n, blocks):
        seen.extend(b.copy() for b in blocks)
        assert all(b.shape[1] <= BLOCK for b in seen)
        return 0.0, 0.0

    monkeypatch.setattr(verify, "MIN_SAMPLES", 1)
    monkeypatch.setattr(verify, "_cov_det", capture)
    check(*args, **kwargs)
    return np.hstack(seen)


class TestConv4Signal:
    """conv4's streamed rows and report against its rows built whole in
    memory from the same seeds."""

    @pytest.mark.parametrize("n", [1, 65536, 200_003])
    @pytest.mark.parametrize("split", [0.3, 0.5, 0.8, 0.0, 1.0])
    def test_equals_whole_array_form_bitwise(self, n, split, monkeypatch):
        got = _streamed_rows(monkeypatch, single_user_covariance_check,
                             50.0j, 0.1, 2 * MW, MW, n, seed=n,
                             power_split=split)
        want = _conv4_rows(n, n, 50.0j, 0.1, 2 * MW, MW, split)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("split", [0.0, 0.5, 1.0])
    def test_report_equals_in_memory_oracle(self, split):
        # the oracle: np.cov of the whole rows, and of each of the 16
        # batches (the last n % 16 samples in none)
        n, args = 100_003, (20.0 + 35.0j, math.sqrt(MW), 2 * MW, 0.5 * MW)
        got = single_user_covariance_check(*args, n, seed=3, power_split=split)
        rows = _conv4_rows(n, 3, *args, split)
        batch = n // 16
        dets = np.array([det_small(np.cov(rows[:, i * batch:(i + 1) * batch],
                                          ddof=1)) for i in range(16)])
        assert got.estimate == pytest.approx(
            det_small(np.cov(rows, ddof=1)), rel=1e-12, abs=0.0)
        assert got.stderr == pytest.approx(
            np.std(dets, ddof=1) / 4.0, rel=1e-12, abs=0.0)


class TestJointCovariance:
    def test_zero_coefficients(self):
        pp = PowerPair(MW, MW)
        report = joint_covariance_check(0.0j, 0.0j, pp, MW, N, seed=5)
        assert report.verdict == "pass"
        # true determinant for independent blocks
        truth = (MW / 2 + MW) ** 2 * (MW / 2 + MW) ** 2
        assert report.estimate == pytest.approx(truth, rel=0.05)

    def test_zero_power_equality(self):
        pp = PowerPair(0.0, 0.0)
        report = joint_covariance_check(0.0j, 0.0j, pp, MW, N, seed=6)
        assert report.bound == pytest.approx(MW ** 4, rel=1e-12)
        assert report.verdict == "pass"

    def test_symmetric_nonzero_coefficients(self):
        pp = PowerPair(MW, MW)
        report = joint_covariance_check(30.0 + 40.0j, 30.0 + 40.0j, pp, MW,
                                        10 ** 6, seed=7)
        assert report.verdict == "pass"


class TestMomentIdentity:
    def test_cscg_ratio_near_one(self):
        report = moment_identity_check(MW, 10 ** 6, seed=8)
        assert report.verdict == "pass"
        assert report.estimate == pytest.approx(1.0, abs=0.01)

    def test_zero_power_trivially_passes(self):
        report = moment_identity_check(0.0, N, seed=9)
        assert report.verdict == "pass"
        assert report.estimate == 0.0

    def test_constant_modulus_fails_at_half(self, monkeypatch):
        # The identity is CSCG's: scaled to modulus sqrt(p), every sample
        # gives E|W|^4 = p^2, half of 2 (E|W|^2)^2.
        blocks = verify._noisy_blocks

        def constant_modulus(*args):
            for rows in blocks(*args):
                rows *= np.sqrt(MW) / np.hypot(*rows)
                yield rows

        monkeypatch.setattr(verify, "_noisy_blocks", constant_modulus)
        report = moment_identity_check(MW, N, seed=10)
        assert report.verdict == "fail"
        assert report.estimate == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n, estimate, stderr", [
        (10 ** 6, "0x1.fe707c7b8698bp-1", "0x1.2409868c03738p-9"),
        (2 * BLOCK + 123, "0x1.ffd9cf98d0e51p-1", "0x1.9b318003cf1b8p-8")])
    def test_bits_of_the_per_check_sampler(self, n, estimate, stderr):
        # Taken when the check had a sampler of its own: drawing through
        # _noisy_blocks keeps every bit, a partial last block included.
        report = moment_identity_check(MW, n, seed=8)
        assert (report.estimate.hex(), report.stderr.hex()) == (estimate,
                                                                stderr)


class TestSuiteRunner:
    def test_all_suites_pass(self):
        reports = run_suite("all", N, master_seed=99)
        assert len(reports) >= 8
        assert all(r.verdict == "pass" for r in reports)
        names = [r.name for r in reports]
        assert any("conv4" in n for n in names)
        assert any("conv6" in n for n in names)

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            run_suite("conv5", N, 1)

    def test_suite_alone_reproduces_its_rows_of_all(self):
        # A suite's seed is its place in the suite table, not in the
        # requested list.
        every = [r.to_dict() for r in run_suite("all", 100_000, 7)]
        rows = []
        for suite in ("dettrace", "conv4", "conv6", "moments"):
            alone = [r.to_dict() for r in run_suite(suite, 100_000, 7)]
            assert alone == [r for r in every
                             if r["name"].startswith(suite + "-")], suite
            rows += alone
        assert rows == every

    def test_reports_serialize(self):
        report = det_trace_check(np.eye(3))
        doc = report.to_dict()
        assert set(doc) == {"name", "n_samples", "estimate", "bound",
                            "stderr", "verdict", "seed", "kind"}
        assert isinstance(report, CheckReport)


def _report_bytes(reports) -> str:
    return json.dumps([r.to_dict() for r in reports])


class TestConcurrentSuite:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_reports_do_not_depend_on_worker_count(self, seed, monkeypatch):
        serial = [check() for i, name in
                  enumerate(("dettrace", "conv4", "conv6", "moments"))
                  for check in getattr(verify, f"_run_{name}")(100_000,
                                                               seed + i)]
        texts = {_report_bytes(serial)}
        for workers in (1, 2, 3):
            monkeypatch.setattr(verify, "cpu_workers", lambda k: workers)
            diagnostics = {}
            reports = run_suite("all", 100_000, seed, diagnostics)
            texts.add(_report_bytes(reports))
            assert list(diagnostics["check_s"]) == [r.name for r in reports]
        assert len(texts) == 1

    def test_worker_count_is_capped(self):
        assert cpu_workers(0) == 1
        assert cpu_workers(1) == 1
        assert 1 <= cpu_workers(7) <= 2

    def _record_pids(self, monkeypatch, tmp_path):
        """Each check's name and pid, one line per check appended
        to a file, since a forked child's lists stay in the child."""
        log = tmp_path / "pids.txt"
        for attr in ("det_trace_check", "single_user_covariance_check",
                     "joint_covariance_check", "moment_identity_check",
                     "_random_psd_check"):
            def record(*args, _inner=getattr(verify, attr), **kwargs):
                if "name" in kwargs:  # not the random PSD check's stacks
                    with open(log, "a") as fh:
                        fh.write(f"{kwargs['name']} {os.getpid()}\n")
                return _inner(*args, **kwargs)
            monkeypatch.setattr(verify, attr, record)
        return lambda: dict(line.split() for line in
                            log.read_text().splitlines())

    @staticmethod
    def _no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def _no_fork():
        raise AssertionError("os.fork called")

    def test_checks_split_by_cost_between_two_processes(self, monkeypatch,
                                                        tmp_path):
        # conv6 costs 8 normals per sample, conv4 4, moments 2 and dettrace
        # 0: taken costliest first, each check goes to the side of less
        # cost so far, a tie to this process.
        pids = self._record_pids(monkeypatch, tmp_path)
        monkeypatch.setattr(verify, "cpu_workers", lambda k: 2)
        diagnostics = {}
        reports = run_suite("all", 100_000, 4, diagnostics)
        here = {"conv6-equality-zero-power", "conv6-symmetric",
                "conv4-complex-g"}
        by_pid = pids()
        assert {name for name, pid in by_pid.items()
                if pid == str(os.getpid())} == here
        assert len(set(by_pid.values())) == 2
        names = [r.name for r in reports]
        assert set(by_pid) == set(names) and len(names) == 10
        assert [n.split("-")[0] for n in names] == \
            ["dettrace"] * 3 + ["conv4"] * 3 + ["conv6"] * 3 + ["moments"]
        assert diagnostics["check_workers"] == 2
        assert list(diagnostics["check_s"]) == names
        assert all(s > 0 for s in diagnostics["check_s"].values())
        self._no_child_left()

    @pytest.mark.parametrize("suite", ["dettrace", "moments"])
    def test_single_worker_runs_inline(self, suite, monkeypatch, tmp_path):
        pids = self._record_pids(monkeypatch, tmp_path)
        monkeypatch.setattr(verify, "cpu_workers", lambda k: max(1, min(k, 2)))
        monkeypatch.setattr(os, "fork", self._no_fork)
        diagnostics = {}
        run_suite(suite, 100_000, 1, diagnostics)
        assert set(pids().values()) == {str(os.getpid())}
        assert diagnostics["check_workers"] == 1

    def test_no_fork_runs_every_check_inline(self, monkeypatch):
        monkeypatch.setattr(verify, "cpu_workers", lambda k: 2)
        monkeypatch.delattr(os, "fork")
        diagnostics = {}
        assert len(run_suite("all", 100_000, 1, diagnostics)) == 10
        assert diagnostics["check_workers"] == 1

    def test_check_exception_propagates_unchanged(self, monkeypatch):
        # Both processes raise it; this process's own exception wins.
        error = RuntimeError("check broke")

        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(verify, "joint_covariance_check", broken)
        monkeypatch.setattr(verify, "cpu_workers", lambda k: 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as excinfo:
            run_suite("all", 100_000, 1)
        assert excinfo.value is error
        assert threading.active_count() == before
        self._no_child_left()

    def test_child_exception_keeps_its_type_and_message(self, monkeypatch):
        # The moments check runs in the child alone.
        def broken(*args, **kwargs):
            raise ConfigError("moments broke in the child")

        monkeypatch.setattr(verify, "moment_identity_check", broken)
        monkeypatch.setattr(verify, "cpu_workers", lambda k: 2)
        with pytest.raises(ConfigError, match="^moments broke in the child$"):
            run_suite("all", 100_000, 1)
        self._no_child_left()

    def test_dead_child_raises_naming_its_checks(self, monkeypatch):
        here = os.getpid()

        def killed(*args, **kwargs):
            assert os.getpid() != here, "moments ran in this process"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(verify, "moment_identity_check", killed)
        monkeypatch.setattr(verify, "cpu_workers", lambda k: 2)
        with pytest.raises(OSError) as excinfo:
            run_suite("all", 100_000, 1)
        assert str(excinfo.value) == (
            "the process running conv6-g0, conv4-equality-g0, conv4-imag-g, "
            "moments-cscg-1mW, dettrace-identity-2x2, dettrace-diag-1-3, "
            "dettrace-random-psd[1000] failed (killed by SIGKILL)")
        self._no_child_left()

    def test_sample_budget_error_propagates(self, monkeypatch):
        # Refused before the split: no process is forked.
        monkeypatch.setattr(verify, "cpu_workers", lambda k: 2)
        monkeypatch.setattr(os, "fork", self._no_fork)
        before = threading.active_count()
        with pytest.raises(SampleBudgetError):
            run_suite("all", 10, 1)
        assert threading.active_count() == before


class TestNoisyRows:
    """The streamed rows equal the whole-array construction bit for bit."""

    # 40977 = 5 * 8192 + 17: no whole number of sub-blocks
    @pytest.mark.parametrize("n", [1000, BLOCK, 2 * BLOCK + 123, 40_977])
    def test_joint_rows_equal_whole_array_form(self, n, monkeypatch):
        args = (30.0 + 40.0j, -5.0 + 2.0j, PowerPair(MW, 2 * MW), 0.7 * MW)
        got = _streamed_rows(monkeypatch, joint_covariance_check, *args, n,
                             seed=n)
        assert got.tobytes() == _conv6_rows(n, n, *args).tobytes()

    @pytest.mark.parametrize("n", [777, 3 * BLOCK - 1])
    def test_scalar_interferer_equals_full_array(self, n, monkeypatch):
        w = 0.3 - 0.8j
        got = _streamed_rows(monkeypatch, single_user_covariance_check,
                             50.0j, w, MW, 1.3 * MW, n, seed=1)
        want = _conv4_rows(n, 1, 50.0j, np.full(n, w), MW, 1.3 * MW, 0.5)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gs, pp", [
        ((30.0 + 40.0j, -5.0 + 2.0j), PowerPair(0.0, 0.0)),
        ((0.0j, 0.0j), PowerPair(0.0, 0.0)),
        ((0.0j, 0.0j), PowerPair(MW, 2 * MW))])
    def test_joint_rows_at_zero_power_or_coefficients(self, gs, pp,
                                                      monkeypatch):
        # At zero power the oracle's inputs are 0 * N(0, 1), -0.0 for a
        # negative draw, where undrawn inputs hold +0.0: the noise on every
        # row erases the sign. At g = 0 both maps pass their input through.
        args = (*gs, pp, 0.7 * MW)
        got = _streamed_rows(monkeypatch, joint_covariance_check, *args,
                             BLOCK + 123, seed=2)
        assert got.tobytes() == _conv6_rows(BLOCK + 123, 2, *args).tobytes()


class TestWorkingSet:
    """What the streamed checks draw and hold, beyond their rows."""

    class Counting:
        def __init__(self, gen):
            self.gen, self.drawn = gen, 0

        def standard_normal(self, *args, **kwargs):
            z = self.gen.standard_normal(*args, **kwargs)
            self.drawn += z.size
            return z

    def counting_streams(self, monkeypatch) -> list:
        """The streams the next check spawns, each counting its draws."""
        gens, streams = [], verify._streams

        def counting(seed, count):
            gens.extend(map(self.Counting, streams(seed, count)))
            return gens

        monkeypatch.setattr(verify, "_streams", counting)
        return gens

    def test_zero_power_draws_only_the_noise(self, monkeypatch):
        gens, n = self.counting_streams(monkeypatch), 150_000
        joint_covariance_check(0.0j, 0.0j, PowerPair(0.0, 0.0), MW, n, seed=3)
        # x's and w's quadratures, then the four rows' noise
        assert [g.drawn for g in gens] == [0] * 4 + [n] * 4

    def test_zero_noise_is_not_drawn(self, monkeypatch):
        gens, n = self.counting_streams(monkeypatch), 150_000
        moment_identity_check(MW, n, seed=3)
        # w's quadratures, then its two rows' noise of variance 0
        assert [g.drawn for g in gens] == [n, n, 0, 0]

    def test_joint_check_holds_little_beyond_its_rows(self):
        args = (30.0 + 40.0j, 30.0 + 40.0j, PowerPair(MW, MW), MW)
        joint_covariance_check(*args, 100_000, seed=7)  # one-time imports
        tracemalloc.start()
        try:
            joint_covariance_check(*args, 10 ** 6, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the four BLOCK-long float rows, and a quarter of that for the rest
        assert peak < 1.25 * 4 * BLOCK * 8


class TestCoMoments:
    """Co-moments merged over blocks against np.cov of the whole sample."""

    @settings(max_examples=100, deadline=None)
    @given(k=st.sampled_from([1, 2, 4]), n=st.integers(2, 4000),
           seed=st.integers(0, 2 ** 32 - 1),
           cuts=st.lists(st.floats(0.0, 1.0), max_size=12))
    def test_merged_over_block_splits_equal_np_cov(self, k, n, seed, cuts):
        rng = np.random.default_rng(seed)
        # correlated rows with offsets, as the checks' quadratures are
        sample = (rng.standard_normal((k, k)) @ rng.standard_normal((k, n))
                  + rng.uniform(-3.0, 3.0, (k, 1)))
        edges = sorted({0, n, *(int(c * n) for c in cuts)})
        count, mean, m2 = reduce(verify._merge, (
            verify._comoments(sample[:, a:b].copy())
            for a, b in zip(edges, edges[1:])))
        want = np.atleast_2d(np.cov(sample, ddof=1))
        assert count == n
        assert np.abs(m2 / (n - 1) - want).max() <= 1e-12 * np.abs(want).max()
        assert np.allclose(mean, sample.mean(axis=1), rtol=1e-12, atol=1e-12)

    def test_peak_memory_does_not_grow_with_the_sample(self):
        peaks = []
        for n in (200_000, 1_000_000):
            tracemalloc.start()
            try:
                joint_covariance_check(30.0 + 40.0j, 30.0 + 40.0j,
                                       PowerPair(MW, MW), MW, n, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 1_000_000
