import math

import numpy as np
import pytest

from xpmcap.config import PowerPair
from xpmcap.errors import ConfigError, SampleBudgetError
from xpmcap.verify import (CheckReport, det_small, det_trace_check,
                           joint_covariance_check, moment_identity_check,
                           random_psd_matrix, run_suite,
                           single_user_covariance_check)

MW = 1e-3
N = 200_000


class TestDetSmall:
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

    def test_constant_modulus_fails_at_half(self):
        report = moment_identity_check(MW, N, seed=10,
                                       distribution="constant-modulus")
        assert report.verdict == "fail"
        assert report.estimate == pytest.approx(0.5, abs=1e-12)


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

    def test_reports_serialize(self):
        report = det_trace_check(np.eye(3))
        doc = report.to_dict()
        assert set(doc) == {"name", "n_samples", "estimate", "bound",
                            "stderr", "verdict", "seed", "kind"}
        assert isinstance(report, CheckReport)
