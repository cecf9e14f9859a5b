import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xpmcap.bounds import (BoundSet, EffectiveCoefficient, awgn_capacity,
                           evaluate_bounds,
                           fit_cubic_interference, fit_effective_coefficient,
                           ian_rate, interference_variance_mc, outer_bound_sum,
                           outer_bound_u1, outer_bound_u2, read_sweep_csv,
                           sweep, sweep_csv)
from xpmcap.coefficients import CoeffTensor
from xpmcap.config import PowerPair, dbm_to_watts
from xpmcap.errors import BoundDomainError, ConfigError, SampleBudgetError
from xpmcap.tensorjson import sum_abs_sq

SIGMA_SQ = 1.0e-3  # 2 sigma^2 = 2.0 mW, the calibrated default
ZERO = EffectiveCoefficient()


def coeff(g_real_per_mw, g_abs_sq_per_mw2):
    return EffectiveCoefficient(g_real=g_real_per_mw * 1e3,
                                g_abs_sq=g_abs_sq_per_mw2 * 1e6)


class TestAwgnCapacity:
    @pytest.mark.parametrize("p_dbm,expected", [
        (-20.0, 0.0071955014),
        (-5.0, 0.2117771276),
        (10.3, 2.6684814612),
    ])
    def test_reference_curve_points(self, p_dbm, expected):
        rate = awgn_capacity(dbm_to_watts(p_dbm), SIGMA_SQ)
        assert rate == pytest.approx(expected, abs=1e-9)

    def test_zero_power(self):
        assert awgn_capacity(0.0, SIGMA_SQ) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            awgn_capacity(-1.0, SIGMA_SQ)
        with pytest.raises(ConfigError):
            awgn_capacity(1e-3, 0.0)


class TestSingleUserBounds:
    def test_reduces_to_awgn_at_zero_coefficient(self):
        pp = PowerPair(2e-3, 3e-3)
        assert outer_bound_u1(pp, ZERO, SIGMA_SQ) == \
            awgn_capacity(pp.p1, SIGMA_SQ)

    def test_reduces_to_awgn_at_zero_interferer_power(self):
        pp = PowerPair(2e-3, 0.0)
        g = coeff(0.05, 0.01)
        assert outer_bound_u1(pp, g, SIGMA_SQ) == awgn_capacity(pp.p1, SIGMA_SQ)

    def test_green_curve_family_point(self):
        # effective pair that reproduces the published bound curve
        p = dbm_to_watts(5.2)
        g = coeff(0.0700 / 2, 1.109e-4 / 2)
        u1 = outer_bound_u1(PowerPair(p, p), g, SIGMA_SQ)
        assert u1 == pytest.approx(1.60446, abs=5e-3)

    def test_u2_swaps_roles(self):
        pp = PowerPair(1e-3, 4e-3)
        g = coeff(0.03, 1e-4)
        assert outer_bound_u2(pp, g, SIGMA_SQ) == \
            outer_bound_u1(PowerPair(4e-3, 1e-3), g, SIGMA_SQ)

    def test_negative_bracket_rejected(self):
        g = EffectiveCoefficient(g_real=-1e4, g_abs_sq=0.0)
        with pytest.raises(BoundDomainError):
            outer_bound_u1(PowerPair(1e-3, 1e-3), g, SIGMA_SQ)

    def test_strictly_increasing_in_p1(self):
        g = coeff(0.035, 5.5e-5)
        rates = [outer_bound_u1(PowerPair(p * 1e-3, 1e-3), g, SIGMA_SQ)
                 for p in np.linspace(0.1, 10, 50)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_nondecreasing_in_interferer_power_for_nonneg_g_real(self):
        g = coeff(0.035, 5.5e-5)
        rates = [outer_bound_u1(PowerPair(1e-3, p * 1e-3), g, SIGMA_SQ)
                 for p in np.linspace(0.0, 10, 50)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestSumBound:
    def test_collapses_to_double_rate_without_coefficients(self):
        pp = PowerPair(2e-3, 2e-3)
        u1 = outer_bound_u1(pp, ZERO, SIGMA_SQ)
        s = outer_bound_sum(pp, ZERO, ZERO, SIGMA_SQ)
        assert s == pytest.approx(2 * u1, rel=1e-12)

    def test_forced_unit_rates_give_two_log2_three(self):
        # u1 = u2 = 1 with each extra term 1/2
        p = 2 * SIGMA_SQ
        g_abs = 0.5 / p ** 2
        g = EffectiveCoefficient(g_real=-g_abs * p, g_abs_sq=g_abs)
        pp = PowerPair(p, p)
        assert outer_bound_u1(pp, g, SIGMA_SQ) == pytest.approx(1.0, abs=1e-12)
        s = outer_bound_sum(pp, g, g, SIGMA_SQ)
        assert s == pytest.approx(2 * math.log2(3.0), abs=1e-12)

    @settings(max_examples=300)
    @given(st.integers(min_value=0, max_value=10 ** 9))
    def test_never_below_individual_sum(self, seed):
        rng = np.random.default_rng(seed)
        pp = PowerPair(*rng.uniform(0.0, 5e-3, size=2))
        gx = EffectiveCoefficient(rng.uniform(-20, 80), rng.uniform(0, 2e4))
        gw = EffectiveCoefficient(rng.uniform(-20, 80), rng.uniform(0, 2e4))
        s2 = rng.uniform(0.2e-3, 3e-3)
        u1 = outer_bound_u1(pp, gx, s2)
        u2 = outer_bound_u2(pp, gw, s2)
        assert outer_bound_sum(pp, gx, gw, s2) >= u1 + u2 - 1e-12


class TestJensenDirection:
    def test_log_of_mean_dominates_mean_of_log(self):
        # concavity step used to close the single-user bound
        rng = np.random.default_rng(12345)
        for _ in range(1000):
            k = rng.integers(2, 9)
            q = rng.uniform(0.0, 5e-3, size=k)
            prob = rng.dirichlet(np.ones(k))
            g_real = rng.uniform(0.0, 80.0)
            g_abs = rng.uniform(0.0, 2e4)
            a = rng.uniform(0.1, 5.0)
            f = 1.0 + 2 * g_real * q + 2 * g_abs * q ** 2
            lhs = float(np.sum(prob * np.log2(1.0 + a * f)))
            rhs = math.log2(1.0 + a * float(np.sum(prob * f)))
            assert lhs <= rhs + 1e-12


class TestInterferenceVariance:
    def test_analytic_matches_monte_carlo(self):
        rng = np.random.default_rng(77)
        side = 5
        values = 5.0 * (rng.standard_normal((side,) * 3)
                        + 1j * rng.standard_normal((side,) * 3))
        coeffs = CoeffTensor(memory=2, values=values)
        pp = PowerPair(1e-3, 2e-3)
        # sweep's analytic term P1 P2^2 kappa, kappa = sum |c|^2
        analytic = pp.p1 * pp.p2 ** 2 * sum_abs_sq(values.ravel().tolist())
        estimate, stderr = interference_variance_mc(coeffs, pp, 10 ** 6, 99)
        assert abs(estimate - analytic) <= 5 * stderr

    def test_mc_sample_budget(self):
        coeffs = CoeffTensor(memory=2,
                             values=np.ones((5, 5, 5), complex))
        with pytest.raises(SampleBudgetError):
            interference_variance_mc(coeffs, PowerPair(1e-3, 1e-3), 10, 1)

    @pytest.mark.parametrize("blocks", [1, 0, -1])
    def test_mc_needs_two_blocks(self, blocks):
        coeffs = CoeffTensor(memory=1,
                             values=np.ones((3, 3, 3), complex))
        with pytest.raises(SampleBudgetError):
            interference_variance_mc(coeffs, PowerPair(1e-3, 1e-3), 10 ** 4,
                                     1, blocks=blocks)


class TestIanRate:
    def test_no_interference_is_awgn(self):
        pp = PowerPair(1e-3, 1e-3)
        assert ian_rate(pp, SIGMA_SQ, 0.0) == awgn_capacity(pp.p1, SIGMA_SQ)

    def test_cubic_interference_peak(self):
        kappa = fit_cubic_interference(-3.8, SIGMA_SQ)
        assert kappa == pytest.approx(13.80e6, rel=1e-3)  # 13.80 / mW^2
        grid = np.arange(-15.0, 5.2001, 0.01)
        rates = [ian_rate(PowerPair(dbm_to_watts(d), dbm_to_watts(d)),
                          SIGMA_SQ, kappa * dbm_to_watts(d) ** 3)
                 for d in grid]
        peak = int(np.argmax(rates))
        assert grid[peak] == pytest.approx(-3.8, abs=0.05)
        assert rates[peak] == pytest.approx(0.19, abs=0.01)

    def test_rate_vanishes_at_high_power(self):
        kappa = fit_cubic_interference(-3.8, SIGMA_SQ)
        p = dbm_to_watts(40.0)
        assert ian_rate(PowerPair(p, p), SIGMA_SQ, kappa * p ** 3) < 1e-4

    def test_single_interior_maximum(self):
        kappa = fit_cubic_interference(-3.8, SIGMA_SQ)
        grid = np.arange(-20.0, 10.0, 0.05)
        rates = np.array([ian_rate(PowerPair(dbm_to_watts(d), dbm_to_watts(d)),
                                   SIGMA_SQ, kappa * dbm_to_watts(d) ** 3)
                          for d in grid])
        signs = np.sign(np.diff(rates))
        flips = np.sum(np.abs(np.diff(signs)) > 0)
        assert flips == 1  # exactly one interior maximum


class TestEffectiveCoefficientFit:
    def test_two_point_fit_recovers_published_pair(self):
        points = [(5.2, 1.60445901319503), (17.2, 7.04061856480258)]
        g = fit_effective_coefficient(points, SIGMA_SQ)
        a = 2 * g.g_real / 1e3        # back to 1/mW
        b = 2 * g.g_abs_sq / 1e6      # back to 1/mW^2
        assert a == pytest.approx(0.0700, abs=5e-4)
        assert b == pytest.approx(1.109e-4, abs=5e-6)
        # published pair is not realizable by any complex number
        assert not g.is_physical

    def test_modulus_enforcement(self):
        # |g|^2 >= g_real^2 is reported by is_physical, not enforced:
        # fitted pairs may break it, and from_complex cannot.
        assert not EffectiveCoefficient(g_real=1.0, g_abs_sq=0.5).is_physical
        with pytest.raises(ConfigError):
            EffectiveCoefficient(g_real=1.0, g_abs_sq=-0.5)
        g = EffectiveCoefficient.from_complex(3 + 4j)
        assert g.g_real == 3.0
        assert g.g_abs_sq == pytest.approx(25.0)
        assert g.is_physical


class TestBoundSetAndSweep:
    def test_boundset_validation(self):
        with pytest.raises(ConfigError):
            BoundSet(u1=1.0, u2=1.0, u_sum=1.5, awgn1=1.0, awgn2=1.0,
                     ian1=0.5, ian2=0.5, at=PowerPair(1e-3, 1e-3))
        with pytest.raises(ConfigError):
            BoundSet(u1=-0.1, u2=1.0, u_sum=2.0, awgn1=1.0, awgn2=1.0,
                     ian1=0.5, ian2=0.5, at=PowerPair(1e-3, 1e-3))

    def test_sweep_awgn_column_anchors(self):
        powers = [-20.0, -5.0, 10.3]
        rows = sweep(powers, ZERO, SIGMA_SQ)
        got = [b.awgn1 for b in rows]
        assert got == pytest.approx([0.00720, 0.21178, 2.66848], abs=5e-5)
        # with zero coefficients every column collapses to the linear bound
        for b in rows:
            assert b.u1 == b.awgn1
            assert b.ian1 == b.awgn1
            assert b.u_sum == pytest.approx(b.u1 + b.u2, abs=1e-12)

    def test_sweep_monotone_u1(self):
        g = coeff(0.035, 5.5e-5)
        rows = sweep(list(np.linspace(-20, 15, 71)), g, SIGMA_SQ)
        u1 = [b.u1 for b in rows]
        assert all(b > a for a, b in zip(u1, u1[1:]))

    def test_sweep_with_cubic_interference(self):
        kappa = fit_cubic_interference(-3.8, SIGMA_SQ)
        rows = sweep([-3.8], ZERO, SIGMA_SQ, kappa=kappa)
        assert rows[0].ian1 == pytest.approx(0.1877, abs=1e-3)
        assert rows[0].ian2 == rows[0].ian1

    def test_empty_power_list_rejected(self):
        with pytest.raises(ConfigError):
            sweep([], ZERO, SIGMA_SQ)

    def test_asymmetric_needs_p2(self):
        # A sweep is asymmetric exactly when p2_dbm is given.
        powers = [-5.0, 0.0, 5.0]
        g = coeff(0.035, 5.5e-5)
        fixed = sweep(powers, g, SIGMA_SQ, p2_dbm=-10.0)
        assert [b.at.p2 for b in fixed] == [dbm_to_watts(-10.0)] * 3
        tracking = sweep(powers, g, SIGMA_SQ)
        assert [b.at.p2 for b in tracking] == [b.at.p1 for b in tracking]

    def test_csv_round_trip(self, tmp_path):
        g = coeff(0.035, 5.5e-5)
        powers = [-20.0, -5.0, 10.3]
        rows = sweep(powers, g, SIGMA_SQ)
        text = sweep_csv(powers, rows)
        path = tmp_path / "sweep.csv"
        path.write_text(text, encoding="utf-8")
        back = read_sweep_csv(str(path))
        assert [r["p_dbm"] for r in back] == powers
        assert back[1]["u1"] == pytest.approx(rows[1].u1, rel=1e-5)

    def test_evaluate_bounds_fields(self):
        g = coeff(0.035, 5.5e-5)
        bs = evaluate_bounds(PowerPair(1e-3, 1e-3), g, SIGMA_SQ,
                             p_int1=1e-4, p_int2=2e-4)
        assert bs.u_sum >= bs.u1 + bs.u2 - 1e-12
        assert bs.ian1 > bs.ian2  # more interference on user 2
