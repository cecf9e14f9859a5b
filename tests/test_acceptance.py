"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not calibrated at runtime.
"""

import dataclasses
import math

import numpy as np
import pytest

import xpmcap as xc
from xpmcap.coefficients import _level, _window

SIGMA_SQ = 1.0e-3  # calibrated default: 2 sigma^2 = 2.0 mW
MW = 1e-3


def _announce(number, name):
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_linear_capacity_curve():
    targets = [(-20.0, 0.0071955), (-5.0, 0.2117771), (10.3, 2.6684815)]
    for p_dbm, expected in targets:
        rate = xc.awgn_capacity(xc.dbm_to_watts(p_dbm), SIGMA_SQ)
        assert rate == pytest.approx(expected, abs=0.005), (p_dbm, rate)
    _announce(1, "linear capacity curve reproduction")


def test_criterion_2_pentagon_arithmetic():
    region = xc.build_region(0.39, 0.39, 0.494233)
    corner = region.vertices[2]
    assert corner[0] == pytest.approx(0.39, abs=0.005)
    assert corner[1] == pytest.approx(0.104, abs=0.005)
    mid = xc.dominant_face_midpoint(region)
    assert mid[0] == pytest.approx(0.247, abs=0.005)
    assert mid[1] == pytest.approx(0.247, abs=0.005)
    _announce(2, "pentagon corner and dominant-face midpoint")


def test_criterion_3_interference_as_noise_peak():
    kappa = xc.fit_cubic_interference(-3.8, SIGMA_SQ)
    grid = np.arange(-15.0, 5.2001, 0.01)

    def rate(p_dbm):
        p = xc.dbm_to_watts(p_dbm)
        return xc.ian_rate(xc.PowerPair(p, p), SIGMA_SQ, kappa * p ** 3)

    rates = np.array([rate(d) for d in grid])
    peak = int(np.argmax(rates))
    assert grid[peak] == pytest.approx(-3.7, abs=0.3)
    assert rates[peak] == pytest.approx(0.19, abs=0.01)
    # non-monotone: rises to the peak, falls beyond it
    assert 0 < peak < len(grid) - 1
    assert rates[0] < rates[peak] and rates[-1] < rates[peak]
    assert rate(5.2) < 0.01
    _announce(3, "interference-as-noise peak location and decay")


def test_criterion_4_bound_curve_family_fit():
    points = [(5.2, 1.604459), (17.2, 7.0406186)]
    g = xc.fit_effective_coefficient(points, SIGMA_SQ)
    a_per_mw = 2 * g.g_real / 1e3
    b_per_mw2 = 2 * g.g_abs_sq / 1e6
    assert a_per_mw == pytest.approx(0.0700, abs=5e-4)
    assert b_per_mw2 == pytest.approx(1.109e-4, abs=5e-6)
    p = xc.dbm_to_watts(5.2)
    u1 = xc.outer_bound_u1(xc.PowerPair(p, p), g, SIGMA_SQ)
    assert u1 == pytest.approx(1.60446, abs=5e-3)
    # documented discrepancy of the published curve: the fitted pair is
    # not realizable by any complex coefficient (|g|^2 < g_real^2)
    assert g.g_abs_sq < g.g_real ** 2
    assert not g.is_physical
    print("\n  note: fitted pair has |g|^2 = "
          f"{b_per_mw2 / 2:.4g}/mW^2 < g_real^2 = "
          f"{(a_per_mw / 2) ** 2:.4g}/mW^2 (published-curve inconsistency, "
          "reported, not hidden)")
    _announce(4, "bound curve family two-point fit")


def test_criterion_5_structural_properties():
    rng = np.random.default_rng(20240810)
    for _ in range(1000):
        pp = xc.PowerPair(*rng.uniform(0.0, 5e-3, size=2))
        gx = xc.EffectiveCoefficient(rng.uniform(-20, 80),
                                     rng.uniform(0, 2e4))
        gw = xc.EffectiveCoefficient(rng.uniform(-20, 80),
                                     rng.uniform(0, 2e4))
        s2 = rng.uniform(0.2e-3, 3e-3)
        u1 = xc.outer_bound_u1(pp, gx, s2)
        u2 = xc.outer_bound_u2(pp, gw, s2)
        assert xc.outer_bound_sum(pp, gx, gw, s2) >= u1 + u2
    # exact reductions
    g = xc.EffectiveCoefficient(35.0, 5.5e4)
    for p1, p2 in [(1e-3, 2e-3), (3e-3, 0.5e-3)]:
        assert xc.outer_bound_u1(xc.PowerPair(p1, p2), xc.EffectiveCoefficient(0, 0), SIGMA_SQ) \
            == xc.awgn_capacity(p1, SIGMA_SQ)
        assert xc.outer_bound_u1(xc.PowerPair(p1, 0.0), g, SIGMA_SQ) \
            == xc.awgn_capacity(p1, SIGMA_SQ)
    # strict monotonicity in the user's own power
    rates = [xc.outer_bound_u1(xc.PowerPair(p * MW, MW), g, SIGMA_SQ)
             for p in np.linspace(0.05, 20, 200)]
    assert all(b > a for a, b in zip(rates, rates[1:]))
    _announce(5, "bound structure: sum dominance, reductions, monotonicity")


def test_criterion_6_covariance_oracle_suite():
    n = 10 ** 6
    rng = np.random.default_rng(424242)
    reports = []
    # equality cases first, then randomized parameter sets (10 total)
    reports.append(xc.single_user_covariance_check(
        0.0j, math.sqrt(2 * MW), MW, MW, n, seed=1, name="equality-g0"))
    for i in range(4):
        g = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        w = math.sqrt(rng.uniform(0.2, 3) * MW)
        p1 = rng.uniform(0.3, 3) * MW
        s2 = rng.uniform(0.5, 2) * MW
        reports.append(xc.single_user_covariance_check(
            g, w, p1, s2, n, seed=100 + i, name=f"single-rand-{i}"))
    reports.append(xc.joint_covariance_check(
        0.0j, 0.0j, xc.PowerPair(0.0, 0.0), MW, n, seed=2,
        name="equality-zero-power"))
    for i in range(4):
        gx = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        gw = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        pp = xc.PowerPair(rng.uniform(0.2, 3) * MW, rng.uniform(0.2, 3) * MW)
        s2 = rng.uniform(0.5, 2) * MW
        reports.append(xc.joint_covariance_check(
            gx, gw, pp, s2, n, seed=200 + i, name=f"joint-rand-{i}"))
    for r in reports:
        assert r.verdict == "pass", r

    psd_rng = np.random.default_rng(7)
    from xpmcap.verify import det_trace_check, random_psd_matrix
    for _ in range(1000):
        a = random_psd_matrix(psd_rng, int(psd_rng.integers(2, 5)))
        assert det_trace_check(a).verdict == "pass"

    moment = xc.moment_identity_check(MW, n, seed=3)
    assert moment.verdict == "pass"
    assert moment.estimate == pytest.approx(1.0, abs=0.01)
    _announce(6, "covariance and moment oracle suite at 1e6 samples")


def test_criterion_7_simulator_equivalence():
    from test_channel import memoryless_channel
    rng = np.random.default_rng(1001)
    n, M = 16, 2
    side = 2 * M + 1
    for trial in range(100):
        values = rng.standard_normal((side,) * 3) \
            + 1j * rng.standard_normal((side,) * 3)
        coeffs = xc.CoeffTensor(memory=M, values=values)
        x = xc.sample_cscg(n, 1e-3, 5000 + trial)
        w = xc.sample_cscg(n, 2e-3, 6000 + trial)
        fast = xc.full_channel(x, w, coeffs, 0.0)
        slow = np.array(x, dtype=complex)
        for k in range(n):
            acc = 0.0 + 0.0j
            for l in range(-M, M + 1):
                for m in range(-M, M + 1):
                    for p in range(-M, M + 1):
                        acc += (coeffs.get(l, m, p) * w[(k - m) % n]
                                * np.conj(w[(k - p) % n]) * x[(k - l) % n])
            slow[k] += acc
        assert np.allclose(fast, slow, rtol=1e-12, atol=1e-20)

    g = 0.25 - 0.6j
    values = np.zeros((side,) * 3, complex)
    values[M, M, M] = g
    center_only = xc.CoeffTensor(memory=M, values=values)
    x = xc.sample_cscg(512, 1e-3, 42)
    w = xc.sample_cscg(512, 1e-3, 43)
    for sigma_sq, seed in [(0.0, None), (1e-3, 99)]:
        assert np.array_equal(
            xc.full_channel(x, w, center_only, sigma_sq, seed),
            memoryless_channel(x, w, g, sigma_sq, seed))
    _announce(7, "full-memory simulator vs brute-force oracle")


def test_criterion_8_coefficient_engine(monkeypatch):
    link = xc.LinkParams()
    pulse = xc.PulseShape()

    def center_tap(link, pulse):
        tensor, _ = xc.coefficient_tensor(link, pulse)
        return tensor.get(0, 0, 0)

    # zero-dispersion closed form at 1e-6 relative (grid-consistent pulse);
    # the closed form and the linearity pair need only the centre tap, so
    # they run on the one-entry window, whose padded grid is the full one's
    one_tap = dataclasses.replace(link, memory=0)
    assert _window(one_tap) == _window(link)
    link0 = dataclasses.replace(one_tap, beta2_ps2_per_km=0.0)
    gauss = xc.PulseShape(kind="gaussian", width_s=link.symbol_period / 3)
    c0 = center_tap(link0, gauss)
    n_symbols, pad = _window(link0)
    n, dt = _level(link0, gauss, n_symbols * pad,
                   gauss.samples_per_symbol)[:2]
    g0 = gauss.samples(n, dt, link0.symbol_period)
    closed = 2j * link0.gamma * xc.effective_length(
        link0.alpha_db_per_km, link0.length_km) * dt * float(
            np.sum(np.abs(g0) ** 4))
    assert abs(c0 - closed) / abs(closed) < 1e-6

    # exact linearity in the nonlinearity coefficient
    c_1g = center_tap(one_tap, pulse)
    c_2g = center_tap(dataclasses.replace(one_tap, gamma=2 * link.gamma),
                      pulse)
    assert abs(c_2g - 2 * c_1g) <= 1e-12 * abs(c_2g)

    # center tap is purely imaginary for the real power profile
    coarse, _ = xc.coefficient_tensor(link, pulse)
    c000 = coarse.get(0, 0, 0)
    assert abs(c000.real) <= 1e-9 * abs(c000)

    # doubling the sample rate moves every entry by < 1e-4 relative
    monkeypatch.setattr(xc.PulseShape, "samples_per_symbol",
                        2 * pulse.samples_per_symbol)
    fine, _ = xc.coefficient_tensor(link, pulse)
    rel = np.abs(fine.values - coarse.values) / np.abs(fine.values)
    assert float(rel.max()) < 1e-4

    # decay beyond the dispersion-induced memory
    M = link.memory
    outer = max(abs(coarse.get(l, m, p)) for l in (-M, M)
                for m in coarse.lags() for p in coarse.lags())
    center = max(abs(coarse.get(0, m, p))
                 for m in coarse.lags() for p in coarse.lags())
    assert outer < center
    _announce(8, "coefficient engine closed form, stability, symmetry")
