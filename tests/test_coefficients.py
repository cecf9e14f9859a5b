import dataclasses
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xpmcap import coefficients
from xpmcap.coefficients import (DEFAULT_QUAD_RTOL, CoeffTensor,
                                 coefficient_tensor,
                                 _gauss_legendre_nodes, _initial_panels,
                                 _level, _panel_sums, _phases, _window,
                                 _window_sums)
from xpmcap.config import LinkParams, effective_length, load_config
from xpmcap.errors import ConfigError, GridError, QuadratureError
from xpmcap.pulses import PulseShape, _rrc
from xpmcap.tensorjson import sum_abs_sq

# Short span keeps the dispersion spread small so unit tests run on a
# 16-symbol window, padded to 64, in milliseconds; the default setup is
# exercised by the acceptance suite.
SHORT = LinkParams(length_km=50.0, memory=1)
T = SHORT.symbol_period
SINC = PulseShape()
GAUSS = PulseShape(kind="gaussian", width_s=T / 3)


def padded(link):
    """Symbol periods of the engine's padded window for the link."""
    n_symbols, pad = _window(link)
    return n_symbols * pad


def level(link, pulse, step=None):
    """The engine's level for the link, at the pulse's rate by default:
    (n, dt, omega, step, pulse spectrum)."""
    return _level(link, pulse, padded(link),
                  step or pulse.samples_per_symbol)


def window_sum(link, pulse, panels, z_nodes):
    """The engine's raw window at the pulse's rate and the given panels."""
    levels = [(pulse.samples_per_symbol, panels)]
    return _window_sums(link, pulse, padded(link), levels, z_nodes)[1][0]


def lag_reversal(tx):
    """Receiver w's window from receiver x's, c_w[l,m,p] = c_x[-l,-m,-p]:
    for a real, even pulse, t -> -t flips the walk-off and every lag."""
    return dataclasses.replace(tx, values=tx.values[::-1, ::-1, ::-1])


@pytest.fixture(scope="module")
def short_pair():
    tx, _ = coefficient_tensor(SHORT, SINC)
    return tx, lag_reversal(tx)


def center_tap(link, pulse):
    tensor, _ = coefficient_tensor(link, pulse)
    return tensor.get(0, 0, 0)


class TestKernelLimits:
    def test_zero_length_gives_zero(self):
        link = dataclasses.replace(SHORT, length_km=0.0)
        tensor, _ = coefficient_tensor(link, SINC)
        assert np.all(tensor.values == 0)

    def test_zero_dispersion_closed_form_gaussian(self):
        link = dataclasses.replace(SHORT, beta2_ps2_per_km=0.0)
        c = center_tap(link, GAUSS)
        n, dt = level(link, GAUSS)[:2]
        g0 = GAUSS.samples(n, dt, T)
        fourth = dt * float(np.sum(np.abs(g0) ** 4))
        expected = 2j * link.gamma * effective_length(
            link.alpha_db_per_km, link.length_km) * fourth
        assert c.real == pytest.approx(0.0, abs=1e-9 * abs(c))
        assert abs(c - expected) / abs(expected) < 1e-6

    def test_zero_dispersion_closed_form_sinc_no_memory(self):
        # memory 0 without walk-off needs no padding: the derived window,
        # the 16-symbol floor that holds the sinc's tails, is the grid
        link = dataclasses.replace(SHORT, beta2_ps2_per_km=0.0, memory=0)
        assert _window(link) == (16, 1)
        c = center_tap(link, SINC)
        n, dt = level(link, SINC)[:2]
        g0 = SINC.samples(n, dt, T)
        expected = 2j * link.gamma * effective_length(
            link.alpha_db_per_km, link.length_km) * dt * float(
                np.sum(np.abs(g0) ** 4))
        assert abs(c - expected) / abs(expected) < 1e-6

    @pytest.mark.parametrize("pulse", [
        SINC, PulseShape(kind="root-raised-cosine", rolloff=0.25)],
        ids=["sinc", "rrc-0.25"])
    def test_zero_dispersion_window_holds_the_tails(self, pulse):
        # lags and spread alone ask for 4 symbol periods, which cut the
        # slowly decaying tails (residual 3.6e-5 for the sinc, 5.9e-4 for
        # the RRC); the floor of 16 holds them
        link = dataclasses.replace(LinkParams(), beta2_ps2_per_km=0.0,
                                   memory=0)
        assert _window(link) == (16, 1)
        _, report = coefficient_tensor(link, pulse)
        assert report["residual"] <= 1e-6

    def test_gamma_linearity_exact(self):
        doubled = dataclasses.replace(SHORT, gamma=2 * SHORT.gamma)
        c1 = coefficient_tensor(SHORT, SINC)[0].get(1, 0, -1)
        c2 = coefficient_tensor(doubled, SINC)[0].get(1, 0, -1)
        assert abs(c2 - 2 * c1) <= 1e-12 * abs(c2)


class TestTensor:
    def test_memory_zero_collapses_to_single_entry(self):
        link = dataclasses.replace(SHORT, memory=0)
        tensor, report = coefficient_tensor(link, SINC)
        assert tensor.values.shape == (1, 1, 1)
        single = _ramp_window_sum(link, SINC, report["panels"], 64)
        assert tensor.get(0, 0, 0) == pytest.approx(single[0, 0, 0],
                                                    rel=1e-12)

    def test_l0_skew_symmetry(self, short_pair):
        tensor, _ = short_pair
        scale = abs(tensor.get(0, 0, 0))
        lags = range(-tensor.memory, tensor.memory + 1)
        for m in lags:
            for p in lags:
                diff = abs(tensor.get(0, m, p) + np.conj(tensor.get(0, p, m)))
                assert diff <= 1e-9 * scale

    def test_center_tap_is_imaginary(self, short_pair):
        tensor, _ = short_pair
        c = tensor.get(0, 0, 0)
        assert abs(c.real) <= 1e-9 * abs(c)
        assert c.imag != 0

    def test_walkoff_sign_flip_preserves_center_tap(self, short_pair):
        # Symmetric pulses make the two receivers' center taps coincide.
        tx, tw = short_pair
        assert tw.get(0, 0, 0) == pytest.approx(tx.get(0, 0, 0), rel=1e-9)

    def test_grid_refinement_is_cauchy(self, monkeypatch):
        coarse, _ = coefficient_tensor(SHORT, SINC)
        monkeypatch.setattr(PulseShape, "samples_per_symbol", 16)
        fine, _ = coefficient_tensor(SHORT, SINC)
        rel = np.abs(fine.values - coarse.values) / np.abs(fine.values)
        assert float(rel.max()) < 1e-4

    def test_second_receiver_is_lag_reversal(self, short_pair):
        tx, tw = short_pair
        assert tw.link == tx.link
        assert np.array_equal(tw.values, tx.values[::-1, ::-1, ::-1])
        # receiver x's window from the independent phase-ramp kernel
        # coefficient_tensor's finer level
        panels = 2 * _initial_panels(SHORT, SINC)
        rx = _ramp_window_sum(SHORT, SINC, panels, 64)
        M = SHORT.memory
        for l, m, p in [(0, 0, 0), (1, -1, 0), (-1, 1, 1)]:
            single = rx[M - l, M - m, M - p]
            assert tw.get(l, m, p) == pytest.approx(single, rel=1e-12)


class TestWindow:
    """_window: the engine's coefficient window and its pad factor."""

    def test_covers_reference_span(self):
        # the reference span's dispersion spread is about 35 symbols, so
        # 16 symbol periods are too few even at memory 1; the pulse sets
        # only the sample rate
        for memory, n_symbols in ((1, 64), (5, 64), (12, 128)):
            assert _window(LinkParams(memory=memory))[0] == n_symbols

    # memory -> (window, pad), and pulse -> panels at every memory, on
    # configs/reference.yaml: the windows the floor leaves unchanged and
    # the panels of the walk-off plus dispersion rule; the sinc rows are
    # the benchmark's
    SIZING = {0: (64, 4), 1: (64, 4), 5: (64, 4), 12: (128, 4)}
    PANELS = {"sinc": 2, "rrc-0.25": 3, "rrc-1": 5, "gauss-T/3": 5,
              "gauss-T/4": 10}

    def test_sizing_table_on_reference_config(self):
        cfg = load_config(str(Path(__file__).resolve().parents[1]
                              / "configs" / "reference.yaml"))
        T = cfg.link.symbol_period
        pulses = {"sinc": cfg.pulse,
                  "rrc-0.25": PulseShape(kind="root-raised-cosine",
                                         rolloff=0.25),
                  "rrc-1": PulseShape(kind="root-raised-cosine", rolloff=1.0),
                  "gauss-T/3": PulseShape(kind="gaussian", width_s=T / 3),
                  "gauss-T/4": PulseShape(kind="gaussian", width_s=T / 4)}
        assert cfg.pulse.kind == "nyquist-sinc"
        for memory, sizing in self.SIZING.items():
            link = dataclasses.replace(cfg.link, memory=memory)
            assert _window(link) == sizing
            assert {name: _initial_panels(link, pulse)
                    for name, pulse in pulses.items()} == self.PANELS

    # spans and rates whose window stays within the 1024-symbol cap
    @given(length_km=st.floats(0.0, 1000.0),
           beta2_sign=st.sampled_from([-1.0, 1.0]),
           baud_rate=st.floats(1e9, 64e9),
           memory=st.integers(0, 20))
    def test_is_the_least_power_of_two_window(
            self, length_km, beta2_sign, baud_rate, memory):
        link = LinkParams(length_km=length_km,
                          beta2_ps2_per_km=beta2_sign * 21.7,
                          baud_rate=baud_rate, memory=memory)
        T = link.symbol_period
        n_symbols, pad = _window(link)
        assert n_symbols & (n_symbols - 1) == 0 and n_symbols >= 16
        # the lags plus the dispersion spread at the far end of the span,
        # within the fewest of at least 16 symbol periods
        needed = 4 * (memory + 1) * T + link.dispersion_spread_s(length_km)
        assert n_symbols * T >= needed
        assert n_symbols == 16 or n_symbols // 2 * T < needed
        # the pad: room on both sides for the walk-off and the lags
        span = n_symbols * T
        padded = span + 2 * (abs(link.walkoff_delay_s(length_km)) + memory * T)
        assert pad & (pad - 1) == 0
        assert pad * span >= padded
        assert pad == 1 or pad // 2 * span < padded

    @pytest.mark.parametrize("link", [
        LinkParams(memory=247),
        LinkParams(length_km=1e20),
        LinkParams(length_km=1e300, beta2_ps2_per_km=1e300),  # spread inf
        LinkParams(memory=10 ** 400)],  # beyond any float
        ids=["memory", "length", "overflow", "huge-memory"])
    def test_refuses_a_window_beyond_its_cap(self, link):
        with pytest.raises(GridError, match="required by memory"):
            _window(link)
        assert _window(LinkParams(memory=246))[0] == 1024


class TestQuadrature:
    def test_z_node_doubling_converged(self):
        panels = _initial_panels(SHORT, SINC)
        a = window_sum(SHORT, SINC, panels, 64)
        b = window_sum(SHORT, SINC, panels, 128)
        assert abs(b - a).max() / abs(b).max() < 1e-6

    def test_non_convergent_quadrature_reports_residual(self, monkeypatch):
        monkeypatch.setattr(coefficients, "DEFAULT_Z_NODES", 2)
        with pytest.raises(QuadratureError) as err:
            coefficient_tensor(SHORT, SINC)
        assert err.value.residual > 1e-6

    def test_under_sampled_time_grid_reports_residual(self, monkeypatch):
        # 2 samples per symbol: the coarse level at 1 sample per symbol
        # cannot resolve the pulse, so the residual exposes the time grid
        monkeypatch.setattr(PulseShape, "samples_per_symbol", 2)
        with pytest.raises(QuadratureError, match="1 samples per symbol .* "
                           "2 samples per symbol") as err:
            coefficient_tensor(SHORT, SINC)
        assert err.value.residual > 1e-2

    def test_gaussian_converges_at_memory_8(self):
        # at width T/3 the reference link's walk-off and dispersion scales
        # add; panels sized by the larger alone left the residual at 3.8e-6
        link = LinkParams(memory=8)
        pulse = PulseShape(kind="gaussian", width_s=link.symbol_period / 3)
        _, report = coefficient_tensor(link, pulse)
        assert report["panels"] == 10
        assert report["residual"] <= 1e-6

    def test_initial_panels_track_walkoff(self):
        assert _initial_panels(SHORT, SINC) == 1
        assert _initial_panels(LinkParams(), SINC) >= 2

    def test_initial_panels_track_gaussian_width(self):
        # a Gaussian narrower than T/2 varies faster along the span; the
        # count is rounded up to a whole number, not a power of two: on the
        # reference link walk-off and dispersion add to 123 + 28 scale
        # lengths at width T/3 and 218 + 89 at T/4
        link = LinkParams()
        sinc = _initial_panels(link, SINC)
        wide, third, narrow = (PulseShape(kind="gaussian", width_s=w * T)
                               for w in (0.5, 1 / 3, 0.25))
        assert _initial_panels(link, wide) == sinc
        assert _initial_panels(link, third) == 5
        assert _initial_panels(link, narrow) == 10

    def test_initial_panels_track_rrc_rolloff(self):
        # roll-off beta shortens the pulse's time scale to T/(1+beta): at
        # beta 1 the reference link's 109 + 22 scale lengths need 5 panels,
        # at beta 0.25 one more whole panel than the sinc, and at beta 0
        # the RRC is the sinc
        link = LinkParams()
        assert _initial_panels(link, SINC) == 2
        for beta, panels in ((0.0, 2), (0.25, 3), (1.0, 5)):
            rrc = PulseShape(kind="root-raised-cosine", rolloff=beta)
            assert _initial_panels(link, rrc) == panels


class TestTwoProcesses:
    def test_values_do_not_depend_on_process_count(self, monkeypatch):
        # 1 + 2 panels, and the RRC at roll-off 0.25 on the reference link,
        # 3 + 6: odd counts leave the child one panel fewer
        rrc = PulseShape(kind="root-raised-cosine", rolloff=0.25)
        for link, pulse, panels in ((SHORT, GAUSS, 2),
                                    (LinkParams(memory=1), rrc, 6)):
            runs = []
            for workers in (1, 2, 2):
                monkeypatch.setattr(coefficients, "blas_workers",
                                    lambda: workers)
                tensor, report = coefficient_tensor(link, pulse)
                assert report["panels"] == panels
                assert report["diagnostics"]["quad_workers"] == workers
                runs.append(tensor.values)
            assert all(np.array_equal(v, runs[0]) for v in runs[1:])

    def test_parent_runs_even_panels(self, monkeypatch):
        # as on configs/reference.yaml: 2 coarse and 4 fine panels; this
        # process runs the even-numbered panels of each level, the forked
        # child the odd-numbered ones
        parent, panel_sums, calls = os.getpid(), coefficients._panel_sums, []

        def recording(link, level, zs, wq):
            if os.getpid() == parent:
                calls.append(zs)
            return panel_sums(link, level, zs, wq)

        monkeypatch.setattr(coefficients, "blas_workers", lambda: 2)
        monkeypatch.setattr(coefficients, "_panel_sums", recording)
        levels = [(4, 2), (8, 4)]
        workers, sums = _window_sums(SHORT, SINC, padded(SHORT), levels, 8)
        assert workers == 2
        # one call per level: panels (0, 0), then (1, 0) and (1, 2)
        for zs, (_, panels), ks in zip(calls, levels, ([0], [0, 2]),
                                       strict=True):
            assert np.array_equal(zs, _gauss_legendre_nodes(
                SHORT.length_km, panels, 8)[0][ks])
        monkeypatch.setattr(coefficients, "blas_workers", lambda: 1)
        assert all(np.array_equal(a, b) for a, b in zip(
            sums, _window_sums(SHORT, SINC, padded(SHORT), levels, 8)[1]))

    def test_one_panel_runs_inline(self, monkeypatch):
        monkeypatch.setattr(coefficients, "blas_workers", lambda: 2)
        monkeypatch.setattr(coefficients, "forked", None)
        workers, (values,) = _window_sums(SHORT, SINC, padded(SHORT),
                                          [(8, 1)], 64)
        assert workers == 1
        assert np.array_equal(values, window_sum(SHORT, SINC, 1, 64))


def _ramp_window_sum(link, pulse, panels, z_nodes):
    """Reference kernel over the whole window, on the engine's padded grid
    at the pulse's rate: every lag shift a phase ramp with its own inverse
    FFT, and all (2M+1)^2 pair products formed."""
    T = link.symbol_period
    ls = ms = ps = range(-link.memory, link.memory + 1)
    n, dt, w, _, _ = level(link, pulse)
    spec0 = np.fft.fft(pulse.samples(n, dt, T))
    ramp_l = np.stack([np.exp(-1j * w * (l * T)) for l in ls])
    ramp_m = np.stack([np.exp(-1j * w * (m * T)) for m in ms])
    ramp_p = np.stack([np.exp(-1j * w * (p * T)) for p in ps])
    zs, wq = (v.ravel() for v in _gauss_legendre_nodes(link.length_km,
                                                        panels, z_nodes))
    out = np.zeros((len(ls), len(ms) * len(ps)), dtype=np.complex128)
    for z, wz in zip(zs, wq * np.exp(-link.alpha_np_per_km * zs)):
        disp = spec0 * np.exp(0.5j * link.beta2_s2_per_km * z * w * w)
        g = np.fft.ifft(disp)
        a = np.conj(g) * np.fft.ifft(disp * ramp_l, axis=1)
        disp_w = disp * np.exp(-1j * w * link.walkoff_delay_s(z))
        gm = np.fft.ifft(disp_w * ramp_m, axis=1)
        gp = np.fft.ifft(disp_w * ramp_p, axis=1)
        b = (gm[:, None, :] * np.conj(gp)[None, :, :]).reshape(-1, len(w))
        out += wz * (a @ b.T)
    return (2j * link.gamma * dt) * out.reshape(
        len(ls), len(ms), len(ps))


class TestKernelOracle:
    """The engine's level sums against the phase-ramp reference kernel
    above."""

    @pytest.mark.parametrize("pulse", [SINC, GAUSS],
                             ids=["window-sinc", "window-gauss"])
    def test_matches_phase_ramp_kernel(self, pulse):
        panels = _initial_panels(SHORT, pulse)
        fast = window_sum(SHORT, pulse, panels, 64)
        slow = _ramp_window_sum(SHORT, pulse, panels, 64)
        assert np.abs(fast - slow).max() <= 1e-12 * np.abs(slow).max()


def _complex_panel_sums(link, setup, zs, wq):
    """The quadrature node in complex arithmetic: rolled copies of a_l and
    b_mp, and one complex matmul of [a; conj(a)] against b per node."""
    _, _, w, step, spec0 = setup
    side = 2 * link.memory + 1
    shifts = step * np.arange(-link.memory, link.memory + 1)
    mi, pi = np.triu_indices(side)
    sums = []
    for panel_z, panel_w in zip(zs, wq * np.exp(-link.alpha_np_per_km * zs)):
        acc = np.zeros((2 * side, len(mi)), dtype=np.complex128)
        for z, wz in zip(panel_z, panel_w):
            disp = spec0 * np.exp(0.5j * link.beta2_s2_per_km * z * (w * w))
            g = np.fft.ifft(disp)
            gw = np.fft.ifft(disp * np.exp(-1j * w * link.walkoff_delay_s(z)))
            a = np.stack([np.roll(g, k) for k in shifts]) * np.conj(g)
            a = np.concatenate([a, np.conj(a)])
            u = np.stack([np.roll(np.conj(gw), step * d)
                          for d in range(side)]) * gw
            b = np.stack([np.roll(u[p - m], shifts[m])
                          for m, p in zip(mi, pi)])
            acc += wz * (a @ b.T)
        values = np.empty((side, side, side), dtype=np.complex128)
        values[:, pi, mi] = acc[side:].conj()
        values[:, mi, pi] = acc[:side]
        sums.append(values)
    return sums


class TestRealArithmeticOracle:
    """The engine's sum over each half of the panels against the complex
    node above: the same products, summed in another order."""

    @pytest.mark.parametrize("memory", [1, 2])
    @pytest.mark.parametrize("pulse", [SINC, GAUSS], ids=["sinc", "gauss"])
    def test_matches_complex_node(self, pulse, memory):
        link = dataclasses.replace(SHORT, memory=memory)
        setup = level(link, pulse)
        # four panels or more, so that each half holds two or more
        zs, wq = _gauss_legendre_nodes(
            link.length_km, 4 * _initial_panels(link, pulse), 64)
        for half in (slice(0, None, 2), slice(1, None, 2)):
            fast = _panel_sums(link, setup, zs[half], wq[half])
            slow = sum(_complex_panel_sums(link, setup, zs[half], wq[half]))
            assert np.abs(fast - slow).max() <= 1e-14 * np.abs(slow).max()


def _phase_cases():
    """(link, pulse, samples per symbol, panels): configs/reference.yaml's
    coarse and fine levels, and one Gaussian-pulse link."""
    cfg = load_config(str(Path(__file__).resolve().parents[1]
                          / "configs" / "reference.yaml"))
    pulse = cfg.pulse
    step = pulse.samples_per_symbol
    panels = _initial_panels(cfg.link, pulse)
    link = LinkParams(length_km=100.0, memory=2)
    gauss = PulseShape(kind="gaussian", width_s=link.symbol_period / 3)
    return [(cfg.link, pulse, step // 2, panels),
            (cfg.link, pulse, step, 2 * panels),
            (link, gauss, gauss.samples_per_symbol,
             _initial_panels(link, gauss))]


class TestMirroredPhases:
    """_phases evaluates bins 0..n/2 and mirrors the rest, which is exact
    only while the padded grid's omega is odd bit for bit."""

    @pytest.mark.parametrize("case", _phase_cases(),
                             ids=["reference-coarse", "reference-fine",
                                  "gaussian"])
    def test_mirror_equals_full_exponentials(self, case):
        link, pulse, step, panels = case
        w = level(link, pulse, step)[2]
        n = len(w)
        k = np.arange(1, n // 2)
        assert np.array_equal(w[n - k], -w[k])
        for z in _gauss_legendre_nodes(link.length_km, panels, 64)[0].ravel():
            disp, walk = _phases(link, w, z)
            assert np.array_equal(
                disp, np.exp(0.5j * link.beta2_s2_per_km * z * (w * w)))
            assert np.array_equal(
                walk, np.exp(-1j * w * link.walkoff_delay_s(z)))


@pytest.fixture(scope="module")
def gauss_window():
    """Receiver x's Gaussian-pulse window on TestGaussianDispersionOracle's
    link, computed once for both of its tests."""
    link = TestGaussianDispersionOracle.LINK
    pulse = PulseShape(kind="gaussian", width_s=link.symbol_period / 3)
    tx, _ = coefficient_tensor(link, pulse)
    return tx


class TestWindowTruncation:
    """Every Im c[0,m,m] is positive, and for the Nyquist sinc, whose
    shifted copies sum |gw(t - mT)|^2 to 1/T, the sum over all m is 2 gamma
    L_eff / T. A wider window holds a larger share of that limit."""

    def test_phase_share_rises_with_memory(self):
        cfg = load_config(str(Path(__file__).resolve().parents[1]
                              / "configs" / "reference.yaml"))
        assert cfg.pulse.kind == "nyquist-sinc"
        link, pulse = cfg.link, cfg.pulse
        limit = 2 * link.gamma * effective_length(
            link.alpha_db_per_km, link.length_km) / link.symbol_period
        shares = []
        for memory in (1, 3, 5):
            link = dataclasses.replace(cfg.link, memory=memory)
            tensor, _ = coefficient_tensor(link, pulse)
            assert np.all(np.diagonal(tensor.values[memory]).imag > 0)
            shares.append(tensor.coherent_gains()[memory].imag / limit)
        assert 0 < shares[0] < shares[1] < shares[2] < 1, shares
        assert shares[2] == pytest.approx(0.670, abs=0.005)


class TestDerivedSampleRate:
    """The sinc's derived grid, 8 samples per symbol, against twice that:
    both exceed the band of the four-pulse overlap, so the trapezoid sums
    agree to rounding and window leakage."""

    def test_twice_the_samples_agree(self, monkeypatch):
        link = LinkParams(memory=1)  # the reference link
        derived, report = coefficient_tensor(link, SINC)
        assert report["diagnostics"]["levels"][-1]["samples_per_symbol"] == 8
        monkeypatch.setattr(PulseShape, "samples_per_symbol", 16)
        twice, _ = coefficient_tensor(link, SINC)
        scale = np.abs(twice.values).max()
        assert np.abs(derived.values - twice.values).max() <= 1e-10 * scale


class TestPairGroups:
    """_panel_sums fills and multiplies the interferer pairs in whole-d
    groups under _PAIR_BYTES; the groups change only the summation's
    blocking, not its terms."""

    def test_small_budget_matches_one_group(self, monkeypatch):
        link = dataclasses.replace(SHORT, memory=2)
        setup = level(link, SINC)
        zs, wq = _gauss_legendre_nodes(link.length_km, 1, 16)
        one = _panel_sums(link, setup, zs, wq)
        # the slab holds side = 5 rows: d = 0 | 1 | 2, 3 | 4
        monkeypatch.setattr(coefficients, "_PAIR_BYTES", 1)
        grouped = _panel_sums(link, setup, zs, wq)
        assert np.abs(grouped - one).max() <= 1e-15 * np.abs(one).max()

    def test_reference_link_takes_one_group(self):
        # up to memory 12, so its tensors keep their bytes
        link = LinkParams(memory=12)
        n = level(link, SINC)[0]
        side = 2 * link.memory + 1
        npair = side * (side + 1) // 2
        assert 2 * npair * n * 8 <= coefficients._PAIR_BYTES


class TestGaussianDispersionOracle:
    """Closed-form overlap of four complex-width Gaussians.

    For a Gaussian pulse the dispersed waveform stays Gaussian with
    complex width s^2 = sig^2 - j beta2 z / 2, so the four-pulse time
    overlap reduces to a single Gaussian integral; integrating that over
    distance with a dense trapezoid gives an oracle for the full
    dispersion + walk-off path that shares nothing with the engine's
    FFT/Gauss-Legendre machinery.
    """

    LINK = LinkParams(length_km=100.0, memory=2)

    def analytic(self, l, m, p, walkoff_sign=1.0, n_z=200001, link=LINK,
                 w_s=None):
        T = link.symbol_period
        if w_s is None:
            w_s = T / 3
        sig2 = w_s ** 2 / 2.0
        z = np.linspace(0.0, link.length_km, n_z)
        beta = link.beta2_s2_per_km
        s2 = sig2 - 0.5j * beta * z
        s2c = np.conj(s2)
        tau = walkoff_sign * link.walkoff_delay_s(1.0) * z
        a = l * T
        b = m * T + tau
        c = p * T + tau
        u = 1.0 / (4.0 * s2)
        v = 1.0 / (4.0 * s2c)
        big_p = 2.0 * (u + v)
        big_q = u * (a + b) + v * c
        big_r = u * (a * a + b * b) + v * c * c
        amp4 = 1.0 / (2.0 * np.pi * sig2)
        overlap = (amp4 * sig2 ** 2 / (s2 * s2c) * np.sqrt(np.pi / big_p)
                   * np.exp(big_q * big_q / big_p - big_r))
        integrand = np.exp(-link.alpha_np_per_km * z) * overlap
        dz = z[1] - z[0]
        total = dz * (0.5 * (integrand[0] + integrand[-1])
                      + np.sum(integrand[1:-1]))
        return 2j * link.gamma * total

    LAGS = [(0, 0, 0), (1, 0, 0), (0, 2, -1), (2, -2, 1)]

    @pytest.mark.parametrize("lag", LAGS)
    def test_engine_matches_closed_form(self, gauss_window, lag):
        engine = gauss_window.get(*lag)
        oracle = self.analytic(*lag)
        assert abs(engine - oracle) / abs(oracle) < 1e-5

    # Six fixed examples keep this near 1 s: the costliest corner (250 km,
    # 100 GHz, width T/4) alone runs 17 + 34 panels on an 8-fold padded
    # grid.
    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(length_km=st.floats(10.0, 250.0),
           beta2_sign=st.sampled_from([-1.0, 1.0]),
           spacing_hz=st.floats(0.0, 100e9),
           width=st.floats(0.25, 0.5), data=st.data())
    def test_engine_matches_closed_form_across_links(
            self, length_km, beta2_sign, spacing_hz, width, data):
        link = LinkParams(length_km=length_km,
                          beta2_ps2_per_km=beta2_sign * 21.7,
                          channel_spacing_hz=spacing_hz, memory=1)
        w_s = width * link.symbol_period
        pulse = PulseShape(kind="gaussian", width_s=w_s)
        tx, _ = coefficient_tensor(link, pulse)
        # entries far below the window's largest carry no relative accuracy
        size = np.abs(tx.values)
        lags = [tuple(int(i) - link.memory for i in idx)
                for idx in np.argwhere(size >= 1e-3 * size.max())]
        lag = data.draw(st.sampled_from(lags), label="lag")
        oracle = self.analytic(*lag, link=link, w_s=w_s)
        assert abs(tx.get(*lag) - oracle) / abs(oracle) < 1e-5

    def test_second_receiver_flips_walkoff(self, gauss_window):
        # The oracle flips the walk-off sign directly, so it checks the
        # lag reversal without relying on it.
        tw = lag_reversal(gauss_window)
        for lag in self.LAGS + [(1, 2, 0)]:
            oracle = self.analytic(*lag, walkoff_sign=-1.0)
            assert abs(tw.get(*lag) - oracle) / abs(oracle) < 1e-5, lag


def _sinc_oracle(link, x_nodes=16, y_nodes=24):
    """Receiver x's window for the unit-energy, untruncated Nyquist sinc,
    from the four-pulse overlap in frequency (w4 = w1 - nu - mu with
    nu = w1 - w2, mu = w1 - w3), where the distance integral is closed
    form (Poggiolini, JLT 30(24), 2012; Mecozzi & Essiambre, JLT 30(12),
    2012). With Omega = pi/T and k = l + m - p,

        c[l,m,p] = 2j gamma T^2/(2 pi)^3 * integral over |nu| + |mu| < 2 Omega
                   of H w sinc(k T w / 2 pi)
                   * exp(j T [nu (l - m - p) + mu (m - l - p)] / 2),

    w = 2 Omega - |nu| - |mu| the width of the w1 band where all four
    spectra overlap and H = (1 - e^(-s L))/s, s = alpha + j nu (beta2 mu +
    tau1), tau1 the walk-off per km. Each sign quadrant of (nu, mu) is
    integrated over x = |nu| by Gauss-Legendre panels graded toward 0
    (edges 2 Omega 2^-g, g = 8 .. 1) and 4 uniform ones on [Omega,
    2 Omega], and over y = |mu| in [0, 2 Omega - x] by one Gauss-Legendre
    rule. At memory 5 on configs/reference.yaml, 16 x-nodes per panel and
    24 y-nodes are 1.35e-8 from 48 and 96 (max-norm relative)."""
    T = link.symbol_period
    omega = np.pi / T
    edges = np.concatenate([[0.0], 2 * omega * 2.0 ** -np.arange(8, 0, -1),
                            omega * (1 + np.arange(1, 5) / 4)])
    u, wu = np.polynomial.legendre.leggauss(x_nodes)
    half, mid = np.diff(edges) / 2, (edges[1:] + edges[:-1]) / 2
    x = (mid[:, None] + half[:, None] * u).ravel()
    wx = (half[:, None] * wu).ravel()
    v, wv = np.polynomial.legendre.leggauss(y_nodes)
    top = (2 * omega - x)[:, None]
    y, wy = top * (v + 1) / 2, top * wv / 2  # one row of y-nodes per x
    width = top - y
    return _overlap_oracle(link, x, wx, y, wy, lambda k: width * np.sinc(
        k * T * width / (2 * np.pi)))


def _overlap_oracle(link, x, wx, y, wy, band):
    """The window from nodes and weights x, wx of |nu| and rows y, wy of
    |mu| (one per x), with band(k) the w1 band integral of each node,
    over T^2, for k = l + m - p (see _sinc_oracle)."""
    T, M = link.symbol_period, link.memory
    # k, a = l - m - p and b = m - l - p each run over -3M .. 3M
    shifts = np.arange(-3 * M, 3 * M + 1)
    total = np.zeros((len(shifts),) * 3, dtype=np.complex128)  # [k, a, b]
    for nu in (x, -x):
        ea = wx[:, None] * np.exp(0.5j * T * nu[:, None] * shifts)
        for mu in (y, -y):
            s = link.alpha_np_per_km + 1j * nu[:, None] * (
                link.beta2_s2_per_km * mu + link.walkoff_delay_s(1.0))
            h = wy * (1 - np.exp(-s * link.length_km)) / s
            eb = np.exp(0.5j * T * mu[..., None] * shifts)
            for i, k in enumerate(shifts):  # over y into (x, b), x into (a, b)
                total[i] += ea.T @ np.einsum("xy,xyb->xb", h * band(k), eb)
    l, m, p = np.meshgrid(*[np.arange(-M, M + 1)] * 3, indexing="ij")
    c = total[l + m - p + 3 * M, l - m - p + 3 * M, m - l - p + 3 * M]
    return 2j * link.gamma * T ** 2 / (2 * np.pi) ** 3 * c


def _panels(edges, nodes):
    """Gauss-Legendre nodes and weights of the panels between consecutive
    edges along the last axis, one row of nodes per leading index."""
    u, wu = np.polynomial.legendre.leggauss(nodes)
    half = np.diff(edges, axis=-1)[..., None] / 2
    mid = (edges[..., 1:] + edges[..., :-1])[..., None] / 2
    shape = edges.shape[:-1] + (-1,)
    return (mid + half * u).reshape(shape), (half * wu).reshape(shape)


def _rrc_oracle(link, rolloff, x_nodes=16, y_nodes=12, s_nodes=16):
    """_sinc_oracle for the unit-energy, untruncated root-raised cosine of
    roll-off beta, whose spectrum over sqrt(T) is G(w) = 1 to |w| = lo,
    cos((|w| - lo) T / (4 beta)) to hi and 0 beyond, lo and hi = (1 -+
    beta) Omega. Its w1 band integral has no closed form: with w1 = s +
    (nu + mu)/2, a = (x + y)/2 and b = |x - y|/2, x = |nu| and y = |mu|,

        band_k = 2 * integral over 0 < s < hi - a of G(s + a) G(s - a)
                 * G(s + b) G(s - b) cos(k T s),

    which is width * sinc(k T width / 2 pi) at beta = 0. The s-integral
    runs by Gauss-Legendre panels between the roll-off edges of the four
    spectra, |lo - a|, lo + a, |lo - b| and lo + b. band_k has kinks where
    two of them meet, on x, y or x + y = 2 beta Omega, 2 lo or 2 Omega and
    on |x - y| = 2 lo, so these lines are panel edges too: each y-row is
    split at them, and the x panels, _sinc_oracle's on the diamond grown
    by 1 + beta, at each crossing of two of them. At roll-off 0.25, 16
    x-nodes, 12 y-nodes and 16 s-nodes per panel are 3.1e-14 from 32, 24
    and 24 at memory 2 on the 50 km test link and 5.7e-11 at memory 1 on
    configs/reference.yaml (max-norm relative)."""
    T = link.symbol_period
    omega = np.pi / T
    lo, hi = (1 - rolloff) * omega, (1 + rolloff) * omega
    top = 2 * hi
    cuts = np.array([c for c in (2 * rolloff * omega, 2 * lo, 2 * omega)
                     if c > 0])
    ends = np.concatenate([[0.0], cuts, [top]])
    cross = np.abs(np.add.outer(ends, np.concatenate([ends, -ends]))).ravel()
    cross = np.concatenate([cross, cross / 2])
    x, wx = _panels(np.unique(np.concatenate([
        [0.0], top * 2.0 ** -np.arange(8, 0, -1),
        hi * (1 + np.arange(1, 5) / 4), cross[(cross > 0) & (cross < top)]])),
        x_nodes)
    xc = x[:, None]
    ytop = top - xc
    y_edges = np.concatenate([np.zeros_like(xc), ytop,
                              np.tile(cuts, (x.size, 1)), cuts - xc,
                              xc - 2 * lo, xc + 2 * lo], axis=1)
    y, wy = _panels(np.sort(np.clip(y_edges, 0, ytop), axis=1), y_nodes)
    a, b = (xc + y)[..., None] / 2, np.abs(xc - y)[..., None] / 2
    end = hi - a
    s_edges = np.concatenate([np.zeros_like(a), end, np.abs(lo - a),
                              lo + a, np.abs(lo - b), lo + b], axis=-1)
    s, ws = _panels(np.sort(np.clip(s_edges, 0, end), axis=-1), s_nodes)
    if rolloff:
        for shift in (a, -a, b, -b):
            ws = ws * np.cos(np.maximum(np.abs(s + shift) - lo, 0)
                             * (T / (4 * rolloff)))
    # cos(k T s) by the Chebyshev recurrence, k = 0 .. 3M
    c1, ck, prev, band = np.cos(T * s), np.ones_like(s), None, []
    for k in range(3 * link.memory + 1):
        band.append(2 * np.einsum("xys,xys->xy", ws, ck))
        ck, prev = (c1 if k == 0 else 2 * c1 * ck - prev), ck
    return _overlap_oracle(link, x, wx, y, wy, lambda k: band[abs(k)])


def _scaled_oracle_error(link, pulse, oracle):
    """(s, the engine's max-norm relative distance from s times oracle),
    s = E_W^-2 from the engine's padded grid (TestSincFrequencyOracle), for
    the sinc or the root-raised cosine (_rrc gives either at energy T)."""
    engine, _ = coefficient_tensor(link, pulse)
    n, dt = level(link, pulse)[:2]
    T = link.symbol_period
    t = (np.arange(n) - n // 2) * dt
    rolloff = pulse.rolloff if pulse.kind == "root-raised-cosine" else 0.0
    scale = (dt / T * np.sum(_rrc(t, T, rolloff) ** 2)) ** -2
    oracle = scale * oracle
    return scale, np.abs(engine.values - oracle).max() / np.abs(
        oracle).max()


def _reference_link(memory):
    cfg = load_config(str(Path(__file__).resolve().parents[1]
                          / "configs" / "reference.yaml"))
    return cfg, dataclasses.replace(cfg.link, memory=memory)


class TestSincFrequencyOracle:
    """The engine's Nyquist-sinc window against _sinc_oracle, which shares
    neither its time grid nor its distance quadrature.

    PulseShape.samples renormalises the sinc cut to the padded window of W
    symbol periods, so the engine's pulse is the unit-energy one over
    sqrt(E_W), E_W = (dt/T) sum sinc^2(t_k/T) on that grid, and since c
    scales as |g|^4 the engine's window is s = E_W^-2 times the oracle's.
    What remains is the leakage of the truncated window: 5.8e-9 at memory
    1 and 7.05e-9 at memory 5 against a converged oracle (1.6e-8 at memory
    5 against this one's 16 and 24 nodes)."""

    @pytest.mark.parametrize("memory", [1, 5])
    def test_engine_is_scaled_oracle(self, memory):
        cfg, link = _reference_link(memory)
        assert cfg.pulse.kind == "nyquist-sinc"
        scale, err = _scaled_oracle_error(link, cfg.pulse,
                                          _sinc_oracle(link))
        # the cut tail holds 2/(pi^2 W) of the energy, W = 256 here
        W = padded(link)
        assert scale - 1 == pytest.approx(1.58502e-3, abs=1e-8)
        assert scale - 1 == pytest.approx(
            (1 - 2 / (np.pi ** 2 * W)) ** -2 - 1, abs=1e-8)
        assert err <= 1e-7, err

    @pytest.mark.parametrize("memory", [0, 1, 2])
    def test_short_link_is_scaled_oracle(self, memory):
        # On the 64-period window the leakage is about 5e-7, within the
        # engine's tolerance, but its two-level residual reads about 1.3e-8:
        # both levels share the truncated window.
        link = dataclasses.replace(SHORT, memory=memory)
        assert padded(link) == 64
        _, err = _scaled_oracle_error(link, SINC, _sinc_oracle(link))
        assert err <= DEFAULT_QUAD_RTOL, err


RRC = PulseShape(kind="root-raised-cosine", rolloff=0.25)


@pytest.fixture(scope="module")
def rrc_short_oracle():
    """_rrc_oracle at memory 2 on the 50 km test link; the windows of
    memory 0 and 1 are its centre."""
    return _rrc_oracle(dataclasses.replace(SHORT, memory=2), RRC.rolloff)


class TestRrcFrequencyOracle:
    """The engine's root-raised-cosine window against _rrc_oracle, scaled
    by the grid renormalisation as the sinc's is. The RRC's tails fall as
    1/t^2, so its truncated window leaks far less than the sinc's: the
    engine is 1.6e-13 or less from s times the oracle at memory 0 to 2 on
    the 50 km test link. At memory 1 on configs/reference.yaml it is
    5.7e-11, the oracle's own quadrature error (5.4e-15 against 32, 24 and
    24 nodes per panel)."""

    def test_rolloff_zero_is_the_sinc_oracle(self):
        # On _sinc_oracle's nodes (24 per y-row) the band integral by
        # quadrature is its closed form.
        link = dataclasses.replace(SHORT, memory=2)
        rrc, sinc = _rrc_oracle(link, 0.0, y_nodes=24), _sinc_oracle(link)
        assert np.abs(rrc - sinc).max() <= 1e-12 * np.abs(sinc).max()

    @pytest.mark.parametrize("memory", [0, 1, 2])
    def test_short_link_is_scaled_oracle(self, memory, rrc_short_oracle):
        link = dataclasses.replace(SHORT, memory=memory)
        assert padded(link) == 64
        window = slice(2 - memory, 3 + memory)
        scale, err = _scaled_oracle_error(
            link, RRC, rrc_short_oracle[window, window, window])
        # s - 1 is 20 times the tolerance here: the scale is tested too
        assert scale - 1 == pytest.approx(2.0597e-6, rel=1e-4)
        assert err <= 1e-7, err

    def test_reference_link_is_scaled_oracle(self):
        _, link = _reference_link(memory=1)
        _, err = _scaled_oracle_error(link, RRC,
                                      _rrc_oracle(link, RRC.rolloff))
        assert err <= 1e-7, err


class TestKappa:
    def test_exactly_rounded_and_the_same_for_both_receivers(self):
        # Receiver w's window is receiver x's lag reversal: the same |c|^2
        # in another order, which a pairwise sum can round differently.
        rng = np.random.default_rng(17)
        for memory in range(1, 8):
            shape = (2 * memory + 1,) * 3
            for _ in range(30):
                v = rng.standard_normal(shape) + 1j * rng.standard_normal(
                    shape)
                kappa = sum_abs_sq(v.ravel().tolist())
                assert kappa == math.fsum(
                    abs(c) ** 2 for c in v.ravel().tolist())
                assert sum_abs_sq(v[::-1, ::-1, ::-1].ravel().tolist()) \
                    == kappa


class TestJsonRoundTrip:
    def test_round_trip_exact(self, short_pair, tmp_path):
        # the receiver is the document's tag: each loads only as its own
        for user, tensor in zip(("x", "w"), short_pair):
            path = tmp_path / f"tensor_{user}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(tensor.to_json_dict(user), fh)
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert doc["user"] == user
            assert doc["memory"] == 1
            assert len(doc["entries"]) == 27
            assert {"l", "m", "p", "re", "im"} == set(doc["entries"][0])
            back = CoeffTensor.load(str(path), user)
            assert np.array_equal(back.values, tensor.values)
            assert back.link == tensor.link
            other = "w" if user == "x" else "x"
            said = (f"{path}: holds receiver {user}'s tensor, "
                    f"not receiver {other}'s")
            with pytest.raises(ConfigError, match=re.escape(said)):
                CoeffTensor.load(str(path), other)
        with pytest.raises(ConfigError):  # load(path) reads receiver x's
            CoeffTensor.load(str(tmp_path / "tensor_w.json"))

    def test_incomplete_document_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"user": "x", "memory": 1, "entries": [
            {"l": 0, "m": 0, "p": 0, "re": 1.0, "im": 0.0}]}))
        with pytest.raises(ConfigError, match="fill"):
            CoeffTensor.load(str(path))

    def test_out_of_window_entry_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"user": "x", "memory": 0, "entries": [
            {"l": 1, "m": 0, "p": 0, "re": 1.0, "im": 0.0}]}))
        with pytest.raises(ConfigError, match="window"):
            CoeffTensor.load(str(path))

    def test_values_are_an_owned_read_only_copy(self):
        raw = np.ones((3, 3, 3), dtype=complex)
        tensor = CoeffTensor(memory=1, values=raw)
        raw[1, 1, 1] = complex(float("nan"), 0.0)
        assert tensor.get(0, 0, 0) == 1.0
        assert tensor.values.flags.c_contiguous
        with pytest.raises(ValueError):
            tensor.values[1, 1, 1] = 2.0

    def test_fields_cannot_be_rebound(self):
        link = {"length_km": 50.0}
        tensor = CoeffTensor(memory=0, values=np.ones((1, 1, 1)),
                             link=link)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tensor.values = np.zeros((1, 1, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            tensor.link = {}
        link["length_km"] = 0.0
        assert tensor.link == {"length_km": 50.0}

    def test_strided_views_accepted(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((3, 3, 3)) + 1j * rng.standard_normal((3, 3, 3))
        for view in (v[::-1, ::-1, ::-1], v.transpose()):
            tensor = CoeffTensor(memory=1, values=view)
            assert np.array_equal(tensor.values, view)
            assert tensor.values.flags.c_contiguous
        bad = v.transpose().copy()
        bad[0, 1, 2] = complex(0.0, float("inf"))
        with pytest.raises(ConfigError):
            CoeffTensor(memory=1, values=bad.transpose())

    def test_constructor_validates_shape_and_finiteness(self):
        with pytest.raises(ConfigError):
            CoeffTensor(memory=1, values=np.zeros((2, 2, 2)))
        bad = np.zeros((1, 1, 1), dtype=complex)
        bad[0, 0, 0] = complex(float("nan"), 0.0)
        with pytest.raises(ConfigError):
            CoeffTensor(memory=0, values=bad)
