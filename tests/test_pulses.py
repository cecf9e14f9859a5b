import dataclasses

import numpy as np
import pytest

from xpmcap import coefficients
from xpmcap.coefficients import _level, _pad_factor, _window_symbols
from xpmcap.config import LinkParams
from xpmcap.errors import ConfigError, GridError
from xpmcap.pulses import PULSE_KINDS, PulseShape, TimeFreqGrid

LINK = LinkParams()
T = LINK.symbol_period
SINC = PulseShape()
GAUSS = PulseShape(kind="gaussian", width_s=T / 3)


def grid_energy(grid, samples):
    return grid.dt * float(np.sum(np.abs(samples) ** 2))


class TestPulseShapes:
    @pytest.mark.parametrize("pulse", [
        PulseShape(),
        PulseShape(kind="root-raised-cosine", rolloff=0.25),
        PulseShape(kind="root-raised-cosine", rolloff=0.0),
        PulseShape(kind="gaussian", width_s=T / 3),
    ])
    def test_unit_energy(self, pulse):
        grid = TimeFreqGrid(2048, 32 * T)
        g = pulse.samples(grid, T)
        assert grid_energy(grid, g) == pytest.approx(1.0, abs=1e-9)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            PulseShape(kind="rectangular")

    def test_gaussian_needs_width(self):
        with pytest.raises(ConfigError):
            PulseShape(kind="gaussian")

    @pytest.mark.parametrize("kind", PULSE_KINDS)
    def test_samples_are_real_and_periodic_even(self, kind):
        # Receiver w's coefficients are receiver x's lag-reversed only for
        # real, even pulses; pin that every kind samples to one, bitwise.
        rolloffs = (0.0, 0.1, 0.25, 0.5, 1.0) if kind == "root-raised-cosine" \
            else (0.1,)
        for rolloff in rolloffs:
            pulse = PulseShape(kind=kind, rolloff=rolloff, width_s=T / 3)
            for n in (1024, 4096, 131072):
                g = pulse.samples(TimeFreqGrid(n, n / 64 * T), T)
                assert np.all(g.imag == 0)
                assert np.array_equal(g, np.roll(g[::-1], 1))

    @pytest.mark.parametrize("pulse, rate", [
        (SINC, 8),
        (PulseShape(kind="root-raised-cosine", rolloff=0.0), 8),
        (PulseShape(kind="root-raised-cosine", rolloff=0.25), 8),
        (PulseShape(kind="root-raised-cosine", rolloff=1.0), 8),
        (GAUSS, 16)], ids=["sinc", "rrc-0", "rrc-0.25", "rrc-1", "gaussian"])
    def test_samples_per_symbol(self, pulse, rate):
        # band-limited kinds: the coarse level's 4 per symbol exceed the
        # overlap band 2(1+beta)/T; the Gaussian's spectrum has no edge
        assert pulse.samples_per_symbol == rate

    def test_rolloff_range(self):
        with pytest.raises(ConfigError):
            PulseShape(kind="root-raised-cosine", rolloff=1.5)


class TestGrid:
    def test_power_of_two_required(self):
        with pytest.raises(ConfigError):
            TimeFreqGrid(1000, 1e-9)

    def test_derived_quantities(self):
        grid = TimeFreqGrid(4096, 64 * T)
        assert grid.dt == pytest.approx(T / 64)
        assert grid.times.size == 4096
        assert grid.omega.size == 4096

    def test_for_link_default_covers_reference_span(self):
        # the grid the coefficient engine derives for a link: the reference
        # span's dispersion spread of about 35 symbols sets the window, the
        # pulse only the sample rate
        for memory, n_symbols in ((1, 64), (5, 64), (12, 128)):
            link = dataclasses.replace(LINK, memory=memory)
            pad = _pad_factor(link, n_symbols)
            assert _window_symbols(link) == n_symbols
            for pulse, rate in ((SINC, 8), (GAUSS, 16)):
                grid, step, _ = _level(link, pulse, pulse.samples_per_symbol)
                assert step == rate
                assert grid.n_samples == rate * n_symbols * pad
                assert grid.t_span == n_symbols * pad * T

    def test_too_small_window_rejected(self, monkeypatch):
        # 16 symbol periods do not cover the reference link even at memory
        # 1, so a window capped there is refused before any grid is built
        monkeypatch.setattr(coefficients, "_MAX_WINDOW_SYMBOLS", 16)
        with pytest.raises(GridError, match="required by memory"):
            _window_symbols(LINK)
        with pytest.raises(GridError, match="required by memory"):
            _level(dataclasses.replace(LINK, memory=1), SINC, 8)
