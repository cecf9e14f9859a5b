import dataclasses

import numpy as np
import pytest

from xpmcap import coefficients
from xpmcap.coefficients import _level, _window, coefficient_tensor
from xpmcap.config import LinkParams
from xpmcap.errors import ConfigError, GridError
from xpmcap.pulses import PULSE_KINDS, PulseShape

LINK = LinkParams()
T = LINK.symbol_period
SINC = PulseShape()
GAUSS = PulseShape(kind="gaussian", width_s=T / 3)


def reference_level(memory, pulse):
    """The engine's fine level for the pulse on the reference link."""
    link = dataclasses.replace(LINK, memory=memory)
    n_symbols, pad = _window(link)
    return _level(link, pulse, n_symbols * pad, pulse.samples_per_symbol)


class TestPulseShapes:
    @pytest.mark.parametrize("pulse", [
        PulseShape(),
        PulseShape(kind="root-raised-cosine", rolloff=0.25),
        PulseShape(kind="root-raised-cosine", rolloff=0.0),
        PulseShape(kind="gaussian", width_s=T / 3),
    ])
    def test_unit_energy(self, pulse):
        dt = 32 * T / 2048
        g = pulse.samples(2048, dt, T)
        assert dt * float(np.sum(np.abs(g) ** 2)) == pytest.approx(1.0,
                                                                   abs=1e-9)

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
                g = pulse.samples(n, n / 64 * T / n, T)
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
    """The grid each level of the coefficient engine builds for itself."""

    def test_power_of_two_required(self):
        # the engine's FFTs and half-spectrum phase mirror run on a power
        # of two samples at every level
        for memory in (0, 1, 5, 12):
            for pulse in (SINC, GAUSS):
                n = reference_level(memory, pulse)[0]
                assert n >= 2 and n & (n - 1) == 0

    def test_derived_quantities(self):
        # reference link, memory 5: 64 symbol periods padded to 256, at 8
        # samples per symbol
        n, dt, omega, step, spec = reference_level(5, SINC)
        assert (n, step) == (2048, 8)
        assert dt == pytest.approx(T / 8)
        assert omega.size == spec.size == n
        assert np.array_equal(omega, 2.0 * np.pi * np.fft.fftfreq(n, dt))
        assert omega[1] == pytest.approx(2.0 * np.pi / (256 * T))
        assert np.array_equal(spec, np.fft.fft(SINC.samples(n, dt, T)))

    def test_for_link_default_covers_reference_span(self):
        # the grid the coefficient engine derives for a link: the reference
        # span's dispersion spread of about 35 symbols sets the window, the
        # pulse only the sample rate
        for memory, n_symbols in ((1, 64), (5, 64), (12, 128)):
            link = dataclasses.replace(LINK, memory=memory)
            window, pad = _window(link)
            assert window == n_symbols
            for pulse, rate in ((SINC, 8), (GAUSS, 16)):
                n, dt, _, step, _ = reference_level(memory, pulse)
                assert step == rate
                assert n == rate * n_symbols * pad
                assert dt == (n_symbols * pad * T) / n

    def test_too_small_window_rejected(self, monkeypatch):
        # 16 symbol periods do not cover the reference link even at memory
        # 1, so a window capped there is refused before any grid is built
        monkeypatch.setattr(coefficients, "_MAX_WINDOW_SYMBOLS", 16)
        with pytest.raises(GridError, match="required by memory"):
            _window(LINK)
        with pytest.raises(GridError, match="required by memory"):
            coefficient_tensor(dataclasses.replace(LINK, memory=1), SINC)
