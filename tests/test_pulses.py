import numpy as np
import pytest

from xpmcap.config import LinkParams
from xpmcap.errors import ConfigError, GridError
from xpmcap.pulses import PULSE_KINDS, PulseShape, TimeFreqGrid

LINK = LinkParams()
T = LINK.symbol_period


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
        grid = TimeFreqGrid.for_link(LINK)
        assert grid.n_samples == 1024
        assert grid.t_span == pytest.approx(64 * T)

    def test_for_link_rejects_odd_samples_per_symbol(self):
        # the coefficient engine's coarse level runs at half the grid's
        # samples per symbol, which must stay whole
        with pytest.raises(ConfigError, match="odd"):
            TimeFreqGrid.for_link(LINK, n_samples=64, n_symbols=64)

    def test_too_small_window_rejected(self):
        with pytest.raises(GridError):
            TimeFreqGrid(1024, 16 * T).check_covers(LINK)
