import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from xpmcap.bounds import fit_cubic_interference, fit_effective_coefficient
from xpmcap.config import (LinkParams, NoiseParams, PowerPair,
                           ase_noise_variance, config_from_dict,
                           dbm_to_watts, effective_length, load_config)
from xpmcap.errors import ConfigError, NumericalError


class TestUnitConversions:
    def test_dbm_anchors(self):
        assert dbm_to_watts(0.0) == pytest.approx(1.0e-3, rel=1e-12)
        assert dbm_to_watts(-20.0) == pytest.approx(1.0e-5, rel=1e-12)
        assert dbm_to_watts(10.3) == pytest.approx(1.0715e-2, rel=1e-4)

    def test_rejects_non_finite(self):
        with pytest.raises(ConfigError):
            dbm_to_watts(float("nan"))
        with pytest.raises(ConfigError):
            dbm_to_watts(float("inf"))

    def test_rejects_overflow_naming_the_power(self):
        with pytest.raises(ConfigError, match="4000.0 dBm"):
            dbm_to_watts(4000.0)


class TestEffectiveLength:
    def test_lossless_limit(self):
        assert effective_length(0.0, 100.0) == 100.0

    def test_reference_span(self):
        assert effective_length(0.2, 250.0) == pytest.approx(21.71, abs=5e-3)

    def test_asymptote(self):
        alpha_np = 0.2 * math.log(10) / 10
        assert effective_length(0.2, 1e7) == pytest.approx(1 / alpha_np, rel=1e-9)
        assert abs(1 / alpha_np - 21.715) < 1e-3

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=500.0),
           st.floats(min_value=0.01, max_value=500.0))
    def test_monotone_in_length(self, alpha, length, extra):
        assert effective_length(alpha, length + extra) > effective_length(alpha, length) - 1e-12

    @given(st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.001, max_value=2.0),
           st.floats(min_value=1.0, max_value=500.0))
    def test_decreasing_in_alpha(self, alpha, extra, length):
        assert effective_length(alpha + extra, length) < effective_length(alpha, length) + 1e-12


class TestAseNoise:
    def test_zero_span_is_noiseless(self):
        link = LinkParams(length_km=0.0)
        assert ase_noise_variance(link).sigma_sq == 0.0

    def test_nsp_proportionality(self):
        link = LinkParams()
        one = ase_noise_variance(link, nsp=1.0).sigma_sq
        two = ase_noise_variance(link, nsp=2.0).sigma_sq
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_monotone_in_length_and_bandwidth(self):
        short = ase_noise_variance(LinkParams(length_km=100.0)).sigma_sq
        long = ase_noise_variance(LinkParams(length_km=200.0)).sigma_sq
        assert long > short
        slow = ase_noise_variance(LinkParams(baud_rate=16e9)).sigma_sq
        fast = ase_noise_variance(LinkParams(baud_rate=32e9)).sigma_sq
        assert fast > slow

    def test_overflow_guard(self):
        with pytest.raises(NumericalError):
            ase_noise_variance(LinkParams(length_km=1e6))

    def test_nsp_below_one_rejected(self):
        with pytest.raises(ConfigError):
            ase_noise_variance(LinkParams(), nsp=0.5)


class TestDataTypes:
    def test_link_defaults_match_reference_setup(self):
        link = LinkParams()
        assert link.gamma == 1.2
        assert link.alpha_db_per_km == 0.2
        assert link.beta2_ps2_per_km == -21.7
        assert link.length_km == 250.0
        assert link.baud_rate == 32.0e9
        assert link.memory == 5

    def test_link_invariants(self):
        with pytest.raises(ConfigError):
            LinkParams(gamma=-1.0)
        with pytest.raises(ConfigError):
            LinkParams(baud_rate=0.0)
        with pytest.raises(ConfigError):
            LinkParams(memory=-1)
        with pytest.raises(ConfigError):
            LinkParams(alpha_db_per_km=-0.1)

    def test_power_pair_invariants(self):
        with pytest.raises(ConfigError):
            PowerPair(-1e-3, 1e-3)
        pp = PowerPair(1e-3, 2e-3)
        assert pp.swapped() == PowerPair(2e-3, 1e-3)

    def test_noise_invariants(self):
        with pytest.raises(ConfigError):
            NoiseParams(sigma_sq=-1.0)
        assert NoiseParams().sigma_sq == 1.0e-3  # calibrated default, 2s2 = 2 mW


class TestConfigFile:
    def test_load_and_echo(self, tmp_path):
        path = tmp_path / "run.yaml"
        path.write_text(
            "link:\n"
            "  gamma: 1.2\n"
            "  length_km: 100.0\n"
            "  memory: 2\n"
            "noise:\n"
            "  sigma_sq_w: 2.0e-3\n"
            "sweep:\n"
            "  powers_dbm: [-20.0, -5.0]\n",
            encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.link.length_km == 100.0
        assert cfg.link.memory == 2
        assert cfg.noise.sigma_sq == 2.0e-3
        assert cfg.sweep["powers_dbm"] == [-20.0, -5.0]
        echo = cfg.echo()
        assert echo["link"]["gamma"] == 1.2

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_dict({"link": {"gamm": 1.2}})

    def test_unknown_section_is_hard_error(self):
        with pytest.raises(ConfigError, match="unknown section"):
            config_from_dict({"links": {}})

    def test_string_numbers_coerced(self):
        cfg = config_from_dict({"link": {"baud_rate": "32e9"}})
        assert cfg.link.baud_rate == 32e9

    def test_physical_noise_from_nsp(self):
        cfg = config_from_dict({"noise": {"nsp": 1.5}})
        assert cfg.noise.sigma_sq > 0
        assert cfg.noise.nsp == 1.5

    def test_defaults_when_empty(self):
        cfg = config_from_dict({})
        assert cfg.link == LinkParams()
        assert cfg.noise.sigma_sq == 1.0e-3


class TestReferenceFit:
    """The fitted values in configs/reference.yaml are the fit of the
    published curve samples that acceptance criteria 3 and 4 use."""

    REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.yaml"
    BOUND_SAMPLES = [(5.2, 1.604459), (17.2, 7.0406186)]
    IAN_PEAK_DBM = -3.8

    def test_reference_config_holds_the_fit(self):
        cfg = load_config(str(self.REFERENCE))
        sigma_sq = cfg.noise.sigma_sq
        g = fit_effective_coefficient(self.BOUND_SAMPLES, sigma_sq)
        kappa = fit_cubic_interference(self.IAN_PEAK_DBM, sigma_sq)
        sweep = cfg.sweep
        assert sweep["g_real_per_mw"] == pytest.approx(g.g_real / 1e3,
                                                       rel=1e-4)
        assert sweep["g_abs_sq_per_mw2"] == pytest.approx(g.g_abs_sq / 1e6,
                                                          rel=1e-4)
        assert sweep["kappa_per_mw2"] == pytest.approx(kappa / 1e6, rel=1e-4)
