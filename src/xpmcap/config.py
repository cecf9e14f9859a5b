"""Physical link description, unit conversions and the additive-noise model.

All internal quantities are SI except fiber lengths (km) and the
nonlinearity coefficient (1/(W km)), matching the conventional units of
the input parameters. Powers are always watts internally; dBm and mW
appear only at CLI boundaries.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, asdict

from .errors import ConfigError, NumericalError
from .pulses import PulseShape

PLANCK_H = 6.62607015e-34  # J s

#: Default noise variance per quadrature (W). Calibrated so that
#: 2*sigma^2 = 2.0 mW, which reproduces the reference additive-noise
#: capacity curve; use :func:`ase_noise_variance` for physically derived
#: values instead.
DEFAULT_SIGMA_SQ_W = 1.0e-3

#: Default WDM carrier separation (Hz); conventional 50 GHz grid at 32 Gbaud.
DEFAULT_CHANNEL_SPACING_HZ = 50.0e9

#: Carrier frequency of the amplified-spontaneous-emission formula (Hz),
#: c/1550 nm.
DEFAULT_CENTER_FREQ_HZ = 299792458.0 / 1550e-9


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _finite(x: float) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


@dataclass(frozen=True)
class LinkParams:
    """Single-span fiber link and transmission parameters.

    gamma              nonlinearity coefficient, 1/(W km)
    alpha_db_per_km    attenuation, dB/km
    beta2_ps2_per_km   group-velocity dispersion, ps^2/km
    length_km          span length, km
    baud_rate          symbol rate, symbols/s
    channel_spacing_hz WDM carrier separation, Hz
    memory             one-sided coefficient window (lags run -memory..memory)
    """

    gamma: float = 1.2
    alpha_db_per_km: float = 0.2
    beta2_ps2_per_km: float = -21.7
    length_km: float = 250.0
    baud_rate: float = 32.0e9
    channel_spacing_hz: float = DEFAULT_CHANNEL_SPACING_HZ
    memory: int = 5

    def __post_init__(self):
        for name in ("gamma", "alpha_db_per_km", "beta2_ps2_per_km",
                     "length_km", "baud_rate", "channel_spacing_hz"):
            _require(_finite(getattr(self, name)), f"link.{name} must be finite")
        _require(self.gamma >= 0, "gamma must be >= 0")
        _require(self.alpha_db_per_km >= 0, "attenuation must be >= 0")
        _require(self.length_km >= 0, "span length must be >= 0")
        _require(self.baud_rate > 0, "baud rate must be > 0")
        _require(self.channel_spacing_hz >= 0, "channel spacing must be >= 0")
        _require(isinstance(self.memory, int) and self.memory >= 0,
                 "memory must be a nonnegative integer")

    @property
    def alpha_np_per_km(self) -> float:
        """Attenuation in nepers/km."""
        return self.alpha_db_per_km * math.log(10.0) / 10.0

    @property
    def beta2_s2_per_km(self) -> float:
        return self.beta2_ps2_per_km * 1e-24

    @property
    def symbol_period(self) -> float:
        return 1.0 / self.baud_rate

    def walkoff_delay_s(self, z_km: float) -> float:
        """Relative group delay between the two carriers after z_km."""
        omega = 2.0 * math.pi * self.channel_spacing_hz
        return self.beta2_s2_per_km * omega * z_km

    def dispersion_spread_s(self, z_km: float) -> float:
        """Two-sided group-delay spread of a baud-rate-wide signal at z_km."""
        return abs(self.beta2_s2_per_km) * z_km * 2.0 * math.pi * self.baud_rate

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class NoiseParams:
    """Additive-noise description.

    sigma_sq is the noise variance per quadrature (real/imaginary
    dimension), in W; the total complex noise power is 2*sigma_sq.
    A value of exactly zero is permitted so that the zero-length-span
    limit is representable; operations that divide by sigma_sq validate
    positivity themselves.
    """

    sigma_sq: float = DEFAULT_SIGMA_SQ_W
    nsp: float | None = None

    def __post_init__(self):
        _require(_finite(self.sigma_sq) and self.sigma_sq >= 0,
                 "sigma_sq must be finite and >= 0")
        if self.nsp is not None:
            _require(_finite(self.nsp) and self.nsp >= 1, "nsp must be >= 1")


@dataclass(frozen=True)
class PowerPair:
    """Mean transmit powers of the two users, in W."""

    p1: float
    p2: float

    def __post_init__(self):
        _require(_finite(self.p1) and self.p1 >= 0, "p1 must be finite and >= 0")
        _require(_finite(self.p2) and self.p2 >= 0, "p2 must be finite and >= 0")

    def swapped(self) -> "PowerPair":
        return PowerPair(self.p2, self.p1)


def dbm_to_watts(p_dbm: float) -> float:
    """Convert dBm to W."""
    if not _finite(p_dbm):
        raise ConfigError("power in dBm must be finite")
    try:
        return 10.0 ** (p_dbm / 10.0) * 1e-3
    except OverflowError:
        raise ConfigError(f"power {p_dbm} dBm overflows in watts") from None


def effective_length(alpha_db_per_km: float, length_km: float) -> float:
    """Nonlinearity-weighted span length (1 - e^(-alpha L)) / alpha, km.

    alpha is converted to nepers; the lossless limit returns length_km.
    """
    _require(_finite(alpha_db_per_km) and alpha_db_per_km >= 0,
             "attenuation must be finite and >= 0")
    _require(_finite(length_km) and length_km >= 0,
             "length must be finite and >= 0")
    alpha_np = alpha_db_per_km * math.log(10.0) / 10.0
    if alpha_np == 0.0:
        return length_km
    return -math.expm1(-alpha_np * length_km) / alpha_np


def ase_noise_variance(link: LinkParams, nsp: float = 1.0) -> NoiseParams:
    """Amplified-spontaneous-emission noise of a single lumped amplifier.

    The amplifier exactly compensates the span loss G = e^(alpha L), so the
    total noise power over the symbol-rate bandwidth B is
    2*sigma^2 = 2 nsp h f (G - 1) B at the carrier f =
    DEFAULT_CENTER_FREQ_HZ, and sigma^2 is the per-quadrature half.
    A measured variance needs no formula: use NoiseParams(sigma_sq=...).
    """
    _require(_finite(nsp) and nsp >= 1, "nsp must be >= 1")
    exponent = link.alpha_np_per_km * link.length_km
    if exponent > 700.0:  # e^x overflows binary64 near 709
        raise NumericalError(
            f"amplifier gain e^{exponent:.1f} overflows; span too long for "
            "the lumped-amplification model")
    total = (2.0 * nsp * PLANCK_H * DEFAULT_CENTER_FREQ_HZ
             * math.expm1(exponent) * link.baud_rate)
    return NoiseParams(sigma_sq=total / 2.0, nsp=nsp)


# ---------------------------------------------------------------------------
# Configuration file handling (YAML: nested sections of scalar keys)
# ---------------------------------------------------------------------------

#: Each section's keys and the type of their values. A float key is parsed
#: with float(), which also reads YAML 1.1's 32.0e9 (a string to PyYAML).
_SECTIONS = {
    "link": {"gamma": float, "alpha_db_per_km": float,
             "beta2_ps2_per_km": float, "length_km": float,
             "baud_rate": float, "channel_spacing_hz": float, "memory": int},
    "noise": {"sigma_sq_w": float, "nsp": float},
    "sweep": {"powers_dbm": list, "g_real_per_mw": float,
              "g_abs_sq_per_mw2": float, "kappa_per_mw2": float},
    "simulation": {"g_real_per_mw": float, "g_imag_per_mw": float},
    "pulse": {"kind": str, "rolloff": float, "width_s": float},
}


@dataclass
class ToolkitConfig:
    """Validated view of a toolkit configuration file."""

    link: LinkParams = field(default_factory=LinkParams)
    noise: NoiseParams = field(default_factory=NoiseParams)
    sweep: dict = field(default_factory=dict)
    simulation: dict = field(default_factory=dict)
    pulse: PulseShape = field(default_factory=PulseShape)
    source_path: str | None = None

    def echo(self) -> dict:
        """Plain-dict echo of the effective configuration."""
        return {
            "link": self.link.to_dict(),
            "noise": {"sigma_sq_w": self.noise.sigma_sq, "nsp": self.noise.nsp},
            "sweep": dict(self.sweep),
            "simulation": dict(self.simulation),
            "pulse": asdict(self.pulse),
        }


#: Least values, checked here so that the error names the file and the key.
_MINIMA = {"sweep.kappa_per_mw2": 0, "sweep.g_abs_sq_per_mw2": 0}


def _number(name: str, value) -> float:
    _require(not isinstance(value, bool), f"{name} must be a number")
    try:
        number = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be a number: {exc}") from exc
    _require(math.isfinite(number), f"{name} must be finite")
    return number


def _typed(section: str, mapping: dict) -> dict:
    """The section's values, checked (and parsed) by type and least value."""
    out = {}
    for key, value in mapping.items():
        name, kind = f"{section}.{key}", _SECTIONS[section][key]
        if kind is int:
            _require(isinstance(value, int) and not isinstance(value, bool),
                     f"{name} must be an integer")
        elif kind is str:
            _require(isinstance(value, str), f"{name} must be a string")
        elif kind is list:
            _require(isinstance(value, list), f"{name} must be a list")
            value = [_number(name, v) for v in value]
        else:
            value = _number(name, value)
        if name in _MINIMA:
            _require(value >= _MINIMA[name],
                     f"{name} must be >= {_MINIMA[name]}, got {value}")
        out[key] = value
    return out


def _section(raw: dict, name: str) -> dict:
    """The mapping of one section; only a missing or null section is empty."""
    mapping = raw.get(name)
    if mapping is None:
        return {}
    if not isinstance(mapping, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    _refuse_unknown(f"key(s) in section '{name}'", mapping, _SECTIONS[name])
    return _typed(name, mapping)


def _refuse_unknown(what: str, given: dict, known: dict) -> None:
    unknown = sorted(map(str, given.keys() - known.keys()))  # YAML: any key
    _require(not unknown, f"unknown {what}: {', '.join(unknown)}")


def config_from_dict(raw: dict, source_path: str | None = None) -> ToolkitConfig:
    """Build a validated ToolkitConfig from a parsed mapping.

    Unknown sections or keys, wrongly typed values and a pulse
    PulseShape refuses are hard errors; each names source_path if given.
    """
    try:
        return _build_config(raw, source_path)
    except ConfigError as exc:
        if source_path is None:
            raise
        raise ConfigError(f"{source_path}: {exc}") from exc


def _build_config(raw: dict, source_path: str | None) -> ToolkitConfig:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping of sections")
    _refuse_unknown("section(s)", raw, _SECTIONS)
    sections = {name: _section(raw, name) for name in _SECTIONS}
    pulse = PulseShape(**sections["pulse"])  # checks kind, rolloff and width_s

    link = LinkParams(**sections["link"])

    noise_raw = sections["noise"]
    if "sigma_sq_w" in noise_raw:
        _require("nsp" not in noise_raw, "noise.sigma_sq_w and noise.nsp "
                 "both set the noise variance; give one")
        noise = NoiseParams(sigma_sq=noise_raw["sigma_sq_w"])
    elif "nsp" in noise_raw:
        noise = ase_noise_variance(link, nsp=noise_raw["nsp"])
    else:
        noise = NoiseParams()

    return ToolkitConfig(
        link=link,
        noise=noise,
        sweep=sections["sweep"],
        simulation=sections["simulation"],
        pulse=pulse,
        source_path=source_path,
    )


def load_config(path: str) -> ToolkitConfig:
    """Load and validate a YAML configuration file."""
    import yaml

    class Loader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            # YAML would keep a repeated key's last value: refuse it instead
            keys = Counter(str(key.value) for key, _ in node.value)
            twice = sorted(key for key, count in keys.items() if count > 1)
            _require(not twice, f"{path}: repeated key(s): {', '.join(twice)}")
            return super().construct_mapping(node, deep)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (yaml.YAMLError, RecursionError) as exc:  # RecursionError: nesting
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return config_from_dict(raw, source_path=path)
