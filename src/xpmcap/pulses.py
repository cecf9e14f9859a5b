"""Sampled transmit pulses.

The coefficient engine propagates them: chromatic dispersion and walk-off
delays are applied as all-pass filters in the frequency domain, so pulse
energy is conserved exactly up to FFT rounding. Each pulse sets the
sample rate of its coefficient grid (PulseShape.samples_per_symbol):
8 per symbol for the band-limited kinds, 16 for the Gaussian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

PULSE_KINDS = ("nyquist-sinc", "root-raised-cosine", "gaussian")


@dataclass(frozen=True)
class PulseShape:
    """Transmit pulse family; sampled pulses are normalized to unit energy.

    Every kind is real and even in t, and samples to a real array with
    g[k] == g[-k mod n] exactly; `coeffs` writes receiver w's window as
    receiver x's lag reversal on that basis.

    kind     one of ``nyquist-sinc``, ``root-raised-cosine``, ``gaussian``
    rolloff  excess-bandwidth factor for root-raised-cosine (0..1)
    width_s  RMS amplitude width for gaussian, seconds
    """

    kind: str = "nyquist-sinc"
    rolloff: float = 0.1
    width_s: float | None = None

    def __post_init__(self):
        if self.kind not in PULSE_KINDS:
            raise ConfigError(f"unknown pulse kind '{self.kind}'; "
                              f"expected one of {PULSE_KINDS}")
        if self.kind == "root-raised-cosine" and not 0.0 <= self.rolloff <= 1.0:
            raise ConfigError("rolloff must lie in [0, 1]")
        if self.kind == "gaussian":
            if self.width_s is None or self.width_s <= 0:
                raise ConfigError("gaussian pulse requires width_s > 0")

    @property
    def samples_per_symbol(self) -> int:
        """Samples per symbol of the coefficient grid. The quadrature checks
        itself at half as many, so the coarse level must still exceed the
        one-sided band of the four-pulse overlap, 2(1+beta)/T for a
        band-limited pulse of roll-off beta (at most 4/T): 8 per symbol
        for the sinc and the RRC. A Gaussian's spectrum has no edge; it
        needs 16 (at 8 its residual exceeds 1e-6 at width T/3)."""
        return 16 if self.kind == "gaussian" else 8

    def samples(self, n: int, dt: float, symbol_period: float) -> np.ndarray:
        """Complex baseband samples at the times (k - n//2) dt, k = 0 ..
        n-1, unit energy (trapezoid)."""
        import numpy as np  # here: config imports PulseShape without numpy
        t = (np.arange(n) - n // 2) * dt
        T = symbol_period
        if self.kind == "nyquist-sinc":
            g = np.sinc(t / T)
        elif self.kind == "root-raised-cosine":
            g = _rrc(t, T, self.rolloff)
        else:
            g = np.exp(-(t ** 2) / (2.0 * self.width_s ** 2))
        g = g.astype(np.complex128)
        energy = dt * float(np.sum(np.abs(g) ** 2))
        if energy <= 0:
            raise ConfigError("pulse has no energy on this grid")
        return g / math.sqrt(energy)


def _rrc(t: np.ndarray, T: float, beta: float) -> np.ndarray:
    """Root-raised-cosine impulse response (any normalization)."""
    import numpy as np
    if beta == 0.0:
        return np.sinc(t / T)
    x = t / T
    out = np.empty_like(x)
    # Singular points: x = 0 and x = +-1/(4 beta).
    xs = 1.0 / (4.0 * beta)
    near0 = np.isclose(x, 0.0, atol=1e-12)
    nears = np.isclose(np.abs(x), xs, atol=1e-9)
    regular = ~(near0 | nears)
    xr = x[regular]
    num = np.sin(np.pi * xr * (1 - beta)) + 4 * beta * xr * np.cos(np.pi * xr * (1 + beta))
    den = np.pi * xr * (1 - (4 * beta * xr) ** 2)
    out[regular] = num / den
    out[near0] = 1.0 + beta * (4.0 / np.pi - 1.0)
    out[nears] = (beta / math.sqrt(2.0)) * (
        (1 + 2 / np.pi) * math.sin(np.pi / (4 * beta))
        + (1 - 2 / np.pi) * math.cos(np.pi / (4 * beta)))
    return out

