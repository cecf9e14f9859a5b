"""Rate upper bounds, the interference-as-noise lower bound, power sweeps.

All rates are bits per complex symbol (base-2 logarithms); all powers and
variances are watts. The single-user upper bounds take an effective
single-tap coefficient through its real part and squared modulus only,
which is all the formulas consume; the pair may be supplied directly,
fitted from published curve samples, or taken from a computed tensor.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .channel import _lag_stack, interference_terms, sample_cscg, spawn_seeds
from .coefficients import CoeffTensor
from .config import PowerPair, dbm_to_watts
from .errors import BoundDomainError, ConfigError, SampleBudgetError

SWEEP_CSV_HEADER = ("p_dbm", "u1", "u2", "u_sum", "awgn", "ian1", "ian2")


@dataclass(frozen=True)
class EffectiveCoefficient:
    """Real part and squared modulus of a single-tap coefficient.

    g_real is in 1/W and g_abs_sq in 1/W^2. Any complex coefficient
    satisfies g_abs_sq >= g_real^2 (is_physical); pairs fitted from
    published curves can violate that, so it is reported, not enforced.
    """

    g_real: float = 0.0
    g_abs_sq: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.g_real) and math.isfinite(self.g_abs_sq)):
            raise ConfigError("coefficient parameters must be finite")
        if self.g_abs_sq < 0:
            raise ConfigError("g_abs_sq must be >= 0")

    @property
    def is_physical(self) -> bool:
        return self.g_abs_sq >= self.g_real ** 2

    @classmethod
    def from_complex(cls, g: complex) -> "EffectiveCoefficient":
        return cls(g_real=g.real, g_abs_sq=abs(g) ** 2)


def awgn_capacity(p: float, sigma_sq: float) -> float:
    """Linear-channel capacity log2(1 + P / (2 sigma^2))."""
    if p < 0:
        raise ConfigError("power must be >= 0")
    if sigma_sq <= 0:
        raise ConfigError("sigma_sq must be > 0")
    return math.log2(1.0 + p / (2.0 * sigma_sq))


def _bracket(g: EffectiveCoefficient, interferer_power: float) -> float:
    b = 1.0 + 2.0 * g.g_real * interferer_power \
        + 2.0 * g.g_abs_sq * interferer_power ** 2
    if b < 0:
        raise BoundDomainError(
            f"interference bracket {b:.6g} is negative (g_real "
            f"{g.g_real:.6g} too negative for interferer power "
            f"{interferer_power:.6g} W)")
    return b


def outer_bound_u1(pp: PowerPair, g: EffectiveCoefficient,
                   sigma_sq: float) -> float:
    """Upper bound on user 1's rate under the single-tap model."""
    if sigma_sq <= 0:
        raise ConfigError("sigma_sq must be > 0")
    return math.log2(1.0 + _bracket(g, pp.p2) * pp.p1 / (2.0 * sigma_sq))


def outer_bound_u2(pp: PowerPair, g: EffectiveCoefficient,
                   sigma_sq: float) -> float:
    """Upper bound on user 2's rate; user roles swapped."""
    return outer_bound_u1(pp.swapped(), g, sigma_sq)


def outer_bound_sum(pp: PowerPair, g_x: EffectiveCoefficient,
                    g_w: EffectiveCoefficient, sigma_sq: float) -> float:
    """Upper bound on the sum rate.

    Equals 2 log2((2^U1 + 2^U2)/2 + extra) with a nonnegative extra term,
    hence always >= U1 + U2 by the AM-GM inequality.
    """
    u1 = outer_bound_u1(pp, g_x, sigma_sq)
    u2 = outer_bound_u2(pp, g_w, sigma_sq)
    extra = (g_x.g_abs_sq * pp.p2 ** 2 * pp.p1
             + g_w.g_abs_sq * pp.p1 ** 2 * pp.p2) / (2.0 * sigma_sq)
    return 2.0 * math.log2((2.0 ** u1 + 2.0 ** u2) / 2.0 + extra)


def ian_rate(pp: PowerPair, sigma_sq: float, p_int: float) -> float:
    """Achievable rate of user 1 treating interference as Gaussian noise."""
    if p_int < 0:
        raise ConfigError("interference power must be >= 0")
    if sigma_sq <= 0:
        raise ConfigError("sigma_sq must be > 0")
    return math.log2(1.0 + pp.p1 / (2.0 * sigma_sq + p_int))


def interference_variance(coeffs: CoeffTensor, pp: PowerPair) -> float:
    """Noise power of the trilinear interference under CSCG inputs, with
    the signal-proportional (coherent) component removed.

    For independent CSCG inputs the fourth-moment pairings split each
    coinciding-index term into a coherent part, cancelled exactly by the
    removed conditional mean, and a noise part with unit multiplier, so

        Var = P1 * P2^2 * sum |c[l,m,p]|^2 .
    """
    return pp.p1 * pp.p2 ** 2 * coeffs.sum_abs_sq()


def interference_variance_mc(coeffs: CoeffTensor, pp: PowerPair, n: int,
                             seed: int, blocks: int = 50):
    """Monte-Carlo estimate of the same quantity.

    Draws ``blocks`` independent cyclic blocks totalling ~n symbols,
    subtracts the coherent (conditional-mean given the signal) component
    and averages |residual|^2. Returns (estimate, stderr) where stderr is
    the standard error over block means.

    Raises SampleBudgetError when n is too small for the window or blocks < 2.
    """
    if blocks < 2:
        raise SampleBudgetError(f"blocks={blocks}: need at least 2")
    M = coeffs.memory
    block_len = max(4 * (2 * M + 1), n // blocks)
    if n < blocks * (2 * M + 1):
        raise SampleBudgetError(
            f"n={n} too small: need at least {blocks * (2 * M + 1)} samples "
            f"for {blocks} blocks of window {2 * M + 1}")
    gains = coeffs.coherent_gains()
    seeds = spawn_seeds(seed, 2 * blocks)
    means = np.empty(blocks)
    for b in range(blocks):
        x = sample_cscg(block_len, pp.p1, seeds[2 * b])
        w = sample_cscg(block_len, pp.p2, seeds[2 * b + 1])
        total = interference_terms(x, w, coeffs)
        coherent = pp.p2 * (gains @ _lag_stack(x, 0, block_len, M))
        resid = total - coherent
        means[b] = float(np.mean(np.abs(resid) ** 2))
    estimate = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / math.sqrt(blocks))
    return estimate, stderr


def fit_effective_coefficient(points, sigma_sq: float) -> EffectiveCoefficient:
    """Recover (g_real, g_abs_sq) from two samples of a single-user bound
    curve at equal per-user powers.

    points is a pair of (p_dbm, rate_bits); the bound is inverted to the
    linear system P a + P^2 b = (2^U - 1) 2 sigma^2 / P - 1, a = 2 g_real,
    b = 2 |g|^2. Published curves may not admit a physical pair; see
    EffectiveCoefficient.is_physical.
    """
    if len(points) != 2:
        raise ConfigError("exactly two curve samples are required")
    rows, rhs = [], []
    for p_dbm, rate in points:
        p = dbm_to_watts(p_dbm)
        rows.append([p, p * p])
        rhs.append((2.0 ** rate - 1.0) * 2.0 * sigma_sq / p - 1.0)
    a, b = np.linalg.solve(np.array(rows), np.array(rhs))
    if b < 0:
        raise ConfigError("curve samples imply a negative squared modulus")
    return EffectiveCoefficient(g_real=float(a) / 2.0,
                                g_abs_sq=float(b) / 2.0)


def fit_cubic_interference(peak_p_dbm: float, sigma_sq: float) -> float:
    """Cubic interference coefficient kappa (1/W^2) from the power at
    which the interference-as-noise rate peaks.

    With p_int = kappa P^3 the rate log2(1 + P/(2 sigma^2 + kappa P^3))
    is maximised at P* = (2 sigma^2 / (2 kappa))^(1/3); inverting gives
    kappa = sigma^2 / P*^3.
    """
    p_star = dbm_to_watts(peak_p_dbm)
    if p_star <= 0 or sigma_sq <= 0:
        raise ConfigError("peak power and sigma_sq must be > 0")
    return 2.0 * sigma_sq / (2.0 * p_star ** 3)


@dataclass(frozen=True)
class BoundSet:
    """All bound values evaluated at one power pair (bits/symbol)."""

    u1: float
    u2: float
    u_sum: float
    awgn1: float
    awgn2: float
    ian1: float
    ian2: float
    at: PowerPair

    def __post_init__(self):
        for name in ("u1", "u2", "u_sum", "awgn1", "awgn2", "ian1", "ian2"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ConfigError(f"bound {name}={v!r} must be finite and >= 0")
        # Provably u_sum >= u1 + u2; allow last-ulp rounding at equality.
        slack = 1e-12 * max(1.0, self.u_sum)
        if self.u_sum < self.u1 + self.u2 - slack:
            raise ConfigError(
                f"inconsistent bound set: u_sum {self.u_sum!r} < u1 + u2 "
                f"{self.u1 + self.u2!r}")


def evaluate_bounds(pp: PowerPair, g: EffectiveCoefficient, sigma_sq: float,
                    p_int1: float = 0.0, p_int2: float = 0.0) -> BoundSet:
    """All bounds at one point, with g the center tap of both receivers."""
    return BoundSet(
        u1=outer_bound_u1(pp, g, sigma_sq),
        u2=outer_bound_u2(pp, g, sigma_sq),
        u_sum=outer_bound_sum(pp, g, g, sigma_sq),
        awgn1=awgn_capacity(pp.p1, sigma_sq),
        awgn2=awgn_capacity(pp.p2, sigma_sq),
        ian1=ian_rate(pp, sigma_sq, p_int1),
        ian2=ian_rate(pp.swapped(), sigma_sq, p_int2),
        at=pp,
    )


def sweep(powers_dbm, g: EffectiveCoefficient, sigma_sq: float,
          p2_dbm: float | None = None,
          kappa: float | None = None) -> list[BoundSet]:
    """Evaluate the bound set along a list of user-1 powers in dBm.

    The second user's power is fixed at p2_dbm when given and otherwise
    tracks the first (a symmetric sweep). Receiver w's window is receiver
    x's with its lags reversed, so both receivers share the center tap g
    and kappa = sum |c|^2 (1/W^2). kappa gives both interference-as-noise
    terms through the analytic variance P1 P2^2 kappa
    (interference_variance); None means no interference.
    """
    powers_dbm = list(powers_dbm)
    if not powers_dbm:
        raise ConfigError("power list must not be empty")
    k = 0.0 if kappa is None else kappa
    out = []
    for p_dbm in powers_dbm:
        p1 = dbm_to_watts(p_dbm)
        p2 = p1 if p2_dbm is None else dbm_to_watts(p2_dbm)
        try:
            out.append(evaluate_bounds(PowerPair(p1, p2), g, sigma_sq,
                                       k * p1 * p2 ** 2, k * p2 * p1 ** 2))
        except OverflowError:
            raise ConfigError(f"the bounds overflow at P1 = {p1:.6g} W, "
                              f"P2 = {p2:.6g} W") from None
    return out


def sweep_rows(powers_dbm, bound_sets) -> list[dict]:
    """Full-precision row dicts for the JSON sweep variant."""
    rows = []
    for p_dbm, bs in zip(powers_dbm, bound_sets):
        rows.append({
            "p_dbm": float(p_dbm),
            "p1_w": bs.at.p1, "p2_w": bs.at.p2,
            "u1": bs.u1, "u2": bs.u2, "u_sum": bs.u_sum,
            "awgn": bs.awgn1, "awgn2": bs.awgn2,
            "ian1": bs.ian1, "ian2": bs.ian2,
        })
    return rows


def sweep_csv(powers_dbm, bound_sets) -> str:
    """Render the sweep as CSV with 6 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for p_dbm, bs in zip(powers_dbm, bound_sets):
        writer.writerow([f"{v:.6g}" for v in
                         (p_dbm, bs.u1, bs.u2, bs.u_sum, bs.awgn1,
                          bs.ian1, bs.ian2)])
    return buf.getvalue()


def read_sweep_csv(path: str) -> list[dict]:
    """Parse a sweep CSV back into row dicts of floats."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader, rows = csv.reader(fh), []
        try:
            header = tuple(next(reader, ()))
            if header != SWEEP_CSV_HEADER:
                raise ConfigError(f"unexpected sweep CSV header: {header}")
            for row in reader:
                if len(row) != len(header):
                    raise ConfigError(f"{len(row)} fields, expected "
                                      f"{len(header)}")
                values = dict(zip(header, map(float, row)))
                for name, value in values.items():
                    if not math.isfinite(value):
                        raise ConfigError(f"{name} must be finite, "
                                          f"got {value}")
                rows.append(values)
        except UnicodeDecodeError as exc:  # decoded by the block: no line
            raise ConfigError(f"{path}: {exc}") from exc
        except (ConfigError, ValueError, csv.Error) as exc:
            raise ConfigError(f"{path} line {reader.line_num}: {exc}") from exc
    return rows
