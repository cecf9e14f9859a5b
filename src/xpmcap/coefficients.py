"""Numerical evaluation of the cross-phase perturbation coefficients.

Each coefficient is a double integral: an overlap of four dispersed,
time-shifted pulse copies over the time axis, weighted by the fiber power
profile e^(-alpha z) and integrated along the span,

    c[l,m,p] = 2j gamma * int_0^L e^(-alpha z)
               * int g*(z,t) g(z,t-lT) gw(z,t-mT) gw*(z,t-pT) dt dz,

where g is the channel-of-interest pulse and gw the interfering-channel
pulse, additionally delayed by the accumulated walk-off between the two
carriers as seen by receiver x. coefficient_tensor evaluates receiver x's
whole (2M+1)^3 window in one quadrature; receiver w's window is its lag
reversal (receiver_w_tensor). The distance integral uses composite
Gauss-Legendre panels and the time integral a trapezoid sum on a grid
the engine derives from the link and the pulse: the window of
_window_symbols, padded _pad_factor-fold, at the pulse's
samples_per_symbol. One two-level comparison checks both, the coarse
level with half the panels at half the samples per symbol. A node
mirrors its phase factors from half the frequency bins, views each lag
shift in a periodically extended buffer and runs real matmuls of planar
rows over the interferer pairs m <= p (b_pm = b_mp*), in groups of pairs
whose rows stay within _PAIR_BYTES. Each
level is its even half (Gauss-Legendre panels 0, 2, ...) plus its odd
half (panels 1, 3, ...), each half one sum over its nodes, so the tensor
has the same bits whether one process or two (a forked child takes the
odd halves, when blas_workers() allows) compute them.

The carriers walk apart by up to tens of symbol periods over a span, so
delays are applied on a grid _pad_factor times wider (same dt), where the
periodic transform cannot wrap the interferer onto the channel of
interest. The pulse is sampled and renormalised across all of it, not
zero-padded, so the tensor depends on the pad factor (reference config,
pad 4 -> 8: c[0,0,0] scales by 0.999208).
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import LinkParams
from .errors import ConfigError, GridError, QuadratureError
from .pulses import PulseShape, TimeFreqGrid
from .workers import blas_workers, forked

USERS = ("x", "w")

DEFAULT_Z_NODES = 64
DEFAULT_QUAD_RTOL = 1e-6

#: Cap on the window _window_symbols derives, in symbol periods: 16 times
#: the reference link's, which covers memory 246 on it or a 7000 km span at
#: memory 5; beyond it GridError is raised before anything is allocated.
_MAX_WINDOW_SYMBOLS = 1024
#: Hard cap on the internal zero-padding factor (memory guard).
_MAX_PAD_FACTOR = 32
#: Bytes of one slab of interferer pair rows in _panel_sums: pairs are
#: filled and multiplied in whole-d groups within it (or within 2M+1 rows,
#: if more), so the buffer stays bounded at any memory. The reference
#: link takes one group up to memory 12.
_PAIR_BYTES = 1 << 26


@dataclass(frozen=True)
class CoeffTensor:
    """Dense window of complex coefficients for one receiver.

    values[l+M, m+M, p+M] holds c[l,m,p] in 1/W for lags in -M..M.
    Immutable: fields cannot be rebound and values is read-only.
    """

    user: str
    memory: int
    values: np.ndarray
    link: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.user not in USERS:
            raise ConfigError(f"user must be one of {USERS}")
        if self.memory < 0:
            raise ConfigError("memory must be >= 0")
        side = 2 * self.memory + 1
        # An owned, contiguous, read-only copy: the caller's array may be
        # any view (e.g. lag-reversed) and cannot change it afterwards.
        values = np.array(self.values, dtype=np.complex128, order="C")
        if values.shape != (side, side, side):
            raise ConfigError(
                f"values must have shape {(side, side, side)}, "
                f"got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ConfigError("coefficient entries must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "link", dict(self.link))

    def get(self, l: int, m: int, p: int) -> complex:
        M = self.memory
        if max(abs(l), abs(m), abs(p)) > M:
            raise IndexError(f"lag ({l},{m},{p}) outside window +-{M}")
        return complex(self.values[l + M, m + M, p + M])

    def lags(self) -> range:
        return range(-self.memory, self.memory + 1)

    def sum_abs_sq(self) -> float:
        """Sum of |c|^2 over the whole window (1/W^2); the cubic
        interference-power coefficient for Gaussian inputs."""
        return float(np.sum(np.abs(self.values) ** 2))

    def coherent_gains(self) -> np.ndarray:
        """s[l] = sum_m c[l,m,m]: gains of the signal-proportional part of
        the interference under unit interferer power."""
        side = 2 * self.memory + 1
        return np.array([np.trace(self.values[i]) for i in range(side)])

    # -- JSON round trip ----------------------------------------------------

    def to_json_dict(self) -> dict:
        # Entries in (l, m, p) row-major order, the order of values.
        lags = itertools.product(self.lags(), repeat=3)
        entries = [{"l": l, "m": m, "p": p, "re": c.real, "im": c.imag}
                   for (l, m, p), c in zip(lags, self.values.ravel().tolist())]
        return {"user": self.user, "memory": self.memory,
                "link": dict(self.link), "entries": entries}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "CoeffTensor":
        try:
            user, memory, link = doc["user"], doc["memory"], doc.get("link", {})
            if type(memory) is not int:  # not isinstance: refuses bool
                raise ConfigError(f"non-integer tensor memory {memory!r}")
            if not isinstance(link, dict):
                raise ConfigError(f"tensor link {link!r} is not a mapping")
            entries = doc["entries"]
            side = 2 * memory + 1
            # Checked before the window is allocated, so a large memory
            # with too few entries cannot size the allocation.
            if memory < 0 or len(entries) != side ** 3:
                raise ConfigError(
                    f"tensor document does not fill the full window: "
                    f"{len(entries)} entries for memory {memory}")
            values = np.full((side, side, side), np.nan + 0j,
                             dtype=np.complex128)
            for e in entries:
                l, m, p = lags = e["l"], e["m"], e["p"]
                if any(type(v) is not int or abs(v) > memory for v in lags):
                    raise ConfigError(
                        f"entry lag {lags} is not an integer in the window")
                parts = e["re"], e["im"]
                if any(type(v) not in (int, float)  # bool is not a number
                       or not abs(v) <= sys.float_info.max for v in parts):
                    raise ConfigError(
                        f"entry {lags}: re and im must be finite numbers")
                values[l + memory, m + memory, p + memory] = complex(*parts)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed tensor document: {exc}") from exc
        if np.any(np.isnan(values.view(np.float64))):
            raise ConfigError("tensor document does not fill the full window")
        return cls(user=user, memory=memory, values=values, link=link)

    @classmethod
    def load(cls, path: str) -> "CoeffTensor":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return cls.from_json_dict(json.load(fh))
            except (ConfigError, ValueError, RecursionError) as exc:
                # ValueError: bad JSON or text; RecursionError: deep nesting
                raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Quadrature core
# ---------------------------------------------------------------------------


def _gauss_legendre_nodes(length_km: float, panels: int, nodes: int):
    """Nodes and weights of composite Gauss-Legendre on [0, length_km],
    one row per panel."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(0.0, length_km, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    return half * x + mid, half * w


def _window_symbols(link: LinkParams) -> int:
    """Symbol periods of the coefficient window before padding: the fewest,
    a power of two, that cover the coefficient lags, 4(M+1) symbol periods,
    plus the dispersion-induced pulse spread at the far end of the span;
    _pad_factor adds room for the walk-off between carriers. Raises
    GridError if that exceeds _MAX_WINDOW_SYMBOLS."""
    T = link.symbol_period
    try:
        lags = 4 * (link.memory + 1) * T
    except OverflowError:  # a memory too large for a float
        lags = math.inf
    needed, n_symbols = lags + link.dispersion_spread_s(link.length_km), 1
    while n_symbols * T < needed:
        if n_symbols == _MAX_WINDOW_SYMBOLS:
            raise GridError(
                f"time window {n_symbols * T:.3e} s is smaller than the "
                f"{needed:.3e} s required by memory {link.memory} and the "
                f"dispersion spread at {link.length_km} km")
        n_symbols *= 2
    return n_symbols


def _pad_factor(link: LinkParams, n_symbols: int) -> int:
    """Power-of-two enlargement of an n_symbols window so delays cannot
    wrap around it."""
    span = n_symbols * link.symbol_period
    reach = (abs(link.walkoff_delay_s(link.length_km))
             + link.memory * link.symbol_period)
    needed = span + 2.0 * reach
    factor = 1
    while factor * span < needed:
        factor *= 2
        if factor > _MAX_PAD_FACTOR:
            raise GridError(
                "walk-off between the carriers exceeds the largest supported "
                "internal window; reduce channel_spacing_hz, length_km or "
                "the magnitude of beta2_ps2_per_km")
    return factor


def _initial_panels(link: LinkParams, pulse: PulseShape) -> int:
    """Panel count resolving the distance integrand.

    The overlap kernel varies on the distance over which the carriers
    slide one time scale past each other, and on the dispersion length
    over which a pulse spreads by one time scale. The scale is the symbol
    period T for the sinc, T/(1+beta) for a root-raised cosine of roll-off
    beta, whose spectrum is 1+beta times as wide, or T (2w/T)^2 for a
    Gaussian of width w < T/2 (on widths T/4 to T/2 the panels needed grow
    as 1/w^2). Gauss-Legendre converges spectrally once each panel of 64
    nodes holds at most 32 of either: the count is the fewest whole panels
    that do.
    """
    T = link.symbol_period
    scale = T
    if pulse.kind == "root-raised-cosine":
        scale = T / (1.0 + pulse.rolloff)
    elif pulse.kind == "gaussian":
        scale = T * min(1.0, (2.0 * pulse.width_s / T) ** 2)
    slide = abs(link.walkoff_delay_s(link.length_km)) / scale
    lengths = link.length_km * abs(link.beta2_s2_per_km) / scale ** 2
    return max(1, math.ceil(max(slide, lengths) / 32))


def _level(link: LinkParams, pulse: PulseShape, step: int):
    """A level at step samples per symbol: its grid (the coefficient window
    padded _pad_factor-fold), step and the pulse spectrum on the grid."""
    n_symbols = _window_symbols(link)
    n_symbols *= _pad_factor(link, n_symbols)
    T = link.symbol_period
    pgrid = TimeFreqGrid(step * n_symbols, n_symbols * T)
    return pgrid, step, np.fft.fft(pulse.samples(pgrid, T))


def _phases(link: LinkParams, omega: np.ndarray, z: float):
    """e^(j beta2 z omega^2 / 2) and e^(-j omega tau(z)) from bins 0..n/2:
    omega[n-k] == -omega[k] exactly, so bin n-k repeats bin k (conjugated
    for the walk-off factor) and both equal np.exp over every bin."""
    w = omega[:len(omega) // 2 + 1]
    disp = np.exp(0.5j * link.beta2_s2_per_km * z * (w * w))
    walk = np.exp(-1j * w * link.walkoff_delay_s(z))
    return (np.concatenate([disp, disp[-2:0:-1]]),
            np.concatenate([walk, walk[-2:0:-1].conj()]))


def _panel_sums(link: LinkParams, level, zs, wq):
    """The (2M+1)^3 window of sum_k wq_k e^(-alpha z_k) sum_t a_l b_mp over
    every node z_k of the given panels (rows of zs and wq), in row order;
    zeros for no panels. For receiver x, a_l = g* roll(g, l s) and b_mp =
    roll(u_(p-m), m s), u_d = gw roll(gw, d s)*, for s samples per symbol.
    Each roll is a row of a sliding-window view into a periodically
    extended buffer. Per node and per group of pairs, one real matmul of
    [Re a; Im a] against [Re b; Im b], m <= p, adds to the blocks RR, RI,
    IR, II; once summed they fill the window, sum_t a_l b_mp = (RR - II) +
    j(RI + IR) and, as b_pm = b_mp*, sum_t a_l b_pm = (RR + II) + j(IR -
    RI). Each group holds whole d and at most cap rows: as many as fit in
    _PAIR_BYTES, or the side rows of d = 0 where those are more.
    """
    pgrid, step, spec0 = level
    n, M = pgrid.n_samples, link.memory
    side, o, npair = 2 * M + 1, M * step, (M + 1) * (2 * M + 1)
    # ext[i] = x[(i - 3o) mod n], x = g then gw*: roll(x, k s) starts at
    # (3M - k) s. uh[d, j] = u_d[(j - o) mod n]: roll(u_d, m s) at (M - m) s.
    ext, ext_at = np.empty(n + 4 * o, complex), np.arange(-3 * o, n + o)
    uh = np.empty((side, n + 2 * o), dtype=np.complex128)
    cap = min(npair, max(side, _PAIR_BYTES // (16 * n)))  # rows per slab
    a, slab = np.empty((2 * side, n)), np.empty(2 * cap * n)
    g_rows = sliding_window_view(ext, n)[::step][2 * M:][::-1]
    gw_rows = sliding_window_view(ext, n + 2 * o)[::step][::-1]
    # b's rows: by d = p - m, then m descending; d's start at row first[d].
    # Each group's b is [Re b; Im b] over its rows, at the start of slab.
    pairs = [(m, m + d) for d in range(side) for m in range(side - d)[::-1]]
    first = [d * side - d * (d - 1) // 2 for d in range(side + 1)]
    groups, d0 = [], 0  # whole d each, at most cap rows
    for d1 in range(1, side + 1):
        if d1 < side and first[d1 + 1] - first[d0] <= cap:
            continue
        rows = first[d1] - first[d0]
        b = slab[:2 * rows * n].reshape(2, rows, n)
        fills = [(dst, sliding_window_view(src, n)[::step][d:])
                 for d in range(d0, d1) for dst, src in zip(
                     b[:, first[d] - first[d0]:first[d + 1] - first[d0]],
                     (uh[d].real, uh[d].imag))]
        groups.append((slice(first[d0], first[d1]), b.reshape(2 * rows, n),
                       fills))
        d0 = d1
    mi, pi = np.array(pairs).T
    acc = np.zeros((2 * side, 2, npair))
    for z, wz in zip(zs.flat, (wq * np.exp(-link.alpha_np_per_km * zs)).flat):
        disp_phase, walk_phase = _phases(link, pgrid.omega, z)
        disp = spec0 * disp_phase
        g, gw = np.fft.ifft(disp), np.fft.ifft(disp * walk_phase)
        np.take(g, ext_at, out=ext, mode="wrap")
        np.multiply(g_rows, np.conj(g), out=uh[:, :n])  # uh: free till u_d
        a[:side], a[side:] = uh[:, :n].real, uh[:, :n].imag
        np.take(np.conj(gw), ext_at, out=ext, mode="wrap")
        np.multiply(gw_rows, np.conj(ext[2 * o:]), out=uh)
        for cols, b, fills in groups:
            for dst, src in fills:
                dst[...] = src
            acc[:, :, cols] += wz * (a @ b.T).reshape(2 * side, 2, -1)
    (rr, ri), (ir, ii) = acc.reshape(2, side, 2, npair).swapaxes(1, 2)
    values = np.empty((side, side, side), dtype=np.complex128)
    values[:, pi, mi] = (rr + ii) + 1j * (ir - ri)
    values[:, mi, pi] = (rr - ii) + 1j * (ri + ir)
    return values


def _window_sums(link: LinkParams, pulse: PulseShape, levels: list,
                 z_nodes: int):
    """Raw quadrature of the overlap kernel over the lag window at each
    (samples per symbol, panels) level, finest last: 2j gamma dt * sum_k
    w_k e^(-alpha z_k) sum_t (overlap at z_k). Returns (processes, [values
    per level]). Each level is its even half (panels 0, 2, ...) plus its
    odd half (panels 1, 3, ...). With blas_workers() at 2 and two
    finest-level panels or more, a forked child computes the odd halves
    and this process the even ones; else this process computes both. An
    odd panel count leaves the even half one panel more (3 panels: 2 here
    and 1 in the child)."""
    setups = [_level(link, pulse, step) for step, _ in levels]
    nodes = [_gauss_legendre_nodes(link.length_km, panels, z_nodes)
             for _, panels in levels]

    def half(parity):  # per level, the panels parity, parity + 2, ...
        return [_panel_sums(link, setup, zs[parity::2], wq[parity::2])
                for setup, (zs, wq) in zip(setups, nodes)]

    if (workers := blas_workers() if levels[-1][1] >= 2 else 1) == 1:
        even, odd = half(0), half(1)
    else:
        with forked(lambda fh: fh.write(np.stack(half(1)).tobytes()),
                    lambda: half(0), "the process computing the odd-numbered "
                    "quadrature panels of each level") as (even, fh):
            raw = np.frombuffer(fh.read(), dtype=np.complex128)
        odd = raw.reshape(len(levels), *even[0].shape)
    return workers, [(2j * link.gamma * pgrid.dt) * (e + o)
                     for (pgrid, _, _), e, o in zip(setups, even, odd)]


def receiver_w_tensor(tx: CoeffTensor) -> CoeffTensor:
    """Receiver w's window from receiver x's: c_w[l,m,p] = c_x[-l,-m,-p].

    Receiver w sees the interferer walk off the other way. For a real,
    even pulse (every kind in PULSE_KINDS samples to one) the substitution
    t -> -t maps the overlap kernel with walk-off tau onto the one with
    walk-off -tau and every lag negated, so the two windows are exact lag
    reversals of each other and one quadrature serves both receivers.
    """
    if tx.user != "x":
        raise ConfigError("lag reversal maps a receiver-x tensor")
    return CoeffTensor(user="w", memory=tx.memory,
                       values=tx.values[::-1, ::-1, ::-1], link=tx.link)


def coefficient_tensor(link: LinkParams, pulse: PulseShape):
    """Receiver x's full (2M+1)^3 coefficient window and the report of its
    two-level quadrature: z_nodes, panels, refinements, residual and rtol,
    and under "diagnostics" the quadrature's layout (pad_factor, levels,
    nodes_evaluated, quad_workers).

    The link and the pulse fix the grid: the window of _window_symbols
    (GridError beyond its cap), padded _pad_factor-fold. The panels of
    _initial_panels at half the pulse's samples_per_symbol are compared
    with twice the panels at the full rate (DEFAULT_Z_NODES nodes each;
    _window_sums may fork to compute each level's two halves, by panel
    parity, in two processes), and the fine level is returned. Raises
    QuadratureError when the two differ by more than DEFAULT_QUAD_RTOL
    relative (max-norm), so the one residual bounds the time and the
    distance discretisation together.

    Dispersion and walk-off are all-pass, so the four-pulse overlap keeps
    a one-sided band of at most 2(1+beta)/T for roll-off beta, and the
    trapezoid sum of a periodic, band-limited integrand is exact once the
    sample rate exceeds that band (Trefethen & Weideman, SIAM Rev. 56(3),
    2014). At 8 samples per symbol the coarse level of a sinc or RRC runs
    at 4 per symbol, still above the band, so only leakage from the
    truncated window is left; the Gaussian's unbounded spectrum takes 16.

    Receiver w's window is this one with every lag reversed; get it with
    receiver_w_tensor.
    """
    n_symbols = _window_symbols(link)
    diagnostics = {"pad_factor": 1, "levels": [], "nodes_evaluated": 0,
                   "quad_workers": 1}
    report = {"z_nodes": DEFAULT_Z_NODES, "panels": 1, "refinements": 0,
              "residual": 0.0, "rtol": DEFAULT_QUAD_RTOL,
              "diagnostics": diagnostics}
    fine = np.zeros((2 * link.memory + 1,) * 3, complex)
    if link.length_km != 0.0 and link.gamma != 0.0:
        base_panels = _initial_panels(link, pulse)
        step, panels = pulse.samples_per_symbol, 2 * base_panels
        levels = [(step // 2, base_panels), (step, panels)]
        workers, (coarse, fine) = _window_sums(link, pulse, levels,
                                               DEFAULT_Z_NODES)
        scale = float(np.max(np.abs(fine)))
        change = float(np.max(np.abs(fine - coarse)))
        residual = 0.0 if scale == 0.0 else change / scale
        if not residual <= DEFAULT_QUAD_RTOL:  # a NaN residual fails too
            raise QuadratureError(
                f"quadrature residual {residual:.3e} above tolerance "
                f"{DEFAULT_QUAD_RTOL:.1e} between {step // 2} samples per "
                f"symbol at {base_panels} panels and {step} samples per "
                f"symbol at {panels} panels", residual)
        pad = _pad_factor(link, n_symbols)  # the same for both levels
        report.update(panels=panels, refinements=1, residual=residual)
        diagnostics.update(
            pad_factor=pad, quad_workers=workers,
            nodes_evaluated=(base_panels + panels) * DEFAULT_Z_NODES,
            levels=[{"padded_n": pad * n_symbols * s, "panels": p,
                     "samples_per_symbol": s} for s, p in levels])
    return CoeffTensor(user="x", memory=link.memory, values=fine,
                       link=link.to_dict()), report
