"""Numerical evaluation of the cross-phase perturbation coefficients.

Each coefficient is a double integral: an overlap of four dispersed,
time-shifted pulse copies over the time axis, weighted by the fiber power
profile e^(-alpha z) and integrated along the span,

    c[l,m,p] = 2j gamma * int_0^L e^(-alpha z)
               * int g*(z,t) g(z,t-lT) gw(z,t-mT) gw*(z,t-pT) dt dz,

where g is the channel-of-interest pulse and gw the interfering-channel
pulse, additionally delayed by the accumulated walk-off between the two
carriers as seen by receiver x. coefficient_tensor evaluates receiver x's
whole (2M+1)^3 window in one quadrature. The distance integral uses
composite Gauss-Legendre panels (_initial_panels) and the time integral a
trapezoid sum on a grid sized once per tensor from the link: the window
and pad factor of _window, sampled at the pulse's samples_per_symbol by
each level (_level). One two-level comparison checks both, the coarse
level with half the panels at half the samples per symbol. A node
mirrors its phase factors from half the frequency bins, views each lag
shift in a periodically extended buffer and runs real matmuls of planar
rows over the interferer pairs m <= p (b_pm = b_mp*), in groups of pairs
whose rows stay within _PAIR_BYTES. Each level is its even half
(Gauss-Legendre panels 0, 2, ...) plus its odd half (panels 1, 3, ...),
each half one sum over its nodes, so the tensor has the same bits
whether one process or two (a forked child takes the odd halves, when
blas_workers() allows) compute them.

The carriers walk apart by up to tens of symbol periods over a span, so
delays are applied on a grid pad-factor times wider (same dt), where the
periodic transform cannot wrap the interferer onto the channel of
interest. The pulse is sampled and renormalised across all of it, not
zero-padded, so the tensor depends on the pad factor (reference config,
pad 4 -> 8: c[0,0,0] scales by 0.999208).

CoeffTensor's JSON round trip delegates to tensorjson, which owns the
tensor document and loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensorjson
from .config import LinkParams
from .errors import ConfigError, GridError, QuadratureError
from .pulses import PulseShape
from .workers import blas_threads, blas_workers, forked

DEFAULT_Z_NODES = 64
DEFAULT_QUAD_RTOL = 1e-6

#: Least window _window derives, in symbol periods: the pulse's own tails
#: must fit where the lags and the dispersion spread need fewer. At zero
#: dispersion and memory 0 the sinc's 1/t tails fail the two-level check
#: at 8 (residual 4.4e-6) and pass at 16 (5.4e-7).
_MIN_WINDOW_SYMBOLS = 16
#: Cap on the window _window derives, in symbol periods: 16 times the
#: reference link's, which covers memory 246 on it or a 7000 km span at
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
    """Dense window of receiver x's complex coefficients.

    values[l+M, m+M, p+M] holds c[l,m,p] in 1/W for lags in -M..M.
    Immutable: fields cannot be rebound and values is read-only. The
    receiver a window belongs to is a tag of its JSON document only.
    """

    memory: int
    values: np.ndarray
    link: dict = field(default_factory=dict)

    def __post_init__(self):
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

    def coherent_gains(self) -> np.ndarray:
        """s[l] = sum_m c[l,m,m]: gains of the signal-proportional part of
        the interference under unit interferer power."""
        side = 2 * self.memory + 1
        return np.array([np.trace(self.values[i]) for i in range(side)])

    # -- JSON round trip: the document is tensorjson's ---------------------

    def to_json_dict(self, user: str = "x") -> dict:
        """The tensor document, tagged as receiver user's window."""
        return tensorjson.tensor_document(
            self.memory, self.values.ravel().tolist(), self.link, user)

    @classmethod
    def load(cls, path: str, user: str = "x") -> "CoeffTensor":
        """The window of the document at path, tagged as receiver user's
        (tensorjson.read_tensor); ConfigError, naming path, for a
        malformed document or another tag."""
        memory, link, values = tensorjson.read_tensor(path, user)
        return cls(memory, np.reshape(values, (2 * memory + 1,) * 3), link)


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


def _window(link: LinkParams) -> tuple[int, int]:
    """The coefficient window in symbol periods and its pad factor.

    The window is the fewest symbol periods, a power of two and at least
    _MIN_WINDOW_SYMBOLS, that cover the coefficient lags, 4(M+1) symbol
    periods, plus the dispersion-induced pulse spread at the far end of
    the span. The pad factor is the least power of two that widens it by
    the reach of the delays, the walk-off plus M symbol periods, on either
    side, so that they cannot wrap around it. Raises GridError beyond
    _MAX_WINDOW_SYMBOLS or _MAX_PAD_FACTOR.
    """
    T = link.symbol_period
    try:
        lags = 4 * (link.memory + 1) * T
    except OverflowError:  # a memory too large for a float
        lags = math.inf
    needed = lags + link.dispersion_spread_s(link.length_km)
    n_symbols = _MIN_WINDOW_SYMBOLS
    while n_symbols * T < needed:
        if n_symbols == _MAX_WINDOW_SYMBOLS:
            raise GridError(
                f"time window {n_symbols * T:.3e} s is smaller than the "
                f"{needed:.3e} s required by memory {link.memory} and the "
                f"dispersion spread at {link.length_km} km")
        n_symbols *= 2
    span = n_symbols * T
    reach = abs(link.walkoff_delay_s(link.length_km)) + link.memory * T
    needed = span + 2.0 * reach
    pad = 1
    while pad * span < needed:
        pad *= 2
        if pad > _MAX_PAD_FACTOR:
            raise GridError(
                "walk-off between the carriers exceeds the largest supported "
                "internal window; reduce channel_spacing_hz, length_km or "
                "the magnitude of beta2_ps2_per_km")
    return n_symbols, pad


def _initial_panels(link: LinkParams, pulse: PulseShape) -> int:
    """Panel count resolving the distance integrand.

    The overlap kernel depends on z through the walk-off phase omega tau(z)
    and the dispersion phase beta2 z omega^2 / 2. Over the band of a pulse
    of time scale s, the first varies on the distance over which the
    carriers slide s past each other, slide = |tau(L)| / s of them along
    the span, and the second on the dispersion length over which a pulse
    spreads by s, lengths = L |beta2| / s^2 of them. Both phases enter one
    factor, so their rates add: the integrand varies on up to slide +
    lengths such distances, and sizing by the larger alone leaves the
    panels short where both matter (the Gaussian of width T/3 on the
    reference link, 123 + 28: at 4 panels the two-level residual is
    3.8e-6 from memory 8 on, at 5 it is 1.8e-7). The scale is the symbol
    period T for the sinc, T/(1+beta) for a root-raised cosine of roll-off
    beta, whose spectrum is 1+beta times as wide, or T (2w/T)^2 for a
    Gaussian of width w < T/2 (on widths T/4 to T/2 the panels needed grow
    as 1/w^2). Gauss-Legendre converges spectrally once each panel of 64
    nodes holds at most 32 of them: the count is the fewest whole panels
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
    return max(1, math.ceil((slide + lengths) / 32))


def _level(link: LinkParams, pulse: PulseShape, padded: int, step: int):
    """A level at step samples per symbol on the padded window of padded
    symbol periods: its sample count n, sample spacing dt, angular
    frequencies omega (FFT order), step and the pulse spectrum."""
    T = link.symbol_period
    n = step * padded
    dt = (padded * T) / n
    omega = 2.0 * np.pi * np.fft.fftfreq(n, dt)
    return n, dt, omega, step, np.fft.fft(pulse.samples(n, dt, T))


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
    n, _, omega, step, spec0 = level
    M = link.memory
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
        disp_phase, walk_phase = _phases(link, omega, z)
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


def _window_sums(link: LinkParams, pulse: PulseShape, padded: int,
                 levels: list, z_nodes: int):
    """Raw quadrature of the overlap kernel over the lag window, on the
    padded window of padded symbol periods, at each (samples per symbol,
    panels) level, finest last: 2j gamma dt * sum_k
    w_k e^(-alpha z_k) sum_t (overlap at z_k). Returns (processes, [values
    per level]). Each level is its even half (panels 0, 2, ...) plus its
    odd half (panels 1, 3, ...). With blas_workers() at 2 and two
    finest-level panels or more, a forked child computes the odd halves
    and this process the even ones; else this process computes both. An
    odd panel count leaves the even half one panel more (3 panels: 2 here
    and 1 in the child)."""
    setups = [_level(link, pulse, padded, step) for step, _ in levels]
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
    return workers, [(2j * link.gamma * dt) * (e + o)
                     for (_, dt, _, _, _), e, o in zip(setups, even, odd)]


def coefficient_tensor(link: LinkParams, pulse: PulseShape):
    """Receiver x's full (2M+1)^3 coefficient window and the report of its
    two-level quadrature: z_nodes, panels, refinements, residual and rtol,
    and under "diagnostics" the quadrature's layout (pad_factor, levels,
    nodes_evaluated, quad_workers, and blas_threads, the BLAS setting
    that decides quad_workers).

    The link fixes the grid, derived once: the window of _window, at
    least _MIN_WINDOW_SYMBOLS symbol periods so that the pulse's tails
    fit, and its pad factor (GridError beyond either cap). The panels of
    _initial_panels, which resolve the walk-off and the dispersion
    together, at half the pulse's samples_per_symbol are compared with
    twice the panels at the full rate (DEFAULT_Z_NODES nodes each;
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

    Receiver w's window is this one with every lag reversed (see
    cli.cmd_coeffs, which writes both).
    """
    n_symbols, pad = _window(link)
    diagnostics = {"pad_factor": 1, "levels": [], "nodes_evaluated": 0,
                   "quad_workers": 1, "blas_threads": blas_threads()}
    report = {"z_nodes": DEFAULT_Z_NODES, "panels": 1, "refinements": 0,
              "residual": 0.0, "rtol": DEFAULT_QUAD_RTOL,
              "diagnostics": diagnostics}
    fine = np.zeros((2 * link.memory + 1,) * 3, complex)
    if link.length_km != 0.0 and link.gamma != 0.0:
        base_panels = _initial_panels(link, pulse)
        step, panels = pulse.samples_per_symbol, 2 * base_panels
        levels = [(step // 2, base_panels), (step, panels)]
        workers, (coarse, fine) = _window_sums(
            link, pulse, n_symbols * pad, levels, DEFAULT_Z_NODES)
        scale = float(np.max(np.abs(fine)))
        change = float(np.max(np.abs(fine - coarse)))
        residual = 0.0 if scale == 0.0 else change / scale
        if not residual <= DEFAULT_QUAD_RTOL:  # a NaN residual fails too
            raise QuadratureError(
                f"quadrature residual {residual:.3e} above tolerance "
                f"{DEFAULT_QUAD_RTOL:.1e} between {step // 2} samples per "
                f"symbol at {base_panels} panels and {step} samples per "
                f"symbol at {panels} panels", residual)
        report.update(panels=panels, refinements=1, residual=residual)
        diagnostics.update(
            pad_factor=pad, quad_workers=workers,
            nodes_evaluated=(base_panels + panels) * DEFAULT_Z_NODES,
            levels=[{"padded_n": pad * n_symbols * s, "panels": p,
                     "samples_per_symbol": s} for s, p in levels])
    return CoeffTensor(memory=link.memory, values=fine,
                       link=link.to_dict()), report
