"""Discrete-time channel simulators and input ensembles.

The full-memory trilinear interference model; its memory-0 window [[[g]]]
is the single-tap (memoryless) approximation. All randomness flows through
numpy Generators seeded explicitly; independent streams are derived from
a master seed with numpy's SeedSequence.spawn, so batches are
reproducible and safely parallelizable.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError
from .workers import cpu_workers, forked

if TYPE_CHECKING:  # annotations only: verify loads no coefficient engine
    from .coefficients import CoeffTensor

BATCH_CSV_HEADER = ("k", "x_re", "x_im", "w_re", "w_im", "y_re", "y_im")

#: Rows formatted at a time by write_batch_csv: their Python floats (six
#: per row), row strings and encoded text, about 0.5 MB, are the writer's
#: whole working set, whatever the batch length.
_CSV_BLOCK_ROWS = 4096
#: Fewest rows write_batch_csv splits over two processes; a fork costs
#: more than it saves on 4096 rows.
_CSV_SPLIT_ROWS = 16384

#: Symbols per cyclic chunk of interference_terms.
_CHUNK = 2048
#: Samples per block where long arrays are filled in place.
BLOCK = 1 << 16


def spawn_seeds(master_seed: int, count: int) -> list[np.random.SeedSequence]:
    """Independent child seed sequences derived from a master seed."""
    return np.random.SeedSequence(master_seed).spawn(count)


def normal_blocks(rng: np.random.Generator, n: int):
    """(slice, block) pairs of rng.standard_normal(n), drawn in order into
    one reused buffer; a Generator's stream does not depend on the split."""
    buf = np.empty(min(n, BLOCK))
    for s in range(0, n, BLOCK):
        yield slice(s, s + BLOCK), rng.standard_normal(out=buf[:n - s])


def _cscg(rng: np.random.Generator, n: int, var_per_dim: float) -> np.ndarray:
    out = np.empty(n, np.complex128)
    for sl, z in normal_blocks(rng, n):
        out.real[sl] = z
    for sl, z in normal_blocks(rng, n):
        out.imag[sl] = z
        out[sl] *= np.sqrt(var_per_dim)  # per block, while still in cache
    return out


def sample_cscg(n: int, power: float, seed) -> np.ndarray:
    """i.i.d. circularly symmetric complex Gaussian symbols.

    Mean power E|X|^2 = power, i.e. variance power/2 per quadrature.
    """
    if n < 1:
        raise ConfigError("n must be >= 1")
    if power < 0:
        raise ConfigError("power must be >= 0")
    return _cscg(np.random.default_rng(seed), n, power / 2.0)


def full_channel(x: np.ndarray, w: np.ndarray, coeffs: CoeffTensor,
                 sigma_sq: float, seed=None) -> np.ndarray:
    """Full-memory model over the coefficient window, cyclic block edges.

    y[k] = x[k] + sum_{l,m,p} c[l,m,p] w[k-m] conj(w[k-p]) x[k-l] + noise.

    Lagged indices wrap around the block, which preserves stationarity of
    the interference for moment estimation. interference_terms adds the
    centre tap first, so a window whose only nonzero entry is c[0,0,0]
    gives the single-tap y = x + c |w|^2 x bit for bit.
    """
    y = x + interference_terms(x, w, coeffs)
    if sigma_sq > 0:
        y = y + _cscg(np.random.default_rng(seed), y.size, sigma_sq)
    return y


def _lag_stack(v: np.ndarray, s: int, e: int, M: int) -> np.ndarray:
    """Row l+M holds v[k-l] for k = s..e-1, l = -M..M, indices mod len(v):
    views into one copy of the chunk and its M-symbol halo."""
    ext = v[np.arange(s - M, e + M) % v.size]
    return sliding_window_view(ext, e - s)[::-1]


def interference_terms(x: np.ndarray, w: np.ndarray,
                       coeffs: CoeffTensor) -> np.ndarray:
    """Trilinear interference sum of the full-memory model (no noise,
    no identity term).

    The centre tap goes first, as the single-tap (c * (w conj(w))) x, so a
    window with no other tap is bitwise the memoryless model. The other
    taps follow in cyclic _CHUNK-symbol chunks with an M-symbol halo, each
    one matmul of the tensor (centre zeroed) by the chunk's pair products,
    which every chunk writes into the same buffer.
    """
    x, w = np.asarray(x, complex), np.asarray(w, complex)
    if x.shape != w.shape:
        raise ConfigError("input sequences must have equal length")
    n = x.size
    M = coeffs.memory
    side = 2 * M + 1
    if n < side:
        raise ConfigError(f"block of {n} symbols is shorter than the "
                          f"coefficient window ({side})")
    # batch.csv pins this form; from 2**14 elements numpy runs conj(w) * w.
    acc = (coeffs.values[M, M, M] * (w * np.conj(w))) * x
    rest = coeffs.values.copy()
    rest[M, M, M] = 0
    buf = np.empty(side * side * min(_CHUNK, n), complex)
    for s in range(0, n, _CHUNK):
        e = min(s + _CHUNK, n)
        lw = _lag_stack(w, s, e, M)
        pairs = buf[:side * side * (e - s)].reshape(side * side, e - s)
        np.multiply(lw[:, None], np.conj(lw)[None],
                    out=pairs.reshape(side, side, e - s))
        acc[s:e] += np.einsum("lk,lk->k", rest.reshape(side, -1) @ pairs,
                              _lag_stack(x, s, e, M))
    return acc


def real_imag_decompose(x: np.ndarray, w: np.ndarray, g: complex):
    """Quadrature form of the single-tap map, before noise.

    Returns new real arrays (y_r, y_i) with
        y_r = (1 + |w|^2 Re g) Re x - |w|^2 Im g Im x,
        y_i = (1 + |w|^2 Re g) Im x + |w|^2 Im g Re x,
    whose recombination y_r + j y_i equals (1 + g |w|^2) x. To fill given
    arrays without allocating, call decompose_quadratures.
    """
    x, w = np.asarray(x, np.complex128), np.asarray(w, np.complex128)
    shape = np.broadcast_shapes(x.shape, w.shape)
    return decompose_quadratures(
        (x.real, x.imag), (w.real, w.imag), g,
        (np.empty(shape), np.empty(shape)), (np.empty(shape), np.empty(shape)))


def decompose_quadratures(x, w, g: complex, out, work):
    """real_imag_decompose of quadrature pairs x = (Re x, Im x) and w into
    out = (y_r, y_i), with work = (a, b) scratch of out's shape. The factors
    take w's shape (floats for w a pair of floats); for g = 0, y = x."""
    (xr, xi), (wr, wi), (y_r, y_i), (a, b) = x, w, out, work
    if g == 0:
        y_r[...], y_i[...] = xr, xi
        return y_r, y_i
    if np.ndim(wr):  # |w|^2 in b, then the factors in a and b
        np.add(np.multiply(wr, wr, out=b), np.multiply(wi, wi, out=a), out=b)
        fa = np.add(np.multiply(b, g.real, out=a), 1.0, out=a)
        fb = np.multiply(b, g.imag, out=b)
    else:
        fa, fb = (q := wr * wr + wi * wi) * g.real + 1.0, q * g.imag
    np.subtract(np.multiply(fa, xr, out=y_r),
                np.multiply(fb, xi, out=y_i), out=y_r)
    np.add(np.multiply(fa, xi, out=y_i),
           np.multiply(fb, xr, out=b), out=y_i)
    return y_r, y_i


@dataclass
class SampleBatch:
    """One simulated block as receiver x sees it: inputs and its output."""

    n: int
    x: np.ndarray
    w: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("x", "w", "y"):
            if np.asarray(getattr(self, name)).size != self.n:
                raise ConfigError(f"sequence '{name}' length differs from n")


def simulate_batch(n: int, p1: float, p2: float, sigma_sq: float,
                   master_seed: int, coeffs: CoeffTensor) -> SampleBatch:
    """Draw CSCG inputs and push them through receiver x's full_channel.

    The memoryless model is the memory-0 window [[[g]]], for which
    full_channel is the single-tap map bit for bit. Child streams (x, w,
    noise_y) are spawned from the master seed, in that order. ConfigError
    when a sample of y overflows a float.
    """
    seeds = spawn_seeds(master_seed, 3)
    x = sample_cscg(n, p1, seeds[0])
    w = sample_cscg(n, p2, seeds[1])
    with np.errstate(over="ignore", invalid="ignore"):  # y is checked below
        y = full_channel(x, w, coeffs, sigma_sq, seeds[2])
    if not np.isfinite(y).all():
        raise ConfigError(f"the channel output overflows a float at "
                          f"P1 {p1} W, P2 {p2} W")
    return SampleBatch(n=n, x=x, w=w, y=y)


def csv_workers(n: int) -> int:
    """Processes write_batch_csv formats an n-row batch on."""
    split = n >= _CSV_SPLIT_ROWS and hasattr(os, "fork")
    return cpu_workers(2) if split else 1


def _write_rows(fh, batch: SampleBatch, start: int, stop: int) -> None:
    """Rows [start, stop) into binary file fh, _CSV_BLOCK_ROWS at a time."""
    for s in range(start, stop, _CSV_BLOCK_ROWS):
        block = slice(s, min(s + _CSV_BLOCK_ROWS, stop))
        cols = [part[block].tolist()
                for v in (batch.x, batch.w, batch.y)
                for part in (v.real, v.imag)]
        fh.write("".join(
            f"{k},{xr!r},{xi!r},{wr!r},{wi!r},{yr!r},{yi!r}\r\n"
            for k, xr, xi, wr, wi, yr, yi
            in zip(range(block.start, block.stop), *cols)).encode())


def write_batch_csv(batch: SampleBatch, path: str) -> None:
    """Export receiver x's view with full round-trip precision.

    CRLF-terminated rows with each float written as its repr, so parsing
    a field with float() gives back the exact value. When csv_workers(n)
    is 2, a forked child formats rows [n//2, n) into an unnamed file
    beside path (workers.forked) while this process writes the rows
    before, then appends the child's file in 1 MiB pieces: the same
    bytes, one half of the rows per process. A failed child raises an
    OSError naming its rows, not path (the caller names its output).
    """
    n = batch.n
    mid = n // 2 if csv_workers(n) == 2 else n
    with open(path, "wb") as fh:
        fh.write(",".join(BATCH_CSV_HEADER).encode() + b"\r\n")
        if mid == n:
            _write_rows(fh, batch, 0, n)
            return
        with forked(lambda tail: _write_rows(tail, batch, mid, n),
                    lambda: _write_rows(fh, batch, 0, mid),
                    f"the process formatting rows {mid}..{n - 1}",
                    os.path.dirname(os.path.abspath(path))) as (_, tail):
            shutil.copyfileobj(tail, fh, 1 << 20)
