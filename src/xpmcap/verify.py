"""Monte-Carlo and algebraic checks of the covariance inequalities that
underpin the rate bounds.

Stochastic checks accept at the 5-standard-error level: one-sided where
an inequality is being verified, two-sided for moment identities. Under a
correct implementation each one-sided check passes with probability at
least 1 - 1e-6 at desk-scale sample counts.

Stochastic checks run in fixed memory, whatever the sample count. Each
draws BLOCK samples at a time into buffers it reuses for every block,
with one seeded generator per real variate stream, so the draws do not
depend on the block size. Of each block it keeps only co-moments: a
count, a mean vector and the centred sums of products, merged pairwise
per batch and over the whole sample (Chan, Golub & LeVeque, Am. Stat.
37(3), 1983). Every check owns its generators, so run_suite runs two
checks at once and still returns a serial run's reports, bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict
from functools import partial, reduce

import numpy as np

from .channel import BLOCK, decompose_quadratures, spawn_seeds
# Not called here any more; perfbench/steps.py traces them under this module.
from .channel import real_imag_decompose, sample_cscg  # noqa: F401
from .config import PowerPair
from .errors import ConfigError, SampleBudgetError
from .workers import cpu_workers

MIN_SAMPLES = 100_000
_N_BATCHES = 16
_SIGMAS = 5.0
#: Samples per sub-block of _noisy_blocks, its inputs' and scratch length:
#: 4096-16384 ran alike, 2048 and 65536 (a whole BLOCK) 5-11% slower.
_SUB = 1 << 13


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check, JSON-serializable."""

    name: str
    n_samples: int
    estimate: float
    bound: float
    stderr: float
    verdict: str  # pass | fail | inconclusive
    seed: int | None
    kind: str  # one-sided | identity | exact

    def to_dict(self) -> dict:
        return asdict(self)


def _verdict(estimate: float, bound: float, stderr: float, kind: str) -> str:
    if not (math.isfinite(estimate) and math.isfinite(bound)
            and math.isfinite(stderr)):
        return "inconclusive"
    if kind == "identity":
        return "pass" if abs(estimate - bound) <= _SIGMAS * stderr else "fail"
    return "pass" if estimate <= bound + _SIGMAS * stderr else "fail"


def _report(name, n, estimate, bound, stderr, seed, kind) -> CheckReport:
    return CheckReport(name=name, n_samples=n, estimate=float(estimate),
                       bound=float(bound), stderr=float(stderr),
                       verdict=_verdict(estimate, bound, stderr, kind),
                       seed=seed, kind=kind)


# ---------------------------------------------------------------------------
# Small determinants (no linear-algebra generality needed)
# ---------------------------------------------------------------------------


def det_small(a: np.ndarray):
    """Determinants of a stack (..., k, k), each by cofactor expansion along
    the first row for k up to 4, np.linalg.det above."""
    if a.shape[-1] > 4:
        return np.linalg.det(a)

    def cofactor(r, cols):  # det of rows r, r + 1, ... over columns cols
        if len(cols) == 1:
            return a[..., r, cols[0]]
        total = a[..., r, cols[0]] * cofactor(r + 1, cols[1:])
        for j, c in enumerate(cols[1:], 1):
            term = a[..., r, c] * cofactor(r + 1, cols[:j] + cols[j + 1:])
            total = total - term if j % 2 else total + term
        return total

    return cofactor(0, tuple(range(a.shape[-1])))


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def det_trace_check(matrix: np.ndarray, name: str = "det-trace") -> CheckReport:
    """Verify det(A) <= (trace(A)/n)^n for a symmetric PSD matrix or each
    of a stack (..., n, n) of them, reporting the one of least margin.

    Deterministic arithmetic check; no sampling involved.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or not a.size:
        raise ConfigError("input must be a square matrix")
    n = a.shape[-1]
    a = a.reshape(-1, n, n)
    tol = 1e-9 * np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
    if np.any(np.abs(a - a.transpose(0, 2, 1)).max(axis=(1, 2)) > tol):
        raise ConfigError("input must be symmetric")
    if np.any(np.linalg.eigvalsh(a).min(axis=1) < -tol):
        raise ConfigError("input must be positive semidefinite")
    det, traces = det_small(a), np.trace(a, axis1=1, axis2=2).tolist()
    bound = np.array([(t / n) ** n for t in traces])  # not numpy's SIMD pow
    i = int(np.argmax(det - bound))
    return _report(name, 0, det[i], bound[i], 0.0, None, "exact")


def _streams(seed: int, count: int) -> list[np.random.Generator]:
    """One generator per real variate stream, spawned from seed in order."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, count)]


def _comoments(rows: np.ndarray) -> tuple:
    """(count, mean, M2) of the columns of rows (k, m), M2 the k x k
    centred sums of products; rows is centred in place."""
    mean = rows.mean(axis=1)
    rows -= mean[:, None]
    return rows.shape[1], mean, rows @ rows.T


def _merge(a: tuple, b: tuple) -> tuple:
    """The co-moments of two samples together, from each one's (Chan,
    Golub & LeVeque's pairwise update)."""
    (na, ma, sa), (nb, mb, sb) = a, b
    n = na + nb
    d = mb - ma
    return n, ma + d * (nb / n), sa + sb + np.outer(d, d) * (na * nb / n)


def _cov_det(n: int, blocks) -> tuple[float, float]:
    """Determinant of the unbiased sample covariance of n samples, with a
    standard error from the determinants of _N_BATCHES batches of
    n // _N_BATCHES samples; the last n % _N_BATCHES count toward the
    whole sample alone. blocks yields the samples' (k, m) row blocks in
    order; each is centred in place here."""
    batch = n // _N_BATCHES
    parts = [None] * (_N_BATCHES + 1)  # the batches, then the remainder
    done = 0
    for rows in blocks:
        m, a = rows.shape[1], 0
        while a < m:  # split the block where a batch ends
            i = min((done + a) // batch, _N_BATCHES)
            e = m if i == _N_BATCHES else min(m, (i + 1) * batch - done)
            part = _comoments(rows[:, a:e])
            parts[i] = part if parts[i] is None else _merge(parts[i], part)
            a = e
        done += m
    dets = det_small(np.array([s / (c - 1) for c, _, s in parts[:-1]]))
    stderr = float(np.std(dets, ddof=1) / math.sqrt(_N_BATCHES))
    _, _, m2 = reduce(_merge, filter(None, parts))
    return det_small(m2 / (n - 1)), stderr


def _noisy_blocks(n: int, seed: int, scales, maps, noise: float):
    """Row blocks of n samples, BLOCK at a time in rows reused for every
    block: y_r, y_i of decompose_quadratures(x, w, g) per (x, w, g) in
    maps(inputs), each plus noise * N(0, 1). Input j is the quadrature pair
    scales[j] * N(0, 1). Each quadrature, then each row's noise, has its
    own generator of _streams(seed, ...); one of scale 0 holds +0, undrawn.
    Rows are filled a sub-block at a time: only they are BLOCK long."""
    sub, nq = min(n, _SUB), 2 * len(scales)
    inputs, work = np.zeros((len(scales), 2, sub)), np.empty((2, sub))
    rows = np.empty((2 * len(maps(inputs)), min(n, BLOCK)))
    gens = _streams(seed, nq + len(rows))
    drawn = [(gen, scale, q) for gen, scale, q in zip(
        gens, np.ravel(scales), inputs.reshape(nq, sub)) if scale != 0]
    for start in range(0, n, BLOCK):
        m = min(BLOCK, n - start)
        for s in range(0, m, sub):
            k = min(sub, m - s)
            v, y, (a, b) = inputs[:, :, :k], rows[:, s:s + k], work[:, :k]
            for gen, scale, q in drawn:
                np.multiply(scale, gen.standard_normal(out=a), out=q[:k])
            for i, (x, w, g) in enumerate(maps(v)):
                decompose_quadratures(x, w, g, y[2 * i:2 * i + 2], (a, b))
            for gen, row in zip(gens[nq:], y):
                row += np.multiply(noise, gen.standard_normal(out=a), out=a)
        yield rows[:, :m]


def single_user_covariance_check(g: complex, w: complex, p1: float,
                                 sigma_sq: float, n: int, seed: int,
                                 power_split: float = 0.5,
                                 name: str = "conv4") -> CheckReport:
    """Conditional covariance bound for one receiver, interferer fixed.

    Draws the signal with per-quadrature powers (split*p1, (1-split)*p1),
    forms the output quadratures plus noise, and verifies that the 2x2
    covariance determinant stays below
    ((1 + 2 Re(g) |w|^2 + |g|^2 |w|^4) p1 / 2 + sigma^2)^2.
    The bound is tight at the symmetric split, where the check exercises
    the equality case.
    """
    if n < MIN_SAMPLES:
        raise SampleBudgetError(f"need n >= {MIN_SAMPLES}, got {n}")
    if not 0.0 <= power_split <= 1.0:
        raise ConfigError("power_split must lie in [0, 1]")
    signal = (math.sqrt(power_split * p1), math.sqrt((1.0 - power_split) * p1))
    det, stderr = _cov_det(n, _noisy_blocks(
        n, seed, [signal], lambda v: [(v[0], (w.real, w.imag), g)],
        math.sqrt(sigma_sq)))
    q = abs(w) ** 2
    bound = ((1.0 + 2.0 * g.real * q + abs(g) ** 2 * q * q) * p1 / 2.0
             + sigma_sq) ** 2
    return _report(name, n, det, bound, stderr, seed, "one-sided")


def joint_covariance_check(g_x: complex, g_w: complex, pp: PowerPair,
                           sigma_sq: float, n: int, seed: int,
                           name: str = "conv6") -> CheckReport:
    """Joint 4x4 covariance bound over both receivers' quadratures.

    Inputs are CSCG at the given powers; verifies that the determinant of
    cov(Y_r, Y_i, Z_r, Z_i) stays below
    (sigma^2 + [(1 + 2 Re(g_x) P2 + 4 |g_x|^2 P2^2) P1
              + (1 + 2 Re(g_w) P1 + 4 |g_w|^2 P1^2) P2] / 4)^4.
    """
    if n < MIN_SAMPLES:
        raise SampleBudgetError(f"need n >= {MIN_SAMPLES}, got {n}")
    p1, p2 = pp.p1, pp.p2
    det, stderr = _cov_det(n, _noisy_blocks(
        n, seed, [(math.sqrt(p1 / 2.0),) * 2, (math.sqrt(p2 / 2.0),) * 2],
        lambda v: [(v[0], v[1], g_x), (v[1], v[0], g_w)],
        math.sqrt(sigma_sq)))
    trace_quarter = ((1.0 + 2.0 * g_x.real * p2 + 4.0 * abs(g_x) ** 2 * p2 * p2) * p1
                     + (1.0 + 2.0 * g_w.real * p1 + 4.0 * abs(g_w) ** 2 * p1 * p1) * p2) / 4.0
    bound = (sigma_sq + trace_quarter) ** 4
    return _report(name, n, det, bound, stderr, seed, "one-sided")


def moment_identity_check(p: float, n: int, seed: int,
                          distribution: str = "cscg",
                          name: str = "moments") -> CheckReport:
    """Verify E|W|^4 = 2 (E|W|^2)^2, reported as the ratio against 1.

    The identity holds for CSCG inputs; a uniform-phase constant-modulus
    input gives ratio 1/2 and a fail verdict, demonstrating it is
    distribution-specific.
    """
    if n < MIN_SAMPLES:
        raise SampleBudgetError(f"need n >= {MIN_SAMPLES}, got {n}")
    if p < 0:
        raise ConfigError("power must be >= 0")
    if p == 0.0:
        return _report(name, n, 0.0, 0.0, 0.0, seed, "identity")
    if distribution not in ("cscg", "constant-modulus"):
        raise ConfigError("distribution must be 'cscg' or 'constant-modulus'")
    _, mean, m2 = reduce(_merge, map(_comoments, _fourth_powers(
        n, seed, p, distribution == "cscg")))
    target = 2.0 * p * p
    stderr = math.sqrt(m2[0, 0] / (n - 1)) / (target * math.sqrt(n))
    return _report(name, n, mean[0] / target, 1.0, stderr, seed, "identity")


def _fourth_powers(n: int, seed: int, p: float, cscg: bool):
    """(1, m) blocks of |w|^4 over n samples of w at power p, BLOCK at a
    time in one reused buffer: CSCG, each quadrature from its own generator
    of _streams(seed, 2), or of constant modulus and a uniform phase from
    the first."""
    gens = _streams(seed, 2)
    buf = np.empty((2, min(n, BLOCK)))
    for start in range(0, n, BLOCK):
        m = min(BLOCK, n - start)
        re, im = buf[:, :m]
        if cscg:
            for gen, part in zip(gens, (re, im)):
                np.multiply(math.sqrt(p / 2.0), gen.standard_normal(out=part),
                            out=part)
        else:
            phase = np.multiply(2.0 * math.pi, gens[0].random(out=im), out=im)
            np.multiply(math.sqrt(p), np.cos(phase, out=re), out=re)
            np.multiply(math.sqrt(p), np.sin(phase, out=im), out=im)
        re *= re
        im *= im
        re += im
        re *= re
        yield buf[:1, :m]


# ---------------------------------------------------------------------------
# Suites (CLI vocabulary: dettrace, conv4, conv6, moments, all)
# ---------------------------------------------------------------------------

_MW = 1e-3

CONV4_SETS = (
    ("conv4-equality-g0", 0.0 + 0.0j, math.sqrt(2 * _MW), 1 * _MW, 1 * _MW),
    ("conv4-imag-g", 50.0j, math.sqrt(2 * _MW), 1 * _MW, 1 * _MW),
    ("conv4-complex-g", 20.0 + 35.0j, math.sqrt(1 * _MW), 2 * _MW, 0.5 * _MW),
)

CONV6_SETS = (
    ("conv6-equality-zero-power", 0.0j, 0.0j, 0.0, 0.0, 1 * _MW),
    ("conv6-g0", 0.0j, 0.0j, 1 * _MW, 1 * _MW, 1 * _MW),
    ("conv6-symmetric", 30.0 + 40.0j, 30.0 + 40.0j, 1 * _MW, 1 * _MW, 1 * _MW),
)


def random_psd_matrix(rng: np.random.Generator, size: int) -> np.ndarray:
    b = rng.standard_normal((size, size))
    return b @ b.T


def run_suite(suite: str, n: int, master_seed: int,
              diagnostics: dict | None = None) -> list[CheckReport]:
    """Run one named suite (or 'all') on cpu_workers threads (1: inline),
    one per check that draws samples, costliest check first by normal
    variates per sample. Reports, one per check, keep suite order; a
    check's exception propagates at the end. When diagnostics is a dict,
    run_suite records in it check_workers, the threads it used, and
    check_s, each check's wall seconds under the check's name.

    Costliest first buys memory, not time: measured, suite order has
    about the same makespan, but it raised the peak RSS of verify --suite
    all at 1e6 samples from about 46 to 47.5-48.5 MB."""
    suites = {"dettrace": (0, _run_dettrace), "conv4": (4, _run_conv4),
              "conv6": (8, _run_conv6), "moments": (2, _run_moments)}
    if suite != "all" and suite not in suites:
        raise ConfigError(f"unknown suite '{suite}'; expected one of "
                          f"{('all',) + tuple(suites)}")
    seconds: dict[str, float] = {}

    def timed(check) -> CheckReport:
        start = time.perf_counter()
        report = check()
        seconds[report.name] = time.perf_counter() - start
        return report

    # Suite i of the table draws from master_seed + i, run alone or in all.
    checks = [(cost, partial(timed, check))
              for i, (name, (cost, run)) in enumerate(suites.items())
              if suite in ("all", name)
              for check in run(n, master_seed + i)]
    workers = cpu_workers(sum(cost > 0 for cost, _ in checks))
    if diagnostics is not None:
        diagnostics.update(check_workers=workers, check_s=seconds)
    if workers == 1:
        return [check() for _, check in checks]
    from concurrent.futures import ThreadPoolExecutor  # off the CLI import
    with ThreadPoolExecutor(workers) as pool:
        futures = {i: pool.submit(checks[i][1]) for i in
                   sorted(range(len(checks)), key=lambda i: -checks[i][0])}
        return [futures[i].result() for i in range(len(checks))]


def _run_dettrace(n: int, seed: int) -> list:
    def random_psd(count: int = 1000) -> CheckReport:
        rng = np.random.default_rng(seed)
        by_size: dict[int, list] = {}
        for _ in range(count):
            size = int(rng.integers(2, 5))
            by_size.setdefault(size, []).append(random_psd_matrix(rng, size))
        worst = max(r.estimate - r.bound for r in
                    map(det_trace_check, map(np.array, by_size.values())))
        return _report(f"dettrace-random-psd[{count}]", count, worst, 0.0,
                       0.0, seed, "exact")
    return [partial(det_trace_check, np.eye(2), name="dettrace-identity-2x2"),
            partial(det_trace_check, np.diag([1.0, 3.0]),
                    name="dettrace-diag-1-3"),
            random_psd]


def _run_conv4(n: int, seed: int) -> list:
    seeds = spawn_seeds(seed, len(CONV4_SETS))
    return [
        partial(single_user_covariance_check, g, w, p1, s2, n,
                int(cs.generate_state(1)[0]), name=name)
        for (name, g, w, p1, s2), cs in zip(CONV4_SETS, seeds)
    ]


def _run_conv6(n: int, seed: int) -> list:
    seeds = spawn_seeds(seed, len(CONV6_SETS))
    return [
        partial(joint_covariance_check, gx, gw, PowerPair(p1, p2), s2, n,
                int(cs.generate_state(1)[0]), name=name)
        for (name, gx, gw, p1, p2, s2), cs in zip(CONV6_SETS, seeds)
    ]


def _run_moments(n: int, seed: int) -> list:
    return [partial(moment_identity_check, 1e-3, n, seed,
                    name="moments-cscg-1mW")]
