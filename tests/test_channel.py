import csv
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xpmcap import channel as xch
from xpmcap.channel import (_CHUNK, _CSV_BLOCK_ROWS, _CSV_SPLIT_ROWS,
                            BATCH_CSV_HEADER, SampleBatch,
                            decompose_quadratures, full_channel,
                            interference_terms, real_imag_decompose,
                            sample_cscg, simulate_batch, spawn_seeds,
                            write_batch_csv)
from xpmcap.coefficients import CoeffTensor
from xpmcap.errors import ConfigError


def memoryless_channel(x, w, g, sigma_sq, seed=None):
    """Single-tap model y = x + g |w|^2 x + CSCG noise of variance
    sigma_sq per quadrature: the bitwise oracle for full_channel on a
    window whose only tap is the centre one."""
    x = np.asarray(x, dtype=np.complex128)
    w = np.asarray(w, dtype=np.complex128)
    if x.shape != w.shape:
        raise ConfigError("input sequences must have equal length")
    y = x + (g * (w * np.conj(w))) * x
    if sigma_sq > 0:
        y = y + xch._cscg(np.random.default_rng(seed), x.size, sigma_sq)
    return y


def random_tensor(memory, rng, scale=1.0):
    side = 2 * memory + 1
    values = scale * (rng.standard_normal((side, side, side))
                      + 1j * rng.standard_normal((side, side, side)))
    return CoeffTensor(memory=memory, values=values)


def brute_force_output(x, w, coeffs):
    n = x.size
    M = coeffs.memory
    y = np.array(x, dtype=complex)
    for k in range(n):
        acc = 0.0 + 0.0j
        for l in range(-M, M + 1):
            for m in range(-M, M + 1):
                for p in range(-M, M + 1):
                    acc += (coeffs.get(l, m, p) * w[(k - m) % n]
                            * np.conj(w[(k - p) % n]) * x[(k - l) % n])
        y[k] += acc
    return y


def brute_force_row(x, w, coeffs, k):
    """Interference at symbol k and the sum of its terms' moduli."""
    lags = np.arange(-coeffs.memory, coeffs.memory + 1)
    xl = x[(k - lags) % x.size]
    wl = w[(k - lags) % w.size]
    terms = coeffs.values * np.einsum("l,m,p->lmp", xl, wl, np.conj(wl))
    return terms.sum(), np.abs(terms).sum()


class TestSampleCscg:
    def test_zero_power_gives_zeros(self):
        assert np.all(sample_cscg(100, 0.0, 1) == 0)

    @pytest.mark.parametrize("n", [1, 1000, 65536, 200_003])
    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_equals_whole_array_form_bitwise(self, n, seed):
        for p in (0.0, 1e-3, 3.7):
            rng = np.random.default_rng(seed)
            n1 = rng.standard_normal(n)
            n2 = rng.standard_normal(n)
            expected = np.sqrt(p / 2.0) * (n1 + 1j * n2)
            assert sample_cscg(n, p, seed).tobytes() == expected.tobytes()

    def test_seed_determinism(self):
        a = sample_cscg(1000, 1e-3, 42)
        b = sample_cscg(1000, 1e-3, 42)
        assert np.array_equal(a, b)
        c = sample_cscg(1000, 1e-3, 43)
        assert not np.array_equal(a, c)

    def test_mean_bound_clt(self):
        n, p = 10 ** 6, 2e-3
        x = sample_cscg(n, p, 7)
        assert abs(np.mean(x)) ** 2 < 25 * p / n

    def test_fourth_moment_identity(self):
        n, p = 10 ** 6, 1e-3
        w = sample_cscg(n, p, 11)
        ratio = float(np.mean(np.abs(w) ** 4)) / (2 * p * p)
        assert ratio == pytest.approx(1.0, abs=0.01)

    def test_empirical_power(self):
        n, p = 10 ** 6, 3e-3
        x = sample_cscg(n, p, 5)
        # var of |X|^2 is p^2 for CSCG; 5 sigma band
        assert float(np.mean(np.abs(x) ** 2)) == pytest.approx(
            p, abs=5 * p / np.sqrt(n))

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            sample_cscg(0, 1e-3, 1)
        with pytest.raises(ConfigError):
            sample_cscg(10, -1e-3, 1)


class TestMemorylessChannel:
    def test_identity_when_quiet(self):
        x = sample_cscg(64, 1e-3, 3)
        w = sample_cscg(64, 1e-3, 4)
        assert np.array_equal(memoryless_channel(x, w, 0.0j, 0.0), x)

    def test_direct_arithmetic(self):
        x = np.array([1.0 + 0.0j])
        w = np.array([np.sqrt(2.0) + 0.0j])
        y = memoryless_channel(x, w, 0.1j, 0.0)
        assert y[0] == pytest.approx(1.0 + 0.2j, abs=1e-15)

    def test_pure_noise_variance(self):
        n = 10 ** 6
        x = np.zeros(n, dtype=complex)
        y = memoryless_channel(x, x, 0.0j, 1e-3, seed=9)
        power = float(np.mean(np.abs(y) ** 2))
        assert power == pytest.approx(2e-3, rel=0.02)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            memoryless_channel(np.zeros(3, complex), np.zeros(4, complex),
                               0.0j, 0.0)

    def test_same_seed_reproduces(self):
        x = sample_cscg(128, 1e-3, 1)
        w = sample_cscg(128, 1e-3, 2)
        a = memoryless_channel(x, w, 0.05j, 1e-3, seed=77)
        b = memoryless_channel(x, w, 0.05j, 1e-3, seed=77)
        assert np.array_equal(a, b)


class TestFullChannel:
    def test_zero_tensor_is_awgn(self):
        rng = np.random.default_rng(0)
        coeffs = CoeffTensor(memory=2,
                             values=np.zeros((5, 5, 5), complex))
        x = sample_cscg(64, 1e-3, 1)
        w = sample_cscg(64, 1e-3, 2)
        noisy = full_channel(x, w, coeffs, 1e-3, seed=5)
        clean = full_channel(x, w, coeffs, 0.0)
        assert np.array_equal(clean, x)
        assert not np.array_equal(noisy, x)

    def test_center_tap_only_matches_memoryless_bitwise(self):
        g = 0.3 - 0.7j
        values = np.zeros((5, 5, 5), complex)
        values[2, 2, 2] = g
        coeffs = CoeffTensor(memory=2, values=values)
        x = sample_cscg(256, 1e-3, 21)
        w = sample_cscg(256, 2e-3, 22)
        for sigma_sq, seed in [(0.0, None), (1e-3, 1234)]:
            a = full_channel(x, w, coeffs, sigma_sq, seed)
            b = memoryless_channel(x, w, g, sigma_sq, seed)
            assert np.array_equal(a, b)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(99)
        for trial in range(10):
            coeffs = random_tensor(2, rng)
            x = sample_cscg(16, 1e-3, 100 + trial)
            w = sample_cscg(16, 1e-3, 200 + trial)
            fast = full_channel(x, w, coeffs, 0.0)
            slow = brute_force_output(x, w, coeffs)
            assert np.allclose(fast, slow, rtol=1e-12, atol=1e-20)

    def test_memory_zero_equals_memoryless_for_any_seed(self):
        g = 0.1 + 0.2j
        coeffs = CoeffTensor(memory=0,
                             values=np.array([[[g]]], complex))
        for seed in (1, 2, 3):
            x = sample_cscg(64, 1e-3, seed)
            w = sample_cscg(64, 1e-3, seed + 10)
            assert np.array_equal(full_channel(x, w, coeffs, 1e-3, seed),
                                  memoryless_channel(x, w, g, 1e-3, seed))

    def test_window_longer_than_block_rejected(self):
        coeffs = random_tensor(3, np.random.default_rng(1))
        x = sample_cscg(5, 1e-3, 1)
        with pytest.raises(ConfigError):
            interference_terms(x, x, coeffs)

    def test_interference_terms_length_mismatch(self):
        coeffs = random_tensor(1, np.random.default_rng(2))
        with pytest.raises(ConfigError):
            interference_terms(sample_cscg(8, 1e-3, 1),
                               sample_cscg(9, 1e-3, 2), coeffs)

    @pytest.mark.parametrize("memory", [2, 5])
    def test_rows_across_chunk_edges_match_brute_force(self, memory):
        M = memory
        rng = np.random.default_rng(500 + M)
        coeffs = random_tensor(M, rng, scale=10.0)
        before = coeffs.values.copy()
        for n in (2 * _CHUNK + 5, 2 * M + 1):
            x = sample_cscg(n, 1e-3, 31 + n)
            w = sample_cscg(n, 2e-3, 37 + n)
            x0, w0 = x.copy(), w.copy()
            terms = interference_terms(x, w, coeffs)
            rows = set(range(M + 1)) | set(range(n - M - 1, n))
            for edge in range(_CHUNK, n, _CHUNK):
                rows |= set(range(edge - M, edge + M + 1))
            for k in sorted(r for r in rows if 0 <= r < n):
                ref, scale = brute_force_row(x, w, coeffs, k)
                assert abs(terms[k] - ref) <= 1e-12 * scale, (n, k)
            assert np.array_equal(x, x0) and np.array_equal(w, w0)
        assert np.array_equal(coeffs.values, before)

    def test_peak_memory_grows_by_a_few_arrays_per_symbol(self):
        coeffs = random_tensor(5, np.random.default_rng(3))
        peaks = []
        for n in (10 ** 5, 2 * 10 ** 5):
            x = sample_cscg(n, 1e-3, 1)
            w = sample_cscg(n, 1e-3, 2)
            tracemalloc.start()
            try:
                interference_terms(x, w, coeffs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # at most 4 complex128 arrays of length n, not one per lag
        assert peaks[1] - peaks[0] <= 4 * 16 * 10 ** 5

    @pytest.mark.parametrize("memory", [0, 2, 5])
    def test_equals_a_fresh_pair_array_per_chunk_bitwise(self, memory):
        # The oracle allocates each chunk's pair products anew; the
        # simulator writes them into one buffer.
        M, side = memory, 2 * memory + 1
        coeffs = random_tensor(M, np.random.default_rng(40 + M))
        rest = coeffs.values.copy()
        rest[M, M, M] = 0
        for n in (side, _CHUNK, 2 * _CHUNK + 5):
            x = sample_cscg(n, 1e-3, 41 + n)
            w = sample_cscg(n, 2e-3, 43 + n)
            want = (coeffs.values[M, M, M] * (w * np.conj(w))) * x
            for s in range(0, n, _CHUNK):
                e = min(s + _CHUNK, n)
                lw = xch._lag_stack(w, s, e, M)
                pairs = (lw[:, None] * np.conj(lw)[None]).reshape(side * side,
                                                                  -1)
                want[s:e] += np.einsum("lk,lk->k",
                                       rest.reshape(side, -1) @ pairs,
                                       xch._lag_stack(x, s, e, M))
            got = interference_terms(x, w, coeffs)
            assert got.tobytes() == want.tobytes(), (M, n)

    def test_peak_memory_holds_one_chunk_of_pair_products(self):
        n, M = 10 ** 5, 5
        side = 2 * M + 1
        coeffs = random_tensor(M, np.random.default_rng(3))
        x = sample_cscg(n, 1e-3, 1)
        w = sample_cscg(n, 1e-3, 2)
        tracemalloc.start()
        try:
            interference_terms(x, w, coeffs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the output, plus one chunk's pair products and a quarter of
        # that for the chunk's smaller temporaries
        assert peak <= 16 * n + 1.25 * 16 * side * side * _CHUNK


def _pair(v):
    """(Re v, Im v), the quadrature pair decompose_quadratures reads."""
    v = np.asarray(v, np.complex128)
    return v.real, v.imag


class TestRealImagDecompose:
    def test_direct_arithmetic(self):
        y_r, y_i = real_imag_decompose(np.array([1.0 + 0j]),
                                       np.array([1.0 + 0j]), 0.3 + 0.4j)
        assert y_r[0] == pytest.approx(1.3, abs=1e-15)
        assert y_i[0] == pytest.approx(0.4, abs=1e-15)

    def test_imaginary_tap_keeps_real_part(self):
        x = np.array([2.5 + 0j])
        w = np.array([1.0 + 1.0j])
        y_r, _ = real_imag_decompose(x, w, 0.7j)
        assert y_r[0] == 2.5

    @pytest.mark.parametrize("n", [1, 1000, 65536])
    @pytest.mark.parametrize("scalar_w", [False, True])
    def test_out_fills_the_given_arrays_bitwise(self, n, scalar_w):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = (0.3 - 0.8j if scalar_w
             else rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g = 30.0 + 40.0j
        want = real_imag_decompose(x, w, g)
        rows = np.full((2, n), np.nan)
        y_r, y_i = rows
        got = decompose_quadratures(_pair(x), _pair(w), g, (y_r, y_i),
                                    np.empty((2, n)))
        assert got[0] is y_r and got[1] is y_i
        assert rows.tobytes() == np.vstack(want).tobytes()

    @pytest.mark.parametrize("scalar_w", [False, True])
    def test_work_buffers_keep_the_whole_array_arithmetic(self, scalar_w):
        # The expressions the buffered form replaced, term by term.
        rng = np.random.default_rng(5)
        n = 70_000
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        w = (0.3 - 0.8j if scalar_w
             else rng.standard_normal(n) + 1j * rng.standard_normal(n))
        g = 30.0 + 40.0j
        wa = np.asarray(w)
        q = wa.real * wa.real + wa.imag * wa.imag
        a, b = 1.0 + q * g.real, q * g.imag
        want = np.vstack([a * x.real - b * x.imag, a * x.imag + b * x.real])
        rows, work = np.full((2, n), np.nan), np.full((2, n), np.nan)
        decompose_quadratures(_pair(x), _pair(w), g, rows, work)
        assert rows.tobytes() == want.tobytes()
        assert np.vstack(real_imag_decompose(x, w, g)).tobytes() == \
            want.tobytes()

    @pytest.mark.parametrize("scalar_w", [False, True])
    def test_zero_coefficient_keeps_the_whole_array_arithmetic(self,
                                                               scalar_w):
        # For g = 0 the map copies x; the factors 1 and 0 give x too,
        # wherever no quadrature of x is a zero of either sign.
        rng = np.random.default_rng(6)
        x = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        w = 0.3 - 0.8j if scalar_w else rng.standard_normal(1000) * 1j
        q = np.asarray(w).real ** 2 + np.asarray(w).imag ** 2
        a, b = 1.0 + q * 0.0, q * 0.0
        want = np.vstack([a * x.real - b * x.imag, a * x.imag + b * x.real])
        assert np.vstack(real_imag_decompose(x, w, 0j)).tobytes() == \
            want.tobytes()

    @settings(max_examples=200)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_recombination_identity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        w = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        g = complex(rng.standard_normal(), rng.standard_normal())
        y_r, y_i = real_imag_decompose(x, w, g)
        direct = (1.0 + g * (w * np.conj(w))) * x
        assert np.allclose(y_r + 1j * y_i, direct, rtol=1e-12, atol=1e-15)


class TestBatchIO:
    def test_simulate_and_round_trip(self, tmp_path):
        batch = simulate_batch(n=128, p1=1e-3, p2=2e-3, sigma_sq=1e-3,
                               master_seed=2024, coeffs=CoeffTensor(
                                   memory=0, values=[[[0.05j]]]))
        path = tmp_path / "batch.csv"
        write_batch_csv(batch, str(path))
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == BATCH_CSV_HEADER
        cols = np.array([[float(v) for v in row] for row in rows[1:]]).T
        assert np.array_equal(cols[0], np.arange(128))
        for i, v in enumerate((batch.x, batch.w, batch.y)):
            assert np.array_equal(cols[1 + 2 * i], v.real)
            assert np.array_equal(cols[2 + 2 * i], v.imag)

    def test_csv_bytes_are_pinned(self, tmp_path):
        # CRLF rows, repr floats: signed zeros, subnormals and huge values
        # are written exactly as repr gives them.
        x = np.array([complex(-0.0, 1e-310), complex(5e-324, 1e300),
                      complex(0.1, -0.0)])
        w = np.array([complex(1e300, -5e-324), complex(-0.0, -0.0),
                      complex(1 / 3, 2.0)])
        y = np.array([complex(-1e-310, 0.0), complex(-1e300, 1.0),
                      complex(-5e-324, -0.1)])
        path = tmp_path / "batch.csv"
        write_batch_csv(SampleBatch(n=3, x=x, w=w, y=y), str(path))
        assert path.read_bytes() == (
            b"k,x_re,x_im,w_re,w_im,y_re,y_im\r\n"
            b"0,-0.0,1e-310,1e+300,-5e-324,-1e-310,0.0\r\n"
            b"1,5e-324,1e+300,-0.0,-0.0,-1e+300,1.0\r\n"
            b"2,0.1,-0.0,0.3333333333333333,2.0,-5e-324,-0.1\r\n")

    def test_output_is_receiver_x_channel_on_spawned_streams(self):
        # x, w and the noise of y come from the first three children of
        # the master seed, whatever else the batch could have drawn.
        seed, n, p1, p2, sigma_sq = 31, 64, 1e-3, 2e-3, 1e-3
        coeffs = random_tensor(1, np.random.default_rng(8), scale=0.1)
        for window, channel, tap in (
                (coeffs, full_channel, coeffs),
                (CoeffTensor(memory=0, values=[[[0.05j]]]),
                 memoryless_channel, 0.05j)):
            sx, sw, sy = np.random.SeedSequence(seed).spawn(3)
            x = sample_cscg(n, p1, sx)
            w = sample_cscg(n, p2, sw)
            batch = simulate_batch(n=n, p1=p1, p2=p2, sigma_sq=sigma_sq,
                                   master_seed=seed, coeffs=window)
            assert np.array_equal(batch.x, x)
            assert np.array_equal(batch.w, w)
            assert np.array_equal(batch.y, channel(x, w, tap, sigma_sq, sy))

    def test_same_master_seed_is_reproducible(self):
        kw = dict(n=64, p1=1e-3, p2=1e-3, sigma_sq=1e-3, master_seed=5,
                  coeffs=CoeffTensor(memory=0, values=[[[0.1j]]]))
        a, b = simulate_batch(**kw), simulate_batch(**kw)
        assert np.array_equal(a.y, b.y)

    def test_spawned_streams_differ(self):
        seeds = spawn_seeds(123, 3)
        draws = [np.random.default_rng(s).standard_normal(4) for s in seeds]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_batch_invariants(self):
        with pytest.raises(ConfigError):
            SampleBatch(n=3, x=np.zeros(2, complex), w=np.zeros(3, complex),
                        y=np.zeros(3, complex))


def reference_csv(batch, path):
    """Row by row, the bytes write_batch_csv must give whatever its block
    size and process count."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(BATCH_CSV_HEADER) + "\r\n")
        for k in range(batch.n):
            fields = [float(part[k]) for v in (batch.x, batch.w, batch.y)
                      for part in (v.real, v.imag)]
            fh.write(f"{k}," + ",".join(map(repr, fields)) + "\r\n")


def odd_batch(n, seed=0):
    rng = np.random.default_rng(seed)
    x, w, y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
               for _ in range(3))
    specials = [complex(-0.0, 5e-324), complex(1e300, -1e-310),
                complex(float("inf"), float("nan"))]
    x[-len(specials):] = specials[:n]
    return SampleBatch(n=n, x=x, w=w, y=y)


class TestSplitWriter:
    @pytest.mark.parametrize("n", [1, _CSV_SPLIT_ROWS - 1, _CSV_SPLIT_ROWS,
                                   _CSV_SPLIT_ROWS + 3,
                                   32 * _CSV_BLOCK_ROWS + 3])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bytes_equal_the_single_process_writer(self, n, cpus, tmp_path,
                                                   monkeypatch):
        forks = []
        fork = os.fork
        monkeypatch.setattr(xch, "cpu_workers", lambda k: min(k, cpus))
        monkeypatch.setattr(os, "fork", lambda: forks.append(n) or fork())
        batch = odd_batch(n)
        reference_csv(batch, tmp_path / "ref.csv")
        write_batch_csv(batch, str(tmp_path / "batch.csv"))
        assert ((tmp_path / "batch.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())
        split = cpus == 2 and n >= _CSV_SPLIT_ROWS
        assert xch.csv_workers(n) == (2 if split else 1)
        assert len(forks) == split
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "batch.csv", "ref.csv"]

    @pytest.mark.parametrize("n", [1, 15, _CSV_SPLIT_ROWS + 3])
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_bytes_do_not_depend_on_the_block_size(self, n, cpus, block_rows,
                                                   tmp_path, monkeypatch):
        monkeypatch.setattr(xch, "cpu_workers", lambda k: min(k, cpus))
        monkeypatch.setattr(xch, "_CSV_BLOCK_ROWS", block_rows)
        batch = odd_batch(n)
        reference_csv(batch, tmp_path / "ref.csv")
        write_batch_csv(batch, str(tmp_path / "batch.csv"))
        assert ((tmp_path / "batch.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    def test_peak_memory_does_not_grow_with_the_batch(self, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(xch, "cpu_workers", lambda k: 1)
        peaks = []
        for n in (20000, 80000):
            batch = odd_batch(n)
            tracemalloc.start()
            try:
                write_batch_csv(batch, str(tmp_path / "batch.csv"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 0.5 * 2 ** 20, peaks

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_failed_half_leaves_no_file_or_child(self, failing, tmp_path,
                                                 monkeypatch):
        rows = xch._write_rows

        def write_rows(fh, batch, start, stop):
            if (start > 0) == (failing == "child"):
                raise RuntimeError("formatting failed")
            rows(fh, batch, start, stop)

        monkeypatch.setattr(xch, "cpu_workers", lambda k: 2)
        monkeypatch.setattr(xch, "_write_rows", write_rows)
        path = str(tmp_path / "batch.csv")
        error = OSError if failing == "child" else RuntimeError
        with pytest.raises(error) as info:
            write_batch_csv(odd_batch(_CSV_SPLIT_ROWS), path)
        if failing == "child":
            assert path in str(info.value)
        assert [p.name for p in tmp_path.iterdir()] == ["batch.csv"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
