"""Tests for the grid layout, QAM mapping, training symbols, and frame assembly."""

import numpy as np
import pytest

from ofdmlink.framing import (
    _THRESHOLDS,
    N_TRAIN,
    assemble_frame,
    build_preamble,
    build_short_symbol,
    build_subcarrier_map,
    demodulate_frame,
    modulate_frame,
    pilot_matrix,
    qam16_demap,
    qam16_map,
)
from ofdmlink.harness import MAX_CHUNK_SAMPLES, ScenarioConfig
from ofdmlink.numerics import ConfigurationError, RandomSource, logical_to_bin


class TestSubcarrierMap:
    def test_standard_counts(self):
        smap = build_subcarrier_map(64)
        assert smap.data_bins.size == 48
        assert smap.pilot_bins.size == 4
        assert smap.null_bins.size == 12

    def test_standard_placement(self):
        smap = build_subcarrier_map(64)
        assert set(smap.pilot_bins) == {-21, -7, 7, 21}
        assert set(smap.null_bins) == {0} | set(range(-32, -26)) | set(range(27, 32))

    def test_partition(self):
        smap = build_subcarrier_map(64)
        all_bins = np.concatenate([smap.data_bins, smap.pilot_bins, smap.null_bins])
        assert all_bins.size == 64
        assert set(all_bins) == set(range(-32, 32))

    def test_pilot_mirror_symmetry(self):
        smap = build_subcarrier_map(64)
        assert set(smap.pilot_bins) == {-k for k in smap.pilot_bins}

    def test_used_set_mirror_symmetry(self):
        smap = build_subcarrier_map(64)
        used = smap.used_bins
        np.testing.assert_array_equal(used, -used[::-1])

    def test_scaled_layout_partitions(self):
        for n in (32, 128, 256):
            smap = build_subcarrier_map(n)
            all_bins = np.concatenate([smap.data_bins, smap.pilot_bins, smap.null_bins])
            assert set(all_bins) == set(range(-n // 2, n // 2))
            assert 0 in smap.null_bins

    def test_rejects_bad_sizes(self):
        for n in (8, 48, 100):
            with pytest.raises(ConfigurationError):
                build_subcarrier_map(n)


class TestQam16:
    def test_round_trip_all_symbols(self):
        bits = np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)])
        np.testing.assert_array_equal(qam16_demap(qam16_map(bits)), bits.reshape(-1))

    def test_unit_average_energy(self):
        bits = np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)])
        assert np.mean(np.abs(qam16_map(bits)) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_gray_neighbors_differ_by_one_bit(self):
        bits = np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)])
        pts = qam16_map(bits)
        d = np.abs(pts[:, None] - pts[None, :])
        step = np.min(d[d > 1e-9])
        for i in range(16):
            for j in range(16):
                if abs(d[i, j] - step) < 1e-9:
                    assert np.sum(bits[i] != bits[j]) == 1

    def test_demap_is_nearest_neighbor(self):
        bits = np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)])
        pts = qam16_map(bits)
        rng = np.random.default_rng(3)
        noisy = rng.normal(size=200) + 1j * rng.normal(size=200)
        got = qam16_demap(noisy).reshape(-1, 4)
        nearest = np.argmin(np.abs(noisy[:, None] - pts[None, :]), axis=1)
        np.testing.assert_array_equal(got, bits[nearest])

    def test_specific_noisy_symbol(self):
        bits = np.array([[b >> 3 & 1, b >> 2 & 1, b >> 1 & 1, b & 1] for b in range(16)])
        pts = qam16_map(bits)
        target = 0.9 + 0.2j
        expected = bits[np.argmin(np.abs(pts - target))]
        np.testing.assert_array_equal(qam16_demap(np.array([target])), expected)

    def test_demap_equals_digitize(self):
        # the comparisons give digitize's level everywhere: on finite values,
        # at and next to each threshold, on +-0, +-inf and on NaN (the top
        # level), on each axis alone and mixed across the two
        gray = np.array([[0, 0], [0, 1], [1, 1], [1, 0]], dtype=np.uint8)  # bits of the ascending levels
        assert np.all(np.diff(qam16_map(np.concatenate([gray, gray], axis=-1)).real) > 0)
        rng = np.random.default_rng(4)
        edges = np.concatenate([_THRESHOLDS, np.nextafter(_THRESHOLDS, -np.inf),
                                np.nextafter(_THRESHOLDS, np.inf)])
        x = np.concatenate([rng.normal(size=500), edges, -edges, [0.0, -0.0, np.inf, -np.inf, np.nan]])

        def symbols(re, im):  # not re + 1j * im, which makes 1j * inf a NaN real part
            s = np.empty(re.shape, dtype=complex)
            s.real, s.imag = re, im
            return s

        def oracle(re, im):
            axes = [gray[np.digitize(v, _THRESHOLDS)] for v in (re, im)]
            return np.concatenate(axes, axis=-1).reshape(-1)

        grid_re, grid_im = (v.reshape(-1) for v in np.meshgrid(x[500:], x[500:]))
        zeros = np.zeros_like(x)
        for re, im in ((x, zeros), (zeros, x), (x, rng.permutation(x)), (grid_re, grid_im)):
            np.testing.assert_array_equal(qam16_demap(symbols(re, im)), oracle(re, im))
        nan = qam16_demap(np.array([complex(np.nan, np.nan)]))
        np.testing.assert_array_equal(nan, np.tile(gray[-1], 2))

    def test_bit_count_validated(self):
        with pytest.raises(ConfigurationError):
            qam16_map(np.array([1, 0, 1]))


class TestPreamble:
    @pytest.mark.parametrize("m_t", [1, 2, 3, 4])
    def test_one_antenna_per_used_bin(self, m_t):
        smap = build_subcarrier_map(64)
        pre = build_preamble(m_t, smap)
        for t in (pre.t1, pre.t2):
            assert (np.count_nonzero(t, axis=1) <= 1).all()
        used_rows = logical_to_bin(pre.used, 64)
        assert (np.count_nonzero(pre.t1[used_rows], axis=1) == 1).all()

    def test_adjacent_bins_alternate_antennas(self):
        smap = build_subcarrier_map(64)
        pre = build_preamble(2, smap)
        assert (pre.owner[:-1] != pre.owner[1:]).all()
        np.testing.assert_array_equal(pre.owner, np.arange(52) % 2)

    def test_same_owner_in_both_symbols(self):
        smap = build_subcarrier_map(64)
        pre = build_preamble(3, smap)
        nz1 = pre.t1 != 0
        nz2 = pre.t2 != 0
        np.testing.assert_array_equal(nz1, nz2)

    def test_second_symbol_sign_split(self):
        smap = build_subcarrier_map(64)
        pre = build_preamble(2, smap)
        ratio = pre.lambda2 / pre.lambda1
        np.testing.assert_allclose(ratio[pre.used > 0], -1.0)
        np.testing.assert_allclose(ratio[pre.used < 0], 1.0)

    def test_training_values_unit_modulus(self):
        smap = build_subcarrier_map(64)
        pre = build_preamble(4, smap)
        np.testing.assert_allclose(np.abs(pre.lambda1), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(pre.lambda2), 1.0, atol=1e-12)

    def test_training_values_conjugate_symmetric(self):
        # the used bins are mirror-symmetric, so -k sits at the reversed index of k
        smap = build_subcarrier_map(64)
        pre = build_preamble(2, smap)
        np.testing.assert_array_equal(pre.used[::-1], -pre.used)
        np.testing.assert_array_equal(pre.lambda1[::-1], np.conj(pre.lambda1))

    def test_null_rows_stay_zero(self):
        smap = build_subcarrier_map(64)
        pre = build_preamble(2, smap)
        nulls = logical_to_bin(smap.null_bins, 64)
        assert not pre.t1[nulls].any()
        assert not pre.t2[nulls].any()

    def test_deterministic_given_seed(self):
        # the training values come from the fixed framing.TRAINING_SEED
        smap = build_subcarrier_map(64)
        a = build_preamble(2, smap)
        b = build_preamble(2, smap)
        np.testing.assert_array_equal(a.t1, b.t1)

    def test_uneven_split_counts(self):
        # 52 used bins over 3 antennas: some antennas get one extra bin.
        smap = build_subcarrier_map(64)
        pre = build_preamble(3, smap)
        counts = np.bincount(pre.owner)
        assert counts.sum() == 52
        assert counts.max() - counts.min() <= 1


class TestShortSymbol:
    def test_null_bins_zero(self):
        smap = build_subcarrier_map(64)
        grid = build_short_symbol(smap, 2)
        assert not grid[logical_to_bin(smap.null_bins, 64)].any()

    def test_occupied_bins_unit_modulus(self):
        smap = build_subcarrier_map(64)
        grid = build_short_symbol(smap, 2)
        used = logical_to_bin(smap.used_bins, 64)
        np.testing.assert_allclose(np.abs(grid[used]), 1.0, atol=1e-12)

    def test_null_bin_noise_variance(self):
        # Noise-only receive: demodulated null-bin samples have the
        # frequency-domain noise variance N * sigma_t^2.
        smap = build_subcarrier_map(64)
        rng = RandomSource(55).child("awgn")
        sigma2 = 0.05
        samples = []
        for i in range(300):
            noise = rng.complex_normal(var=sigma2, size=(80, 1))
            grid = demodulate_frame(noise, 64, 16, 1)[0]
            samples.append(grid[logical_to_bin(smap.null_bins, 64), 0])
        var = np.mean(np.abs(np.concatenate(samples)) ** 2)
        assert var == pytest.approx(64 * sigma2, rel=0.05)


class TestOfdmModulation:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        grid = rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))
        got = demodulate_frame(modulate_frame(grid[None], 16), 64, 16, 1)[0]
        np.testing.assert_allclose(got, grid, atol=1e-12)

    def test_prefix_copies_tail(self):
        rng = np.random.default_rng(7)
        grids = rng.normal(size=(5, 64, 2)) + 1j * rng.normal(size=(5, 64, 2))
        t = modulate_frame(grids, 16).reshape(5, 80, 2)
        np.testing.assert_array_equal(t[:, :16], t[:, 64:80])

    @pytest.mark.parametrize("m", [1, 2, 4])
    @pytest.mark.parametrize("n_cp", [0, 16])
    def test_frame_transforms_equal_per_symbol_fft(self, m, n_cp):
        rng = np.random.default_rng(10 + m)
        grids = rng.normal(size=(6, 64, m)) + 1j * rng.normal(size=(6, 64, m))
        per_symbol = []
        for g in grids:
            t = np.fft.ifft(g, axis=0)
            per_symbol += [t[64 - n_cp :], t]
        stream = modulate_frame(grids, n_cp)
        assert np.array_equal(stream, np.concatenate(per_symbol))
        # noise on every sample, and a channel tail beyond the last symbol
        per = 64 + n_cp
        rx = np.concatenate([stream, np.zeros((6, m))]) + rng.normal(size=(6 * per + 6, m))
        expected = np.stack([np.fft.fft(rx[i * per + n_cp : (i + 1) * per], axis=0) for i in range(6)])
        assert np.array_equal(demodulate_frame(rx, 64, n_cp, 6), expected)

    def test_frame_round_trip(self):
        rng = np.random.default_rng(8)
        grids = rng.normal(size=(5, 64, 2)) + 1j * rng.normal(size=(5, 64, 2))
        stream = modulate_frame(grids, 16)
        assert stream.shape == (5 * 80, 2)
        np.testing.assert_allclose(demodulate_frame(stream, 64, 16, 5), grids, atol=1e-12)

    def test_short_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            demodulate_frame(np.zeros((100, 1), dtype=complex), 64, 16, 2)


class TestAssembleFrame:
    def _frame(self, m_t=2, symbols=50):
        smap = build_subcarrier_map(64)
        pre = build_preamble(m_t, smap)
        bits = RandomSource(9).child("payload").integers(
            0, 2, size=(symbols - N_TRAIN) * 48 * m_t * 4
        )
        pilots = pilot_matrix(m_t)
        grids, bits = assemble_frame(smap, bits, pre, build_short_symbol(smap, m_t), pilots)
        return smap, pre, pilots, grids, bits

    def test_symbol_budget(self):
        _, _, _, grids, bits = self._frame()
        assert grids.shape == (50, 64, 2)
        assert bits.shape == (47, 48, 2, 4)

    def test_training_symbols_in_place(self):
        smap, pre, _, grids, _ = self._frame()
        np.testing.assert_array_equal(grids[1], pre.t1)
        np.testing.assert_array_equal(grids[2], pre.t2)
        nulls = logical_to_bin(smap.null_bins, 64)
        assert not grids[0][nulls].any()

    def test_pilot_bins_carry_pilots(self):
        smap, _, pilots, grids, _ = self._frame()
        pbin = logical_to_bin(smap.pilot_bins, 64)
        for m in range(3, 50):
            np.testing.assert_array_equal(grids[m][pbin], pilots.T)

    def test_payload_round_trips_through_loopback(self):
        smap, _, _, grids, bits = self._frame()
        rx = demodulate_frame(modulate_frame(grids, 16), 64, 16, 50)
        dbin = logical_to_bin(smap.data_bins, 64)
        got = qam16_demap(rx[3:, dbin]).reshape(bits.shape)
        np.testing.assert_array_equal(got, bits)

    def test_payload_size_validated(self):
        # the payload sets the data symbols: whole ones of 48 * 2 * 4 bits, at least one
        smap = build_subcarrier_map(64)
        pre = build_preamble(2, smap)
        for size in (0, 100, 48 * 2 * 4 + 1):
            with pytest.raises(ConfigurationError):
                assemble_frame(
                    smap, np.zeros(size, dtype=int), pre, build_short_symbol(smap, 2), pilot_matrix(2)
                )

    def test_pilot_matrix_orthogonal_rows(self):
        p = pilot_matrix(4)
        np.testing.assert_allclose(p @ p.conj().T, 4 * np.eye(4), atol=1e-12)
        with pytest.raises(ConfigurationError):
            pilot_matrix(5)

    def test_frame_config_validation(self):
        # the frame's checks run in ScenarioConfig, before its layout is built
        for fields in (
            dict(symbols_per_frame=3), dict(m_t=0), dict(m_r=0), dict(n_cp=-1), dict(n_cp=65),
        ):
            with pytest.raises(ConfigurationError):
                ScenarioConfig(**fields)

    def test_frame_samples_bounded(self):
        # symbols * (n + n_cp) * m_r; a chunk holds at least one frame, so the
        # chunk bound refuses a frame beyond it; only the config is built, no frame
        most = MAX_CHUNK_SAMPLES // 80  # symbols of 64 + 16 samples on one branch
        ScenarioConfig(m_t=1, m_r=1, n=64, n_cp=16, symbols_per_frame=most)
        ScenarioConfig(m_t=1, m_r=most // 50, n=64, n_cp=16, symbols_per_frame=50)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(m_t=1, m_r=1, n=64, n_cp=16, symbols_per_frame=most + 1)
        with pytest.raises(ConfigurationError):
            ScenarioConfig(m_t=1, m_r=most // 50 + 1, n=64, n_cp=16, symbols_per_frame=50)
